import math

import numpy as np
import pytest

from safestab import (
    Box,
    BoxComplement,
    DistanceIndicator,
    EmptySetError,
    GridSizeError,
    MaskSet,
    ProperIndicator,
    Sublevel,
    Union,
    make_grid,
    parse_scalar_field,
)


class TestMembership:
    def test_interval(self):
        assert Box((-1.0,), (-0.9,)).contains([-0.95])
        assert not Box((-1.0,), (-0.9,)).contains([-0.85])

    def test_unbounded_unsafe_halfline(self):
        U = BoxComplement(Box((-math.inf,), (0.6,)))
        assert not U.contains([0.5])
        assert U.contains([0.6])  # closed at the boundary
        assert U.contains([10.0])

    def test_union_gap(self):
        u = Union((Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
        assert not u.contains([1.5])
        assert u.contains([0.5]) and u.contains([2.5])

    def test_sublevel(self):
        disk = Sublevel(parse_scalar_field("x^2 + y^2", ["x", "y"]), 1.0)
        assert disk.contains([0.5, 0.5])
        assert not disk.contains([1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0,)).contains([0.5, 0.5])


class TestDistance:
    def test_clamp_formula(self):
        A = Box((-0.2071,), (0.5,))
        assert abs(A.dist([0.7]) - 0.2) < 1e-12

    def test_inside_is_zero(self):
        A = Box((-0.2071,), (0.5,))
        assert A.dist([0.1]) == 0.0

    def test_zero_iff_member_for_boxes(self, rng):
        B = Box((-1.0, 0.5), (1.0, 2.0))
        pts = rng.uniform(-2, 3, size=(200, 2))
        d = B.dist_many(pts)
        m = B.contains_many(pts)
        assert np.array_equal(d == 0.0, m)

    def test_disk_multistart(self):
        disk = Sublevel(parse_scalar_field("x^2 + y^2", ["x", "y"]), 1.0)
        assert abs(disk.dist([2.0, 0.0]) - 1.0) < 1e-4
        assert not disk.exact_distance

    def test_triangle_inequality_exact_sets(self, rng):
        S = Union((Box((-1.0,), (-0.5,)), Box((0.5,), (1.0,))))
        xs = rng.uniform(-2, 2, size=(100, 1))
        ys = rng.uniform(-2, 2, size=(100, 1))
        dx = S.dist_many(xs)
        dy = S.dist_many(ys)
        gap = np.abs(dx - dy)
        sep = np.abs(xs - ys).ravel()
        assert np.all(gap <= sep + 1e-12)

    def test_complement_distance(self):
        U = BoxComplement(Box((-1.0,), (1.0,)))
        assert U.dist([2.0]) == 0.0       # already in the complement region
        assert abs(U.dist([0.25]) - 0.75) < 1e-12


class TestGrid:
    def test_unit_interval_quarters(self):
        g = make_grid(Box((0.0,), (1.0,)), 0.25)
        np.testing.assert_allclose(g.centers_1d[0], [0.125, 0.375, 0.625, 0.875])

    def test_square(self):
        g = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 0.5)
        assert g.size == 4

    def test_size_cap(self):
        with pytest.raises(GridSizeError) as err:
            make_grid(Box((0.0,), (1.0,)), 1e-9)
        assert "coarsen" in str(err.value)

    def test_cover_property(self, rng):
        g = make_grid(Box((-1.0, 0.0), (2.0, 1.0)), 0.3)
        pts = rng.uniform([-1, 0], [2, 1], size=(100, 2))
        flat, inside = g.cell_index_many(pts)
        assert inside.all()
        centers = g.point_of(flat)
        assert np.all(np.sqrt(np.sum((pts - centers) ** 2, axis=1)) <= g.cell_radius + 1e-12)

    def test_select_and_mask_roundtrip(self):
        g = make_grid(Box((0.0,), (1.0,)), 0.1)
        idx = g.select(Box((0.0,), (0.351,)))
        np.testing.assert_allclose(g.point_of(idx).ravel(), [0.05, 0.15, 0.25, 0.35])
        mask = np.zeros(g.size, dtype=bool)
        mask[idx] = True
        ms = MaskSet(g, mask)
        assert ms.contains([0.2]) and not ms.contains([0.6])
        hull = ms.hull_box()
        assert hull.lo[0] == pytest.approx(0.0) and hull.hi[0] == pytest.approx(0.4)

    def test_dilate_1d(self):
        g = make_grid(Box((0.0,), (1.0,)), 0.1)
        mask = np.zeros(g.size, dtype=bool)
        mask[5] = True
        out = g.dilate(mask, 1)
        assert set(np.nonzero(out)[0]) == {4, 5, 6}
        edge = np.zeros(g.size, dtype=bool)
        edge[0] = True
        assert set(np.nonzero(g.dilate(edge, 2))[0]) == {0, 1, 2}

    def test_points_read_only(self):
        g = make_grid(Box((0.0,), (1.0,)), 0.25)
        with pytest.raises(ValueError):
            g.points[0, 0] = 5.0


class TestProperIndicator:
    def test_point_target_in_interval(self):
        om = ProperIndicator(Box((0.0,), (0.0,)), Box((-1.0,), (1.0,)))
        assert om.dist_A_to_Dc == pytest.approx(1.0)
        assert om.value([0.0]) == 0.0
        assert om.value([0.5]) == pytest.approx(0.5)   # max(0.5, 1/0.5 - 2) = 0.5
        assert om.value([0.9]) == pytest.approx(8.0)   # max(0.9, 1/0.1 - 2) = 8

    def test_no_domain_reduces_to_distance(self):
        om = DistanceIndicator(Box((0.0,), (0.0,)))
        assert om.value([0.7]) == pytest.approx(0.7)
        assert math.isinf(om.dist_A_to_Dc)

    def test_requires_strict_inclusion(self):
        with pytest.raises(ValueError):
            ProperIndicator(Box((-1.0,), (1.0,)), Box((-1.0,), (1.0,)))

    def test_axioms_on_grid(self):
        A = Box((-0.2,), (0.3,))
        D = Box((-1.0,), (1.0,))
        om = ProperIndicator(A, D)
        g = make_grid(D, 0.01)
        vals = om.value_many(g.points)
        members = A.contains_many(g.points)
        assert np.all(vals >= 0.0)
        assert np.array_equal(vals == 0.0, members)
        # along the ray toward the boundary the indicator is eventually
        # monotone and exceeds any fixed threshold before the last cell
        right = g.points[:, 0] > 0.3
        ray = vals[right]
        tail = ray[-30:]
        assert np.all(np.diff(tail) > 0)
        assert ray[-1] > 50.0

    def test_nested_box_gap_and_sampled_gap_agree(self):
        A = Box((-0.25, -0.25), (0.25, 0.25))
        D = Box((-1.0, -1.0), (1.0, 1.0))
        exact = ProperIndicator(A, D).dist_A_to_Dc
        assert exact == pytest.approx(0.75)

    def test_mask_set_target(self):
        g = make_grid(Box((-1.0,), (1.0,)), 0.05)
        mask = np.zeros(g.size, dtype=bool)
        mask[g.select(Box((-0.2,), (0.2,)))] = True
        om = ProperIndicator(MaskSet(g, mask), Box((-1.0,), (1.0,)))
        assert om.dist_A_to_Dc > 0.5
        assert om.value([0.0]) == 0.0


def test_empty_union_rejected():
    with pytest.raises(EmptySetError):
        Union(())
