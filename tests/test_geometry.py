import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safestab import geometry
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


def column(*xs):
    """The 1-D points xs as an (n, 1) array."""
    return np.array(xs, dtype=float)[:, None]


class TestMembership:
    def test_interval(self):
        assert Box((-1.0,), (-0.9,)).contains_many(column(-0.95, -0.85)).tolist() == [True, False]

    def test_unbounded_unsafe_halfline(self):
        U = BoxComplement(Box((-math.inf,), (0.6,)))
        # closed at the boundary
        assert U.contains_many(column(0.5, 0.6, 10.0)).tolist() == [False, True, True]

    def test_union_gap(self):
        u = Union((Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
        assert u.contains_many(column(1.5, 0.5, 2.5)).tolist() == [False, True, True]

    def test_sublevel(self):
        disk = Sublevel(parse_scalar_field("x^2 + y^2", ["x", "y"]), 1.0)
        assert disk.contains_many(np.array([[0.5, 0.5], [1.0, 1.0]])).tolist() == [True, False]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0,)).contains_many(np.array([[0.5, 0.5]]))


class TestDistance:
    def test_clamp_formula(self):
        A = Box((-0.2071,), (0.5,))
        assert abs(A.dist_many(column(0.7))[0] - 0.2) < 1e-12

    def test_inside_is_zero(self):
        A = Box((-0.2071,), (0.5,))
        assert A.dist_many(column(0.1))[0] == 0.0

    def test_zero_iff_member_for_boxes(self, rng):
        B = Box((-1.0, 0.5), (1.0, 2.0))
        pts = rng.uniform(-2, 3, size=(200, 2))
        d = B.dist_many(pts)
        m = B.contains_many(pts)
        assert np.array_equal(d == 0.0, m)

    @pytest.mark.parametrize("S", [
        Sublevel(parse_scalar_field("x^2 + y^2", ["x", "y"]), 1.0),
        Union((Box((2.0, 2.0), (3.0, 3.0)),
               Sublevel(parse_scalar_field("x^2 + y^2", ["x", "y"]), 1.0))),
    ], ids=["sublevel", "union-with-sublevel"])
    def test_sublevel_has_no_distance(self, S):
        assert not S.exact_distance
        with pytest.raises(ValueError, match="Sublevel"):
            S.dist_many(np.array([[2.0, 0.0]]))
        with pytest.raises(ValueError, match="Sublevel"):
            DistanceIndicator(S)

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
        d = U.dist_many(column(2.0, 0.25))
        assert d[0] == 0.0       # already in the complement region
        assert abs(d[1] - 0.75) < 1e-12

    def test_mask_set_distance_is_exact_in_2d(self, rng, monkeypatch):
        """A grid mask set's distance is the distance to the union of its
        closed cells, not the nearest centre less the half-diagonal."""
        one = MaskSet(make_grid(Box((-0.05, -0.05), (0.05, 0.05)), 0.1), np.ones(1, dtype=bool))
        assert one.exact_distance
        assert one.dist_many(np.array([[0.15, 0.0]]))[0] == pytest.approx(0.1, rel=1e-12)

        g = make_grid(Box((-1.0, 0.0), (1.0, 1.5)), 0.5)
        mask = rng.random(g.size) < 0.4
        ms = MaskSet(g, mask)
        half = 0.5 * g.widths
        cells = Union(tuple(Box(tuple(c - half), tuple(c + half)) for c in g.points[mask]))
        pts = rng.uniform(-2.0, 2.5, size=(300, 2))
        # 7 points per chunk, so the points span many chunks
        monkeypatch.setattr(geometry, "_MASK_DIST_CHUNK", 7 * mask.sum() * 2)
        np.testing.assert_allclose(ms.dist_many(pts), cells.dist_many(pts), rtol=0, atol=1e-12)


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
        assert ms.contains_many(column(0.2, 0.6)).tolist() == [True, False]
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
        vals = om.value_many(column(0.0, 0.5, 0.9))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(0.5)   # max(0.5, 1/0.5 - 2) = 0.5
        assert vals[2] == pytest.approx(8.0)   # max(0.9, 1/0.1 - 2) = 8

    def test_no_domain_reduces_to_distance(self):
        om = DistanceIndicator(Box((0.0,), (0.0,)))
        assert om.value_many(column(0.7))[0] == pytest.approx(0.7)
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
        assert om.value_many(column(0.0))[0] == 0.0



def _excluded_box(n):
    return Box(tuple(-1.0 - 0.1 * i for i in range(n)), tuple(1.0 + 0.2 * i for i in range(n)))


def _box_beyond(B, gaps):
    """A box at gap g_i beyond B on the axes with a gap (alternately past
    the upper and the lower face) and inside B's extent on the others."""
    lo, hi = [], []
    for i, (bl, bh) in enumerate(zip(B.lo, B.hi)):
        g = gaps[i] if i < len(gaps) else None
        if g is None:
            lo.append(bl + 0.3)
            hi.append(bh - 0.4)
        elif i % 2 == 0:
            lo.append(bh + g)
            hi.append(bh + g + 0.5)
        else:
            lo.append(bl - g - 0.7)
            hi.append(bl - g)
    return Box(tuple(lo), tuple(hi))


def _box_to_box(A, B):
    """Euclidean distance between two boxes, from their coordinates."""
    return math.sqrt(sum(max(bl - ah, al - bh, 0.0) ** 2
                         for al, ah, bl, bh in zip(A.lo, A.hi, B.lo, B.hi)))


class TestClosedFormGap:
    @pytest.mark.parametrize("n, gaps", [
        (1, (0.37,)),
        (2, (0.37,)), (2, (0.37, 0.11)),
        (3, (0.37,)), (3, (0.37, 0.11, 0.23)),
        (4, (0.05,)), (4, (0.37, 0.11, 0.23, 0.05)),
    ], ids=["1d", "2d-face", "2d-corner", "3d-face", "3d-corner", "4d-face", "4d-corner"])
    def test_box_in_complement_box(self, n, gaps):
        B = _excluded_box(n)
        A = _box_beyond(B, gaps)
        om = ProperIndicator(A, BoxComplement(B))
        want = _box_to_box(A, B)
        assert want == pytest.approx(math.sqrt(sum(g * g for g in gaps)), rel=1e-14)
        assert om.dist_A_to_Dc == pytest.approx(want, rel=1e-15)
        # omega vanishes on A and grows without bound toward the excluded box
        assert om.value_many(np.array([A.lo, B.hi])).tolist() == [0.0, math.inf]

    def test_union_in_complement_box(self):
        B = _excluded_box(2)
        near, far = _box_beyond(B, (0.25, 0.2)), _box_beyond(B, (0.4,))
        om = ProperIndicator(Union((far, near)), BoxComplement(B))
        assert om.dist_A_to_Dc == pytest.approx(_box_to_box(near, B), rel=1e-15)

    def test_mask_set_in_box_is_its_hull_gap(self):
        D = Box((-1.0, -1.0), (1.0, 1.0))
        g = make_grid(D, 0.05)
        mask = np.zeros(g.size, dtype=bool)
        mask[g.select(Box((-0.2, -0.3), (0.25, 0.1)))] = True
        # the marked cells span [-0.2, 0.25] x [-0.3, 0.1]; the bottom face is nearest
        assert ProperIndicator(MaskSet(g, mask), D).dist_A_to_Dc == pytest.approx(0.7, rel=1e-15)

    def test_mask_set_in_complement_box_is_its_hull_gap(self):
        B = Box((-1.0,), (0.0,))
        g = make_grid(Box((0.0,), (2.0,)), 0.1)
        mask = np.zeros(g.size, dtype=bool)
        mask[[5, 9]] = True  # cells [0.5, 0.6] and [0.9, 1.0]; the hull is [0.5, 1.0]
        assert ProperIndicator(MaskSet(g, mask), BoxComplement(B)).dist_A_to_Dc == \
            pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("A, D, kind", [
        (Box((0.0,), (0.1,)), Sublevel(parse_scalar_field("x^2", ["x"]), 1.0), "Sublevel"),
        (Box((0.0,), (0.1,)), Union((Box((-1.0,), (1.0,)), Box((2.0,), (3.0,)))), "Union"),
        (Box((0.0,), (0.1,)),
         MaskSet(make_grid(Box((-1.0,), (1.0,)), 0.5), np.ones(4, dtype=bool)), "MaskSet"),
        (BoxComplement(Box((-1.0,), (1.0,))), Box((-2.0,), (2.0,)), "BoxComplement"),
        (Sublevel(parse_scalar_field("x^2", ["x"]), 0.25), Box((-2.0,), (2.0,)), "Sublevel"),
    ], ids=["sublevel-D", "union-D", "mask-D", "complement-A", "sublevel-A"])
    def test_pair_without_closed_form_rejected(self, A, D, kind):
        with pytest.raises(ValueError, match=kind):
            ProperIndicator(A, D)


class TestWithin:
    def test_box_within_is_euclidean(self):
        member = Box((0.0, 0.0), (1.0, 1.0)).within(0.5)
        pts = np.array([[1.3, 1.3], [1.4, 1.4], [0.5, -0.5]])
        assert member(pts).tolist() == [True, False, True]

    def test_mask_set_within_dilates_whole_cells(self):
        g = make_grid(Box((0.0,), (1.0,)), 0.1)
        mask = np.zeros(g.size, dtype=bool)
        mask[5] = True
        member = MaskSet(g, mask).within(0.15)  # rounded up to two cells
        pts = g.points[:, :1]
        assert np.nonzero(member(pts))[0].tolist() == [3, 4, 5, 6, 7]

    def test_sublevel_within_is_membership(self):
        member = Sublevel(parse_scalar_field("x^2", ["x"]), 1.0).within(0.5)
        assert member(np.array([[1.0], [1.2]])).tolist() == [True, False]

def test_empty_union_rejected():
    with pytest.raises(EmptySetError):
        Union(())


@st.composite
def _grids(draw):
    dim = draw(st.integers(1, 3))
    lo = draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim))
    extent = draw(st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim))
    cells = draw(st.lists(st.integers(1, 40), min_size=dim, max_size=dim))
    # per-axis resolutions that need not divide the extents evenly
    res = [e / c * draw(st.floats(0.7, 1.3)) for e, c in zip(extent, cells)]
    return make_grid(Box(tuple(lo), tuple(a + e for a, e in zip(lo, extent))), res)


@settings(max_examples=200, deadline=None)
@given(_grids(), st.data())
def test_cell_index_of_cell_center_round_trips(grid, data):
    idx = np.asarray(data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=50)))
    flat, inside = grid.cell_index_many(grid.point_of(idx))
    assert inside.all()
    np.testing.assert_array_equal(flat, idx)
