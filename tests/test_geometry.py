import io
import json
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
from safestab.certify import CertificateReport, ConditionResult
from safestab.converse import LyapunovValidation
from safestab.geometry import REPORT_ITEMS, as_report
from safestab.reach import Counterexample, SpecVerdict, UASProbeReport


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

    @pytest.mark.parametrize("lo, hi", [((math.nan,), (1.0,)), ((0.0, 0.0), (1.0, math.nan)),
                                        ((1.0,), (0.0,))])
    def test_box_corner_must_be_ordered(self, lo, hi):
        """A NaN corner would build a box that contains nothing and whose
        distance is NaN, so it is refused like a reversed one."""
        with pytest.raises(ValueError, match=r"box corner lo=.*, hi=.* is not lo <= hi"):
            Box(lo, hi)

    def test_sublevel_level_must_be_a_number(self):
        with pytest.raises(ValueError, match="level=nan"):
            Sublevel(parse_scalar_field("x^2", ["x"]), math.nan)


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

    def test_non_finite_point_is_not_within_a_bounded_box(self):
        A = Box((0.0,), (1.0,))
        d = A.dist_many(column(math.inf, -math.inf, math.nan, 0.5))
        assert d[:2].tolist() == [math.inf, math.inf] and math.isnan(d[2]) and d[3] == 0.0
        assert A.within(0.1)(column(math.inf, math.nan, 1.05)).tolist() == [False, False, True]
        # an open side still never binds for a finite point
        assert Box((-math.inf,), (0.6,)).dist_many(column(-1e300, 0.7)) == pytest.approx([0, 0.1])

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


@pytest.mark.parametrize("work_rows", [1 << 16, 3], ids=["kept", "own"])
def test_hot_predicates_return_fresh_results(rng, monkeypatch, work_rows):
    """Box, Grid and the tolerant-membership predicates reuse work arrays
    (up to _WORK_ROWS rows), but what a call returns is never overwritten
    by the next call."""
    monkeypatch.setattr(geometry, "_WORK_ROWS", work_rows)
    B = Box((-1.0, 0.5), (1.0, 2.0))
    g = make_grid(B, 0.25)
    a, b = rng.uniform(-2, 3, size=(2, 50, 2))
    calls = [B.contains_many, B.contains_interior_many, B.dist_many, B.depth_many,
             B.within(0.5), BoxComplement(B).within(0.5),
             ProperIndicator(Box((0.0, 1.0), (0.5, 1.5)), B).value_many,
             lambda X: g.cell_index_many(X)[0], lambda X: g.cell_index_many(X)[1]]
    for call in calls:
        first = call(a)
        kept = first.copy()
        call(b)
        np.testing.assert_array_equal(first, kept)
    flat, inside = g.cell_index_many(a)
    assert np.array_equal(inside, B.contains_many(a)) and np.all((flat >= 0) == inside)


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

    @pytest.mark.parametrize("shape", [(7, 5), (5, 4, 6)])
    @pytest.mark.parametrize("cells", [0, 1, 2, 3])
    def test_dilate_matches_chebyshev_reference(self, shape, cells):
        g = make_grid(Box((0.0,) * len(shape), tuple(0.5 * k for k in shape)), 0.5)
        assert g.shape == shape
        rng = np.random.default_rng(cells + 10 * len(shape))
        mask = rng.random(g.size) < 0.06
        mask[0] = mask[-1] = True  # two opposite corners
        before = mask.copy()
        # brute force: a cell within Chebyshev index distance `cells` of a marked one
        index = np.rint(g.points / g.widths - 0.5).astype(int)
        gap = np.abs(index[:, None, :] - index[None, mask, :]).max(axis=2)
        expected = (gap <= cells).any(axis=1)
        np.testing.assert_array_equal(g.dilate(mask, cells), expected)
        np.testing.assert_array_equal(mask, before)

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

    @pytest.mark.parametrize("D_kind", ["box", "complement"])
    def test_bitwise_equal_to_closed_form(self, D_kind):
        """omega on points in A, on the boundary of D (-0.0 on a face at +0.0
        included), outside D, at +-inf and at NaN equals the closed form
        computed with plain numpy temporaries, bit for bit."""
        A = Box((0.25, 0.5), (0.5, 0.75))
        if D_kind == "box":
            D = Box((0.0, 0.0), (1.0, 2.0))
            lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
            depth_of = lambda X: np.maximum(np.min(np.minimum(X - lo, hi - X), axis=1), 0.0)
        else:  # R^2 minus [2, 3] x [-1, 1]: the depth is the distance to that box
            D = BoxComplement(Box((2.0, -1.0), (3.0, 1.0)))
            lo, hi = np.array([2.0, -1.0]), np.array([3.0, 1.0])
            depth_of = lambda X: np.sqrt(np.sum(
                np.maximum(np.maximum(lo - X, X - hi), 0.0) ** 2, axis=1))
        om = ProperIndicator(A, D)
        inf, nan = math.inf, math.nan
        X = np.array([
            [0.3, 0.6], [0.25, 0.75], [0.5, 0.5],                   # in A
            [0.0, 1.0], [-0.0, 1.0], [1.0, 2.0], [0.5, 0.0],        # on the boundary of D
            [2.0, 0.0], [3.0, -1.0], [2.5, 1.0],
            [1.5, 1.0], [-1.0, 3.0], [2.5, 0.0],                    # outside D
            [0.9, 1.9], [1e-300, 1.0], [0.1, 0.1],                  # near the boundary
            [inf, 0.5], [-inf, 0.5], [0.5, inf], [inf, -inf],
            [nan, 0.5], [0.5, nan], [nan, nan],
        ])
        rng = np.random.default_rng(5)
        X = np.concatenate([X, rng.uniform(-1.0, 4.0, size=(500, 2))])
        with np.errstate(divide="ignore", invalid="ignore"):
            depth = depth_of(X)
            boundary = np.where(depth > 0.0, 1.0 / depth, np.inf) - 2.0 / om.dist_A_to_Dc
            expected = np.maximum(A.dist_many(X), boundary)
            got = om.value_many(X)
        assert got.tobytes() == expected.tobytes()
        on_boundary = slice(3, 7) if D_kind == "box" else slice(7, 10)
        assert np.all(got[on_boundary] == math.inf) and np.isnan(got[20:23]).all()



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


class TestAsReport:
    def test_record_lists_are_cut_and_counted(self):
        ces = [Counterexample((float(i),), "zero", 1.0, "escape") for i in range(60)]
        out = as_report(SpecVerdict("ras", "no", None, ces))
        assert list(out) == ["spec", "satisfied", "witness_T", "counterexamples",
                             "n_counterexamples", "details", "semantics"]
        assert len(out["counterexamples"]) == REPORT_ITEMS == 50
        assert out["n_counterexamples"] == 60
        assert out["counterexamples"][7] == {"x0": [7.0], "policy": "zero", "time": 1.0,
                                             "kind": "escape", "value": None}

    def test_tables_are_written_whole(self):
        eps_table = [(0.01 * (i + 1), 0.005 * (i + 1)) for i in range(60)]
        out = as_report(UASProbeReport(eps_table, None, [(0.1, math.inf), (0.2, 3.5)],
                                       "violated", [], 1e-3, 10.0))
        assert out["eps_table"] == [list(row) for row in eps_table]
        assert out["attractivity"] == [[0.1, None], [0.2, 3.5]]
        assert "n_eps_table" not in out and "n_attractivity" not in out
        assert out["n_counterexamples"] == 0

    def test_passed_comes_first(self):
        cond = ConditionResult("fail", -1.0, (0.5,), lhs=math.inf, rhs=math.nan)
        cert = as_report(CertificateReport({"decrease": cond}, {"cond_tol": 1e-9}))
        assert list(cert) == ["passed", "conditions", "tolerances", "skipped_points",
                              "semantics"]
        assert cert["passed"] is False
        assert cert["conditions"]["decrease"] == {
            "status": "fail", "margin": -1.0, "worst_point": [0.5], "lhs": None,
            "rhs": None, "n_points": 0, "note": ""}
        val = as_report(LyapunovValidation(True, True, 0.1, 0.5, 10, (0.5, 1.0), 0.05))
        assert list(val)[0] == "passed" and val["passed"] is True
        assert val["taus"] == [0.5, 1.0] and val["n_failures"] == 0

    def test_numpy_scalars_become_python_numbers(self):
        out = as_report({"i": np.int64(3), "f": np.float64(0.5), "inf": np.float64(np.inf)})
        assert out == {"i": 3, "f": 0.5, "inf": None}
        assert type(out["i"]) is int and type(out["f"]) is float

    def test_unknown_object_is_not_written(self):
        with pytest.raises(TypeError):
            json.dump(as_report({"x": object()}), io.StringIO())
