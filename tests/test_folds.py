"""The per-step predicates fold over the state columns with in-place ufuncs
and the grid index is a multiply-add; both must give, bit for bit, what the
plain numpy formulas give.  The CSV writer must give savetxt's bytes."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from safestab import geometry
from safestab import (
    Box,
    BoxComplement,
    ExtremalFeedbackPolicy,
    PerturbedSystem,
    Union,
    ZeroPolicy,
    make_grid,
    parse_scalar_field,
    parse_vector_field,
    run_sweep,
)
from safestab.dynamics import STATUS_BLOWUP, _row_norms

SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0)


def same(a, b):
    """Equal arrays, bit for bit, so a signed zero counts.  A NaN need only
    meet a NaN: np.minimum.reduce returns numpy's positive NaN where the fold
    keeps the input's sign bit, and no report or artifact shows that bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype != np.float64:
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64))


def points(rng, lo, hi, R):
    """R points around [lo, hi] (corners clipped to +-3), a fifth of the
    entries replaced by NaN, +-inf, +-0.0 or a face coordinate."""
    lo_c, hi_c = np.maximum(lo, -3.0), np.minimum(hi, 3.0)
    X = rng.uniform(lo_c - 1.0, hi_c + 1.0, size=(R, lo.size))
    pick = rng.random(X.shape) < 0.2
    faces = np.where(rng.random(X.shape) < 0.5, lo_c, hi_c)
    special = rng.choice(np.array(SPECIALS), size=X.shape)
    X[pick] = np.where(rng.random(X.shape) < 0.5, special, faces)[pick]
    return X


def old_dist(lo, hi, X):
    gap = np.maximum(np.maximum(lo - X, X - hi), 0.0)
    return np.sqrt(np.add.reduce(gap * gap, axis=1))


def old_depth(lo, hi, X):
    return np.maximum(np.minimum.reduce(np.minimum(X - lo, hi - X), axis=1), 0.0)


def old_cell_index(grid, X):
    """The index as np.clip and np.ravel_multi_index computed it."""
    lo, hi = np.asarray(grid.domain.lo), np.asarray(grid.domain.hi)
    inside = ((X >= lo) & (X <= hi)).all(axis=1)
    with np.errstate(invalid="ignore"):
        ij = np.floor((X - lo) / grid.widths).astype(np.int64)
    ij = np.clip(ij, 0, np.asarray(grid.shape) - 1)
    flat = np.ravel_multi_index(tuple(ij.T), grid.shape)
    flat[~inside] = -1
    return flat, inside


DIMS = range(1, 10)
ROWS = (1, 22, 1000)


@pytest.mark.parametrize("R", ROWS)
@pytest.mark.parametrize("n", DIMS)
def test_box_predicates_equal_the_reductions(rng, n, R):
    """Box and BoxComplement predicates, the row norms and the grid index
    against the formulas they replace, on a bounded box and on one with
    infinite corners (n >= 8 covers numpy's pairwise float sum).  A
    tolerant-membership predicate, of a box, a box complement or a union of
    both, gives the same flags on batches that shrink and then grow, and one
    flag for one (n,) point."""
    lo = np.round(rng.uniform(-1.0, 0.0, n), 1)
    lo[0] = 0.0  # a face at zero, so X - lo can be -0.0
    hi = lo + np.round(rng.uniform(0.5, 1.5, n), 1)
    half = lo.copy()
    half[::2] = -math.inf
    with np.errstate(all="ignore"):  # inf - inf in a gap, as in the formulas
        for blo, bhi in ((lo, hi), (half, hi)):
            B = Box(tuple(blo), tuple(bhi))
            X = points(rng, blo, bhi, R)
            inside = ((X >= blo) & (X <= bhi)).all(axis=1)
            interior = ((X > blo) & (X < bhi)).all(axis=1)
            dist, depth = old_dist(blo, bhi, X), old_depth(blo, bhi, X)
            assert same(B.contains_many(X), inside)
            assert same(B.contains_interior_many(X), interior)
            assert same(B.dist_many(X), dist)
            assert same(B.depth_many(X), depth)
            assert same(B.within(0.25)(X), dist <= 0.25)
            C = BoxComplement(B)
            assert same(C.contains_many(X), ~interior)
            assert same(C.dist_many(X), depth)
            assert same(C.depth_many(X), dist)
            assert same(C.within(0.25)(X), depth <= 0.25)
            U = Union((B, BoxComplement(Box(tuple(blo + 0.5), tuple(bhi + 0.5)))))
            near = np.minimum(dist, old_depth(blo + 0.5, bhi + 0.5, X))
            assert same(U.dist_many(X), near)
            for S, d in ((B, dist), (C, depth), (U, near)):
                member = S.within(0.25)
                for k in (R, 1, R // 2 + 1, R):
                    assert same(member(X[:k]), d[:k] <= 0.25)
                assert same(member(X[0]), d[:1] <= 0.25)
            assert same(_row_norms(X), np.sqrt(np.sum(X * X, axis=1)))
    grid = make_grid(Box(tuple(lo), tuple(hi)), 0.5)
    X = points(rng, lo, hi, R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got, want in zip(grid.cell_index_many(X), old_cell_index(grid, X)):
            assert same(got, want)


@pytest.mark.parametrize("n", DIMS)
def test_extremal_feedback_equals_the_gathers(rng, n):
    """The in-place scaling with where=safe against the three boolean
    gathers and the clamp it replaces, for tiny, huge and NaN gradients."""
    delta, sign = 0.3, -1
    G = rng.standard_normal((1000, n)) * rng.choice([1e-14, 1.0, 1e150], size=(1000, 1))
    G[rng.random(G.shape) < 0.02] = math.nan
    G[:3] = 0.0
    pol = ExtremalFeedbackPolicy(parse_scalar_field("x1", [f"x{i + 1}" for i in range(n)]), sign)
    pol._delta, pol._grad = delta, SimpleNamespace(eval_many=lambda X: G.copy())
    got = pol.values(0.0, None, np.empty_like(G))

    norms = np.sqrt(np.sum(G * G, axis=1))
    safe = norms > 1e-12
    want = np.zeros_like(G)
    want[safe] = (sign * delta / norms[safe])[:, None] * G[safe]
    norms = np.sqrt(np.sum(want * want, axis=1))
    over = norms > delta
    want[over] *= (delta / norms[over])[:, None]
    assert same(got, want)


def test_float_fold_would_round_differently_at_eight_columns(rng):
    """Why n >= 8 sums keep np.add.reduce: a left fold of the columns does
    not equal numpy's pairwise sum there."""
    A = rng.uniform(0.0, 1.0, size=(1000, 8))
    fold = A[:, 0].copy()
    for j in range(1, 8):
        fold += A[:, j]
    assert not same(fold, np.add.reduce(A, axis=1))
    assert same(geometry._fold(np.add, A.copy()), np.add.reduce(A, axis=1))


def test_cell_index_of_non_finite_and_face_points():
    """NaN and infinite rows are outside (index -1) and raise no cast
    warning; a point on the hi face lies in the last cell."""
    grid = make_grid(Box((-1.0, -1.0), (1.0, 1.0)), 0.5)
    X = np.array([[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], [1.0, 1.0],
                  [-1.0, 1.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat, inside = grid.cell_index_many(X)
        member = geometry.MaskSet(grid, np.ones(grid.size, dtype=bool))
        assert member.contains_many(X).tolist() == [False] * 3 + [True] * 3
        assert member.within(0.5)(X).tolist() == [False] * 3 + [True] * 3
    assert inside.tolist() == [False] * 3 + [True] * 3
    assert flat.tolist() == [-1, -1, -1, 15, 3, 10]


@pytest.mark.parametrize("dim, column", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_blowup_in_any_column_matches_the_1d_sweep(dim, column):
    """x' = x^2 in one column and x' = -x in the others: RK4 treats the
    columns apart, so each row blows up when the 1-D sweep of its x^2
    column does, to the same status and end time."""
    names = [f"x{i + 1}" for i in range(dim)]
    rhs = [f"{v}^2" if i == column else f"-{v}" for i, v in enumerate(names)]
    sys_n = PerturbedSystem(parse_vector_field(rhs, names), 0.0, blowup_bound=1e3)
    sys_1 = PerturbedSystem(parse_vector_field(["x^2"], ["x"]), 0.0, blowup_bound=1e3)
    s = np.array([2.0, 1.0, 0.4, -0.5, 3.0, 0.0])
    starts = np.tile(np.array([0.5, -0.25, 1.0])[:dim], (s.size, 1))
    starts[:, column] = s
    res_n = run_sweep(sys_n, starts, [ZeroPolicy()], 3.0, 1e-3)
    res_1 = run_sweep(sys_1, s[:, None], [ZeroPolicy()], 3.0, 1e-3)
    assert same(res_n.status, res_1.status)
    assert same(res_n.end_times, res_1.end_times)
    assert np.count_nonzero(res_n.status == STATUS_BLOWUP) == 4


@pytest.mark.parametrize("rows", [0, 1, 10])
def test_csv_writer_gives_savetxt_bytes(tmp_path, monkeypatch, rows):
    """Blocks of 3 rows, so 10 rows take four writes."""
    monkeypatch.setattr(geometry, "_WORK_ROWS", 3)
    data = np.arange(rows * 4, dtype=float).reshape(rows, 4) / 7.0 - 1.0
    data.ravel()[: min(data.size, 5)] = (math.nan, math.inf, -math.inf, -0.0, 1e-300)[: data.size]
    header = "t,x1,x2,marked"
    geometry._write_csv(tmp_path / "ours.csv", data, header)
    np.savetxt(tmp_path / "numpy.csv", data, delimiter=",", header=header, comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
