"""Regions of state space (initial, unsafe, target, and invariant sets), the
grids used to discretize them, and proper indicator functions.

Set kinds:
  * Box           -- axis-aligned, corners may be +/-inf; membership and
                     Euclidean distance are exact (componentwise clamping).
  * BoxComplement -- closed complement of an open box, for unbounded unsafe
                     sets like [0.6, inf); exact membership and distance.
  * Sublevel      -- {x : g(x) <= c} for a ScalarField g; exact membership,
                     no distance (it has no closed form).
  * Union         -- finite union of the above.
  * MaskSet       -- a set of marked grid cells, produced by reach/invariant
                     sweeps; membership is cell membership.

Open sets (certificate domains D) are represented by a closed spec plus the
convention that boundary ties count as outside; the proper indicator needs
that so its boundary branch stays finite on every point it is evaluated at.

Set objects are immutable in value.  Box, Grid and ProperIndicator keep work
arrays for their row predicates (which still return fresh arrays), so one
set, grid or indicator object must not be used from two threads at once.
A predicate reduces over the n state columns as a left fold of in-place
column ufuncs (``_fold``), bit for bit what ``ufunc.reduce(axis=1)`` gives
but without its per-call set-up; float sums of n >= 8 columns keep numpy's
pairwise ``np.add.reduce``.  CSV artifacts are written in blocks of rows
with savetxt's ``%.18e`` format (``_write_csv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ScalarField

__all__ = [
    "SetSpec",
    "Box",
    "BoxComplement",
    "Sublevel",
    "Union",
    "MaskSet",
    "Grid",
    "make_grid",
    "GridSizeError",
    "EmptySetError",
    "ProperIndicator",
    "DistanceIndicator",
]

#: gap entries one chunk of MaskSet.dist_many may hold (points x cells x dim)
_MASK_DIST_CHUNK = 1 << 20
#: the most rows a predicate keeps work arrays for; a larger call allocates
#: its own, so a grid-sized call leaves no grid-sized buffer behind
_WORK_ROWS = 1 << 16


def _work(bufs: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The work array ``bufs[key]`` of ``shape``, grown on demand."""
    if shape[0] > _WORK_ROWS:
        return np.empty(shape, dtype)
    if key not in bufs or bufs[key].shape[0] < shape[0]:
        bufs[key] = np.empty(shape, dtype)
    return bufs[key][: shape[0]]


def _fold(ufunc, A: np.ndarray) -> np.ndarray:
    """``ufunc`` over the columns of the (R, n) array A, folded left to right
    into A's first column, which is returned: ``ufunc.reduce(A, axis=1)`` bit
    for bit (up to the sign bit of a NaN or of a zero minimum), except that
    numpy adds n >= 8 columns pairwise, so such sums keep ``np.add.reduce``."""
    first = A[:, 0]
    if A.shape[1] >= 8 and ufunc is np.add:
        return np.add.reduce(A, axis=1, out=first)
    for j in range(1, A.shape[1]):
        ufunc(first, A[:, j], out=first)
    return first


def _write_csv(path, data: np.ndarray, header: str) -> None:
    """The bytes of ``np.savetxt(path, data, delimiter=",", header=header,
    comments="")``, formatting up to _WORK_ROWS rows per ``%`` call."""
    row = ",".join(["%.18e"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, data.shape[0], _WORK_ROWS):
            block = data[i : i + _WORK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


class GridSizeError(ValueError):
    pass


class EmptySetError(ValueError):
    pass


class SetSpec:
    """Base interface: exact membership, and the distance and geometric
    questions the checkers ask of a set.  A kind that cannot answer one
    raises ValueError naming itself."""

    dim: int
    exact_distance: bool = True  # has a closed-form distance ||x||_S

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        """||x||_S: Euclidean distance from each point to the set."""
        raise self._lacks("closed-form distance")

    def within(self, tol: float):
        """Vectorized X -> 'within tol of the set'.  Sets with a distance use
        it; the others fall back to plain membership (a tolerance in g-units
        is not a Euclidean tolerance)."""
        if self.exact_distance:
            return lambda X: self.dist_many(X) <= tol
        return self.contains_many

    def hull_box(self) -> "Box":
        """The smallest box containing the set."""
        raise self._lacks("box hull")

    def depth_many(self, X: np.ndarray) -> np.ndarray:
        """||x||_{R^n \\ S}: distance from each point to the complement."""
        raise self._lacks("closed-form distance to its complement")

    def min_depth(self, box: "Box") -> float:
        """dist(box, R^n \\ S): the infimum of the depth over the box."""
        raise self._lacks("closed-form distance to its complement")

    def _lacks(self, what: str) -> ValueError:
        return ValueError(f"a {type(self).__name__} set has no {what}")

    def _check_dim(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.dim:
            raise ValueError(f"points have dimension {X.shape[1]}, set expects {self.dim}")
        return X


@dataclass(frozen=True)
class Box(SetSpec):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi):
            raise ValueError("box lo/hi dimensions differ")
        for a, b in zip(lo, hi):
            if a > b:
                raise ValueError(f"box has lo={a} > hi={b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_lo", np.asarray(lo))
        object.__setattr__(self, "_hi", np.asarray(hi))
        object.__setattr__(self, "_bufs", {})

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def is_bounded(self) -> bool:
        return all(map(math.isfinite, self.lo)) and all(map(math.isfinite, self.hi))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return self._between(self._check_dim(X), np.greater_equal, np.less_equal)

    def contains_interior_many(self, X: np.ndarray) -> np.ndarray:
        return self._between(self._check_dim(X), np.greater, np.less)

    def _between(self, X: np.ndarray, above, below) -> np.ndarray:
        """Rows x with above(x, lo) and below(x, hi) on every axis."""
        a = above(X, self._lo, out=_work(self._bufs, "above", X.shape, bool))
        b = below(X, self._hi, out=_work(self._bufs, "below", X.shape, bool))
        np.logical_and(a, b, out=a)
        return _fold(np.logical_and, a).copy()  # a fresh array

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        """An infinite corner never binds (max(-inf, -inf) still clamps to
        0); a non-finite point gets an infinite or NaN distance."""
        return self._dist(X)

    def _dist(self, X: np.ndarray, kept: bool = False) -> np.ndarray:
        X = self._check_dim(X)
        gap = np.subtract(self._lo, X, out=_work(self._bufs, "gap", X.shape))
        over = np.subtract(X, self._hi, out=_work(self._bufs, "over", X.shape))
        np.maximum(gap, over, out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        return np.sqrt(_fold(np.add, gap), out=self._result(X, kept))

    def depth_many(self, X: np.ndarray) -> np.ndarray:
        """0 outside, the smallest face gap inside."""
        return self._depth(X)

    def _depth(self, X: np.ndarray, kept: bool = False) -> np.ndarray:
        X = self._check_dim(X)
        gap = np.subtract(X, self._lo, out=_work(self._bufs, "gap", X.shape))
        over = np.subtract(self._hi, X, out=_work(self._bufs, "over", X.shape))
        np.minimum(gap, over, out=gap)
        return np.maximum(_fold(np.minimum, gap), 0.0, out=self._result(X, kept))

    def _result(self, X: np.ndarray, kept: bool):
        """Where a distance goes: a kept work array for ``within``, whose mask
        is fresh, or a fresh array (None) for the public predicates."""
        return _work(self._bufs, "result", X.shape[:1]) if kept else None

    def within(self, tol: float):
        return lambda X: self._dist(X, True) <= tol

    def min_depth(self, box: "Box") -> float:
        """The smallest face gap of ``box`` (negative when it sticks out)."""
        gaps = [min(a - dl, dh - b) for a, b, dl, dh in zip(box.lo, box.hi, self.lo, self.hi)]
        return float(min(gaps))

    def hull_box(self) -> "Box":
        return self


@dataclass(frozen=True)
class BoxComplement(SetSpec):
    """Closed complement of the open box (lo, hi): boundary points belong to
    the complement, so e.g. [0.6, inf) is BoxComplement(lo=(-inf,), hi=(0.6,))."""

    box: Box

    @property
    def dim(self) -> int:
        return self.box.dim

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return ~self.box.contains_interior_many(X)

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        return self.box.depth_many(X)

    def depth_many(self, X: np.ndarray) -> np.ndarray:
        return self.box.dist_many(X)

    def within(self, tol: float):
        return lambda X: self.box._depth(X, True) <= tol

    def min_depth(self, box: Box) -> float:
        """The Euclidean distance from ``box`` to the excluded box."""
        lo, hi = np.asarray(self.box.lo), np.asarray(self.box.hi)
        gap = np.maximum(np.maximum(lo - box.hi, np.asarray(box.lo) - hi), 0.0)
        return float(np.sqrt(np.sum(gap * gap)))


@dataclass(frozen=True)
class Sublevel(SetSpec):
    """{x : g(x) <= level}.  Membership is exact (one evaluation of g); the
    distance to the set has no closed form, so it is not offered."""

    g: ScalarField
    level: float
    exact_distance: bool = field(default=False, init=False)

    @property
    def dim(self) -> int:
        return self.g.dim

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        vals = self.g.eval_many(X)
        return np.isfinite(vals) & (vals <= self.level)


@dataclass(frozen=True)
class Union(SetSpec):
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise EmptySetError("union of no sets")
        d = members[0].dim
        for m in members:
            if m.dim != d:
                raise ValueError("union members have mixed dimensions")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def exact_distance(self) -> bool:  # type: ignore[override]
        return all(m.exact_distance for m in self.members)

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        out = np.zeros(X.shape[0], dtype=bool)
        for m in self.members:
            out |= m.contains_many(X)
        return out

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        out = np.full(X.shape[0], np.inf)
        for m in self.members:
            out = np.minimum(out, m.dist_many(X))
        return out


# ---------------------------------------------------------------------------
# Grids


class Grid:
    """Uniform cell-centered grid over a bounded box.

    ``centers_1d[i]`` holds the per-axis center coordinates; ``points`` is the
    full (N, dim) array of cell centers (read-only).  ``cell_radius`` is the
    half-diagonal, so every point of the domain is within cell_radius of some
    center.
    """

    def __init__(self, domain: Box, resolution, size_cap: int = 10_000_000):
        if not domain.is_bounded:
            raise ValueError("grid domain must be a bounded box")
        dim = domain.dim
        res = np.broadcast_to(np.asarray(resolution, dtype=float), (dim,)).copy()
        if np.any(res <= 0):
            raise ValueError("grid resolution must be positive")
        counts = []
        widths = []
        for a, b, h in zip(domain.lo, domain.hi, res):
            n = max(1, int(math.ceil((b - a) / h - 1e-12)))
            counts.append(n)
            widths.append((b - a) / n if b > a else h)
        total = math.prod(counts)
        if total > size_cap:
            needed = (total / size_cap) ** (1.0 / dim)
            raise GridSizeError(
                f"grid would have {total} points (cap {size_cap}); "
                f"coarsen resolution by at least a factor of {needed:.3g}"
            )
        self.domain = domain
        self.dim = dim
        self.shape = tuple(counts)
        self.widths = np.asarray(widths)
        self.size = total
        self.centers_1d = [
            domain.lo[i] + (np.arange(counts[i]) + 0.5) * widths[i] for i in range(dim)
        ]
        for c in self.centers_1d:
            c.flags.writeable = False
        self.cell_radius = 0.5 * float(np.linalg.norm(self.widths))
        self._points: np.ndarray | None = None
        self._top = np.asarray(counts, dtype=float) - 1.0
        self._bufs: dict = {}

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            mesh = np.meshgrid(*self.centers_1d, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            pts.flags.writeable = False
            self._points = pts
        return self._points

    def cell_index_many(self, X: np.ndarray):
        """Flat cell indices for points; second return is the inside-domain mask.
        Outside points, non-finite ones included, get index -1."""
        X = self.domain._check_dim(X)
        inside = self.domain._between(X, np.greater_equal, np.less_equal)
        u = np.subtract(X, self.domain._lo, out=_work(self._bufs, "u", X.shape))
        np.floor(np.true_divide(u, self.widths, out=u), out=u)
        # clamped as floats (fmax/fmin drop a NaN), so every cast is exact
        np.fmin(np.fmax(u, 0.0, out=u), self._top, out=u)
        flat = u[:, 0]  # whole numbers below 2**53, so the C-order index is exact
        for j in range(1, self.dim):
            np.add(np.multiply(flat, self.shape[j], out=flat), u[:, j], out=flat)
        flat = flat.astype(np.int64)
        if np.count_nonzero(inside) < inside.size:
            np.copyto(flat, -1, where=~inside)
        return flat, inside

    def point_of(self, flat_index) -> np.ndarray:
        idx = np.unravel_index(np.asarray(flat_index), self.shape)
        return np.stack([self.centers_1d[i][idx[i]] for i in range(self.dim)], axis=-1)

    def select(self, S: SetSpec) -> np.ndarray:
        """Flat indices of cells whose center lies in S."""
        mask = S.contains_many(self.points)
        return np.nonzero(mask)[0]

    def dilate(self, mask: np.ndarray, cells: int = 1) -> np.ndarray:
        """Inflate a boolean cell mask by ``cells`` cells along every axis."""
        m = mask.reshape(self.shape)
        out = m.copy()
        for axis in range(self.dim):
            acc = m.copy()
            for shift in range(1, cells + 1):
                acc |= np.roll(m, shift, axis=axis) & (np.arange(m.shape[axis]) >= shift).reshape(
                    [-1 if a == axis else 1 for a in range(self.dim)]
                )
                acc |= np.roll(m, -shift, axis=axis) & (
                    np.arange(m.shape[axis]) < m.shape[axis] - shift
                ).reshape([-1 if a == axis else 1 for a in range(self.dim)])
            out |= acc
            m = out.copy()
        return out.ravel()


def make_grid(domain: Box, resolution, size_cap: int = 10_000_000) -> Grid:
    return Grid(domain, resolution, size_cap=size_cap)


class MaskSet(SetSpec):
    """The set of marked grid cells (union of closed cells)."""

    def __init__(self, grid: Grid, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.size != grid.size:
            raise ValueError("mask length does not match grid size")
        self.grid = grid
        self.mask = mask.copy()
        self.mask.flags.writeable = False
        self.dim = grid.dim

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return self._lookup(self.mask, self._check_dim(X))

    def _lookup(self, mask: np.ndarray, X: np.ndarray) -> np.ndarray:
        flat, inside = self.grid.cell_index_many(X)
        return mask[flat] & inside  # an outside row reads cell -1, then drops it

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        """Distance to the union of the marked closed cells: the smallest
        norm of the per-axis gap to a cell, over chunks of points."""
        X = self._check_dim(X)
        centers = self.grid.points[self.mask]
        if centers.shape[0] == 0:
            raise EmptySetError("mask set is empty")
        half = 0.5 * self.grid.widths
        lo, hi = centers - half, centers + half
        out = np.empty(X.shape[0])
        chunk = max(1, _MASK_DIST_CHUNK // centers.size)
        for i in range(0, X.shape[0], chunk):
            x = X[i : i + chunk, None, :]
            gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
            out[i : i + chunk] = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
        return out

    def within(self, tol: float):
        """The mask dilated by tol, rounded up to whole cells."""
        cells = max(0, int(math.ceil(tol / self.grid.widths.min() - 1e-9)))
        dilated = self.grid.dilate(self.mask, cells) if cells else self.mask

        return lambda X: self._lookup(dilated, X)

    def hull_box(self) -> Box:
        if self.is_empty:
            raise EmptySetError("mask set is empty")
        pts = self.grid.points[self.mask]
        half = 0.5 * self.grid.widths
        return Box(tuple(pts.min(axis=0) - half), tuple(pts.max(axis=0) + half))

    def to_csv(self, path) -> None:
        pts = self.grid.points
        data = np.column_stack([pts, self.mask.astype(int)])
        header = ",".join([f"x{i+1}" for i in range(self.dim)] + ["marked"])
        _write_csv(path, data, header)


# ---------------------------------------------------------------------------
# Distances and proper indicators


def _leaves(S: SetSpec) -> list:
    """The sets that are not unions whose union is S."""
    return [m for u in S.members for m in _leaves(u)] if isinstance(S, Union) else [S]


def _dist_between(A: SetSpec, D: SetSpec) -> float:
    """dist(A, R^n \\ D) = inf_{a in A} ||a||_{complement of D}, the smallest
    over a union's members of that over the member's box hull: exact for any
    set in a box and for a box in a box complement, a lower bound otherwise."""
    return min(D.min_depth(m.hull_box()) for m in _leaves(A))


class ProperIndicator:
    """A continuous nonnegative function vanishing exactly on the compact set
    A and growing without bound toward the boundary of the open domain D (or
    toward infinity when D is all of R^n):

        omega(x) = max( ||x||_A,  1/||x||_{R^n \\ D}  -  2/dist(A, R^n \\ D) )

    With D = None (all of R^n) the second branch is absent and omega reduces
    to the distance to A.  A kind with no closed-form distance or gap raises
    ValueError naming itself when the indicator is built.
    """

    def __init__(self, A: SetSpec, D: SetSpec | None = None):
        self.A = A
        self.D = D
        if D is None:
            for m in _leaves(A):  # fail here, before any point is evaluated
                if not m.exact_distance:
                    raise m._lacks("closed-form distance")
            self.dist_A_to_Dc = math.inf
        else:
            if A.dim != D.dim:
                raise ValueError("A and D dimensions differ")
            gap = _dist_between(A, D)
            if gap <= 0.0:
                raise ValueError(
                    "A must lie strictly inside D (dist(A, complement of D) = "
                    f"{gap:.3g})"
                )
            self.dist_A_to_Dc = float(gap)
        self.dim = A.dim
        self._bufs: dict = {}

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = self.A._check_dim(X)
        base = self.A.dist_many(X)
        if self.D is None:
            return base
        # 1/depth where depth > 0, else +inf (NaN and a zero of either sign
        # included), less 2/gap; computed into the two fresh results
        depth = self.D.depth_many(X)
        flat = np.greater(depth, 0.0, out=_work(self._bufs, "flat", depth.shape, bool))
        np.logical_not(flat, out=flat)
        with np.errstate(divide="ignore"):
            boundary = np.divide(1.0, depth, out=depth)
        np.copyto(boundary, np.inf, where=flat)
        np.subtract(boundary, 2.0 / self.dist_A_to_Dc, out=boundary)
        return np.maximum(base, boundary, out=base)


def DistanceIndicator(A: SetSpec) -> ProperIndicator:
    """omega(x) = ||x||_A, the D = R^n special case."""
    return ProperIndicator(A, None)
