"""Regions of state space (initial, unsafe, target, and invariant sets), the
grids used to discretize them, and proper indicator functions.

Set kinds:
  * Box           -- axis-aligned, corners may be +/-inf; membership and
                     Euclidean distance are exact (componentwise clamping).
  * BoxComplement -- closed complement of an open box, for unbounded unsafe
                     sets like [0.6, inf); exact membership and distance.
  * Sublevel      -- {x : g(x) <= c} for a ScalarField g; exact membership,
                     distance is approximate (multistart projected descent).
  * Union         -- finite union of the above.
  * MaskSet       -- a set of marked grid cells, produced by reach/invariant
                     sweeps; membership is cell membership.

Open sets (certificate domains D) are represented by a closed spec plus the
convention that boundary ties count as outside; the proper indicator needs
that so its boundary branch stays finite on every point it is evaluated at.

All set objects are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ScalarField

#: descent starts and iterations per start of the sublevel-set distance
SUBLEVEL_DIST_STARTS = 8
SUBLEVEL_DIST_ITERS = 200
#: sample spacing at which the sampled dist(A, complement of D) stops refining
REFINE_TOL = 1e-6

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


class GridSizeError(ValueError):
    pass


class EmptySetError(ValueError):
    pass


class SetSpec:
    """Base interface: exact-or-labeled membership and distance."""

    dim: int
    exact_distance: bool = True

    def contains(self, x) -> bool:
        return bool(self.contains_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, x) -> float:
        return float(self.dist_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def is_bounded(self) -> bool:
        return all(map(math.isfinite, self.lo)) and all(map(math.isfinite, self.hi))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((X >= lo) & (X <= hi), axis=1)

    def contains_interior_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        return np.all((X > np.asarray(self.lo)) & (X < np.asarray(self.hi)), axis=1)

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        gap = np.maximum(np.maximum(lo - X, X - hi), 0.0)
        gap = np.where(np.isfinite(gap), gap, 0.0)  # infinite extents never bind
        return np.sqrt(np.sum(gap * gap, axis=1))

    def interior_depth_many(self, X: np.ndarray) -> np.ndarray:
        """Distance from x to the complement (0 outside, min face gap inside)."""
        X = self._check_dim(X)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        depth = np.minimum(X - lo, hi - X)
        return np.maximum(np.min(depth, axis=1), 0.0)

    def sample_grid(self, per_axis: int) -> np.ndarray:
        if not self.is_bounded:
            raise ValueError("cannot sample an unbounded box")
        axes = [np.linspace(a, b, per_axis) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

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
        return self.box.interior_depth_many(X)


@dataclass(frozen=True)
class Sublevel(SetSpec):
    """{x : g(x) <= level}.  Membership is exact (one evaluation of g);
    distance uses multistart projected descent and is labeled approximate."""

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

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        X = self._check_dim(X)
        return np.array([self._dist_single(x) for x in X])

    def _dist_single(self, x: np.ndarray) -> float:
        if self.contains(x):
            return 0.0
        grad = self.g.grad()
        rng = np.random.default_rng(12345)
        best = math.inf
        starts = [x.copy()]
        for _ in range(SUBLEVEL_DIST_STARTS - 1):
            starts.append(x + rng.normal(scale=0.5 * (1.0 + np.linalg.norm(x)), size=x.shape))
        for y in starts:
            y = y.astype(float)
            for _ in range(SUBLEVEL_DIST_ITERS):
                gval = self.g(y)
                if gval > self.level:
                    gv = grad(y)
                    n2 = float(gv @ gv)
                    if n2 < 1e-18:
                        break
                    y = y - ((gval - self.level) / n2) * gv  # Newton step onto the level set
                else:
                    step = 0.1 * (x - y)
                    if np.linalg.norm(step) < 1e-10:
                        break
                    y2 = y + step
                    if self.g(y2) <= self.level:
                        y = y2
                    else:
                        gv = grad(y2)
                        n2 = float(gv @ gv)
                        if n2 < 1e-18:
                            break
                        y = y2 - ((self.g(y2) - self.level) / n2) * gv
            if self.g(y) <= self.level + 1e-9:
                best = min(best, float(np.linalg.norm(y - x)))
        if not math.isfinite(best):
            raise EmptySetError(f"no feasible point found for sublevel set g<={self.level}")
        return best


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
        Outside points get index -1."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        lo = np.asarray(self.domain.lo)
        hi = np.asarray(self.domain.hi)
        inside = np.all((X >= lo) & (X <= hi), axis=1)
        ij = np.floor((X - lo) / self.widths).astype(np.int64)
        ij = np.clip(ij, 0, np.asarray(self.shape) - 1)
        flat = np.ravel_multi_index(tuple(ij.T), self.shape)
        return np.where(inside, flat, -1), inside

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
        X = self._check_dim(X)
        flat, inside = self.grid.cell_index_many(X)
        out = np.zeros(X.shape[0], dtype=bool)
        out[inside] = self.mask[flat[inside]]
        return out

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        # distance to nearest marked cell center, floored by the cell radius;
        # adequate for reporting, not used in tight inequalities
        X = self._check_dim(X)
        centers = self.grid.points[self.mask]
        if centers.shape[0] == 0:
            raise EmptySetError("mask set is empty")
        out = np.empty(X.shape[0])
        for i, x in enumerate(X):
            d = np.sqrt(np.sum((centers - x) ** 2, axis=1)).min()
            out[i] = max(0.0, d - self.grid.cell_radius)
        return out

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
        np.savetxt(path, data, delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Distances and proper indicators


def _dist_to_complement_many(D: SetSpec, X: np.ndarray) -> np.ndarray:
    """||x||_{R^n \\ D}: distance from x to the complement of D."""
    if isinstance(D, Box):
        return D.interior_depth_many(X)
    if isinstance(D, BoxComplement):
        return D.box.dist_many(X)
    if isinstance(D, MaskSet):
        # depth inside the mask region, in whole cells
        X = np.asarray(X, dtype=float)
        X = X[None, :] if X.ndim == 1 else X
        out = np.empty(X.shape[0])
        unmarked = D.grid.points[~D.mask]
        for i, x in enumerate(X):
            if not D.contains(x):
                out[i] = 0.0
            elif unmarked.shape[0] == 0:
                out[i] = np.inf
            else:
                out[i] = np.sqrt(np.sum((unmarked - x) ** 2, axis=1)).min()
        return out
    raise ValueError(f"distance to complement not implemented for {type(D).__name__}")


def _dist_between(A: SetSpec, D: SetSpec) -> float:
    """dist(A, R^n \\ D) = inf_{a in A} ||a||_{complement of D}.

    Exact for a box (or union of boxes) inside a box; otherwise computed by
    sampling A with refinement down to REFINE_TOL.
    """
    if isinstance(A, Box) and isinstance(D, Box):
        gaps = [min(a - dl, dh - b) for a, b, dl, dh in zip(A.lo, A.hi, D.lo, D.hi)]
        return float(min(gaps))
    if isinstance(A, Union):
        return min(_dist_between(m, D) for m in A.members)
    if isinstance(A, MaskSet):
        return _dist_between(A.hull_box(), D) if isinstance(D, Box) else _sampled_dist(A, D)
    return _sampled_dist(A, D)


def _sampled_dist(A: SetSpec, D: SetSpec) -> float:
    hull = A.hull_box() if hasattr(A, "hull_box") else None
    if hull is None:
        raise ValueError(f"cannot sample boundary of {type(A).__name__}")
    per_axis = 33
    box = hull
    best_val, best_pt = math.inf, None
    for _ in range(24):
        pts = box.sample_grid(per_axis)
        pts = pts[A.contains_many(pts)]
        if pts.shape[0] == 0:
            break
        vals = _dist_to_complement_many(D, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), pts[i]
        span = max(b - a for a, b in zip(box.lo, box.hi)) / (per_axis - 1)
        if span < REFINE_TOL:
            break
        lo = np.maximum(np.asarray(hull.lo), best_pt - 2 * span)
        hi = np.minimum(np.asarray(hull.hi), best_pt + 2 * span)
        box = Box(tuple(lo), tuple(hi))
    if not math.isfinite(best_val):
        raise EmptySetError("could not sample the inner set")
    return best_val


class ProperIndicator:
    """A continuous nonnegative function vanishing exactly on the compact set
    A and growing without bound toward the boundary of the open domain D (or
    toward infinity when D is all of R^n):

        omega(x) = max( ||x||_A,  1/||x||_{R^n \\ D}  -  2/dist(A, R^n \\ D) )

    With D = None (all of R^n) the second branch is absent and omega reduces
    to the distance to A.
    """

    def __init__(self, A: SetSpec, D: SetSpec | None = None):
        self.A = A
        self.D = D
        if D is None:
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

    def value(self, x) -> float:
        return float(self.value_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        base = self.A.dist_many(X)
        if self.D is None:
            return base
        depth = _dist_to_complement_many(self.D, X)
        with np.errstate(divide="ignore"):
            boundary = np.where(depth > 0.0, 1.0 / depth, np.inf) - 2.0 / self.dist_A_to_Dc
        return np.maximum(base, boundary)


def DistanceIndicator(A: SetSpec) -> ProperIndicator:
    """omega(x) = ||x||_A, the D = R^n special case."""
    return ProperIndicator(A, None)
