"""Check user-supplied Lyapunov and Lyapunov-barrier certificates against
worst-case disturbances, and construct the complementary barrier from a
verified Lyapunov function.

The disturbance enters linearly in the Lie derivative, so its extreme over
the ball |d| <= delta has the closed form

    sup_{|d|<=delta} grad V(x) . (f(x)+d) = grad V(x).f(x) + delta*|grad V(x)|
    inf_{|d|<=delta} grad B(x) . (f(x)+d) = grad B(x).f(x) - delta*|grad B(x)|

which is exact (no sampling).  Grid checks are therefore exact per point; the
sampling lives only in the choice of grid points, and verdict strings carry
the usual sampled semantics.

Strict inequalities are machine-checked with scaled tolerances: "< 0" becomes
"<= -strict_tol*(1+|value|)", and positive definiteness off the target set is
checked against the floor pd_coeff*min(r, r^2) with r the distance to the
set.  Non-strict inequalities get the additive slack COND_TOL*(1+|value|).
All tolerances appear in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .converse import MonotoneFn
from .dynamics import PerturbedSystem
from .expr import Const, ScalarField, Binary
from .geometry import Grid, SetSpec

#: relative slack of the non-strict certificate inequalities
COND_TOL = 1e-9
#: a constructed barrier's level, as a multiple of the largest V on K union W
LEVEL_MARGIN = 1.05

__all__ = [
    "Certificate",
    "CertificateError",
    "ConditionResult",
    "CertificateReport",
    "lie_many",
    "check_lyapunov_certificate",
    "check_lyapunov_barrier_pair",
    "barrier_from_lyapunov",
]


class CertificateError(ValueError):
    pass


@dataclass
class Certificate:
    """A candidate V (nonnegative on D), optional barrier B, and the optional
    comparison-function sandwich (alpha1, alpha2, omega).  V and B must be
    smooth: certificates with abs/min/max kinks are rejected up front."""

    V: ScalarField
    D: SetSpec
    B: ScalarField | None = None
    alpha1: MonotoneFn | None = None
    alpha2: MonotoneFn | None = None
    omega: object | None = None  # ProperIndicator-like: value_many(X)

    def __post_init__(self):
        if not self.V.is_smooth:
            raise CertificateError("V contains abs/min/max; a smooth V is required")
        if self.B is not None and not self.B.is_smooth:
            raise CertificateError("B contains abs/min/max; a smooth B is required")
        if (self.alpha1 is None) != (self.alpha2 is None):
            raise CertificateError("alpha1 and alpha2 must be supplied together")
        if self.alpha1 is not None and self.omega is None:
            raise CertificateError("the sandwich check needs omega alongside alpha1/alpha2")


@dataclass
class ConditionResult:
    status: str              # pass_sampled | fail | skipped
    margin: float            # min slack of the inequality over checked points
    worst_point: tuple | None
    lhs: float | None = None
    rhs: float | None = None
    n_points: int = 0
    note: str = ""


@dataclass
class CertificateReport:
    conditions: dict
    tolerances: dict
    skipped_points: int = 0
    semantics: str = "grid-sampled; per-point inequalities exact"

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.conditions.values())

    def failed_conditions(self) -> list[str]:
        return [k for k, c in self.conditions.items() if c.status == "fail"]


# ---------------------------------------------------------------------------
# Worst-case Lie derivatives


def lie_many(V: ScalarField, sys: PerturbedSystem, X: np.ndarray, sign: float) -> np.ndarray:
    """Extreme Lie derivative of V over |d| <= delta at each row of X, in
    closed form: the sup grad V.f + delta*|grad V| for sign=+1, the inf
    grad V.f - delta*|grad V| for sign=-1.  V must be smooth."""
    G = V.grad(require_smooth=True).eval_many(X)
    F = sys.f.eval_many(X)
    return np.sum(G * F, axis=1) + sign * sys.delta * np.sqrt(np.sum(G * G, axis=1))


def _reduce(slack: np.ndarray, pts: np.ndarray, lhs=None, rhs=None,
            note: str = "") -> ConditionResult:
    """Pass iff min slack >= 0; the worst point is deterministic (min slack,
    ties by row order)."""
    if slack.size == 0:
        return ConditionResult("skipped", math.nan, None, note=note or "no grid points to check")
    bad = ~np.isfinite(slack)
    slack = np.where(bad, -np.inf, slack)
    i = int(np.argmin(slack))
    status = "pass_sampled" if slack[i] >= 0.0 else "fail"
    return ConditionResult(
        status, float(slack[i]), tuple(float(v) for v in np.atleast_1d(pts[i])),
        lhs=None if lhs is None else float(lhs[i]),
        rhs=None if rhs is None else float(rhs[i]),
        n_points=int(slack.size), note=note,
    )


def _strict_tol(values: np.ndarray, strict_tol: float) -> np.ndarray:
    return strict_tol * (1.0 + np.abs(values))


def _points_in(D: SetSpec, grid: Grid) -> tuple[np.ndarray, int]:
    """The grid points inside D, and the number of grid points outside it."""
    pts = grid.points
    X = pts[D.contains_many(pts)]
    if X.shape[0] == 0:
        raise CertificateError("no grid points fall inside D; enlarge the grid")
    return X, int(pts.shape[0] - X.shape[0])


# ---------------------------------------------------------------------------
# Certificate checks


def check_lyapunov_certificate(
    cert: Certificate,
    sys: PerturbedSystem,
    grid: Grid,
) -> CertificateReport:
    """Check the single-function certificate on every grid point inside D:

        alpha1(omega(x)) <= V(x) + tol
        V(x) <= alpha2(omega(x)) + tol
        sup_d grad V.(f+d) <= -V(x) + tol

    Points outside D are skipped and counted.  The additive tolerance scales
    as COND_TOL*(1+|V(x)|).
    """
    if cert.alpha1 is None or cert.alpha2 is None or cert.omega is None:
        raise CertificateError("this check needs alpha1, alpha2, and omega")
    X, skipped = _points_in(cert.D, grid)
    V = cert.V.eval_many(X)
    w = np.asarray(cert.omega.value_many(X), dtype=float)
    a1 = cert.alpha1.value_many(w)
    a2 = cert.alpha2.value_many(w)
    lie = lie_many(cert.V, sys, X, +1.0)
    tol = COND_TOL * (1.0 + np.abs(V))

    conditions = {
        "lower_bound": _reduce(V + tol - a1, X, lhs=a1, rhs=V),
        "upper_bound": _reduce(a2 + tol - V, X, lhs=V, rhs=a2),
        "decrease": _reduce((-V + tol) - lie, X, lhs=lie, rhs=-V),
    }
    return CertificateReport(
        conditions,
        {"cond_tol": COND_TOL},
        skipped_points=skipped,
    )


def check_lyapunov_barrier_pair(
    cert: Certificate,
    sys: PerturbedSystem,
    A: SetSpec,
    W: SetSpec,
    U: SetSpec,
    grid: Grid,
    *,
    strict_tol: float = 1e-9,
    pd_coeff: float = 1e-6,
) -> CertificateReport:
    """Check the (V, B) pair certificate for stability with safety:

      1. V vanishes on A and is positive definite w.r.t. A on D
         (V <= tol on A-points; V >= pd_coeff*min(r, r^2) off A, r = ||x||_A);
      2. sup_d grad V.(f+d) < 0 on D minus a one-cell tube around A;
      3. B >= 0 on W and B < 0 on U (U restricted to the grid domain);
      4. inf_d grad B.(f+d) >= 0 on D.

    Strict inequalities use the scaled margin strict_tol*(1+|value|).
    """
    if cert.B is None:
        raise CertificateError("this check needs the barrier B")
    X, skipped = _points_in(cert.D, grid)

    rA = A.dist_many(X)
    on_A = rA == 0.0
    off_A = rA > grid.cell_radius  # exclude the discretization tube around A
    V = cert.V.eval_many(X)
    tolV = COND_TOL * (1.0 + np.abs(V))

    conditions = {}
    conditions["V_zero_on_A"] = _reduce(
        tolV[on_A] - np.abs(V[on_A]), X[on_A], lhs=V[on_A],
        note=f"{int(on_A.sum())} grid points on A",
    )
    floor = pd_coeff * np.minimum(rA[off_A], rA[off_A] ** 2)
    conditions["V_positive_definite"] = _reduce(
        V[off_A] - floor, X[off_A], lhs=V[off_A], rhs=floor,
        note=f"floor pd_coeff*min(r, r^2), pd_coeff={pd_coeff:g}",
    )
    lieV = lie_many(cert.V, sys, X, +1.0)
    strict = _strict_tol(V, strict_tol)
    conditions["V_strict_decrease_off_A"] = _reduce(
        (-strict[off_A]) - lieV[off_A], X[off_A], lhs=lieV[off_A],
        note="worst-case Lie derivative of V < 0 on D minus the A tube",
    )

    pts = grid.points
    w_pts = pts[W.contains_many(pts)]
    Bw = cert.B.eval_many(w_pts)
    conditions["B_nonneg_on_W"] = _reduce(Bw, w_pts, lhs=Bw)

    u_pts = pts[U.contains_many(pts)]
    Bu = cert.B.eval_many(u_pts)
    strictB = _strict_tol(Bu, strict_tol)
    conditions["B_negative_on_U"] = _reduce(
        (-strictB) - Bu, u_pts, lhs=Bu,
        note="U checked on U intersected with the grid domain",
    )

    lieB = lie_many(cert.B, sys, X, -1.0)
    tolB = COND_TOL * (1.0 + np.abs(cert.B.eval_many(X)))
    conditions["B_nondecreasing"] = _reduce(
        lieB + tolB, X, lhs=lieB,
        note="best-case Lie derivative of B >= 0 on D",
    )

    return CertificateReport(
        conditions,
        {"strict_tol": strict_tol, "pd_coeff": pd_coeff, "cond_tol": COND_TOL,
         "A_tube": grid.cell_radius},
        skipped_points=skipped,
    )


# ---------------------------------------------------------------------------
# Barrier construction


def barrier_from_lyapunov(
    V: ScalarField,
    K: SetSpec,
    W: SetSpec,
    grid: Grid,
) -> ScalarField:
    """B = c - V with c = LEVEL_MARGIN * max of V over the grid points of
    K union W.  A V that certifies stability of A with domain K union W then
    yields a pair (V, B) certifying safety as well: B >= 0 where V <= c and
    the Lie derivative of B is the negated one of V."""
    pts = grid.points
    sel = K.contains_many(pts) | W.contains_many(pts)
    if not np.any(sel):
        raise CertificateError("K union W contains no grid points")
    vmax = float(V.eval_many(pts[sel]).max())
    if not math.isfinite(vmax):
        raise CertificateError("V is not finite on K union W")
    c = LEVEL_MARGIN * vmax if vmax > 0 else LEVEL_MARGIN
    return ScalarField(Binary("-", Const(c), V.expr), V.var_names)
