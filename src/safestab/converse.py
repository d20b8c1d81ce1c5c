"""Numerical execution of the converse construction: estimate a class-KL
decay envelope from battery simulations, fit a comparison-function pair
(alpha1, alpha2) with a certified exponential split, assemble the Lyapunov
value

    V(x) = max over battery trajectories and times of alpha1(omega(phi(t))) e^{mu t},

and validate the two-sided comparison bound and the exponential decrease
along trajectories.

The supremum over all disturbance signals is approximated by the battery
maximum, so the constructed V is a lower estimate of the ideal one; the
validation checks are correspondingly tolerance-based and every report says
so.  Rates are measured, not assumed: lambda defaults to half the fitted
envelope decay rate and mu to half of lambda, which leaves slack for both the
envelope fit and the finite battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    STATUS_BLOWUP,
    STATUS_HORIZON,
    STATUS_RETIRED,
    PerturbedSystem,
    RowState,
    record_sweep,
    run_sweep,
    step_count,
)
from .geometry import Box, _work, _write_csv

#: time columns of the envelope table (fewer when the horizon has fewer steps)
ENVELOPE_TIMES = 241
#: largest final/initial envelope ratio that still counts as settling
MAX_SETTLE_RATIO = 0.25
#: the default lambda, and the largest one accepted, as a fraction of the
#: fitted envelope decay rate
SAFETY_FACTOR = 0.5
#: largest integer power tried for alpha1
MAX_POWER = 8
#: steps between two checks of the certified truncation bound of V
TRUNCATE_CHECK_STEPS = 250
#: additive floor of the validation inequalities
ZERO_FLOOR = 1e-12

__all__ = [
    "MonotoneFn",
    "PiecewiseMonotone",
    "PowerMonotone",
    "KLEnvelope",
    "NotSettlingError",
    "estimate_kl_envelope",
    "SontagPair",
    "fit_sontag_pair",
    "NumericLyapunov",
    "LyapunovValidation",
    "validate_lyapunov",
]


class NotSettlingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Class-K-infinity surrogates


class MonotoneFn:
    """Strictly increasing, zero at zero, unbounded under linear
    extrapolation: the piecewise surrogate for a class-K-infinity function.
    ``value_many`` returns a fresh array, which the caller may update, or
    writes into ``out``, which may be ``s`` itself."""

    def value_many(self, s: np.ndarray, out=None) -> np.ndarray:
        raise NotImplementedError


class PiecewiseMonotone(MonotoneFn):
    """Piecewise-linear through (0,0) and strictly increasing breakpoints;
    linear extrapolation beyond the last breakpoint."""

    def __init__(self, s_points, values):
        s = np.asarray(s_points, dtype=float)
        v = np.asarray(values, dtype=float)
        if s.size != v.size or s.size == 0:
            raise ValueError("breakpoints and values must be non-empty and equal length")
        if s[0] > 0.0:
            s = np.concatenate([[0.0], s])
            v = np.concatenate([[0.0], v])
        if s[0] != 0.0 or v[0] != 0.0:
            raise ValueError("a class-K surrogate must pass through (0, 0)")
        if np.any(np.diff(s) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        v = np.maximum.accumulate(v)
        eps = 1e-12 * max(1.0, float(v[-1]))
        for i in range(1, v.size):  # nudge flats so the surrogate is strictly increasing
            if v[i] <= v[i - 1]:
                v[i] = v[i - 1] + eps * (s[i] - s[i - 1])
        self.s = s
        self.v = v
        last_slope = (v[-1] - v[-2]) / (s[-1] - s[-2]) if s.size > 1 else 1.0
        self.end_slope = max(last_slope, eps)

    def value_many(self, s: np.ndarray, out=None) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        vals = np.interp(s, self.s, self.v)
        beyond = s > self.s[-1]
        if np.any(beyond):
            vals = np.where(beyond, self.v[-1] + self.end_slope * (s - self.s[-1]), vals)
        if out is None:
            return vals
        np.copyto(out, vals)
        return out


class PowerMonotone(MonotoneFn):
    """alpha(r) = scale * r^power with power >= 1 (locally Lipschitz)."""

    def __init__(self, power: float, scale: float = 1.0):
        if not power >= 1:
            raise ValueError("power must be >= 1 to keep alpha locally Lipschitz")
        if not scale > 0:
            raise ValueError("scale must be positive")
        self.power = float(power)
        self.scale = float(scale)

    def value_many(self, s: np.ndarray, out=None) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.maximum(s, 0.0, out=np.empty(s.shape) if out is None else out)
        np.power(out, self.power, out=out)
        return np.multiply(self.scale, out, out=out)

    def __repr__(self) -> str:
        return f"PowerMonotone(power={self.power:g}, scale={self.scale:g})"


# ---------------------------------------------------------------------------
# KL envelope estimation


@dataclass
class KLEnvelope:
    """Empirical upper envelope beta(s, t): nondecreasing in s for each t,
    nonincreasing in t for each s, with a fitted tail decay rate."""

    s_bins: np.ndarray      # representative (max) initial omega per bin, increasing
    t_samples: np.ndarray   # increasing times starting at 0
    table: np.ndarray       # (n_bins, n_t)
    decay_rate: float       # lambda-hat > 0, the slowest fitted bin decay
    settle_ratio: float     # max over bins of final/initial column
    n_trajectories: int = 0

    def to_csv(self, path) -> None:
        s, t = np.meshgrid(self.s_bins, self.t_samples, indexing="ij")
        rows = np.column_stack([s.ravel(), t.ravel(), self.table.ravel()])
        _write_csv(path, rows, "s,t,beta")


def estimate_kl_envelope(
    sys: PerturbedSystem,
    omega,
    samples: np.ndarray,
    battery,
    horizon: float,
    dt: float,
    *,
    n_bins: int = 20,
    region: Box | None = None,
) -> KLEnvelope:
    """Bin the sampled initial omega values, take the max of omega along all
    battery trajectories per (bin, time), and apply the double monotone
    envelope (suffix max over t, running max over s).  The tail decay rate is
    the slowest least-squares log-slope across bins.

    Trajectories must settle: a blow-up, an exit from ``region``, or a final
    envelope column above MAX_SETTLE_RATIO of the initial one raises
    NotSettlingError naming an offending start (the sampled region is then
    not inside the domain of attraction).
    """
    battery = list(battery)
    X0 = np.atleast_2d(np.asarray(samples, dtype=float))
    m = X0.shape[0]
    P = len(battery)
    s0 = np.asarray(omega.value_many(X0), dtype=float)
    if np.any(~np.isfinite(s0)):
        bad = int(np.nonzero(~np.isfinite(s0))[0][0])
        raise ValueError(f"omega is not finite at sample {X0[bad].tolist()}")

    n_steps = step_count(horizon, dt)
    t_idx = np.unique(np.linspace(0, n_steps, ENVELOPE_TIMES).astype(int))
    t_samples = t_idx * dt
    res, profiles = record_sweep(sys, X0, battery, horizon, dt, t_idx,
                                 value=lambda X, D: omega.value_many(X),
                                 freeze_domain=region)
    if np.any(res.status != STATUS_HORIZON):
        r = int(np.nonzero(res.status != STATUS_HORIZON)[0][0])
        raise NotSettlingError(
            f"trajectory from {X0[res.start_index[r]].tolist()} under policy "
            f"'{battery[res.policy_index[r]].label}' "
            f"{'blew up' if res.status[r] == STATUS_BLOWUP else 'left the region'}; the sampled "
            "region is not inside the attraction domain"
        )
    if not np.all(np.isfinite(profiles)):
        r = int(np.nonzero(~np.isfinite(profiles).all(axis=0))[0][0])
        raise NotSettlingError(
            f"omega diverged along the trajectory from {X0[res.start_index[r]].tolist()}"
        )

    # bins over initial omega by equal-count quantiles
    order = np.argsort(s0, kind="stable")
    n_bins = min(n_bins, m)
    groups = np.array_split(order, n_bins)
    groups = [g for g in groups if g.size]
    s_bins = np.array([s0[g].max() for g in groups])
    raw = np.zeros((len(groups), t_idx.size))
    prof_by_start = profiles.reshape(t_idx.size, P, m)
    for b, g in enumerate(groups):
        raw[b] = prof_by_start[:, :, g].max(axis=(1, 2))
    # merge bins with duplicate representatives (keep the max rows)
    keep_s, keep_rows = [], []
    for b in range(len(groups)):
        if keep_s and s_bins[b] <= keep_s[-1] + 1e-15:
            keep_rows[-1] = np.maximum(keep_rows[-1], raw[b])
        else:
            keep_s.append(float(s_bins[b]))
            keep_rows.append(raw[b].copy())
    s_bins = np.asarray(keep_s)
    table = np.asarray(keep_rows)

    # double monotone envelope: suffix max over t, then running max over s
    table = np.flip(np.maximum.accumulate(np.flip(table, axis=1), axis=1), axis=1)
    table = np.maximum.accumulate(table, axis=0)

    nonzero = s_bins > 1e-14
    ratio = 0.0
    if np.any(nonzero):
        ratio = float(np.max(table[nonzero, -1] / np.maximum(table[nonzero, 0], 1e-300)))
    if ratio > MAX_SETTLE_RATIO:
        b = int(np.argmax(table[:, -1] / np.maximum(table[:, 0], 1e-300)))
        raise NotSettlingError(
            f"envelope bin s={s_bins[b]:.4g} only decayed to "
            f"{ratio:.3g} of its initial value over the horizon; extend the horizon "
            "or shrink the sampled region"
        )

    decay = _fit_decay(table, t_samples)
    return KLEnvelope(s_bins, t_samples, table, decay, ratio, n_trajectories=m * P)


def _fit_decay(table: np.ndarray, t: np.ndarray) -> float:
    """Least-squares log-slope on the decaying tail of each bin; the envelope
    decay rate is the slowest bin (conservative)."""
    rates = []
    for row in table:
        if row[0] <= 1e-14:
            continue
        # the tail starts once the value has dropped below 90% of its start
        below = np.nonzero(row < 0.9 * row[0])[0]
        start = below[0] if below.size else row.size // 2
        tt, vv = t[start:], row[start:]
        good = vv > 1e-14
        if good.sum() < 3:
            continue
        slope = np.polyfit(tt[good], np.log(vv[good]), 1)[0]
        if slope < 0:
            rates.append(-slope)
    if not rates:
        raise NotSettlingError("no envelope bin shows exponential decay")
    return float(min(rates))


# ---------------------------------------------------------------------------
# Comparison-function pair with a certified exponential split


@dataclass
class SontagPair:
    """alpha1, alpha2 in K-infinity with alpha1(beta(s,t)) <= alpha2(s) e^{-lam t}
    certified on every envelope table entry at fit time."""

    alpha1: MonotoneFn
    alpha2: MonotoneFn
    lam: float
    min_margin: float = math.nan
    power: int = 1

    def certify(self, env: KLEnvelope) -> float:
        lhs = self.alpha1.value_many(env.table)
        rhs = self.alpha2.value_many(env.s_bins)[:, None] * np.exp(
            -self.lam * env.t_samples
        )[None, :]
        return float((rhs - lhs).min())


def fit_sontag_pair(
    env: KLEnvelope,
    lam: float | None = None,
) -> SontagPair:
    """alpha1 is the smallest integer power r^p whose weighted envelope
    alpha1(beta(s,t)) e^{lam t} peaks inside the table for every bin (so the
    supremum over all t >= 0 is finite, not a horizon artifact); alpha2 is the
    per-bin maximum of that weighted envelope, upper-enveloped to be strictly
    increasing.  The split inequality is re-verified on the whole table before
    returning.  ``lam`` defaults to, and may not exceed, SAFETY_FACTOR times
    the envelope decay rate.
    """
    if lam is None:
        lam = SAFETY_FACTOR * env.decay_rate
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam > SAFETY_FACTOR * env.decay_rate * (1.0 + 1e-9):
        raise ValueError(
            f"lambda={lam:.4g} exceeds safety_factor*decay_rate="
            f"{SAFETY_FACTOR * env.decay_rate:.4g}; choose a smaller lambda"
        )
    weights = np.exp(lam * env.t_samples)[None, :]
    chosen_p = None
    for p in range(1, MAX_POWER + 1):
        weighted = np.power(env.table, p) * weights
        peak = weighted.argmax(axis=1)
        if np.all(peak < env.t_samples.size - 2):
            chosen_p = p
            break
    if chosen_p is None:
        raise ValueError(
            "no integer power keeps the weighted envelope bounded within the "
            "horizon; lambda is too aggressive for the measured decay"
        )
    alpha1 = PowerMonotone(chosen_p)
    a2_vals = (np.power(env.table, chosen_p) * weights).max(axis=1)
    alpha2 = PiecewiseMonotone(env.s_bins, a2_vals)
    pair = SontagPair(alpha1, alpha2, float(lam), power=chosen_p)
    margin = pair.certify(env)
    if margin < -1e-9 * max(1.0, float(a2_vals.max())):
        raise AssertionError(f"split certificate failed with margin {margin:.3g}")
    pair.min_margin = margin
    return pair


# ---------------------------------------------------------------------------
# Numerical Lyapunov function


class NumericLyapunov:
    """V(x) as the battery-and-time maximum of alpha1(omega(phi(t;x))) e^{mu t}.

    When a certified pair is supplied, the rows of each start x retire once
    alpha2(omega(x)) e^{-(lam - mu) t}, checked every TRUNCATE_CHECK_STEPS
    steps, is at most x's running maximum over the battery: no later time can
    contribute, because the certified split bounds every future weighted
    value by exactly that decaying envelope.  V(x) depends only on x.
    """

    def __init__(
        self,
        sys: PerturbedSystem,
        omega,
        alpha1: MonotoneFn,
        mu: float,
        battery,
        horizon: float,
        dt: float,
        *,
        pair: "SontagPair | None" = None,
        region: Box | None = None,
    ):
        if not mu > 0:
            raise ValueError(f"mu must be positive, got {mu}")
        if pair is not None and mu >= pair.lam:
            raise ValueError(
                f"mu={mu:g} must stay below the split rate lam={pair.lam:g}"
            )
        self.sys = sys
        self.omega = omega
        self.alpha1 = alpha1
        self.mu = float(mu)
        self.battery = list(battery)
        self.horizon = float(horizon)
        self.dt = float(dt)
        self.pair = pair
        self.region = region

    @property
    def provenance(self) -> dict:
        return {
            "mu": self.mu,
            "horizon": self.horizon,
            "dt": self.dt,
            "battery": [p.label for p in self.battery],
            "alpha1": repr(self.alpha1),
            "truncated_by_pair": self.pair is not None,
        }

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X, dtype=float))
        m = X0.shape[0]
        P = len(self.battery)
        running = np.zeros(m * P)
        state = RowState(running=running)
        mu = self.mu
        alpha1 = self.alpha1
        omega = self.omega
        if self.pair is not None:
            s0 = np.asarray(omega.value_many(X0), dtype=float)
            caps = np.asarray(self.pair.alpha2.value_many(s0))
            decay = self.pair.lam - mu
        else:
            caps = None
            decay = 0.0

        bufs: dict = {}

        def obs(steps, ts, X, rows, D):
            run = state.align(rows)["running"]
            kk, r = X.shape[:2]
            w = omega.value_many(X.reshape(kk * r, -1), out=_work(bufs, "w", (kk * r,)))
            weighted = alpha1.value_many(w, out=w).reshape(kk, r)
            # each step's scalar e^{mu t}, as the step-by-step product had it
            weighted *= np.array([math.exp(mu * t) for t in ts.tolist()])[:, None]
            # a block holds at most one check, as BLOCK_STEPS < TRUNCATE_CHECK_STEPS
            due = np.flatnonzero((steps % TRUNCATE_CHECK_STEPS == 0) & (steps > 0))
            c = int(due[0]) if caps is not None and due.size else kk - 1
            top = np.max(weighted[: c + 1], axis=0, out=_work(bufs, "top", (r,)))
            np.maximum(run, top, out=run)
            if caps is None or not due.size:
                return None
            state.sync()
            # nothing after t can raise a start's max once its certified bound is below it
            done = (caps * math.exp(-decay * ts[c]) <= running.reshape(P, m).max(axis=0))[rows % m]
            if c + 1 < kk:  # the rows that run on take the rest of the block
                run = state.align(rows)["running"]
                np.maximum(run, np.max(weighted[c + 1 :], axis=0, out=top), out=run, where=~done)
            return np.where(done, c, -1)

        res = run_sweep(self.sys, X0, self.battery, self.horizon, self.dt, observer=obs,
                        freeze_domain=self.region)
        bad = (res.status != STATUS_HORIZON) & (res.status != STATUS_RETIRED)
        if np.any(bad):
            r = int(np.nonzero(bad)[0][0])
            raise NotSettlingError(
                f"trajectory from {X0[res.start_index[r]].tolist()} under "
                f"'{self.battery[res.policy_index[r]].label}' left the evaluation "
                "region; V is only defined on the settling region"
            )
        state.sync()
        return running.reshape(P, m).max(axis=0)


@dataclass
class LyapunovValidation:
    sandwich_passed: bool
    decrease_passed: bool
    worst_sandwich_margin: float
    worst_decrease_ratio: float   # max over samples of V(y) / (V(x) e^{-mu tau})
    n_samples: int
    taus: tuple
    tol: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.sandwich_passed and self.decrease_passed


def validate_lyapunov(
    Vnum: NumericLyapunov,
    alpha2: MonotoneFn,
    samples: np.ndarray,
    *,
    taus=(0.5, 1.0, 2.0),
    tol: float = 0.05,
) -> LyapunovValidation:
    """At each sample x check the sandwich alpha1(omega(x)) <= V(x) <=
    alpha2(omega(x))*(1+tol), and along every battery trajectory check the
    decrease V(phi(tau;x,d)) <= V(x) e^{-mu tau} (1+tol) for each tau.  Both
    inequalities get the additive slack ZERO_FLOOR.

    Each tau must be a positive whole number of ``Vnum.dt`` steps and ``tol``
    positive, or ValueError is raised.  alpha1(omega(x)) <= V(x) holds by
    construction (the t=0 term of the maximum); it is still checked and
    reported.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    m = X.shape[0]
    sys = Vnum.sys
    battery = Vnum.battery
    P = len(battery)
    taus = tuple(float(t) for t in taus)
    tau_steps = [step_count(tau, Vnum.dt, "tau") for tau in taus]

    Vx = Vnum.value_many(X)
    w = np.asarray(Vnum.omega.value_many(X), dtype=float)
    a1 = Vnum.alpha1.value_many(w)
    a2 = np.asarray(alpha2.value_many(w), dtype=float)

    lower_slack = Vx - a1 + ZERO_FLOOR
    upper_slack = a2 * (1.0 + tol) - Vx + ZERO_FLOOR
    sandwich_margin = float(np.minimum(lower_slack, upper_slack).min())
    failures = []
    for i in np.nonzero((lower_slack < 0) | (upper_slack < 0))[0]:
        failures.append(
            {"check": "sandwich", "x": X[i].tolist(), "alpha1": float(a1[i]),
             "V": float(Vx[i]), "alpha2": float(a2[i])}
        )

    steps = sorted(set(tau_steps))
    res, states = record_sweep(sys, X, battery, max(taus), Vnum.dt, steps,
                               freeze_domain=Vnum.region)
    worst_ratio = 0.0
    decrease_ok = True
    V_start = np.tile(Vx, P)  # V at each row's start
    for tau, k in zip(taus, tau_steps):
        Vy = Vnum.value_many(states[steps.index(k)])
        decayed = V_start * math.exp(-Vnum.mu * tau)
        bound = decayed * (1.0 + tol) + ZERO_FLOOR
        ratio = np.where(V_start > ZERO_FLOOR, Vy / np.maximum(decayed, 1e-300), 0.0)
        worst_ratio = max(worst_ratio, float(ratio.max()) if ratio.size else 0.0)
        bad = Vy > bound
        if np.any(bad):
            decrease_ok = False
            for r in np.nonzero(bad)[0]:
                failures.append(
                    {
                        "check": "decrease",
                        "x": X[res.start_index[r]].tolist(),
                        "policy": battery[res.policy_index[r]].label,
                        "tau": tau,
                        "V_x": float(Vx[res.start_index[r]]),
                        "V_phi_tau": float(Vy[r]),
                    }
                )
    return LyapunovValidation(
        sandwich_passed=sandwich_margin >= 0.0,
        decrease_passed=decrease_ok,
        worst_sandwich_margin=sandwich_margin,
        worst_decrease_ratio=worst_ratio,
        n_samples=m,
        taus=taus,
        tol=tol,
        failures=failures,
    )
