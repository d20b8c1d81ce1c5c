"""Integration of the disturbed system x' = f(x) + d(t), |d(t)| <= delta.

Disturbance signals are sampled from a finite family of policies (the
"battery").  Every verdict computed from battery simulations is evidence, not
proof: a violation is a true counterexample up to integration error, while a
pass means no battery member falsified the property.  Callers label such
results "sampled".

Integration is fixed-step RK4 with the disturbance held constant within each
step.  The batched engine (`run_sweep`) advances many trajectories at once as
numpy arrays; `ensemble` runs one such sweep over a whole battery from one
start and records every path, and `integrate` is its one-policy case.  A row's
result does not depend on the other rows of its sweep, so results are
bit-identical for identical (system, start, policy, horizon, dt, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import ScalarField, VectorField
from .geometry import Box

__all__ = [
    "PerturbedSystem",
    "DisturbancePolicy",
    "ZeroPolicy",
    "ConstantPolicy",
    "PiecewiseRandomPolicy",
    "ExtremalFeedbackPolicy",
    "Trajectory",
    "integrate",
    "ensemble",
    "default_policy_battery",
    "run_sweep",
    "step_count",
    "SweepResult",
    "STATUS_RUNNING",
    "STATUS_HORIZON",
    "STATUS_BLOWUP",
    "STATUS_LEFT_DOMAIN",
]

STATUS_RUNNING = 0
STATUS_HORIZON = 1
STATUS_BLOWUP = 2
STATUS_LEFT_DOMAIN = 3
STATUS_ABORTED = 4

#: relative slack allowed when a time span must be a whole number of steps
_WHOLE_STEP_RTOL = 1e-9
_FLOAT_MAX = float(np.finfo(np.float64).max)

_STATUS_REASON = {
    STATUS_HORIZON: "horizon_reached",
    STATUS_BLOWUP: "blow_up",
    STATUS_LEFT_DOMAIN: "left_domain",
    STATUS_ABORTED: "aborted",
}


@dataclass(frozen=True)
class PerturbedSystem:
    """x' = f(x) + d(t) with |d(t)| <= delta; delta = 0 is the nominal system."""

    f: VectorField
    delta: float = 0.0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if len(self.f.components) != self.f.dim:
            raise ValueError(
                f"vector field has {len(self.f.components)} components "
                f"but {self.f.dim} variables"
            )

    @property
    def dim(self) -> int:
        return self.f.dim


def _project_ball(D: np.ndarray, delta: float) -> np.ndarray:
    """Clamp rows of D onto the ball of radius delta."""
    if delta == 0.0:
        D[:] = 0.0
        return D
    norms = np.sqrt(np.sum(D * D, axis=1))
    over = norms > delta
    if np.any(over):
        D[over] *= (delta / norms[over])[:, None]
    return D


class DisturbancePolicy:
    """One disturbance signal d(t) (possibly state feedback).  ``values``
    fills an (m, n) array for a batch of trajectories at time t; emitted
    values always satisfy |d| <= delta."""

    label: str = "policy"
    #: True when d depends on the current state and must be refreshed each step
    needs_state: bool = False

    def prepare(self, sys: PerturbedSystem, horizon: float, dt: float) -> None:
        pass

    def refresh_period(self, dt: float) -> int:
        """Number of dt-steps between disturbance updates (1 = every step)."""
        return 1

    def values(self, t: float, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": type(self).__name__, "label": self.label}


class ZeroPolicy(DisturbancePolicy):
    label = "zero"

    def refresh_period(self, dt: float) -> int:
        return 1 << 30

    def values(self, t, X, out):
        out[:] = 0.0
        return out


class ConstantPolicy(DisturbancePolicy):
    def __init__(self, vector, label: str | None = None):
        self.vector = np.asarray(vector, dtype=float).ravel()
        self.label = label or "const[" + ",".join(f"{v:+.4g}" for v in self.vector) + "]"
        self._clamped = self.vector.copy()

    def prepare(self, sys, horizon, dt):
        self._clamped = _project_ball(self.vector.copy()[None, :], sys.delta)[0]

    def refresh_period(self, dt: float) -> int:
        return 1 << 30

    def values(self, t, X, out):
        out[:] = self._clamped
        return out


class PiecewiseRandomPolicy(DisturbancePolicy):
    """Piecewise-constant signal refreshed every ``dwell`` time units, each
    value drawn uniformly from the surface of the delta-sphere (extreme points
    of the disturbance set generate the widest tubes).  Deterministic given
    the seed."""

    def __init__(self, seed: int, dwell: float = 0.1):
        if dwell <= 0:
            raise ValueError("dwell must be positive")
        self.seed = int(seed)
        self.dwell = float(dwell)
        self.label = f"random[seed={self.seed},dwell={self.dwell:g}]"
        self._table: np.ndarray | None = None

    def prepare(self, sys, horizon, dt):
        # the table is indexed by t/dwell, so a refresh must land on every dwell
        step_count(self.dwell, dt, "dwell")
        n_dwell = int(math.ceil(horizon / self.dwell)) + 2
        rng = np.random.default_rng(self.seed)
        raw = rng.standard_normal((n_dwell, sys.dim))
        norms = np.sqrt(np.sum(raw * raw, axis=1))
        norms[norms == 0.0] = 1.0
        self._table = (sys.delta / norms)[:, None] * raw

    def refresh_period(self, dt: float) -> int:
        return max(1, int(round(self.dwell / dt)))

    def values(self, t, X, out):
        idx = min(int(t / self.dwell + 1e-12), self._table.shape[0] - 1)
        out[:] = self._table[idx]
        return out

    def describe(self) -> dict:
        return {"kind": "PiecewiseRandomPolicy", "label": self.label,
                "seed": self.seed, "dwell": self.dwell}


class ExtremalFeedbackPolicy(DisturbancePolicy):
    """State feedback d(x) = sign * delta * grad g(x)/|grad g(x)| for a
    set-defining function g (or a fixed unit direction), driving trajectories
    up or down that function as fast as the disturbance budget allows."""

    needs_state = True

    def __init__(self, source: ScalarField | np.ndarray, sign: int = +1, name: str = ""):
        self.sign = 1 if sign >= 0 else -1
        if isinstance(source, ScalarField):
            self.field = source
            self.direction = None
            self.label = f"extremal[{'+' if self.sign > 0 else '-'}grad {name or source.source}]"
        else:
            self.field = None
            v = np.asarray(source, dtype=float).ravel()
            norm = np.linalg.norm(v)
            self.direction = v / norm if norm > 0 else v
            self.label = f"extremal[{'+' if self.sign > 0 else '-'}dir {np.round(self.direction, 3).tolist()}]"
        self._delta = 0.0
        self._grad: VectorField | None = None

    def prepare(self, sys, horizon, dt):
        self._delta = sys.delta
        if self.field is not None:
            self._grad = self.field.grad()

    def values(self, t, X, out):
        if self.direction is not None:
            out[:] = (self.sign * self._delta) * self.direction
            return out
        G = self._grad.eval_many(X)
        norms = np.sqrt(np.sum(G * G, axis=1))
        safe = norms > 1e-12
        out[:] = 0.0
        out[safe] = (self.sign * self._delta / norms[safe])[:, None] * G[safe]
        return out


# ---------------------------------------------------------------------------
# Batched RK4 sweep engine


@dataclass
class SweepResult:
    states: np.ndarray        # (R, n) final (or frozen) states
    status: np.ndarray        # (R,) termination codes
    end_times: np.ndarray     # (R,) time of freeze or horizon
    start_index: np.ndarray   # (R,) row -> index into `starts`
    policy_index: np.ndarray  # (R,) row -> index into `policies`

    def reason(self, row: int) -> str:
        return _STATUS_REASON.get(int(self.status[row]), "running")


def step_count(span: float, dt: float, name: str = "horizon") -> int:
    """Number of dt-steps in ``span``.  A span that is not a whole number of
    steps (relative tolerance 1e-9) raises ValueError: rounding it would
    silently change its meaning."""
    if dt <= 0 or span <= 0:
        raise ValueError(f"{name} and dt must be positive")
    if dt > span:
        raise ValueError(f"dt={dt} exceeds {name}={span}")
    ratio = span / dt
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > _WHOLE_STEP_RTOL * n:
        raise ValueError(
            f"{name}={span:g} is not a whole number of dt={dt:g} steps ({ratio:.6g})"
        )
    return n


def run_sweep(
    sys: PerturbedSystem,
    starts: np.ndarray,
    policies,
    horizon: float,
    dt: float,
    *,
    blowup_bound: float = 1e6,
    freeze_domain: Box | None = None,
    observer=None,
) -> SweepResult:
    """Advance every (start, policy) pair with fixed-step RK4.

    ``horizon`` must be a whole number of ``dt`` steps.  Rows that blow up
    (non-finite or |x|_inf > blowup_bound) or leave ``freeze_domain`` are
    frozen at their last state and excluded from further updates; this is
    always recorded in ``status``, never silent.

    The observer is the only view of a sweep in progress.
    ``observer(step, t, X, live, D)`` is invoked once at t=0 and after every
    step with the states ``X`` and the disturbances ``D`` of every row; it
    must treat the arrays as read-only.  ``live`` marks the rows to observe:
    every row at t=0 (a start frozen there is still a state the row took),
    then the rows still running.  Row r starts at
    ``starts[r % len(starts)]`` under ``policies[r // len(starts)]``
    (``SweepResult.start_index``/``policy_index``).  An observer returning a
    truthy value aborts the sweep early; rows still running are then marked
    ``aborted``.  The sweep stops after the step at which the last row
    froze: the observer is not called for the remaining steps, so it must
    record nothing for rows that are not live, and a state wanted at a later
    step is the row's final state.
    """
    n_steps = step_count(horizon, dt)
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    if not np.all(np.isfinite(starts)):
        raise ValueError("initial states must be finite")
    m, n = starts.shape
    if n != sys.dim:
        raise ValueError(f"starts have dimension {n}, system expects {sys.dim}")
    policies = list(policies)
    if not policies:
        raise ValueError("at least one policy is required")
    P = len(policies)
    R = m * P

    X = np.tile(starts, (P, 1))
    start_index = np.tile(np.arange(m), P)
    policy_index = np.repeat(np.arange(P), m)
    status = np.zeros(R, dtype=np.int8)
    end_times = np.full(R, horizon)
    D = np.zeros((R, n))

    groups = []
    for p, pol in enumerate(policies):
        pol.prepare(sys, horizon, dt)
        groups.append((pol, slice(p * m, (p + 1) * m)))
    # state-feedback groups refresh every step; the others by refresh period
    feedback = [g for g in groups if g[0].needs_state]
    timed: dict[int, list] = {}
    for g in groups:
        if not g[0].needs_state:
            timed.setdefault(g[0].refresh_period(dt), []).append(g)
    timed = list(timed.items())

    comps = [c._compiled for c in sys.f.components]
    k1 = np.empty((R, n))
    k2 = np.empty((R, n))
    k3 = np.empty((R, n))
    k4 = np.empty((R, n))
    Xt = np.empty((R, n))
    X_cols = [X[:, j] for j in range(n)]
    Xt_cols = [Xt[:, j] for j in range(n)]
    mag = np.empty((R, n))
    within = np.empty((R, n), dtype=bool)
    advance = np.empty(R, dtype=bool)
    # |x| <= bound is False for NaN and +-inf, so one comparison covers both
    bound = min(float(blowup_bound), _FLOAT_MAX)

    def rhs(cols, out: np.ndarray) -> np.ndarray:
        for j, c in enumerate(comps):
            out[:, j] = c(*cols)
        out += D
        return out

    def refresh(pol, rows, t):
        pol.values(t, X[rows], D[rows])
        _project_ball(D[rows], sys.delta)

    active = status == STATUS_RUNNING
    for pol, rows in groups:
        refresh(pol, rows, 0.0)

    if freeze_domain is not None:
        inside = freeze_domain.contains_many(X)
        newly = active & ~inside
        status[newly] = STATUS_LEFT_DOMAIN
        end_times[newly] = 0.0
        active = status == STATUS_RUNNING
    n_active = int(np.count_nonzero(active))

    aborted = False
    if observer is not None:
        live = np.ones(R, dtype=bool)
        aborted = bool(observer(0, 0.0, X, live, D))

    half = 0.5 * dt
    sixth = dt / 6.0
    k = 0
    with np.errstate(all="ignore"):
        while k < n_steps and n_active and not aborted:
            t = k * dt
            for period, members in timed:
                if k % period == 0:
                    for pol, rows in members:
                        refresh(pol, rows, t)
            for pol, rows in feedback:
                refresh(pol, rows, t)
            rhs(X_cols, k1)
            np.multiply(k1, half, out=Xt)
            Xt += X
            rhs(Xt_cols, k2)
            np.multiply(k2, half, out=Xt)
            Xt += X
            rhs(Xt_cols, k3)
            np.multiply(k3, dt, out=Xt)
            Xt += X
            rhs(Xt_cols, k4)
            # Xt := X + dt/6 (k1 + 2 k2 + 2 k3 + k4)
            np.add(k2, k3, out=k2)
            k2 *= 2.0
            k2 += k1
            k2 += k4
            np.multiply(k2, sixth, out=Xt)
            Xt += X

            k += 1
            t1 = k * dt
            np.abs(Xt, out=mag)
            np.less_equal(mag, bound, out=within)
            ok = within.all(axis=1) if n > 1 else within[:, 0]
            np.logical_and(active, ok, out=advance)
            n_advance = int(np.count_nonzero(advance))
            changed = n_advance != n_active
            if changed:
                newly_blown = active & ~ok
                status[newly_blown] = STATUS_BLOWUP
                end_times[newly_blown] = t1
            if n_advance == R:
                np.copyto(X, Xt)
            elif n_advance:
                np.copyto(X, Xt, where=advance[:, None])
            if freeze_domain is not None:
                inside = freeze_domain.contains_many(X)
                newly_out = advance & ~inside
                if np.any(newly_out):
                    status[newly_out] = STATUS_LEFT_DOMAIN
                    end_times[newly_out] = t1
                    changed = True
            if changed:
                active = status == STATUS_RUNNING
                n_active = int(np.count_nonzero(active))
            if observer is not None:
                aborted = bool(observer(k, t1, X, active, D))
            if aborted:
                end_times[status == STATUS_RUNNING] = t1

    status[status == STATUS_RUNNING] = STATUS_ABORTED if aborted else STATUS_HORIZON
    return SweepResult(X, status, end_times, start_index, policy_index)


# ---------------------------------------------------------------------------
# Single trajectories


@dataclass
class Trajectory:
    """One solution record: strictly increasing times from 0, the states, and
    the disturbance applied on each step (last entry repeats)."""

    times: np.ndarray
    states: np.ndarray
    disturbances: np.ndarray
    terminated_reason: str
    policy_label: str = ""

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def max_disturbance_norm(self) -> float:
        return float(np.sqrt(np.sum(self.disturbances**2, axis=1)).max())

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = ",".join(
            ["t"] + [f"x{i+1}" for i in range(n)] + [f"d{i+1}" for i in range(n)]
        )
        data = np.column_stack([self.times, self.states, self.disturbances])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def integrate(
    sys: PerturbedSystem,
    x0,
    policy: DisturbancePolicy,
    horizon: float,
    dt: float,
    *,
    blowup_bound: float = 1e6,
    domain: Box | None = None,
) -> Trajectory:
    """Integrate one trajectory, recording every step.  Non-finite states
    terminate with reason 'blow_up'; they never raise."""
    return ensemble(sys, x0, [policy], horizon, dt, blowup_bound=blowup_bound, domain=domain)[0]


def ensemble(
    sys: PerturbedSystem,
    x0,
    policies,
    horizon: float,
    dt: float,
    *,
    blowup_bound: float = 1e6,
    domain: Box | None = None,
) -> list[Trajectory]:
    """One trajectory per policy from the same start, integrated together in
    one sweep; per-trajectory failures terminate that trajectory without
    aborting the ensemble."""
    policies = list(policies)
    if not policies:
        raise ValueError("ensemble needs a non-empty policy list")
    x0 = np.asarray(x0, dtype=float).ravel()
    n_steps = step_count(horizon, dt)
    shape = (n_steps + 1, len(policies), x0.size)
    times = np.empty(n_steps + 1)
    states = np.empty(shape)
    dists = np.zeros(shape)

    def recorder(step, t, X, live, D):
        times[step] = t
        states[step] = X
        dists[step] = D

    res = run_sweep(
        sys,
        x0[None, :],
        policies,
        horizon,
        dt,
        blowup_bound=blowup_bound,
        freeze_domain=domain,
        observer=recorder,
    )
    trajectories = []
    for p, pol in enumerate(policies):
        reason = res.reason(p)
        if reason == "horizon_reached":
            last = n_steps
        elif reason == "blow_up":
            # the state at the freeze time is undefined; keep the last good one
            last = int(round(res.end_times[p] / dt)) - 1
        else:  # left_domain: the exit state is defined and recorded
            last = int(round(res.end_times[p] / dt))
        last = min(max(last, 0), n_steps)
        trajectories.append(
            Trajectory(
                times[: last + 1].copy(),
                states[: last + 1, p].copy(),
                dists[: last + 1, p].copy(),
                terminated_reason=reason,
                policy_label=pol.label,
            )
        )
    return trajectories


# ---------------------------------------------------------------------------
# Policy battery


def default_policy_battery(
    sys: PerturbedSystem,
    n_random: int = 8,
    seed: int = 0,
    set_fields=(),
    dwell: float = 0.1,
) -> list[DisturbancePolicy]:
    """The standard adversarial family: the zero signal, constants at the
    extreme axis and cube-vertex directions of the disturbance ball, extremal
    feedback along the gradients of any declared set-defining functions, and
    ``n_random`` seeded piecewise-random signals."""
    if n_random < 0:
        raise ValueError("n_random must be nonnegative")
    n = sys.dim
    delta = sys.delta
    policies: list[DisturbancePolicy] = [ZeroPolicy()]
    seen: set[tuple] = set()

    def add_constant(direction: np.ndarray):
        key = tuple(np.round(direction, 12))
        if key in seen or not np.any(direction):
            return
        seen.add(key)
        policies.append(ConstantPolicy(delta * direction))

    for i in range(n):
        for s in (+1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            add_constant(e)
    if n > 1:
        for bits in range(2**n):
            v = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])
            add_constant(v / np.sqrt(n))
    for g in set_fields:
        policies.append(ExtremalFeedbackPolicy(g, +1))
        policies.append(ExtremalFeedbackPolicy(g, -1))
    seeds = np.random.SeedSequence(seed).generate_state(max(n_random, 1))
    for i in range(n_random):
        policies.append(PiecewiseRandomPolicy(int(seeds[i]), dwell=dwell))
    return policies
