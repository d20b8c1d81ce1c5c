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
from .geometry import Box, _fold, _write_csv

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
#: the rows an observer stops with a row mask (perfbench reads 4 as a stopped sweep)
STATUS_RETIRED = 5

#: relative slack allowed when a time span must be a whole number of steps
_WHOLE_STEP_RTOL = 1e-9
_FLOAT_MAX = float(np.finfo(np.float64).max)

_STATUS_REASON = {
    STATUS_HORIZON: "horizon_reached",
    STATUS_BLOWUP: "blow_up",
    STATUS_LEFT_DOMAIN: "left_domain",
    STATUS_RETIRED: "retired",
}


@dataclass(frozen=True)
class PerturbedSystem:
    """x' = f(x) + d(t) with |d(t)| <= delta; delta = 0 is the nominal system.

    A solution has escaped once a state is non-finite or has a coordinate of
    magnitude above ``blowup_bound``; sweeps freeze it there as ``blow_up``.
    An infinite bound still catches overflow."""

    f: VectorField
    delta: float = 0.0
    blowup_bound: float = 1e6

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if not self.blowup_bound > 0:
            raise ValueError(f"blowup_bound must be positive, got {self.blowup_bound}")
        if len(self.f.components) != self.f.dim:
            raise ValueError(
                f"vector field has {len(self.f.components)} components "
                f"but {self.f.dim} variables"
            )

    @property
    def dim(self) -> int:
        return self.f.dim


def _row_norms(A: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of A, as a fresh array."""
    return np.sqrt(_fold(np.add, A * A))


def _project_ball(D: np.ndarray, delta: float) -> np.ndarray:
    """Clamp rows of D onto the ball of radius delta, in place."""
    if delta == 0.0:
        D[:] = 0.0
        return D
    norms = _row_norms(D)
    over = norms > delta
    if over.any():
        np.divide(delta, norms, out=norms, where=over)
        np.multiply(D, norms[:, None], out=D, where=over[:, None])
    return D


class DisturbancePolicy:
    """One disturbance signal d(t) (possibly state feedback).  ``values``
    fills an (m, n) array for a batch of trajectories at time t.  The sweep
    applies what it emits as it is, so emitted values must already lie in
    the ball |d| <= delta, up to a few ulp of delta: ``_project_ball`` puts
    them there, and a row it scaled can have a computed norm up to two
    spacings of delta above it."""

    label: str = "policy"

    def prepare(self, sys: PerturbedSystem, horizon: float, dt: float) -> None:
        pass

    def refresh_period(self, dt: float) -> int:
        """Number of dt-steps between disturbance updates (1 = every step,
        as state feedback needs)."""
        return 1

    def values(self, t: float, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroPolicy(DisturbancePolicy):
    label = "zero"

    def refresh_period(self, dt: float) -> int:
        return 1 << 30

    def values(self, t, X, out):
        out[:] = 0.0
        return out


class ConstantPolicy(DisturbancePolicy):
    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float).ravel()
        self.label = "const[" + ",".join(f"{v:+.4g}" for v in self.vector) + "]"
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
        norms = _row_norms(raw)
        norms[norms == 0.0] = 1.0
        self._table = _project_ball((sys.delta / norms)[:, None] * raw, sys.delta)

    def refresh_period(self, dt: float) -> int:
        return max(1, int(round(self.dwell / dt)))

    def values(self, t, X, out):
        idx = min(int(t / self.dwell + 1e-12), self._table.shape[0] - 1)
        out[:] = self._table[idx]
        return out


class ExtremalFeedbackPolicy(DisturbancePolicy):
    """State feedback d(x) = sign * delta * grad g(x)/|grad g(x)| for a
    set-defining function g, driving trajectories up or down that function
    as fast as the disturbance budget allows; refreshed every step."""

    def __init__(self, source: ScalarField, sign: int = +1):
        self.sign = 1 if sign >= 0 else -1
        self.field = source
        self.label = f"extremal[{'+' if self.sign > 0 else '-'}grad {source.source}]"
        self._delta = 0.0
        self._grad: VectorField | None = None

    def prepare(self, sys, horizon, dt):
        self._delta = sys.delta
        self._grad = self.field.grad()

    def values(self, t, X, out):
        G = self._grad.eval_many(X)
        norms = _row_norms(G)
        safe = norms > 1e-12
        np.divide(self.sign * self._delta, norms, out=norms, where=safe)
        out[:] = 0.0
        np.multiply(norms[:, None], G, out=out, where=safe[:, None])
        return _project_ball(out, self._delta)


# ---------------------------------------------------------------------------
# Batched RK4 sweep engine


@dataclass
class SweepResult:
    states: np.ndarray        # (R, n) final (or frozen) states
    status: np.ndarray        # (R,) termination codes
    end_times: np.ndarray     # (R,) time of freeze or horizon
    start_index: np.ndarray   # (R,) row -> index into `starts`
    policy_index: np.ndarray  # (R,) row -> index into `policies`
    disturbances: np.ndarray  # (R, n) disturbance of each row's last step

    def reason(self, row: int) -> str:
        return _STATUS_REASON.get(int(self.status[row]), "running")


class RowState:
    """Per-row arrays of one sweep's observer, kept in running-block order.

    ``arrays`` maps names to arrays whose last axis is indexed by sweep row.
    ``align(rows)`` returns the same names mapped to the parts of the rows
    in ``rows``, in that order, for the observer to read and update in
    place.  They are gathered again, after the previous parts are written
    back, only when the running set changes; within a sweep that set only
    shrinks, so its size identifies it, and one RowState serves one sweep.
    ``sync()`` writes the parts back, so the full arrays are current.  With
    ``write_back=False`` the arrays are read only and never written back.
    """

    def __init__(self, write_back: bool = True, **arrays):
        self.full = arrays
        self.part: dict = {}
        self._write_back = write_back
        self._rows = None
        self._dirty = False

    def add(self, name: str, array: np.ndarray) -> None:
        """Track one more full array from now on."""
        self.full[name] = array
        if self._rows is not None:
            self.part[name] = array[..., self._rows]

    def align(self, rows: np.ndarray) -> dict:
        if self._rows is None or rows.size != self._rows.size:
            self.sync()
            self._rows = rows
            self.part = {k: a[..., rows] for k, a in self.full.items()}
        self._dirty = self._write_back
        return self.part

    def sync(self) -> None:
        if self._dirty:
            for k, a in self.full.items():
                a[..., self._rows] = self.part[k]
            self._dirty = False


def step_count(span: float, dt: float, name: str = "horizon") -> int:
    """Number of dt-steps in ``span``.  A non-finite span or dt, or a span
    that is not a whole number of steps (relative tolerance 1e-9), raises
    ValueError: rounding it would silently change its meaning."""
    if not (math.isfinite(span) and math.isfinite(dt)):
        raise ValueError(f"{name}={span:g} and dt={dt:g} must be finite")
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
    freeze_domain: Box | None = None,
    observer=None,
) -> SweepResult:
    """Advance every (start, policy) pair with fixed-step RK4.

    ``horizon`` must be a whole number of ``dt`` steps.  Rows that blow up
    (non-finite or |x|_inf > ``sys.blowup_bound``, read once per sweep) or
    leave ``freeze_domain`` are frozen at their last state and excluded from
    further updates; this is always recorded in ``status``, never silent.
    Row r starts at ``starts[r % len(starts)]`` under
    ``policies[r // len(starts)]`` (``SweepResult.start_index``/``policy_index``).

    The observer is the only view of a sweep in progress.
    ``observer(step, t, X, rows, D)`` is invoked once at t=0 and after every
    step.  ``rows`` holds the sweep indices of the rows still running, in
    ascending order (it only shrinks within a sweep, so an observer can keep
    per-row state in the same order: ``RowState``), and ``X`` and ``D``
    their states and disturbances; at
    t=0 every row is included (a start frozen there is still a state the row
    took); after t=0 it is called only while some row runs.  The observer
    must treat the arrays as read-only.  It returns None, or a boolean array
    over ``rows`` that stops the rows it flags as ``retired``, each keeping
    its state at that step.  The sweep stops after the step at which the
    last row stopped, so a state wanted at a later step is the row's final
    state.  Only the running rows are integrated.
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

    start_index = np.tile(np.arange(m), P)
    policy_index = np.repeat(np.arange(P), m)
    status = np.zeros(R, dtype=np.int8)
    end_times = np.full(R, horizon)
    # a row's final state and disturbance, written once the row stops
    states = np.empty((R, n))
    dists = np.empty((R, n))
    for pol in policies:
        pol.prepare(sys, horizon, dt)
    periods = [pol.refresh_period(dt) for pol in policies]

    step, n_scratch = sys.f.rk4_step(dt)
    # the running rows fill the first rows of every buffer, in sweep order
    bufs = [np.tile(starts, (P, 1)), np.zeros((R, n))] + [np.empty((R, n)) for _ in range(6)]
    scratch = np.empty((n_scratch, R))
    flags = np.empty((R, n), dtype=bool)
    rows = np.arange(R)
    X, D, Xt, mag = bufs[0], bufs[1], bufs[6], bufs[7]
    within, step_args, by_period = flags, None, None
    # |x| <= bound is False for NaN and +-inf, so one comparison covers both
    bound = min(float(sys.blowup_bound), _FLOAT_MAX)

    def freeze(mask, code, t):
        status[rows[mask]] = code
        end_times[rows[mask]] = t

    def compact():
        """Write the rows that stopped to the results and gather the running
        ones to the front of the buffers; each policy keeps a contiguous
        block because the order is kept."""
        nonlocal rows, X, D, Xt, mag, within, step_args, by_period
        keep = status[rows] == STATUS_RUNNING
        states[rows[~keep]] = X[~keep]
        dists[rows[~keep]] = D[~keep]
        rows = rows[keep]
        bufs[0][: rows.size] = X[keep]
        bufs[1][: rows.size] = D[keep]
        X, D, k1, k2, k3, k4, Xt, mag = (b[: rows.size] for b in bufs)
        within = flags[: rows.size]
        blocks = (X, Xt, k1, k2, k3, k4)
        step_args = (X, D, Xt, k1, k2, k3, k4, *(B[:, j] for B in blocks for j in range(n)),
                     *scratch[:, : rows.size])
        edges = np.searchsorted(rows, np.arange(P + 1) * m)
        plan: dict[int, list] = {}
        for p, pol in enumerate(policies):
            if edges[p] < edges[p + 1]:
                plan.setdefault(periods[p], []).append((pol, slice(edges[p], edges[p + 1])))
        by_period = list(plan.items())

    def observe(step, t):
        """Call the observer and retire the running rows it flags."""
        stop = observer(step, t, X, rows, D)
        if stop is not None and stop.any():
            freeze(stop & (status[rows] == STATUS_RUNNING), STATUS_RETIRED, t)
            compact()

    for p, pol in enumerate(policies):
        pol.values(0.0, X[p * m : (p + 1) * m], D[p * m : (p + 1) * m])
    if freeze_domain is not None:
        freeze(~freeze_domain.contains_many(X), STATUS_LEFT_DOMAIN, 0.0)
    if observer is not None:
        observe(0, 0.0)
    compact()

    k = 0
    with np.errstate(all="ignore"):
        while k < n_steps and rows.size:
            t = k * dt
            for period, members in by_period:
                if k % period == 0:
                    for pol, block in members:
                        pol.values(t, X[block], D[block])
            step(*step_args)  # Xt := the RK4 step from X
            k += 1
            t1 = k * dt
            np.abs(Xt, out=mag)
            np.less_equal(mag, bound, out=within)
            ok = _fold(np.logical_and, within)
            stopped = np.count_nonzero(ok) < rows.size
            if stopped:
                freeze(~ok, STATUS_BLOWUP, t1)
                np.copyto(X, Xt, where=ok[:, None])
            else:
                np.copyto(X, Xt)
            if freeze_domain is not None:
                # a blown-up row kept its previous state, which was inside
                inside = freeze_domain.contains_many(X)
                if np.count_nonzero(inside) < rows.size:
                    freeze(~inside, STATUS_LEFT_DOMAIN, t1)
                    stopped = True
            if stopped:
                compact()
            if observer is not None and rows.size:
                observe(k, t1)

    states[rows] = X
    dists[rows] = D
    status[status == STATUS_RUNNING] = STATUS_HORIZON
    return SweepResult(states, status, end_times, start_index, policy_index, dists)


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
        return float(_row_norms(self.disturbances).max())

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = ",".join(["t"] + [f"x{i+1}" for i in range(n)] + [f"d{i+1}" for i in range(n)])
        _write_csv(path, np.column_stack([self.times, self.states, self.disturbances]), header)


def integrate(
    sys: PerturbedSystem,
    x0,
    policy: DisturbancePolicy,
    horizon: float,
    dt: float,
    *,
    domain: Box | None = None,
) -> Trajectory:
    """Integrate one trajectory, recording every step.  Non-finite states
    terminate with reason 'blow_up'; they never raise."""
    return ensemble(sys, x0, [policy], horizon, dt, domain=domain)[0]


def ensemble(
    sys: PerturbedSystem,
    x0,
    policies,
    horizon: float,
    dt: float,
    *,
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
    times = np.arange(n_steps + 1) * dt
    states = np.empty(shape)
    dists = np.zeros(shape)

    def recorder(step, t, X, rows, D):
        states[step, rows] = X
        dists[step, rows] = D

    res = run_sweep(sys, x0[None, :], policies, horizon, dt,
                    freeze_domain=domain, observer=recorder)
    trajectories = []
    for p, pol in enumerate(policies):
        reason = res.reason(p)
        # a blown-up row's state at its freeze time is undefined: keep the last good one
        last = int(round(res.end_times[p] / dt)) - (reason == "blow_up")
        if reason == "left_domain":  # the observer never sees the exit state
            states[last, p] = res.states[p]
            dists[last, p] = res.disturbances[p]
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
