"""Integration of the disturbed system x' = f(x) + d(t), |d(t)| <= delta.

Disturbance signals are sampled from a finite family of policies (the
"battery").  Every verdict computed from battery simulations is evidence, not
proof: a violation is a true counterexample up to integration error, while a
pass means no battery member falsified the property.  Callers label such
results "sampled".

Integration is fixed-step RK4 with the disturbance held constant within each
step.  The batched engine (`run_sweep`) advances many trajectories at once as
numpy arrays; `record_sweep` records chosen steps of a sweep, `ensemble` every
path of a battery from one start, and `integrate` is its one-policy case.
`_Monitor` is the one per-row outcome monitor of a sweep: its tables exist,
with fixed shapes, from construction, and it keeps them in running-block
order in `RowState`, which writes back every array it holds.  A row's result
does not depend on the other rows of its sweep, so results are bit-identical
for identical (system, start, policy, horizon, dt, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import ScalarField, VectorField
from .geometry import Box, _fold, _work, _write_csv

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
    "record_sweep",
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

#: the most steps, and the most state floats (32 KiB), of an observer call
#: of more than one step: a block's temporaries stay far below glibc's mmap
#: threshold, and the work arrays its predicates keep stay small
BLOCK_STEPS = 64
BLOCK_FLOATS = 4096

#: relative slack allowed when a time span must be a whole number of steps
_WHOLE_STEP_RTOL = 1e-9
_FLOAT_MAX = float(np.finfo(np.float64).max)
#: the lost-at index of a ``_Monitor`` group that still runs
_RUNS = np.iinfo(np.intp).max

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


class ZeroPolicy(ConstantPolicy):
    def __init__(self):
        super().__init__([0.0])  # d = 0, one entry broadcast over every axis
        self.label = "zero"


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
    ``align(rows)`` maps the same names to the parts of the rows in
    ``rows``, in that order, for the observer to update in place; they are
    gathered again, every old part written back (a read-only one unchanged),
    only when the running set (which only shrinks, so its size identifies
    it) changes.  ``sync()`` writes the parts back."""

    def __init__(self, **arrays):
        self.full = arrays
        self.part: dict = {}
        self._rows = None
        self._dirty = False

    def align(self, rows: np.ndarray) -> dict:
        if self._rows is None or rows.size != self._rows.size:
            self.sync()
            self._rows = rows
            self.part = {k: a[..., rows] for k, a in self.full.items()}
        self._dirty = True
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
    leave ``freeze_domain`` are frozen and excluded from further updates: a
    blown-up row keeps its last state, a row that left the domain its first
    state outside.  This is always recorded in ``status``, never silent.
    Row r starts at ``starts[r % len(starts)]`` under
    ``policies[r // len(starts)]`` (``SweepResult.start_index``/``policy_index``).

    The observer, the only view of a sweep in progress, sees blocks of
    steps: ``observer(steps, ts, X, rows, D)`` gets k step numbers, their
    times ``ts = steps * dt``, and the read-only (k, r, n) states and
    disturbances (of the step that reached each state) of the r running
    rows, with ascending sweep indices ``rows`` (they only shrink, so an
    observer can keep per-row state in that order in a ``RowState``, which
    writes back every array it holds, as the one per-row outcome monitor
    ``_Monitor`` keeps its fixed-shape tables).  t=0 is a block of its own
    with every row, a start frozen there included; then
    k = clamp(BLOCK_FLOATS // (r n), 1, BLOCK_STEPS), fewer at the horizon
    or before a step where some row blows up or leaves the domain, which is
    a block of its own.  The observer returns None or an (r,) int array of
    the block index at which each row retires (-1: it runs on), and the row
    stops ``retired`` with that index's state, disturbance and time, bit
    for bit as if observed step by step.  The sweep stops after the step at
    which the last row stopped, so a later state is the row's final one.
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
    stages = np.empty((4, R, n))
    scratch = np.empty((n_scratch, R))
    flags = np.empty((2, max(BLOCK_FLOATS, R * n)), dtype=bool)
    # a row leaves [lo, hi] by blowing up (|x| > bound; NaN and +-inf fail
    # every comparison) or by leaving the freeze domain
    bound = min(float(sys.blowup_bound), _FLOAT_MAX)
    box = (-np.inf, np.inf) if freeze_domain is None else (freeze_domain.lo, freeze_domain.hi)
    lo, hi = np.maximum(box[0], -bound), np.minimum(box[1], bound)
    rows = np.arange(R)
    # the running rows' states at the steps of a block, slot j + 1 being the
    # step from slot j with disturbance slot j; slot 0 carries the last ones
    xbuf, dbuf = np.empty(0), np.empty(0)
    XB = DB = args = by_period = above = below = None
    changed = False

    def layout():
        """Lay the slots out for the running rows; each policy's rows stay
        contiguous."""
        nonlocal xbuf, dbuf, XB, DB, args, by_period, above, below
        r = rows.size
        K = min(max(BLOCK_FLOATS // (r * n), 1), BLOCK_STEPS)
        above, below = flags[:, : K * r * n].reshape(2, K, r, n)
        if xbuf.size < (K + 1) * r * n:
            xbuf = np.empty((K + 1) * r * n)
        if dbuf.size < K * r * n:
            dbuf = np.empty(K * r * n)
        XB = xbuf[: (K + 1) * r * n].reshape(K + 1, r, n)
        DB = dbuf[: K * r * n].reshape(K, r, n)
        args = [None] * (K + 1)
        edges = np.searchsorted(rows, np.arange(P + 1) * m)
        plan: dict[int, list] = {}
        for p, pol in enumerate(policies):
            if edges[p] < edges[p + 1]:
                plan.setdefault(periods[p], []).append((pol, slice(edges[p], edges[p + 1])))
        by_period = list(plan.items())

    def slot_args(j):
        """The step's arguments from slot j to slot j + 1."""
        r = rows.size
        K1, K2, K3, K4 = stages[:, :r]
        blocks = (XB[j], XB[j + 1], K1, K2, K3, K4)
        args[j] = (XB[j], DB[j], XB[j + 1], K1, K2, K3, K4,
                   *(B[:, c] for B in blocks for c in range(n)), *scratch[:, :r])
        return args[j]

    def freeze(mask, code, t, xs, ds):
        """Stop the rows in ``mask`` at t with state and disturbance slots xs, ds."""
        nonlocal changed
        at = np.flatnonzero(mask)
        if at.size:
            stopped = rows[at]
            status[stopped], end_times[stopped] = code, t
            states[stopped], dists[stopped] = XB[xs, at], DB[ds, at]
            changed = True

    def observe(k0, kk, xs, ds):
        """Show steps k0.. in slots xs.., ds.. and retire the rows flagged."""
        steps = np.arange(k0, k0 + kk)
        ts = steps * dt
        ret = observer(steps, ts, XB[xs : xs + kk], rows, DB[ds : ds + kk])
        if ret is not None:
            stop = ret >= 0
            if stop.any():
                stop &= status[rows] == STATUS_RUNNING
                at = ret[stop] if kk > 1 else 0
                freeze(stop, STATUS_RETIRED, ts[at], xs + at, ds + at)

    def compact(xs, ds):
        """Carry slots xs, ds to slot 0, gathering the rows if some stopped."""
        nonlocal rows, changed, XB, args
        if not changed:
            if xs and XB.shape[0] == 2:  # one step per block: swap the slots' roles
                XB, args = XB[::-1], args[::-1]
            elif xs:
                XB[0] = XB[xs]
            if ds:
                DB[0] = DB[ds]
            return
        keep = status[rows] == STATUS_RUNNING
        x, d = XB[xs][keep], DB[ds][keep]
        rows, changed = rows[keep], False
        if rows.size:
            layout()
            XB[0], DB[0] = x, d

    layout()
    XB[0] = np.tile(starts, (P, 1))
    k = 0
    with np.errstate(all="ignore"):
        for p, pol in enumerate(policies):
            pol.values(0.0, XB[0, p * m : (p + 1) * m], DB[0, p * m : (p + 1) * m])
        if freeze_domain is not None:
            freeze(~freeze_domain.contains_many(XB[0]), STATUS_LEFT_DOMAIN, 0.0, 0, 0)
        if observer is not None:
            observe(0, 1, 0, 0)
        compact(0, 0)

        while k < n_steps and rows.size:
            r = rows.size
            kk = min(DB.shape[0], n_steps - k)
            # the block's refresh steps, 0 included: slot 0 holds the last
            # disturbance, and a segment's slot is copied on to the next
            # refresh slot, where only the due rows change
            due: dict[int, list] = {0: []}
            for period, members in by_period:
                for j in range(-k % period, kk, period):
                    due.setdefault(j, []).extend(members)
            cuts = [*sorted(due), kk]
            for s, e in zip(cuts, cuts[1:]):
                for pol, block in due[s]:
                    pol.values((k + s) * dt, XB[s][block], DB[s][block])
                if s + 1 < kk:
                    np.copyto(DB[s + 1 : min(e + 1, kk)], DB[s])
                for j in range(s, e):
                    step(*(args[j] or slot_args(j)))
            # one bounds test for the block; it ends at the first failing
            # step, and the rows still running are integrated again from there
            X, A, B = XB[1 : kk + 1], above[:kk], below[:kk]
            np.greater_equal(X, lo, out=A)
            ok = _fold(np.logical_and, np.logical_and(A, np.less_equal(X, hi, out=B), out=A))
            failed = np.count_nonzero(ok) < kk * r
            j = int(np.argmin(ok)) // r + 1 if failed else kk
            if observer is not None and j > failed:
                observe(k + 1, j - failed, 1, 0)
            k += j
            if failed:
                # rows the observer retired earlier in the block do not fail
                running = status[rows] == STATUS_RUNNING
                np.less_equal(np.abs(XB[j], out=stages[0, :r]), bound, out=B[0])
                finite = _fold(np.logical_and, B[0])
                freeze(running & ~finite, STATUS_BLOWUP, k * dt, j - 1, j - 1)
                freeze(running & finite & ~ok[j - 1], STATUS_LEFT_DOMAIN, k * dt, j, j - 1)
            compact(j, j - 1)
            if failed and observer is not None and rows.size:
                observe(k, 1, 0, 0)
                compact(0, 0)

    if rows.size:
        states[rows], dists[rows] = XB[0], DB[0]
    status[status == STATUS_RUNNING] = STATUS_HORIZON
    return SweepResult(states, status, end_times, start_index, policy_index, dists)


def record_sweep(sys: PerturbedSystem, starts, policies, horizon: float, dt: float, at, *,
                 value=lambda X, D: X, freeze_domain: Box | None = None):
    """``run_sweep`` that also returns ``value`` of every row at each step
    number in ``at`` (ascending, non-empty) as one (len(at), R, ...) array;
    ``value(X, D)`` maps (N, n) states and the disturbances of the steps
    that reached them to an (N, ...) array.  From the step at which a row
    stopped onward (past the horizon, for every row), its entries hold the
    value of its final state and disturbance, so none is left unset."""
    policies = list(policies)
    at = np.asarray(at, dtype=np.int64)
    R = np.atleast_2d(starts).shape[0] * len(policies)
    seen = np.zeros(R, dtype=np.int64)  # each row's entries recorded so far
    out = []
    todo = [0]  # the first entry of ``at`` after every step shown so far

    def put(i, rows, v):
        if not out:
            out.append(np.empty((at.size, R) + v.shape[2:], v.dtype))
        out[0][i, rows] = v

    def record(steps, ts, X, rows, D):
        # steps come once each, in order: a block before the next entry records nothing
        if todo[0] == at.size or at[todo[0]] > steps[-1]:
            return
        lo, hi = np.searchsorted(at, (steps[0], steps[-1] + 1))
        k, n = at[lo:hi] - steps[0], X.shape[2]
        v = value(X[k].reshape(-1, n), D[k].reshape(-1, n))
        put(slice(lo, hi), rows, v.reshape(hi - lo, rows.size, *v.shape[1:]))
        seen[rows] = todo[0] = hi

    res = run_sweep(sys, starts, policies, horizon, dt, freeze_domain=freeze_domain,
                    observer=record)
    fill = np.flatnonzero(seen < at.size)
    if fill.size:
        v = value(res.states[fill], res.disturbances[fill])[None]
        for i in np.unique(seen[fill]):
            hit = seen[fill] == i
            put(slice(i, None), fill[hit], v[:, hit])
    return res, out[0]


class _Monitor:
    """The per-row outcome table of one sweep.  At t=0 and then every
    ``stride`` steps it records, for each row the sweep passes,

    * ``first``: the first time ``first(pts, g, rows)`` flagged the row (inf
      if never);
    * ``last``: the last time ``last(pts, g, rows)`` flagged it (-inf if
      never), shaped (levels, R) when it flags ``levels`` levels at once;
      only the blocks whose last step time is after ``last_from`` are tested;
    * ``peak`` and ``latest``: the running max and the latest value of
      ``gauge(pts)``, which the two events receive as ``g``.

    Each runs once per block of sampled steps: ``pts`` holds its states as
    (steps x rows, n), ``g`` is shaped (steps, rows), an event flags the
    flat ``pts`` or has (steps, rows) as its last two axes, and ``rows`` are
    the block's sweep indices.  Only what the caller passes is computed, and
    each table exists, with its final shape, from construction.  With
    ``groups`` (the group of each sweep row), a row that ``first`` flags
    retires every running row of its group at that step, whose later steps
    are not recorded.  The table is kept in running-block order while the
    sweep runs (``RowState``); reading an outcome gives the full array.
    """

    def __init__(self, n_rows: int, *, first=None, last=None, levels: int | None = None,
                 last_from=-math.inf, gauge=None, groups=None, stride: int = 1):
        self.first_event = first
        self.last_event = last
        self.last_from = last_from
        self.gauge = gauge
        self.stride = max(1, stride)
        table = {"first": np.full(n_rows, np.inf)}
        if last is not None:
            table["last"] = np.full((n_rows,) if levels is None else (levels, n_rows), -np.inf)
        if gauge is not None:
            table.update(peak=np.full(n_rows, -np.inf), latest=np.zeros(n_rows))
        if groups is not None:
            # the block index at which each group is lost (_RUNS while it runs)
            self._lost_at = np.full(int(groups.max()) + 1, _RUNS)
            table["groups"] = groups
        self._table = RowState(**table)
        self._bufs: dict = {}

    def _outcome(self, name):
        self._table.sync()
        return self._table.full.get(name)

    first = property(lambda self: self._outcome("first"))
    last = property(lambda self: self._outcome("last"))
    peak = property(lambda self: self._outcome("peak"))
    latest = property(lambda self: self._outcome("latest"))

    def _work(self, key, shape, dtype=np.float64):
        return _work(self._bufs, key, (math.prod(shape),), dtype).reshape(shape)

    def _flagged(self, flags, ts, last=False):
        """Per row of ``flags`` (..., steps, rows): whether it is flagged in
        the block, the index of its first (or last) flag (None for a one-step
        block) and that index's time, in kept work arrays; None when no row
        is flagged."""
        kk = flags.shape[-2]
        if kk == 1:
            return (flags[..., 0, :], None, ts[0]) if flags.any() else None
        shape = flags.shape[:-2] + flags.shape[-1:]
        hit = np.logical_or.reduce(flags, axis=-2, out=self._work("hit", shape, bool))
        if not hit.any():
            return None
        at = np.argmax(flags[..., ::-1, :] if last else flags, axis=-2,
                       out=self._work(f"at{last}", shape, np.intp))
        if last:
            np.subtract(kk - 1, at, out=at)
        return hit, at, np.take(ts, at, out=self._work("t", shape), mode="clip")

    def __call__(self, steps, ts, X, rows, D):
        i0 = -int(steps[0]) % self.stride
        if self.stride > 1:
            X, ts = X[i0 :: self.stride], ts[i0 :: self.stride]
        kk, r = X.shape[:2]
        if not kk:
            return None
        pts = X.reshape(kk * r, -1)
        table = self._table.align(rows)
        g = None if self.gauge is None else self.gauge(pts).reshape(kk, r)
        stop = live = None
        found = None if self.first_event is None else self._flagged(
            self.first_event(pts, g, rows).reshape(kk, r), ts)
        if found is not None:
            hit, at, t = found
            if "groups" in table:
                groups = table["groups"]
                np.minimum.at(self._lost_at, groups[hit], 0 if at is None else at[hit])
                end = np.take(self._lost_at, groups, out=self._work("end", (r,), np.intp),
                              mode="clip")
                self._lost_at[groups[hit]] = _RUNS
                stop = end < _RUNS
                np.minimum(end, kk - 1, out=end)
                if at is not None:  # a lost group's later steps are not recorded
                    hit, live = hit & (at == end), np.arange(kk)[:, None] <= end
            # t only grows, so the minimum keeps the first time
            np.minimum(table["first"], t, out=table["first"], where=hit)
        if g is not None:
            top = g[0] if kk == 1 else np.max(g, axis=0, out=self._work("top", (r,)),
                                              initial=-np.inf, where=True if live is None else live)
            np.maximum(table["peak"], top, out=table["peak"])
            np.copyto(table["latest"], g[-1])
            if stop is not None:  # a row that retires keeps its value at its stop
                lost = np.flatnonzero(stop)
                table["latest"][lost] = g[end[lost], lost]
        if self.last_event is not None and ts[-1] > self.last_from:
            flags = self.last_event(pts, g, rows)
            flags = flags.reshape(kk, r) if flags.ndim == 1 else flags
            if live is not None:
                flags = flags & live
            if (found := self._flagged(flags, ts, last=True)) is not None:
                np.copyto(table["last"], found[2], where=found[0])
        return None if stop is None else np.where(stop, i0 + self.stride * end, -1)


# ---------------------------------------------------------------------------
# Single trajectories


@dataclass
class Trajectory:
    """One solution record: strictly increasing times from 0, the states, and
    in ``disturbances[i]`` the disturbance applied on the step that reached
    ``states[i]`` (entry 0 repeats entry 1)."""

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
    x0 = np.asarray(x0, dtype=float).ravel()
    at = np.arange(step_count(horizon, dt) + 1)
    res, paths = record_sweep(sys, x0[None, :], policies, horizon, dt, at,
                              value=lambda X, D: np.stack((X, D), axis=1), freeze_domain=domain)
    trajectories = []
    for p, pol in enumerate(policies):
        reason = res.reason(p)
        # a blown-up row's state at its freeze time is undefined: keep the last good one
        last = int(round(res.end_times[p] / dt)) - (reason == "blow_up")
        path = paths[: last + 1, p]
        trajectories.append(Trajectory(at[: last + 1] * dt, path[:, 0].copy(),
                                       path[:, 1].copy(), reason, pol.label))
    return trajectories


# ---------------------------------------------------------------------------
# Policy battery


def _directions(n: int) -> np.ndarray:
    """The signed axes e_1, -e_1, ..., e_n, -e_n and then, for n > 1, the 2^n
    sign vectors of the cube's vertices (row k is +1 on axis i where bit i
    of k is set, else -1), in this order."""
    axes = np.stack([np.eye(n), 0.0 - np.eye(n)], axis=1).reshape(2 * n, n)
    if n == 1:
        return axes
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return np.concatenate([axes, np.where(bits == 1, 1.0, -1.0)])


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
    policies: list[DisturbancePolicy] = [ZeroPolicy()]
    for d in _directions(sys.dim):
        policies.append(ConstantPolicy(sys.delta * (d / np.linalg.norm(d))))
    for g in set_fields:
        policies.append(ExtremalFeedbackPolicy(g, +1))
        policies.append(ExtremalFeedbackPolicy(g, -1))
    seeds = np.random.SeedSequence(seed).generate_state(max(n_random, 1))
    for i in range(n_random):
        policies.append(PiecewiseRandomPolicy(int(seeds[i]), dwell=dwell))
    return policies
