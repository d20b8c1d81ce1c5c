"""Sampled reachable sets, forward invariance, invariant-set computation,
winning sets, and the two specification checkers (reach-avoid-stay and
stability-with-safety), plus the asymptotic-stability probe.

Quantifiers over disturbance signals are evaluated against a finite policy
battery, so every result here is falsification-complete (a "no" comes with a
concrete counterexample trajectory, accurate up to integration error) but
verification-sampled (a "yes" means no battery member falsified the
property).  Verdict strings carry the ``_sampled`` suffix to make that
explicit, and reports echo the battery so runs can be reproduced exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    STATUS_BLOWUP,
    STATUS_HORIZON,
    STATUS_LEFT_DOMAIN,
    PerturbedSystem,
    RowState,
    _directions,
    record_sweep,
    run_sweep,
    step_count,
)
from .geometry import Box, Grid, MaskSet, SetSpec, _work, as_report

__all__ = [
    "Counterexample",
    "ReachResult",
    "reach_tube",
    "InvarianceReport",
    "check_invariance",
    "InvariantSetResult",
    "maximal_invariant",
    "WinningSetResult",
    "winning_set",
    "SpecVerdict",
    "check_ras",
    "check_sws",
    "UASProbeReport",
    "probe_uas",
]

YES = "yes_sampled"
NO = "no"
INCONCLUSIVE = "inconclusive"

#: "late" and "settled" mean the final (1 - SETTLE_FRACTION) of the horizon:
#: the invariant core's tail occupancy, the winning set's and check_ras's
#: settle deadline
SETTLE_FRACTION = 0.75
#: smallest stability radius probe_uas resolves
DELTA_FLOOR = 1e-3
#: the eps levels of probe_uas when a command block gives none
EPS_SCHEDULE = (0.1, 0.25, 0.5)
#: bisection steps per eps level of probe_uas
BISECT_ITERS = 10
#: the steps of each round of probe_uas, summing to BISECT_ITERS: one sweep
#: tests every radius that a round's steps could visit
BISECT_ROUNDS = (3, 3, 2, 2)
#: a probe run whose final distance exceeds GROWTH_FLAG times its start fails
GROWTH_FLAG = 1.25
#: time between two distance samples of probe_uas
OBSERVE_DT = 0.01
#: the lost-at index of a group that still runs
_RUNS = np.iinfo(np.intp).max


@dataclass(frozen=True)
class Counterexample:
    x0: tuple
    policy: str
    time: float
    kind: str
    value: float = math.nan


def _grid_starts(grid: Grid, S: SetSpec, name: str):
    """The flat indices and the centers of the grid cells in S."""
    cells = grid.select(S)
    if cells.size == 0:
        raise ValueError(f"{name} contains no grid points; refine the grid")
    return cells, grid.point_of(cells)


def _counterexample(res, starts, battery, r, time, kind, value=math.nan) -> Counterexample:
    """The counterexample of sweep row ``r``: its start point and the label
    of its battery policy."""
    return Counterexample(
        x0=tuple(float(v) for v in starts[res.start_index[r]]),
        policy=battery[res.policy_index[r]].label,
        time=float(time),
        kind=kind,
        value=float(value),
    )


class _Monitor:
    """Per-row outcome table of one sweep; the observer behind every battery
    check here.  At t=0 and then every ``stride`` steps it looks at the rows
    the sweep passes and records, per row,

    * ``first``: the first time ``first(pts, g, rows)`` flagged the row (inf
      if never);
    * ``last``: the last time ``last(pts, g, rows)`` flagged it (-inf if
      never), of shape (k, R) when ``last`` flags k levels at once; only
      the blocks whose last step time is after ``last_from`` are tested;
    * ``peak`` and ``latest``: the running max and the latest value of
      ``gauge(pts)``, which the two events receive as ``g``.

    Each runs once per block of sampled steps: ``pts`` holds its states as
    (steps x rows, n), ``g`` is shaped (steps, rows), an event flags the
    flat ``pts`` or has (steps, rows) as its last two axes, and ``rows`` are
    the block's sweep indices.  Only what the caller passes is computed.
    With ``groups`` (the group of each sweep row), a row that ``first``
    flags retires every running row of its group at that step, whose later
    steps are not recorded.  The table is kept in running-block order while
    the sweep runs (``RowState``); reading an outcome gives the full array.
    """

    def __init__(self, n_rows: int, *, first=None, last=None, last_from=-math.inf,
                 gauge=None, groups=None, stride: int = 1):
        self.first_event = first
        self.last_event = last
        self.last_from = last_from
        self.gauge = gauge
        self.stride = max(1, stride)
        self.n_rows = n_rows
        table = {"first": np.full(n_rows, np.inf)}
        if gauge is not None:
            table.update(peak=np.full(n_rows, -np.inf), latest=np.zeros(n_rows))
        self._table = RowState(**table)
        self._bufs: dict = {}
        self._groups = None
        if groups is not None:
            # the block index at which each group is lost (_RUNS while it runs)
            self._lost_at = np.full(int(groups.max()) + 1, _RUNS)
            self._groups = RowState(write_back=False, groups=groups)

    def _outcome(self, name):
        self._table.sync()
        if name == "last" and name not in self._table.full:  # no block was tested
            self._table.add(name, np.full(self.n_rows, -np.inf))
        return self._table.full.get(name)

    first = property(lambda self: self._outcome("first"))
    # shaped by the first flags seen (every row is live at t=0 unless gated)
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
            if self._groups is not None:
                groups = self._groups.align(rows)["groups"]
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
            if "last" not in table:
                self._table.add("last", np.full(flags.shape[:-2] + (self.n_rows,), -np.inf))
            if (found := self._flagged(flags, ts, last=True)) is not None:
                np.copyto(table["last"], found[2], where=found[0])
        return None if stop is None else np.where(stop, i0 + self.stride * end, -1)


def _avoid_and_settle(sys, starts, battery, U, target_member, grid, horizon, dt, **watch):
    """The sweep shared by ``check_ras`` and ``winning_set``: per row, the
    first entry into U (``first``) and the last time outside the target
    (``last``); ``watch`` passes the monitor's other arguments."""
    mon = _Monitor(
        starts.shape[0] * len(battery),
        first=lambda pts, g, rows: U.contains_many(pts),
        last=lambda pts, g, rows: ~target_member(pts),
        **watch,
    )
    res = run_sweep(sys, starts, battery, horizon, dt, freeze_domain=grid.domain, observer=mon)
    return res, mon


# ---------------------------------------------------------------------------
# Reach tubes


@dataclass
class ReachResult:
    grid: Grid
    mask: np.ndarray           # boolean, one entry per grid cell
    horizon: tuple             # (t_lo, t_hi)
    semantics: str             # 'sampled_under': an under-approximation
    boundary_exits: int = 0
    n_starts: int = 0
    n_policies: int = 0


class _Occupancy:
    def __init__(self, grid: Grid, t_lo: float = 0.0):
        self.grid = grid
        self.t_lo = t_lo
        self.mask = np.zeros(grid.size, dtype=bool)

    def __call__(self, steps, ts, X, rows, D):
        late = X[np.searchsorted(ts, self.t_lo) :]
        if not late.size:
            return
        flat, inside = self.grid.cell_index_many(late.reshape(-1, X.shape[2]))
        self.mask[flat if np.count_nonzero(inside) == flat.size else flat[inside]] = True


def reach_tube(
    sys: PerturbedSystem,
    W: SetSpec,
    horizon,
    grid: Grid,
    battery,
    dt: float,
) -> ReachResult:
    """Cells visited by any battery trajectory started from the grid points
    in W during [t_lo, t_hi] (scalar horizon means [0, horizon]); ValueError
    unless 0 <= t_lo <= t_hi."""
    battery = list(battery)
    if isinstance(horizon, (tuple, list)):
        t_lo, t_hi = float(horizon[0]), float(horizon[1])
    else:
        t_lo, t_hi = 0.0, float(horizon)
    if not 0.0 <= t_lo <= t_hi:
        raise ValueError(f"t_lo={t_lo:g} must lie in [0, {t_hi:g}]")
    _, starts = _grid_starts(grid, W, "W")
    occ = _Occupancy(grid, t_lo)
    res = run_sweep(sys, starts, battery, t_hi, dt, freeze_domain=grid.domain, observer=occ)
    exits = int(np.count_nonzero(res.status == STATUS_LEFT_DOMAIN))
    return ReachResult(
        grid, occ.mask, (t_lo, t_hi), "sampled_under",
        boundary_exits=exits, n_starts=starts.shape[0], n_policies=len(battery),
    )


# ---------------------------------------------------------------------------
# Forward invariance


@dataclass
class InvarianceReport:
    verdict: str
    escapes: list
    tolerance: float
    n_starts: int
    n_policies: int
    semantics: str = "sampled"


def check_invariance(
    sys: PerturbedSystem,
    S: SetSpec,
    grid: Grid,
    battery,
    horizon: float,
    dt: float,
) -> InvarianceReport:
    """Simulate the battery from every grid point in S and report every
    escape (point, policy, time), earliest first, or a sampled-invariance
    verdict.  Containment is tested with a one-cell-radius tolerance,
    consistent with the grid resolution."""
    battery = list(battery)
    _, starts = _grid_starts(grid, S, "S")
    tol = grid.cell_radius
    member = S.within(tol)
    mon = _Monitor(starts.shape[0] * len(battery), first=lambda pts, g, rows: ~member(pts))
    res = run_sweep(sys, starts, battery, horizon, dt, freeze_domain=grid.domain, observer=mon)
    order = np.argsort(mon.first, kind="stable")
    escapes = [
        _counterexample(res, starts, battery, r, mon.first[r], "escape")
        for r in order[np.isfinite(mon.first[order])]
    ]
    escapes += [
        _counterexample(res, starts, battery, r, res.end_times[r], "blow_up")
        for r in np.nonzero(res.status == STATUS_BLOWUP)[0]
    ]
    verdict = YES if not escapes else NO
    return InvarianceReport(verdict, escapes, float(tol), starts.shape[0], len(battery))


# ---------------------------------------------------------------------------
# Maximal invariant set


@dataclass
class InvariantSetResult:
    grid: Grid
    mask: MaskSet          # the returned set
    kernel: MaskSet        # the stay-in-Omega fixpoint (mode-independent)
    iterations: int
    mode: str
    empty: bool
    notes: str = ""

    def endpoints(self):
        """Per-axis (min, max) of marked cell centers."""
        if self.mask.is_empty:
            return None
        pts = self.grid.points[self.mask.mask]
        return [(float(pts[:, i].min()), float(pts[:, i].max())) for i in range(self.grid.dim)]


def maximal_invariant(
    sys: PerturbedSystem,
    omega_set: SetSpec,
    grid: Grid,
    battery,
    horizon: float,
    dt: float,
    *,
    dwell_window: float | None = None,
    mode: str = "core",
) -> InvariantSetResult:
    """Largest sampled subset of Omega from which no battery trajectory can be
    driven out.

    mode='kernel' returns the stay-in-Omega fixpoint: starting from all Omega
    cells, cells from which some battery trajectory leaves the current
    candidate within one dwell window are removed until nothing changes
    (window traces are simulated once; the pruning cascades over them).

    mode='core' (default) additionally trims transient cells: it keeps the
    cells occupied at late times (t >= SETTLE_FRACTION * horizon) by battery
    runs started all over the kernel, closed forward under the battery.  The
    core is an inner estimate of the kernel that discards one-way-transit
    regions; it is the set a long-run battery simulation actually settles
    into, and it remains sampled-invariant by construction.
    """
    if mode not in ("core", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    battery = list(battery)
    if dwell_window is None:
        dwell_window = 10.0 * dt
    cells0, starts = _grid_starts(grid, omega_set, "Omega")
    m = starts.shape[0]
    P = len(battery)
    w_steps = step_count(dwell_window, dt, "dwell_window")

    # the cell each row visits at each step of the window
    res, visited = record_sweep(sys, starts, battery, w_steps * dt, dt, np.arange(w_steps + 1),
                                value=lambda X, D: grid.cell_index_many(X)[0],
                                freeze_domain=grid.domain)
    stayed = res.status == STATUS_HORIZON
    candidate = np.zeros(grid.size, dtype=bool)
    candidate[cells0] = True
    iterations = 0
    while True:
        iterations += 1
        row_ok = np.all(candidate[visited], axis=0) & stayed
        new_candidate = candidate.copy()
        new_candidate[cells0[~row_ok.reshape(P, m).all(axis=0)]] = False
        if np.array_equal(new_candidate, candidate):
            break
        candidate = new_candidate
        if not candidate.any():
            break
    kernel = MaskSet(grid, candidate)

    mask, notes = candidate, ""
    if not candidate.any():
        notes = "empty fixpoint: Omega holds no sampled-invariant cells"
    elif mode == "core":
        # late-time occupancy over the kernel, then forward closure
        tail = reach_tube(sys, kernel, (SETTLE_FRACTION * horizon, horizon), grid, battery, dt)
        seed_mask = tail.mask & candidate
        if not seed_mask.any():
            notes = "no late-time occupancy inside the kernel; returning the kernel"
        else:
            closure = reach_tube(sys, MaskSet(grid, seed_mask), horizon, grid, battery, dt)
            mask = (closure.mask | seed_mask) & candidate
            clipped = int(np.count_nonzero(closure.mask & ~candidate))
            if clipped:
                notes = f"{clipped} closure cells fell outside the kernel and were clipped"
    return InvariantSetResult(grid, MaskSet(grid, mask), kernel, iterations, mode,
                              empty=not mask.any(), notes=notes)


# ---------------------------------------------------------------------------
# Winning set


@dataclass
class WinningSetResult:
    grid: Grid
    mask: np.ndarray
    inconclusive: np.ndarray
    eval_cells: np.ndarray
    conv_radius: float
    settle_deadline: float
    notes: str = ""


def winning_set(
    sys: PerturbedSystem,
    A: SetSpec,
    U: SetSpec,
    grid: Grid,
    battery,
    horizon: float,
    dt: float,
    *,
    conv_radius: float | None = None,
    eval_cells: np.ndarray | None = None,
) -> WinningSetResult:
    """Mark the grid cells from which every battery trajectory (i) never
    enters U and (ii) has entered A + conv_radius*B by the settle deadline
    SETTLE_FRACTION*horizon and stays there for the rest of the horizon.
    Sampled semantics throughout; only sweep blocks ending after the deadline test the target.

    conv_radius defaults to twice the grid cell radius: below the grid
    resolution, membership in A is not observable.  A negative or NaN one
    raises ValueError.
    """
    battery = list(battery)
    if conv_radius is None:
        conv_radius = 2.0 * grid.cell_radius
    if not conv_radius >= 0:
        raise ValueError(f"conv_radius must be nonnegative, got {conv_radius}")
    both = A.contains_many(grid.points) & U.contains_many(grid.points)
    if np.any(both):
        raise ValueError("A and U intersect on the grid; the query is ill-posed")
    if eval_cells is None:
        eval_cells = np.arange(grid.size)
    eval_cells = np.asarray(eval_cells, dtype=np.int64)
    starts = grid.point_of(eval_cells)
    m, P = starts.shape[0], len(battery)
    member = A.within(conv_radius)
    deadline = SETTLE_FRACTION * horizon
    # one row in U loses its cell, so the cell's other rows stop too
    res, mon = _avoid_and_settle(sys, starts, battery, U, member, grid, horizon, dt,
                                 groups=np.arange(m * P) % m, last_from=deadline)
    safe_row = np.isinf(mon.first)
    settled_row = (mon.last <= deadline) & (res.status == STATUS_HORIZON)
    safe = safe_row.reshape(P, m).all(axis=0)
    settled = settled_row.reshape(P, m).all(axis=0)

    win = np.zeros(grid.size, dtype=bool)
    inconclusive = np.zeros(grid.size, dtype=bool)
    win[eval_cells[safe & settled]] = True
    inconclusive[eval_cells[safe & ~settled]] = True
    notes = ""
    if not win.any() and inconclusive.any():
        notes = "no cell settled within the horizon; increase the horizon"
    return WinningSetResult(
        grid, win, inconclusive, eval_cells, conv_radius, deadline, notes
    )


# ---------------------------------------------------------------------------
# Specification verdicts


@dataclass
class SpecVerdict:
    spec: str
    satisfied: str                # yes_sampled | no | inconclusive
    witness_T: float | None = None
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    semantics: str = "sampled battery: 'no' is falsification, 'yes' is evidence"


def check_ras(
    sys: PerturbedSystem,
    W: SetSpec,
    U: SetSpec,
    Omega: SetSpec,
    grid: Grid,
    battery,
    horizon: float,
    dt: float,
) -> SpecVerdict:
    """Reach-avoid-stay: every battery trajectory from the W grid points must
    avoid U on [0, horizon] and be inside Omega from some time T on, where
    "stay" is sampled as remaining within one cell radius of Omega over the
    final (1 - SETTLE_FRACTION) of the horizon.  witness_T is the smallest
    sampled settle time over the whole battery."""
    battery = list(battery)
    _, starts = _grid_starts(grid, W, "W")
    m, P = starts.shape[0], len(battery)
    member = Omega.within(grid.cell_radius)
    # the running max of -dist(x, U) is minus the closest approach to U
    gauge = (lambda pts: -U.dist_many(pts)) if U.exact_distance else None
    res, mon = _avoid_and_settle(sys, starts, battery, U, member, grid, horizon, dt,
                                 gauge=gauge)
    deadline = SETTLE_FRACTION * horizon

    counterexamples: list[Counterexample] = []
    soft = 0
    for r in range(m * P):
        if np.isfinite(mon.first[r]):
            time, kind = mon.first[r], "entered_unsafe"
        elif res.status[r] == STATUS_BLOWUP:
            time, kind = res.end_times[r], "blow_up"
        elif res.status[r] == STATUS_LEFT_DOMAIN:
            time, kind = res.end_times[r], "left_grid_domain"
        elif mon.last[r] > deadline:
            time, kind = mon.last[r], "never_settled"
        else:
            continue
        counterexamples.append(_counterexample(res, starts, battery, r, time, kind))
        soft += kind in ("left_grid_domain", "never_settled")

    hard = len(counterexamples) - soft
    if hard:
        verdict = NO
    elif soft:
        verdict = INCONCLUSIVE
    else:
        verdict = YES
    witness_T = None
    if verdict == YES:
        last = mon.last.max()
        witness_T = float(max(0.0, last + dt)) if np.isfinite(last) else 0.0
    closest = -float(mon.peak.max()) if gauge is not None else math.inf
    details = {
        "n_starts": m,
        "n_policies": P,
        "settle_deadline": deadline,
        "min_dist_to_unsafe": closest if math.isfinite(closest) else None,
    }
    return SpecVerdict("ras", verdict, witness_T, counterexamples, details)


def check_sws(
    sys: PerturbedSystem,
    W: SetSpec,
    U: SetSpec,
    A: SetSpec,
    grid: Grid,
    battery,
    horizon: float,
    dt: float,
    *,
    eps_schedule=EPS_SCHEDULE,
    probe_horizon: float | None = None,
) -> SpecVerdict:
    """Stability with safety: A must probe as uniformly asymptotically stable
    and every W grid cell must lie in the sampled winning set (trajectories
    converge to A and never touch U)."""
    probe = probe_uas(
        sys, A, eps_schedule, battery,
        probe_horizon if probe_horizon is not None else horizon, dt,
    )
    w_cells, _ = _grid_starts(grid, W, "W")
    win = winning_set(sys, A, U, grid, battery, horizon, dt, eval_cells=w_cells)
    missing = w_cells[~win.mask[w_cells]]
    counterexamples = list(probe.counterexamples)
    for c, x0 in zip(missing, grid.point_of(missing).tolist()):
        kind = "unsettled_from_W" if win.inconclusive[c] else "unsafe_or_divergent_from_W"
        counterexamples.append(Counterexample(tuple(x0), "battery", math.nan, kind))
    stable = probe.verdict == "consistent_with_UAS"
    if stable and missing.size == 0:
        verdict = YES
    elif probe.verdict == "violated" or np.any(~win.inconclusive[missing]):
        verdict = NO
    else:
        verdict = INCONCLUSIVE
    details = {
        "probe": as_report(probe),
        "n_W_cells": int(w_cells.size),
        "n_W_not_winning": int(missing.size),
        "conv_radius": win.conv_radius,
    }
    return SpecVerdict("sws", verdict, None, counterexamples, details)


# ---------------------------------------------------------------------------
# UAS probe


@dataclass
class UASProbeReport:
    eps_table: list[tuple]     # [(eps, delta_eps)]
    rho: float | None
    attractivity: list[tuple]  # [(eps, T_eps)]
    verdict: str               # consistent_with_UAS | violated
    counterexamples: list
    delta_floor: float
    horizon: float
    semantics: str = "sampled"


def _shell_points(hull: Box, c: float) -> np.ndarray:
    """Points at distance exactly c from the box: face centers pushed out
    along each axis and corners pushed out along the diagonals."""
    lo = np.asarray(hull.lo)
    hi = np.asarray(hull.hi)
    d = _directions(lo.size)
    # an axis moves by c, a diagonal by c/sqrt(n) along each of its axes
    shift = np.where(np.count_nonzero(d, axis=1) > 1, c / math.sqrt(lo.size), c)[:, None]
    pts = np.where(d > 0, hi + d * shift, np.where(d < 0, lo + d * shift, 0.5 * (lo + hi)))
    return np.unique(np.round(pts, 12), axis=0)


def _bisect(lo: float, hi: float, steps: int, floor: float, fails) -> tuple:
    """``steps`` bisection steps on (lo, hi), where ``fails(lo, hi)`` tells
    whether the shell at the midpoint fails; a midpoint below ``floor`` ends
    the bisection.  Returns the final (lo, hi) and the tested intervals."""
    tested = []
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid < floor:
            break
        tested.append((lo, hi))
        lo, hi = (lo, mid) if fails(lo, hi) else (mid, hi)
    return lo, hi, tested


def probe_uas(
    sys: PerturbedSystem,
    A: SetSpec,
    eps_schedule,
    battery,
    horizon: float,
    dt: float,
    *,
    rho: float | None = None,
    delta_floor: float = DELTA_FLOOR,
) -> UASProbeReport:
    """Empirical probe of uniform asymptotic stability of A.

    Uniform stability: for each eps in the schedule, BISECT_ITERS bisection
    steps over the shell radius c find the largest c (>= delta_floor) such
    that every battery trajectory started at distance c stays strictly inside
    the eps neighborhood; runs whose distance is still growing at the horizon
    (final > GROWTH_FLAG * start) count as failures, so slow escapes are not
    mistaken for containment.  Each round of BISECT_ROUNDS tests, in one
    sweep, every radius that its steps could visit at every level, then
    replays the bisection from those outcomes.
    Attractivity: from the rho shell (default: 90% of the largest verified
    stability radius), the settle time into each eps neighborhood is the
    last sampled time at distance >= eps.

    A trajectory that blows up, leaves every shell, or never settles yields a
    'violated' verdict with the offending start, policy, and peak distance.
    An eps level below twice ``delta_floor``, a non-positive ``rho`` or
    ``delta_floor``, and a non-finite input raise ValueError.
    """
    battery = list(battery)
    eps_schedule = sorted(float(e) for e in eps_schedule)
    if not eps_schedule:
        raise ValueError("eps_schedule must be non-empty")
    for name, values in (("eps_schedule", eps_schedule), ("rho", [rho]),
                         ("delta_floor", [delta_floor])):
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError(f"{name} must be finite, got {values}")
    if delta_floor <= 0:
        raise ValueError(f"delta_floor must be positive, got {delta_floor}")
    if rho is not None and rho <= 0:
        raise ValueError(f"rho must be positive (the attractivity shell would lie "
                         f"inside A), got {rho}")
    for eps in eps_schedule:
        if 0.5 * eps < delta_floor:
            raise ValueError(f"eps_schedule level {eps:g} is below twice delta_floor="
                             f"{delta_floor:g}, so no shell radius would be tested")
    hull = A.hull_box()
    P = len(battery)

    counterexamples: list[Counterexample] = []
    violated = False
    # distances are sampled every OBSERVE_DT: containment is sampled
    # semantics anyway, and the stride trades resolution for speed
    stride = max(1, int(round(OBSERVE_DT / dt)))

    def shell_runs(nodes) -> dict:
        """The worst failure (or None) from the shell at distance
        c = (lo + hi) / 2 of each (level, (lo, hi)) node, in one sweep.  A
        node's rows retire together once one of them reaches its eps, so its
        outcome is that of its shell swept alone, stopped at that step."""
        cs = [0.5 * (lo + hi) for _, (lo, hi) in nodes]
        shells = [_shell_points(hull, c) for c in cs]
        sizes = [pts.shape[0] for pts in shells]
        starts = np.concatenate(shells)
        group = np.tile(np.repeat(np.arange(len(nodes)), sizes), P)
        eps = np.array([eps_schedule[j] for j, _ in nodes])[group]
        c = np.array(cs)[group]
        eps_at = RowState(write_back=False, eps=eps)
        mon = _Monitor(group.size, gauge=A.dist_many, groups=group, stride=stride,
                       first=lambda pts, d, rows: d >= eps_at.align(rows)["eps"])
        res = run_sweep(sys, starts, battery, horizon, dt, observer=mon)
        hard = (mon.peak >= eps) | (res.status == STATUS_BLOWUP)
        fails = hard | (mon.latest > GROWTH_FLAG * c)
        # each node's rows in the order of its own sweep: policy, then start
        order = np.argsort(group, kind="stable")
        outcome = {}
        for node, rows in zip(nodes, np.split(order, np.cumsum(sizes)[:-1] * P)):
            outcome[node] = None
            if np.any(fails[rows]):
                r = rows[np.argmax(np.where(hard[rows], mon.peak[rows], -np.inf))]
                if not hard[r]:
                    r = rows[np.argmax(fails[rows])]
                t_fail = mon.first[r] if np.isfinite(mon.first[r]) else res.end_times[r]
                kind = "blow_up" if res.status[r] == STATUS_BLOWUP else (
                    "left_eps_shell" if hard[r] else "still_growing_at_horizon"
                )
                outcome[node] = _counterexample(res, starts, battery, r, t_fail, kind,
                                                mon.peak[r])
        return outcome

    # per level: the bisection interval (lo, hi) and the failures met on the way
    search = [(0.0, eps, []) for eps in eps_schedule]
    for depth in BISECT_ROUNDS:
        # every interval the next ``depth`` steps test under some outcomes;
        # the bisection's own arithmetic gives each midpoint's exact float
        nodes = {}
        for j, (lo, hi, _) in enumerate(search):
            for pattern in itertools.product((False, True), repeat=depth):
                outcomes = iter(pattern)
                for node in _bisect(lo, hi, depth, delta_floor, lambda *_: next(outcomes))[2]:
                    nodes[j, node] = None
        if not nodes:
            break  # every level's next midpoint is below the floor
        outcome = shell_runs(list(nodes))
        for j, (lo, hi, fails) in enumerate(search):
            lo, hi, tested = _bisect(lo, hi, depth, delta_floor,
                                     lambda *node: outcome[j, node] is not None)
            fails += [outcome[j, node] for node in tested if outcome[j, node] is not None]
            search[j] = (lo, hi, fails)

    eps_table: list[tuple[float, float]] = []
    best = 0.0
    for eps, (delta_eps, _, fails) in zip(eps_schedule, search):
        if delta_eps < delta_floor:
            violated = True
            counterexamples.extend(fails)
        best = max(best, delta_eps)
        eps_table.append((eps, max(delta_eps, eps_table[-1][1] if eps_table else 0.0)))

    attractivity: list[tuple[float, float]] = []
    rho_used = rho
    if not violated:
        if rho_used is None:
            rho_used = 0.9 * best if best > 0 else delta_floor
        starts = _shell_points(hull, rho_used)
        # settle time into each eps neighborhood: the last time at distance >= eps
        levels = np.asarray(eps_schedule)[:, None, None]
        mon = _Monitor(starts.shape[0] * P, gauge=A.dist_many,
                       last=lambda pts, d, rows: d >= levels, stride=stride)
        res = run_sweep(sys, starts, battery, horizon, dt, observer=mon)
        bad = res.status == STATUS_BLOWUP
        unsettled = mon.latest >= eps_schedule[0]
        if np.any(bad) or np.any(unsettled):
            violated = True
            r = int(np.argmax(np.where(bad, np.inf, mon.latest)))
            counterexamples.append(_counterexample(
                res, starts, battery, r, horizon,
                "blow_up" if bad[r] else "not_attracted", mon.latest[r],
            ))
            attractivity = [(eps, math.inf) for eps in eps_schedule]
        else:
            times = [float(worst + dt) if np.isfinite(worst) else 0.0
                     for worst in mon.last.max(axis=1)]
            # T(eps) is already nonincreasing: eps ascends, so no row's last time at d >= eps rises
            attractivity = list(zip(eps_schedule, times))

    verdict = "violated" if violated else "consistent_with_UAS"
    return UASProbeReport(
        eps_table, rho_used, attractivity, verdict, counterexamples,
        delta_floor, horizon,
    )
