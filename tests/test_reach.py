import functools
import math

import numpy as np
import pytest

from safestab import (
    Box,
    BoxComplement,
    ConstantPolicy,
    MaskSet,
    PerturbedSystem,
    ZeroPolicy,
    default_policy_battery,
    make_grid,
    parse_vector_field,
)
from safestab import reach
from safestab.geometry import as_report
from safestab.reach import (
    check_invariance,
    check_ras,
    check_sws,
    maximal_invariant,
    probe_uas,
    reach_tube,
    winning_set,
)

ROOT_LEFT = (1.0 - math.sqrt(2.0)) / 2.0


@pytest.fixture(scope="module")
def bench():
    f = parse_vector_field(["-x + x^2"], ["x"])
    sys = PerturbedSystem(f, 0.25)
    grid = make_grid(Box((-1.5,), (1.5,)), 0.01)
    battery = default_policy_battery(sys, n_random=8, seed=2024)
    return sys, grid, battery


def _watch_blocks(monkeypatch) -> list:
    """Make reach's sweeps record, per observer call, the block's steps, its
    last time and how many times a box's tolerant membership test ran."""
    blocks, calls = [], [0]
    within = Box.within
    run_sweep = reach.run_sweep

    def counted_within(self, tol):
        member = within(self, tol)

        def counted(X):
            calls[0] += 1
            return member(X)
        return counted

    def watched_sweep(*args, observer, **kwargs):
        def watched(steps, ts, X, rows, D):
            before = calls[0]
            stop = observer(steps, ts, X, rows, D)
            blocks.append((steps.copy(), float(ts[-1]), calls[0] - before))
            return stop
        return run_sweep(*args, observer=watched, **kwargs)

    monkeypatch.setattr(Box, "within", counted_within)
    monkeypatch.setattr(reach, "run_sweep", watched_sweep)
    return blocks


def _assert_every_step_agrees(sys, A, U, grid, battery, horizon, dt, res):
    """Assert that ``res`` marks the cells of ``res.eval_cells`` as a monitor
    does that tests the target at every step and runs every row to its end;
    return that monitor."""
    from safestab.dynamics import STATUS_HORIZON, _Monitor, run_sweep

    member = A.within(res.conv_radius)
    starts = grid.point_of(res.eval_cells)
    m = starts.shape[0]
    mon = _Monitor(m * len(battery), first=lambda pts, g, rows: U.contains_many(pts),
                   last=lambda pts, g, rows: ~member(pts))
    ref = run_sweep(sys, starts, battery, horizon, dt, freeze_domain=grid.domain,
                    observer=mon)
    safe = np.isinf(mon.first).reshape(-1, m).all(axis=0)
    settled = (mon.last <= res.settle_deadline) & (ref.status == STATUS_HORIZON)
    settled = settled.reshape(-1, m).all(axis=0)
    assert np.array_equal(res.mask[res.eval_cells], safe & settled)
    assert np.array_equal(res.inconclusive[res.eval_cells], safe & ~settled)
    return mon


# ---------------------------------------------------------------------------
# reach_tube


class TestReachTube:
    def test_stationary_point(self):
        sys = PerturbedSystem(parse_vector_field(["0"], ["x"]), 0.0)
        grid = make_grid(Box((-1.02,), (1.02,)), 0.04)  # 51 cells, 0 is a center
        bat = default_policy_battery(sys, n_random=2, seed=1)
        res = reach_tube(sys, Box((-0.001,), (0.001,)), 3.0, grid, bat, 1e-2)
        marked = grid.points[res.mask]
        assert marked.shape[0] == 1
        assert abs(marked[0, 0]) < 1e-12

    def test_drift_tube_covers_interval(self):
        sys = PerturbedSystem(parse_vector_field(["0"], ["x"]), 0.25)
        grid = make_grid(Box((-1.02,), (1.02,)), 0.04)
        bat = default_policy_battery(sys, n_random=2, seed=1)
        res = reach_tube(sys, Box((-0.001,), (0.001,)), 2.0, grid, bat, 1e-2)
        want = grid.select(Box((-0.48,), (0.48,)))
        assert res.mask[want].all()
        # and not much beyond the drift limit 0.5
        beyond = grid.points[res.mask][:, 0]
        assert np.abs(beyond).max() <= 0.5 + grid.cell_radius + 1e-9

    def test_benchmark_tube_avoids_unsafe(self, bench, bench_sets):
        sys, grid, battery = bench
        res = reach_tube(sys, bench_sets["W"], 20.0, grid, battery, 5e-3)
        in_U = bench_sets["U"].contains_many(grid.points[res.mask])
        assert not in_U.any()
        assert res.boundary_exits == 0
        assert res.semantics == "sampled_under"

    def test_monotone_in_horizon(self, bench, bench_sets):
        sys, grid, battery = bench
        short = reach_tube(sys, bench_sets["W"], 2.0, grid, battery, 5e-3)
        long = reach_tube(sys, bench_sets["W"], 5.0, grid, battery, 5e-3)
        assert np.all(long.mask[short.mask])

    def test_monotone_in_delta_up_to_one_cell(self, bench_sets):
        f = parse_vector_field(["-x + x^2"], ["x"])
        grid = make_grid(Box((-1.5,), (1.5,)), 0.01)
        masks = {}
        for delta in (0.1, 0.2):
            sys = PerturbedSystem(f, delta)
            bat = default_policy_battery(sys, n_random=4, seed=99)
            masks[delta] = reach_tube(sys, bench_sets["W"], 5.0, grid, bat, 5e-3)
        inflated = grid.dilate(masks[0.2].mask, 1)
        assert np.all(inflated[masks[0.1].mask])

    def test_extremal_envelope_matches_tube_edges(self, bench, bench_sets):
        # 1-D comparison principle: the sampled tube's hull equals the two
        # constant-extreme trajectories' hull, within one cell
        from safestab import integrate

        sys, grid, battery = bench
        res = reach_tube(sys, bench_sets["W"], 10.0, grid, battery, 5e-3)
        marked = grid.points[res.mask][:, 0]
        hi = integrate(sys, [-0.9], ConstantPolicy([0.25]), 10.0, 5e-3)
        lo = integrate(sys, [-1.0], ConstantPolicy([-0.25]), 10.0, 5e-3)
        h = grid.widths.min()
        assert abs(marked.max() - hi.states.max()) <= h
        assert abs(marked.min() - lo.states.min()) <= h

    def test_empty_initial_set_rejected(self, bench):
        sys, grid, battery = bench
        with pytest.raises(ValueError, match="refine the grid"):
            reach_tube(sys, Box((9.0,), (9.5,)), 1.0, grid, battery, 1e-2)

    def test_iterator_battery_matches_list(self, bench, bench_sets):
        sys, grid, battery = bench
        res = reach_tube(sys, bench_sets["W"], 1.0, grid, battery, 1e-2)
        gen = reach_tube(sys, bench_sets["W"], 1.0, grid, (p for p in battery), 1e-2)
        assert gen.n_policies == res.n_policies == len(battery)
        assert np.array_equal(gen.mask, res.mask)


# ---------------------------------------------------------------------------
# check_invariance


class TestInvariance:
    def test_contraction_interval(self, linear_sys):
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        bat = default_policy_battery(linear_sys, n_random=2, seed=4)
        rep = check_invariance(linear_sys, Box((-1.0,), (1.0,)), grid, bat, 5.0, 1e-2)
        assert rep.verdict == "yes_sampled"
        assert rep.escapes == []

    def test_benchmark_invariant_core_interval(self, bench):
        sys, grid, battery = bench
        rep = check_invariance(
            sys, Box((ROOT_LEFT,), (0.5,)), grid, battery, 10.0, 5e-3
        )
        assert rep.verdict == "yes_sampled"

    def test_escape_just_right_of_half(self):
        # [ROOT_LEFT, 0.51] is not invariant: above 0.5 the +0.25 push escapes
        f = parse_vector_field(["-x + x^2"], ["x"])
        sys = PerturbedSystem(f, 0.25)
        grid = make_grid(Box((-0.3,), (0.6,)), 1e-3)
        rep = check_invariance(
            sys, Box((ROOT_LEFT,), (0.51,)), grid, [ConstantPolicy([0.25])], 20.0, 1e-3
        )
        assert rep.verdict == "no"
        first = rep.escapes[0]
        assert first.x0[0] == pytest.approx(0.51, abs=2e-3)
        assert first.kind == "escape"

    def test_no_grid_points_rejected(self, linear_sys):
        grid = make_grid(Box((-1.0,), (1.0,)), 0.05)
        with pytest.raises(ValueError):
            check_invariance(linear_sys, Box((5.0,), (6.0,)), grid, [ZeroPolicy()], 1.0, 1e-2)


# ---------------------------------------------------------------------------
# maximal_invariant


class TestMaximalInvariant:
    def test_benchmark_core_endpoints(self, bench):
        sys, grid, battery = bench
        res = maximal_invariant(
            sys, Box((-0.25,), (0.5,)), grid, battery, 30.0, 5e-3, mode="core"
        )
        (lo, hi), = res.endpoints()
        assert lo == pytest.approx(ROOT_LEFT, abs=2 * grid.widths[0])
        assert hi == pytest.approx(0.5, abs=2 * grid.widths[0])
        assert not res.empty

    def test_benchmark_kernel_is_whole_target(self, bench):
        # every point of Omega keeps all solutions inside Omega (the worst-case
        # downward drift is positive left of ROOT_LEFT), so the stay-in kernel
        # is the full cell set; the attracting core above is strictly smaller
        sys, grid, battery = bench
        res = maximal_invariant(
            sys, Box((-0.25,), (0.5,)), grid, battery, 30.0, 5e-3, mode="kernel"
        )
        assert res.mask.mask.sum() == grid.select(Box((-0.25,), (0.5,))).size

    def test_contraction_kernel_keeps_everything(self, linear_sys):
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        bat = default_policy_battery(linear_sys, n_random=2, seed=4)
        res = maximal_invariant(
            linear_sys, Box((-1.0,), (1.0,)), grid, bat, 10.0, 1e-2, mode="kernel"
        )
        assert res.mask.mask.sum() == grid.select(Box((-1.0,), (1.0,))).size

    def test_contraction_core_trims_to_equilibrium(self, linear_sys):
        grid = make_grid(Box((-1.505,), (1.505,)), 0.01)
        bat = default_policy_battery(linear_sys, n_random=2, seed=4)
        res = maximal_invariant(
            linear_sys, Box((-1.0,), (1.0,)), grid, bat, 10.0, 1e-2, mode="core"
        )
        (lo, hi), = res.endpoints()
        assert abs(lo) <= 2 * grid.widths[0] and abs(hi) <= 2 * grid.widths[0]

    def test_expansion_keeps_only_equilibrium(self):
        sys = PerturbedSystem(parse_vector_field(["x"], ["x"]), 0.0)
        grid = make_grid(Box((-1.505,), (1.505,)), 0.01)  # 0 is a cell center
        bat = [ZeroPolicy()]
        res = maximal_invariant(
            sys, Box((-1.0,), (1.0,)), grid, bat, 10.0, 1e-2,
            mode="kernel", dwell_window=1.0,
        )
        pts = grid.points[res.mask.mask]
        assert pts.shape[0] == 1
        assert abs(pts[0, 0]) < 1e-9
        assert res.iterations >= 3  # the pruning cascaded inward

    def test_core_is_invariant_for_same_battery(self, bench):
        sys, grid, battery = bench
        res = maximal_invariant(
            sys, Box((-0.25,), (0.5,)), grid, battery, 30.0, 5e-3, mode="core"
        )
        rep = check_invariance(sys, res.mask, grid, battery, 10.0, 5e-3)
        assert rep.verdict == "yes_sampled"

    @pytest.mark.parametrize("horizon, note", [
        (60.0, "no late-time occupancy inside the kernel; returning the kernel"),
        (20.0, "closure cells fell outside the kernel and were clipped"),
    ])
    def test_slow_drift_core_notes(self, horizon, note):
        """x' = 0.02 keeps every cell center in its cell over a window, so
        the kernel is all of Omega, but the drift carries every late state
        out of Omega (horizon 60) or the closure of the late cells past its
        top (horizon 20)."""
        sys = PerturbedSystem(parse_vector_field(["0.02"], ["x"]), 0.0)
        grid = make_grid(Box((-1.505,), (1.505,)), 0.01)
        omega = Box((-0.25,), (0.5,))
        res = maximal_invariant(sys, omega, grid, [ZeroPolicy()], horizon, 1e-2, mode="core")
        assert res.kernel.mask.sum() == grid.select(omega).size
        assert note in res.notes and not res.empty

    def test_empty_omega_rejected(self, bench):
        sys, grid, battery = bench
        with pytest.raises(ValueError):
            maximal_invariant(sys, Box((5.0,), (6.0,)), grid, battery, 1.0, 1e-2)

    def test_non_integral_dwell_window_rejected(self, linear_sys):
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        with pytest.raises(ValueError, match="dwell_window"):
            maximal_invariant(
                linear_sys, Box((-1.0,), (1.0,)), grid, [ZeroPolicy()], 1.0, 1e-2,
                dwell_window=0.015,
            )


# ---------------------------------------------------------------------------
# winning_set


class TestWinningSet:
    def test_global_contraction_marks_everything(self, linear_sys):
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        bat = default_policy_battery(linear_sys, n_random=2, seed=6)
        res = winning_set(
            linear_sys, Box((0.0,), (0.0,)), Box((2.0,), (3.0,)), grid, bat, 8.0, 1e-2
        )
        assert res.mask.all()

    def test_unsafe_cells_unmarked(self, bench, bench_sets):
        sys, grid, battery = bench
        res = winning_set(
            sys, bench_sets["A"], bench_sets["U"], grid, battery, 30.0, 5e-3
        )
        in_U = bench_sets["U"].contains_many(grid.points)
        assert not res.mask[in_U].any()
        assert res.mask.sum() > 0

    def test_mask_forward_closed_under_battery(self, bench, bench_sets):
        sys, grid, battery = bench
        res = winning_set(
            sys, bench_sets["A"], bench_sets["U"], grid, battery, 30.0, 5e-3
        )
        starts = np.zeros(grid.size, dtype=bool)
        starts[np.nonzero(res.mask)[0][::5]] = True
        occ = reach_tube(sys, MaskSet(grid, starts), 10.0, grid, battery, 5e-3)
        target = bench_sets["A"].dist_many(grid.points) <= res.conv_radius
        allowed = grid.dilate(res.mask | target, 1)
        assert np.all(allowed[occ.mask])

    def test_retiring_lost_cells_keeps_the_result(self, bench, bench_sets, monkeypatch):
        """winning_set stops every row of a cell once one of them enters U.
        Its mask and inconclusive cells equal those of a plain monitor that
        runs every row to its end, on a grid with cells that start in U and
        cells lost mid-sweep."""
        from safestab.dynamics import STATUS_RETIRED, run_sweep

        sys, grid, battery = bench
        A, U = bench_sets["A"], bench_sets["U"]
        sweeps = []

        def recording_sweep(*args, **kwargs):
            sweeps.append(run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(reach, "run_sweep", recording_sweep)
        res = winning_set(sys, A, U, grid, battery, 10.0, 5e-3)
        assert np.any(sweeps[0].status == STATUS_RETIRED)

        mon = _assert_every_step_agrees(sys, A, U, grid, battery, 10.0, 5e-3, res)
        lost_at = mon.first.reshape(-1, res.eval_cells.size).min(axis=0)
        assert np.any(lost_at == 0.0)
        assert np.any(np.isfinite(lost_at) & (lost_at > 0.0))
        assert res.mask.any() and res.inconclusive.any()

    @pytest.mark.parametrize("n_cells, offset, wins", [
        (2200, 0.5, True), (2200, 1.5, False), (2, 0.5, True), (1, 1.5, False),
    ])
    def test_target_test_after_the_deadline_keeps_the_result(
        self, linear_sys, monkeypatch, n_cells, offset, wins
    ):
        """winning_set tests the target only in blocks that end after the
        settle deadline.  Its mask and inconclusive cells equal those of a
        monitor that tests every step: with cells outside the target only
        before the deadline, with a last exit at the deadline step itself
        (settled) or one step after it (not), in one-step blocks (2200
        rows) and in 64-step blocks, one of which straddles the deadline."""
        A, U = Box((0.0,), (0.0,)), Box((3.0,), (4.0,))
        grid = make_grid(Box((0.0,), (2.2,)), 0.001)
        horizon, dt = 4.0, 1e-2
        cells = np.arange(grid.size)[-n_cells:]
        # x0 e^{-t} from the last cell leaves the tolerance between the
        # steps at deadline + (offset -/+ 0.5) dt
        conv = float(grid.points[-1, 0]) * math.exp(-(0.75 * horizon + offset * dt))
        blocks = _watch_blocks(monkeypatch)
        res = winning_set(linear_sys, A, U, grid, [ZeroPolicy()], horizon, dt,
                          conv_radius=conv, eval_cells=cells)
        mon = _assert_every_step_agrees(linear_sys, A, U, grid, [ZeroPolicy()],
                                        horizon, dt, res)
        k = round(res.settle_deadline / dt)
        assert k * dt == res.settle_deadline
        assert mon.last[-1] == (k + round(offset - 0.5)) * dt
        assert res.mask[-1] == wins and res.inconclusive[-1] != wins
        if n_cells > 2048:
            assert all(steps.size == 1 for steps, _, _ in blocks)
            early = (mon.last > 0.0) & (mon.last < res.settle_deadline)
            assert np.any(res.mask[cells] & early)
        else:
            assert any(steps[0] < k < steps[-1] for steps, _, _ in blocks)

    def test_every_cell_lost_before_the_deadline(self, linear_sys, monkeypatch):
        """Every start passes through U on its way to 0, so every row stops
        before the target is first tested: no cell wins and none is
        inconclusive."""
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        cells = grid.select(Box((0.5,), (1.5,)))
        blocks = _watch_blocks(monkeypatch)
        res = winning_set(linear_sys, Box((0.0,), (0.0,)), Box((0.5,), (0.6,)), grid,
                          [ZeroPolicy()], 8.0, 1e-2, eval_cells=cells)
        assert blocks and not any(calls for *_, calls in blocks)
        assert cells.size == 20 and not res.mask.any() and not res.inconclusive.any()

    def test_target_is_tested_only_after_the_deadline(self, bench, bench_sets, monkeypatch):
        """On a sweep of one-step blocks (200 cells x 11 policies),
        winning_set calls the target test on no block that ends at or
        before the settle deadline and once on every later block; check_ras,
        whose witness_T reads every settle time, calls it on every block."""
        sys, grid, battery = bench
        W, U = Box((-1.5,), (0.5,)), bench_sets["U"]
        cells = grid.select(W)
        assert cells.size * len(battery) == 2200
        blocks = _watch_blocks(monkeypatch)
        res = winning_set(sys, bench_sets["A"], U, grid, battery, 2.0, 5e-3, eval_cells=cells)
        assert len(blocks) == 401 and all(steps.size == 1 for steps, _, _ in blocks)
        assert all(calls == (t > res.settle_deadline) for _, t, calls in blocks)
        assert sum(calls for *_, calls in blocks) == 100
        blocks.clear()
        check_ras(sys, W, U, bench_sets["Omega"], grid, battery, 2.0, 5e-3)
        assert len(blocks) == 401 and all(calls == 1 for *_, calls in blocks)

    def test_overlapping_sets_rejected(self, bench):
        sys, grid, battery = bench
        with pytest.raises(ValueError, match="intersect"):
            winning_set(
                sys, Box((0.0,), (0.5,)), Box((0.4,), (0.6,)), grid, battery, 1.0, 1e-2
            )


@pytest.mark.parametrize("horizon", [4.0, 4.12])
def test_winning_set_matches_closed_form_settle_times(linear_sys, horizon):
    """x' = -x from x0 is x0 e^{-t}, so the cell center x0 settles into
    {0} + conv_radius B at t* = ln(|x0| / conv_radius).  A cell with t* two
    steps or more before the settle deadline wins, one with t* two steps or
    more after it is inconclusive, and the few in between are skipped and
    counted.  The deadline ends a 6-step block at horizon 4 and falls
    inside one at 4.12.  The expected sets use plain float arithmetic."""
    lo, h, dt, conv = -3.0, 0.01, 0.01, 0.01
    grid = make_grid(Box((lo,), (-lo,)), h)
    res = winning_set(linear_sys, Box((0.0,), (0.0,)), Box((5.0,), (6.0,)), grid,
                      [ZeroPolicy()], horizon, dt, conv_radius=conv)
    deadline = 0.75 * horizon
    skipped = 0
    for i in range(600):
        t_star = math.log(abs(lo + (i + 0.5) * h) / conv)
        if t_star < deadline - 2 * dt:
            assert res.mask[i] and not res.inconclusive[i], i
        elif t_star > deadline + 2 * dt:
            assert res.inconclusive[i] and not res.mask[i], i
        else:
            skipped += 1
    assert grid.size == 600 and skipped <= 4
    assert res.mask.sum() > 30 and res.inconclusive.sum() > 400


# ---------------------------------------------------------------------------
# check_ras / check_sws


class TestRas:
    def test_benchmark_satisfied(self, bench, bench_sets):
        sys, grid, battery = bench
        v = check_ras(
            sys, bench_sets["W"], bench_sets["U"], bench_sets["Omega"],
            grid, battery, 30.0, 5e-3,
        )
        assert v.satisfied == "yes_sampled"
        assert v.witness_T is not None and 0 < v.witness_T < 30.0
        assert v.details["min_dist_to_unsafe"] > 0.05

    def test_tighter_unsafe_set_fails(self, bench, bench_sets):
        sys, grid, battery = bench
        tight_U = BoxComplement(Box((-1e9,), (0.3,)))
        v = check_ras(
            sys, bench_sets["W"], tight_U, bench_sets["Omega"],
            grid, battery, 30.0, 5e-3,
        )
        assert v.satisfied == "no"
        kinds = {c.kind for c in v.counterexamples}
        assert "entered_unsafe" in kinds

    def test_empty_initial_rejected(self, bench, bench_sets):
        sys, grid, battery = bench
        with pytest.raises(ValueError):
            check_ras(
                sys, Box((5.0,), (6.0,)), bench_sets["U"], bench_sets["Omega"],
                grid, battery, 1.0, 1e-2,
            )

    def test_short_horizon_is_inconclusive_not_no(self, bench, bench_sets):
        sys, grid, battery = bench
        v = check_ras(
            sys, bench_sets["W"], bench_sets["U"], bench_sets["Omega"],
            grid, battery, 1.0, 1e-2,
        )
        assert v.satisfied == "inconclusive"
        assert all(c.kind == "never_settled" for c in v.counterexamples)


class TestSws:
    def test_linear_contraction(self, linear_sys):
        grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
        bat = default_policy_battery(linear_sys, n_random=2, seed=6)
        v = check_sws(
            linear_sys, Box((-1.0,), (1.0,)), Box((2.0,), (3.0,)), Box((0.0,), (0.0,)),
            grid, bat, 8.0, 1e-2, eps_schedule=[0.25, 0.5], probe_horizon=8.0,
        )
        assert v.satisfied == "yes_sampled"

    def test_benchmark_fails_at_full_disturbance(self, bench, bench_sets):
        sys, grid, battery = bench
        v = check_sws(
            sys, bench_sets["W"], bench_sets["U"], bench_sets["A"],
            grid, battery, 20.0, 5e-3, eps_schedule=[0.5], probe_horizon=120.0,
        )
        assert v.satisfied == "no"
        assert any(c.x0[0] > 0.5 for c in v.counterexamples)

    def test_benchmark_holds_below_full_disturbance(self, bench_sets):
        # the same invariant interval is asymptotically stable once the
        # disturbance radius drops to 0.2
        f = parse_vector_field(["-x + x^2"], ["x"])
        sys = PerturbedSystem(f, 0.2)
        grid = make_grid(Box((-1.5,), (1.5,)), 0.01)
        battery = default_policy_battery(sys, n_random=8, seed=2024)
        v = check_sws(
            sys, bench_sets["W"], bench_sets["U"], bench_sets["A"],
            grid, battery, 30.0, 5e-3, eps_schedule=[0.25, 0.5], probe_horizon=60.0,
        )
        assert v.satisfied == "yes_sampled"


class TestProbeUas:
    def test_linear_stability_radius_matches_eps(self, linear_sys):
        bat = default_policy_battery(linear_sys, n_random=2, seed=6)
        rep = probe_uas(
            linear_sys, Box((0.0,), (0.0,)), [0.25, 0.5], bat, 8.0, 1e-2,
        )
        assert rep.verdict == "consistent_with_UAS"
        for eps, delta_eps in rep.eps_table:
            assert delta_eps == pytest.approx(eps, rel=0.01)
        # delta_eps nondecreasing, T nonincreasing
        des = [d for _, d in rep.eps_table]
        assert des == sorted(des)
        ts = [t for _, t in rep.attractivity]
        assert ts == sorted(ts, reverse=True)

    def test_unstable_equilibrium_violated(self):
        sys = PerturbedSystem(parse_vector_field(["x"], ["x"]), 0.0)
        rep = probe_uas(sys, Box((0.0,), (0.0,)), [0.5], [ZeroPolicy()], 10.0, 1e-2)
        assert rep.verdict == "violated"
        assert rep.counterexamples

    def test_marginal_system_fails_attractivity(self):
        # x' = 0: every shell is contained (stable) but nothing is attracted;
        # the schedule must include an eps below rho for the probe to see it
        sys = PerturbedSystem(parse_vector_field(["0"], ["x"]), 0.0)
        rep = probe_uas(sys, Box((0.0,), (0.0,)), [0.1, 0.5], [ZeroPolicy()], 5.0, 1e-2)
        assert rep.verdict == "violated"
        assert any(c.kind == "not_attracted" for c in rep.counterexamples)


# ---------------------------------------------------------------------------
# the batched probe against the sequential bisection


def _sequential_shell_run(sys, A, battery, c, eps, horizon, dt):
    """The worst failure from the shell at distance c, in a sweep of its
    own that retires every row once any row reaches eps, or None."""
    from safestab.dynamics import STATUS_BLOWUP, run_sweep
    from safestab.reach import GROWTH_FLAG, OBSERVE_DT, Counterexample, _shell_points

    stride = max(1, int(round(OBSERVE_DT / dt)))
    starts = _shell_points(A.hull_box(), c)
    R = starts.shape[0] * len(battery)
    first, peak, latest = np.full(R, np.inf), np.full(R, -np.inf), np.zeros(R)

    def observer(steps, ts, X, rows, D):
        for i in np.flatnonzero(steps % stride == 0):
            d = A.dist_many(X[i])
            peak[rows] = np.maximum(peak[rows], d)
            latest[rows] = d
            hit = d >= eps
            first[rows[hit & np.isinf(first[rows])]] = ts[i]
            if hit.any():
                return np.full(rows.size, i)
        return None

    res = run_sweep(sys, starts, battery, horizon, dt, observer=observer)
    hard = (peak >= eps) | (res.status == STATUS_BLOWUP)
    fails = hard | (latest > GROWTH_FLAG * c)
    if not np.any(fails):
        return None
    r = int(np.argmax(np.where(hard, peak, -np.inf)))
    if not hard[r]:
        r = int(np.nonzero(fails)[0][0])
    kind = "blow_up" if res.status[r] == STATUS_BLOWUP else (
        "left_eps_shell" if hard[r] else "still_growing_at_horizon")
    return Counterexample(
        tuple(float(v) for v in starts[res.start_index[r]]), battery[res.policy_index[r]].label,
        float(first[r] if np.isfinite(first[r]) else res.end_times[r]), kind, float(peak[r]))


def _sequential_probe(sys, A, eps_schedule, battery, horizon, dt, delta_floor):
    """probe_uas with one sweep per bisection step."""
    from safestab.dynamics import STATUS_BLOWUP, _Monitor, run_sweep
    from safestab.reach import (
        BISECT_ITERS, OBSERVE_DT, UASProbeReport, _counterexample, _shell_points)

    eps_schedule = sorted(eps_schedule)
    eps_table, counterexamples, best = [], [], 0.0
    for eps in eps_schedule:
        lo, hi, fails = 0.0, eps, []
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid < delta_floor:
                break
            ce = _sequential_shell_run(sys, A, battery, mid, eps, horizon, dt)
            if ce is None:
                lo = mid
            else:
                hi = mid
                fails.append(ce)
        if lo < delta_floor:
            counterexamples += fails[:20]
        best = max(best, lo)
        eps_table.append((eps, max(lo, eps_table[-1][1] if eps_table else 0.0)))
    if counterexamples:
        return UASProbeReport(eps_table, None, [], "violated", counterexamples,
                              delta_floor, horizon)

    rho = 0.9 * best
    starts = _shell_points(A.hull_box(), rho)
    levels = np.asarray(eps_schedule)[:, None, None]
    mon = _Monitor(starts.shape[0] * len(battery), gauge=A.dist_many,
                   last=lambda pts, d, rows: d >= levels, levels=len(eps_schedule),
                   stride=max(1, int(round(OBSERVE_DT / dt))))
    res = run_sweep(sys, starts, battery, horizon, dt, observer=mon)
    bad = res.status == STATUS_BLOWUP
    if np.any(bad) or np.any(mon.latest >= eps_schedule[0]):
        r = int(np.argmax(np.where(bad, np.inf, mon.latest)))
        ce = _counterexample(res, starts, battery, r, horizon,
                             "blow_up" if bad[r] else "not_attracted", mon.latest[r])
        return UASProbeReport(eps_table, rho, [(e, math.inf) for e in eps_schedule],
                              "violated", [ce], delta_floor, horizon)
    times = [float(w + dt) if np.isfinite(w) else 0.0 for w in mon.last.max(axis=1)]
    for j in range(1, len(times)):
        times[j] = min(times[j], times[j - 1])
    return UASProbeReport(eps_table, rho, list(zip(eps_schedule, times)),
                          "consistent_with_UAS", [], delta_floor, horizon)


def _bench_probe(delta, horizon, delta_floor):
    sys = PerturbedSystem(parse_vector_field(["-x + x^2"], ["x"]), delta)
    return (sys, Box((ROOT_LEFT,), (0.5,)), [0.1, 0.25, 0.5],
            default_policy_battery(sys, n_random=2, seed=2024), horizon, 5e-3, delta_floor)


# x' = -25 x (x - 0.1)(x - 0.4): 0 is stable, 0.1 unstable and 0.4 stable, so
# a shell at c in (0.1, 0.32) grows to 0.4 > 1.25 c while larger shells stay
BISTABLE = PerturbedSystem(parse_vector_field(["-25*x*(x - 0.1)*(x - 0.4)"], ["x"]), 0.0)

# eps = 0.3 and 0.35 put bisection midpoints one ulp away from eps * j / 2**k
PROBE_CASES = {
    "bench-delta-0.20": lambda: _bench_probe(0.20, 20.0, 1e-3),
    # violated: d = +0.25 drives every shell at c >= 0.005 above A out
    "bench-delta-0.25": lambda: _bench_probe(0.25, 60.0, 0.005),
    "linear-2d": lambda: (
        PerturbedSystem(parse_vector_field(["-x + 0.5*y", "-y"], ["x", "y"]), 0.1),
        Box((0.0, 0.0), (0.0, 0.0)), [0.3, 0.5],
        [ZeroPolicy(), ConstantPolicy([0.1, 0.0]), ConstantPolicy([0.0, -0.1])], 5.0, 1e-2, 1e-3),
    # x' = x fails every shell: the floor stops the search at bisection step 4
    # (3 radii tested), or at steps 7 and 8 of the levels 0.25 and 0.5 (6 and 7)
    "floor-round-1": lambda: (
        PerturbedSystem(parse_vector_field(["x"], ["x"]), 0.05), Box((0.0,), (0.0,)), [0.5],
        [ZeroPolicy(), ConstantPolicy([0.05])], 5.0, 1e-2, 0.05),
    "floor-round-2": lambda: (
        PerturbedSystem(parse_vector_field(["x"], ["x"]), 0.05), Box((0.0,), (0.0,)),
        [0.25, 0.5], [ZeroPolicy(), ConstantPolicy([0.05])], 5.0, 1e-2, 0.002),
    "bistable": lambda: (BISTABLE, Box((0.0,), (0.0,)), [0.35, 0.5], [ZeroPolicy()],
                         10.0, 1e-2, 1e-3),
}


@functools.cache
def _sequential_report(case):
    sys, A, eps, battery, horizon, dt, floor = PROBE_CASES[case]()
    return _sequential_probe(sys, A, eps, battery, horizon, dt, floor)


class TestProbeReplaysBisection:
    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_report_equals_sequential_bisection(self, case):
        sys, A, eps, battery, horizon, dt, floor = PROBE_CASES[case]()
        got = probe_uas(sys, A, eps, battery, horizon, dt, delta_floor=floor)
        assert got == _sequential_report(case)
        if case.startswith("floor"):
            assert got.verdict == "violated"
            assert len(got.counterexamples) == {"floor-round-1": 3, "floor-round-2": 6 + 7}[case]

    @pytest.mark.parametrize("rounds", [(10,), (5, 5), reach.BISECT_ROUNDS, (1,) * 10])
    @pytest.mark.parametrize("case", sorted(c for c in PROBE_CASES if not c.startswith("bench")))
    def test_report_is_independent_of_the_round_schedule(self, monkeypatch, case, rounds):
        """The rounds only batch the sweeps: any split of the BISECT_ITERS
        steps replays the same bisection."""
        assert sum(reach.BISECT_ROUNDS) == reach.BISECT_ITERS
        monkeypatch.setattr(reach, "BISECT_ROUNDS", rounds)
        self.test_report_equals_sequential_bisection(case)

    def test_bistable_containment_is_not_monotone(self):
        """The search ends near the unstable equilibrium 0.1 although larger
        shells are contained; batched and sequential agree on it above."""
        A = Box((0.0,), (0.0,))
        fail = _sequential_shell_run(BISTABLE, A, [ZeroPolicy()], 0.25, 0.5, 10.0, 1e-2)
        assert fail.kind == "still_growing_at_horizon"
        assert _sequential_shell_run(BISTABLE, A, [ZeroPolicy()], 0.45, 0.5, 10.0, 1e-2) is None
        rep = probe_uas(BISTABLE, A, [0.5], [ZeroPolicy()], 10.0, 1e-2)
        assert rep.eps_table[0][1] == pytest.approx(0.1, abs=1e-3)


# ---------------------------------------------------------------------------
# event times, replayed one trajectory at a time


class TestEventTimesReplay:
    """The counterexample times match a replay with ``ensemble`` and a plain
    membership test on the recorded states, not the sweep's observer."""

    def replay(self, sys, grid, battery, x0, horizon, dt):
        from safestab import ensemble

        trs = ensemble(sys, list(x0), battery, horizon, dt, domain=grid.domain)
        return {pol.label: tr for pol, tr in zip(battery, trs)}

    def test_entered_unsafe_at_first_step_in_U(self, bench, bench_sets):
        sys, grid, battery = bench
        tight_U = BoxComplement(Box((-1e9,), (0.3,)))
        horizon, dt = 10.0, 5e-3
        v = check_ras(sys, bench_sets["W"], tight_U, bench_sets["Omega"],
                      grid, battery, horizon, dt)
        got = {(c.x0, c.policy): c.time for c in v.counterexamples
               if c.kind == "entered_unsafe"}
        assert got
        want = {}
        for x0 in grid.point_of(grid.select(bench_sets["W"])):
            x0 = tuple(float(v) for v in x0)
            for label, tr in self.replay(sys, grid, battery, x0, horizon, dt).items():
                inside = np.nonzero(tight_U.contains_many(tr.states))[0]
                if inside.size:
                    want[(x0, label)] = float(tr.times[inside[0]])
        assert got == want

    def test_escape_at_first_step_outside_tolerant_S(self, bench):
        sys, grid, battery = bench
        S = Box((-0.25,), (0.3,))
        horizon, dt = 5.0, 5e-3
        rep = check_invariance(sys, S, grid, battery, horizon, dt)
        got = {(c.x0, c.policy): c.time for c in rep.escapes if c.kind == "escape"}
        assert got
        want = {}
        for x0 in grid.point_of(grid.select(S)):
            x0 = tuple(float(v) for v in x0)
            for label, tr in self.replay(sys, grid, battery, x0, horizon, dt).items():
                out = np.nonzero(S.dist_many(tr.states) > grid.cell_radius)[0]
                if out.size:
                    want[(x0, label)] = float(tr.times[out[0]])
        assert got == want


# ---------------------------------------------------------------------------
# counterexample kinds of check_ras and check_sws, and the 2-D probe


class TestRasCounterexampleKinds:
    # x' = 1 moves every start right at unit speed, so the blow-up and
    # domain-exit times are known in closed form
    drift = PerturbedSystem(parse_vector_field(["1"], ["x"]), 0.0)
    grid = make_grid(Box((-1.0,), (3.0,)), 0.1)
    W = Box((-0.5,), (-0.3,))
    U = BoxComplement(Box((-10.0,), (10.0,)))
    Omega = Box((-0.1,), (0.1,))

    def test_blow_up_below_grid_edge_is_no(self):
        dt = 0.01
        drift = PerturbedSystem(self.drift.f, 0.0, blowup_bound=1.0)
        v = check_ras(drift, self.W, self.U, self.Omega, self.grid, [ZeroPolicy()], 3.0, dt)
        assert v.satisfied == "no"
        assert len(v.counterexamples) == 2
        for c in v.counterexamples:
            assert c.kind == "blow_up"
            assert abs(c.time - (1.0 - c.x0[0])) <= dt + 1e-12

    def test_left_grid_domain_is_inconclusive(self):
        dt = 0.01
        v = check_ras(self.drift, self.W, self.U, self.Omega, self.grid,
                      [ZeroPolicy()], 5.0, dt)
        assert v.satisfied == "inconclusive"
        assert len(v.counterexamples) == 2
        for c in v.counterexamples:
            assert c.kind == "left_grid_domain"
            assert abs(c.time - (3.0 - c.x0[0])) <= dt + 1e-12


class TestSwsCounterexampleKinds:
    # x' = -x is UAS at 0; the probe gets its own long horizon
    grid = make_grid(Box((-1.5,), (1.5,)), 0.05)
    W = Box((0.9,), (1.0,))
    A = Box((0.0,), (0.0,))

    def check(self, linear_sys, U, horizon):
        return check_sws(linear_sys, self.W, U, self.A, self.grid, [ZeroPolicy()],
                         horizon, 1e-2, eps_schedule=[0.25, 0.5], probe_horizon=8.0)

    def test_unsettled_from_W_is_inconclusive(self, linear_sys):
        # by 0.75 of a unit horizon x0 e^{-t} is still above 0.4
        v = self.check(linear_sys, Box((2.0,), (3.0,)), 1.0)
        assert v.satisfied == "inconclusive"
        assert v.details["probe"]["verdict"] == "consistent_with_UAS"
        assert v.counterexamples
        assert {c.kind for c in v.counterexamples} == {"unsettled_from_W"}
        assert all(0.9 <= c.x0[0] <= 1.0 for c in v.counterexamples)

    def test_unsafe_from_W_is_no(self, linear_sys):
        # every start passes through U on its way to 0
        v = self.check(linear_sys, Box((0.5,), (0.6,)), 8.0)
        assert v.satisfied == "no"
        assert v.details["probe"]["verdict"] == "consistent_with_UAS"
        assert v.counterexamples
        assert {c.kind for c in v.counterexamples} == {"unsafe_or_divergent_from_W"}
        assert v.details["n_W_not_winning"] == v.details["n_W_cells"]


    def test_every_w_miss_is_a_counterexample(self, linear_sys):
        # the 100 W cells in [0.5, 1] start inside U; all of them are reported
        grid = make_grid(Box((-1.5,), (1.5,)), 0.005)
        v = check_sws(linear_sys, Box((-1.0,), (1.0,)), Box((0.5,), (3.0,)), self.A, grid,
                      [ZeroPolicy()], 8.0, 1e-2, eps_schedule=[0.25, 0.5], probe_horizon=8.0)
        assert v.details["probe"]["verdict"] == "consistent_with_UAS"
        assert v.details["n_W_not_winning"] == 100
        assert len(v.counterexamples) == 100
        assert as_report(v)["n_counterexamples"] == 100
        assert all(0.5 <= c.x0[0] <= 1.0 for c in v.counterexamples)


def test_shell_points_2d_faces_and_corners():
    from safestab.reach import _shell_points

    hull = Box((-0.3, 0.1), (0.5, 0.4))
    c = 0.2
    pts = _shell_points(hull, c)
    assert pts.shape == (2 * 2 + 2**2, 2)
    np.testing.assert_allclose(hull.dist_many(pts), c, rtol=0.0, atol=1e-12)
    lo, hi = np.asarray(hull.lo), np.asarray(hull.hi)
    beyond = (pts < lo) | (pts > hi)
    assert np.count_nonzero(beyond.sum(axis=1) == 1) == 4  # one per face
    assert np.count_nonzero(beyond.sum(axis=1) == 2) == 4  # one per corner


def test_probe_uas_2d_linear_contraction():
    sys = PerturbedSystem(parse_vector_field(["-x", "-y"], ["x", "y"]), 0.0)
    rep = probe_uas(sys, Box((0.0, 0.0), (0.0, 0.0)), [0.25, 0.5], [ZeroPolicy()], 5.0, 1e-2)
    assert rep.verdict == "consistent_with_UAS"
    # |x(t)| only shrinks, so every bisection step below eps passes
    for eps, delta_eps in rep.eps_table:
        assert delta_eps == pytest.approx(eps * (1.0 - 2.0**-10), rel=1e-12)
    # the settle time into each eps ball from the rho shell is log(rho/eps)
    for eps, t in rep.attractivity:
        assert t == pytest.approx(max(0.0, math.log(rep.rho / eps)), abs=0.02)


# ---------------------------------------------------------------------------
# the sweep monitor's per-row table


class _FullArrayMonitor:
    """The monitor's outcome table kept by indexing full arrays with
    ``rows`` on every call: the reference the in-place table must equal."""

    def __init__(self, n_rows, first, last, gauge, groups, stride):
        self.first_event, self.last_event, self.gauge = first, last, gauge
        self.groups, self.stride, self.n_rows = groups, stride, n_rows
        if groups is not None:
            self.lost = np.zeros(int(groups.max()) + 1, dtype=bool)
        self.first = np.full(n_rows, np.inf)
        self.peak = np.full(n_rows, -np.inf)
        self.latest = np.zeros(n_rows)
        self.last = None

    def __call__(self, step, t, X, rows, D):
        if step % self.stride:
            return None
        g = self.gauge(X)
        self.peak[rows] = np.maximum(self.peak[rows], g)
        self.latest[rows] = g
        stop = None
        flags = self.first_event(X, g, rows)
        if flags.any():
            fresh = flags & np.isinf(self.first[rows])
            self.first[rows[fresh]] = t
            if self.groups is not None:
                self.lost[self.groups[rows[flags]]] = True
                stop = self.lost[self.groups[rows]]
        flags = self.last_event(X, g, rows)
        if self.last is None:
            self.last = np.full(flags.shape[:-1] + (self.n_rows,), -np.inf)
        if flags.ndim == 1:
            self.last[rows[flags]] = t
        else:
            for level, f in zip(self.last, flags):
                level[rows[f]] = t
        return stop


@pytest.mark.parametrize("seed, stride, levels, grouped", [
    (0, 1, np.array([[0.05], [0.2], [0.5]]), True), (1, 3, 0.2, True),
    (2, 7, np.array([[0.1], [0.3]]), True), (3, 2, np.array([[0.1], [0.3]]), False),
])
def test_monitor_table_equals_full_array_reference(bench, seed, stride, levels, grouped):
    """Under seeded random retirement on top of the monitor's own group
    retirement, the in-place table (gauge peak and latest, first, single-
    or multi-level last, groups, a per-row threshold) equals the reference
    run step by step over each block, exactly, block by block in what it
    retires and at the end.  Without groups a row is flagged first many
    times, and keeps its first time."""
    from safestab.dynamics import STATUS_RETIRED, RowState, _Monitor, run_sweep

    sys, _, _ = bench
    rng = np.random.default_rng(seed)
    battery = default_policy_battery(sys, n_random=3, seed=seed)
    starts = rng.uniform(-1.2, 0.9, size=(60, 1))
    n_rows = starts.shape[0] * len(battery)
    A = Box((ROOT_LEFT,), (0.2,))
    groups = rng.integers(0, 50, n_rows) if grouped else None
    eps = rng.uniform(0.3, 1.5, n_rows)
    held = (None if groups is None else groups.copy(), eps.copy())
    eps_at = RowState(eps=eps)
    block_levels = np.asarray(levels)[..., None]
    mon = _Monitor(n_rows, gauge=A.dist_many, groups=groups, stride=stride,
                   first=lambda pts, d, rows: d >= eps_at.align(rows)["eps"],
                   last=lambda pts, d, rows: d >= block_levels,
                   levels=None if np.ndim(levels) == 0 else len(levels))
    ref = _FullArrayMonitor(n_rows, lambda pts, d, rows: d >= eps[rows],
                            lambda pts, d, rows: d >= levels, A.dist_many, groups, stride)
    retired, blocks = [], []

    def both(steps, ts, X, rows, D):
        stop = mon(steps, ts, X, rows, D)
        blocks.append(steps.size)
        # the reference sees the block step by step, without the rows it retired
        want = np.full(rows.size, -1)
        for i, (k, t) in enumerate(zip(steps.tolist(), ts.tolist())):
            on = np.flatnonzero(want < 0)
            got = ref(k, t, X[i, on], rows[on], D[i, on])
            if got is not None:
                want[on[got]] = i
        assert (stop is None) == (not np.any(want >= 0))
        if stop is not None:
            np.testing.assert_array_equal(stop, want)
        # once both have seen the whole block, retire a few more rows at its end
        chance = (rng.random(rows.size) < 0.03) & (want < 0)
        retired.append(chance.sum())
        return np.where(chance, steps.size - 1, want)

    res = run_sweep(sys, starts, battery, 4.0, 0.01, observer=both)
    assert sum(retired) > 20 and np.any(res.status == STATUS_RETIRED) and max(blocks) > 20
    assert np.isfinite(ref.first).sum() > 10 and (not grouped or ref.lost.sum() > 5)
    for name in ("first", "last", "peak", "latest"):
        np.testing.assert_array_equal(getattr(mon, name), getattr(ref, name), err_msg=name)
    assert np.isfinite(ref.last).any()
    # the read-only inputs are written back unchanged
    eps_at.sync()
    assert (groups is None or np.array_equal(groups, held[0])) and np.array_equal(eps, held[1])


def test_monitor_updates_its_table_in_place(bench):
    """On a 16,500-row sweep, an observation whose running set is unchanged
    allocates under 1.75 float64 per row: the gauge value (one) and the
    event flags (three levels and one threshold, one byte each).  The table
    and the per-row threshold are updated in running-block order; gathering
    and scattering them by ``rows`` takes 2.8 per row."""
    import tracemalloc

    from safestab.dynamics import STATUS_RETIRED, RowState, _Monitor, run_sweep

    sys, _, _ = bench
    battery = default_policy_battery(sys, n_random=8, seed=0)
    starts = np.linspace(-1.2, 0.45, 1500)[:, None]
    n_rows = starts.shape[0] * len(battery)  # 16,500
    A = Box((ROOT_LEFT,), (0.5,))
    levels = np.array([[0.05], [0.1], [0.2]])[..., None]
    eps_at = RowState(eps=np.full(n_rows, 0.9))
    mon = _Monitor(n_rows, gauge=A.dist_many, groups=np.arange(n_rows) % 1500,
                   first=lambda pts, d, rows: d >= eps_at.align(rows)["eps"],
                   last=lambda pts, d, rows: d >= levels, levels=3)
    excess, size = [], [0]

    def observer(steps, ts, X, rows, D):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        stop = mon(steps, ts, X, rows, D)
        if steps[0] > 0 and rows.size == size[0]:
            excess.append(tracemalloc.get_traced_memory()[1] - held)
        size[0] = rows.size
        return stop

    tracemalloc.start()
    try:
        res = run_sweep(sys, starts, battery, 0.5, 0.01, observer=observer)
    finally:
        tracemalloc.stop()
    assert np.any(res.status == STATUS_RETIRED) and len(excess) >= 45
    assert max(excess) < 1.75 * 8 * n_rows


def test_gated_monitor_tests_only_blocks_after_its_start(bench):
    """A last event runs only on the blocks whose last step time is after
    ``last_from``: every time after it equals the ungated monitor's and the
    earlier ones stay at or before it, in the ungated (levels, rows) shape.
    When no block is tested, each row reads -inf."""
    from safestab.dynamics import _Monitor, run_sweep

    sys, _, battery = bench
    starts = np.linspace(-1.0, 0.4, 5)[:, None]
    n_rows = starts.shape[0] * len(battery)
    A = Box((ROOT_LEFT,), (0.2,))
    levels = np.array([[0.05], [0.2]])[..., None]

    def swept(last_from):
        mon = _Monitor(n_rows, gauge=A.dist_many, last=lambda pts, d, rows: d >= levels,
                       levels=2, last_from=last_from)
        run_sweep(sys, starts, battery, 1.0, 0.01, observer=mon)
        return mon.last

    plain, gated, never = swept(-math.inf), swept(0.5), swept(1.0)
    late = plain > 0.5
    assert plain.shape == gated.shape == (2, n_rows) and late.any() and (~late).any()
    assert np.array_equal(gated[late], plain[late]) and np.all(gated[~late] <= 0.5)
    assert never.shape == (2, n_rows) and np.all(never == -np.inf)
