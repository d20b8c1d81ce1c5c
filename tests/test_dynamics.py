import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safestab import (
    Box,
    ConstantPolicy,
    ExtremalFeedbackPolicy,
    PerturbedSystem,
    PiecewiseRandomPolicy,
    ZeroPolicy,
    default_policy_battery,
    ensemble,
    integrate,
    parse_scalar_field,
    parse_vector_field,
    run_sweep,
)
from safestab.dynamics import (
    _Monitor,
    _project_ball,
    BLOCK_FLOATS,
    BLOCK_STEPS,
    STATUS_BLOWUP,
    STATUS_HORIZON,
    STATUS_LEFT_DOMAIN,
    STATUS_RETIRED,
    step_count,
)


class TestIntegrate:
    def test_linear_decay_closed_form(self, linear_sys):
        tr = integrate(linear_sys, [1.0], ZeroPolicy(), 1.0, 1e-3)
        assert abs(tr.final_state[0] - math.exp(-1.0)) < 1e-6
        assert tr.terminated_reason == "horizon_reached"

    def test_pure_drift(self):
        sys = PerturbedSystem(parse_vector_field(["0"], ["x"]), 0.25)
        tr = integrate(sys, [0.0], ConstantPolicy([0.25]), 2.0, 1e-3)
        assert tr.final_state[0] == pytest.approx(0.5, abs=1e-12)

    def test_divergence_regime_is_monotone_and_recorded(self, bench_sys):
        # above 0.5 the worst-case push gives x' = (x - 0.5)^2 > 0
        tr = integrate(bench_sys, [0.6], ConstantPolicy([0.25]), 300.0, 5e-3)
        assert tr.terminated_reason == "blow_up"
        xs = tr.states[:, 0]
        assert np.all(np.diff(xs) >= 0.0)
        assert xs.max() > 1.0

    def test_trajectory_record_invariants(self, bench_sys):
        pol = PiecewiseRandomPolicy(seed=9, dwell=0.1)
        tr = integrate(bench_sys, [-1.0], pol, 3.0, 1e-3)
        assert np.all(np.diff(tr.times) > 0)
        assert tr.times[0] == 0.0
        assert np.array_equal(tr.states[0], np.array([-1.0]))
        assert np.linalg.norm(tr.disturbances, axis=1).max() <= bench_sys.delta + 1e-12

    def test_left_domain_freeze(self):
        sys = PerturbedSystem(parse_vector_field(["1"], ["x"]), 0.0)
        tr = integrate(sys, [0.0], ZeroPolicy(), 10.0, 1e-2, domain=Box((-1.0,), (1.0,)))
        assert tr.terminated_reason == "left_domain"
        # exits when x crosses 1.0, up to one step of slack
        assert tr.final_time == pytest.approx(1.0, abs=0.02)

    def test_rk4_order(self, linear_sys):
        # halving dt must cut the final-state error by at least 12x
        def err(dt):
            tr = integrate(linear_sys, [1.0], ZeroPolicy(), 1.0, dt)
            return abs(tr.final_state[0] - math.exp(-1.0))

        e1, e2 = err(0.2), err(0.1)
        assert e1 / e2 >= 12.0

    def test_determinism_bit_identical(self, bench_sys):
        a = integrate(bench_sys, [-1.0], PiecewiseRandomPolicy(42, 0.1), 5.0, 1e-3)
        b = integrate(bench_sys, [-1.0], PiecewiseRandomPolicy(42, 0.1), 5.0, 1e-3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.disturbances, b.disturbances)

    def test_csv_roundtrip(self, tmp_path, bench_sys):
        tr = integrate(bench_sys, [-1.0], ConstantPolicy([0.1]), 1.0, 1e-2)
        path = tmp_path / "traj.csv"
        tr.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (101, 3)  # t, x, d
        np.testing.assert_allclose(data[:, 1], tr.states[:, 0])


class TestSystem:
    @pytest.mark.parametrize("delta, bound, message", [
        (math.nan, 1e6, "delta"), (math.inf, 1e6, "delta"), (-0.1, 1e6, "delta"),
        (0.25, math.nan, "blowup_bound"), (0.25, 0.0, "blowup_bound"),
    ])
    def test_rejects_bad_delta_or_bound(self, bench_field, delta, bound, message):
        with pytest.raises(ValueError, match=message):
            PerturbedSystem(bench_field, delta, bound)

    def test_bound_is_part_of_the_system(self, bench_field):
        assert PerturbedSystem(bench_field, 0.25).blowup_bound == 1e6
        assert PerturbedSystem(bench_field, 0.25, math.inf).blowup_bound == math.inf


class TestPolicies:
    def test_constant_clamped_to_ball(self):
        sys = PerturbedSystem(parse_vector_field(["0", "0"], ["x", "y"]), 0.5)
        pol = ConstantPolicy([3.0, 4.0])  # norm 5, clamped to 0.5
        tr = integrate(sys, [0.0, 0.0], pol, 1.0, 1e-2)
        assert np.linalg.norm(tr.disturbances, axis=1).max() <= 0.5 + 1e-12
        np.testing.assert_allclose(tr.final_state, [0.3, 0.4], atol=1e-9)

    def test_random_policy_on_sphere_surface(self, bench_sys):
        pol = PiecewiseRandomPolicy(seed=3, dwell=0.1)
        tr = integrate(bench_sys, [0.0], pol, 2.0, 1e-2)
        norms = np.abs(tr.disturbances[:-1, 0])
        np.testing.assert_allclose(norms, bench_sys.delta, atol=1e-12)

    def test_disturbance_is_the_one_that_reached_each_state(self):
        # refreshed every other step: entry 0 repeats entry 1, and entry i is
        # the value applied on the step from states[i - 1]
        sys = PerturbedSystem(parse_vector_field(["0", "0"], ["x", "y"]), 0.5)
        pol = PiecewiseRandomPolicy(seed=3, dwell=0.02)
        d = integrate(sys, [0.0, 0.0], pol, 0.1, 1e-2).disturbances
        same = [np.array_equal(d[i], d[i + 1]) for i in range(5)]
        assert same == [True, True, False, True, False]

    def test_extremal_gradient_equals_eval_many(self, rng):
        """One feedback policy called on shrinking and growing batches gives
        bitwise the values of a fresh policy on each batch, on random 2-D
        states, zero-gradient points, signed zeros and non-finite states
        included, and a zero gradient gives no push."""
        names = ["x", "y"]
        sys = PerturbedSystem(parse_vector_field(["0", "0"], names), 0.3)
        g = parse_scalar_field("x^2 + sin(y)^2 + x*y^3 + exp(0.5*x*y)", names)
        pol = ExtremalFeedbackPolicy(g, -1)
        pol.prepare(sys, 1.0, 0.01)
        edges = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [math.inf, 1.0],
                          [math.nan, 0.5], [1e-300, -1e-300], [1e200, 2.0]])
        for m in (1, 7, 40, 3, 200, 40):
            X = np.concatenate([edges, rng.uniform(-2.0, 2.0, (m, 2))])
            ref = ExtremalFeedbackPolicy(g, -1)
            ref.prepare(sys, 1.0, 0.01)
            with np.errstate(all="ignore"):
                got = pol.values(0.0, X, np.empty_like(X))
                want = ref.values(0.0, X, np.empty_like(X))
            assert got.tobytes() == want.tobytes(), m
            assert not got[:3].any()  # zero gradient: no push

    def test_extremal_feedback_follows_gradient(self):
        sys = PerturbedSystem(parse_vector_field(["0", "0"], ["x", "y"]), 1.0)
        g = parse_scalar_field("x", ["x", "y"])  # gradient (1, 0)
        up = ExtremalFeedbackPolicy(g, +1)
        tr = integrate(sys, [0.0, 0.0], up, 1.0, 1e-2)
        np.testing.assert_allclose(tr.final_state, [1.0, 0.0], atol=1e-9)
        down = ExtremalFeedbackPolicy(g, -1)
        tr2 = integrate(sys, [0.0, 0.0], down, 1.0, 1e-2)
        np.testing.assert_allclose(tr2.final_state, [-1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.0, 0.25])
    def test_values_are_emitted_inside_the_ball(self, rng, dim, delta):
        """The sweep applies emitted values as they are, so every built-in
        policy emits values that ``_project_ball`` leaves bitwise unchanged
        (+0.0 at delta 0).  The projection is not idempotent to the last bit
        at every delta: a 3-D cube-vertex constant at delta 0.085 moves by one
        ulp when projected twice."""
        names = ("x", "y", "z")[:dim]
        sys = PerturbedSystem(parse_vector_field(["0"] * dim, names), delta)
        g = parse_scalar_field(" + ".join(f"{v}^2" for v in names), names)
        X = rng.uniform(-2.0, 2.0, size=(40, dim))
        for pol in default_policy_battery(sys, 8, 3, set_fields=[g]):
            pol.prepare(sys, 10.0, 0.01)
            for t in np.arange(101) * 0.1:
                out = np.full_like(X, np.nan)
                pol.values(t, X, out)
                assert out.tobytes() == _project_ball(out.copy(), delta).tobytes(), pol.label

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.085, 0.1, 0.2])
    def test_emitted_norms_within_a_few_ulp_of_delta(self, rng, dim, delta):
        """A row that ``_project_ball`` scaled can have a computed norm up to
        two spacings of delta above it, so the ball holds every emitted
        value only up to a few ulp of delta.  Covers constants off every
        direction, long random tables and feedback on many states."""
        names = ("x", "y", "z")[:dim]
        sys = PerturbedSystem(parse_vector_field(["0"] * dim, names), delta)
        g = parse_scalar_field(" + ".join(f"{v}^2 + {v}^3" for v in names), names)
        X = rng.uniform(-2.0, 2.0, size=(20_000, dim))
        policies = default_policy_battery(sys, 4, 7, set_fields=[g])
        policies += [ConstantPolicy(v) for v in rng.standard_normal((500, dim))]
        emitted = []
        for pol in policies:
            pol.prepare(sys, 200.0, 0.1)
            if isinstance(pol, ExtremalFeedbackPolicy):
                emitted.append(pol.values(0.0, X, np.empty_like(X)))
                continue
            times = np.arange(2001) * 0.1 if isinstance(pol, PiecewiseRandomPolicy) else [0.0]
            for t in times:  # one row per table entry
                emitted.append(pol.values(t, X[:1], np.empty((1, dim))))
        D = np.concatenate(emitted)
        norms = np.sqrt(np.sum(D * D, axis=1))
        assert np.all(norms <= delta + 4 * np.spacing(delta))

    def test_different_seeds_differ(self, bench_sys):
        a = integrate(bench_sys, [0.0], PiecewiseRandomPolicy(1, 0.1), 2.0, 1e-2)
        b = integrate(bench_sys, [0.0], PiecewiseRandomPolicy(2, 0.1), 2.0, 1e-2)
        assert not np.array_equal(a.disturbances, b.disturbances)


class TestBattery:
    def test_1d_deterministic_battery(self, bench_sys):
        bat = default_policy_battery(bench_sys, n_random=0)
        labels = [p.label for p in bat]
        assert labels == ["zero", "const[+0.25]", "const[-0.25]"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_2d_battery_count(self, n):
        names = ["x", "y", "z", "w"][:n]
        delta = 0.5
        sys = PerturbedSystem(parse_vector_field([f"-{v}" for v in names], names), delta)
        bat = default_policy_battery(sys, n_random=0)
        assert len(bat) == 1 + 2 * n + (2**n if n > 1 else 0)  # zero + axes + vertices
        if n == 2:
            assert len(bat) == 9  # 1 zero + 4 axis + 4 diagonal

        # zero, then +e_1, -e_1, ..., +e_n, -e_n, then the cube's vertices
        # (bit i of k set: +1 on axis i), all scaled onto the delta-sphere
        expected = [np.zeros(n)]
        for i in range(n):
            expected += [delta * np.eye(n)[i], 0.0 - delta * np.eye(n)[i]]
        if n > 1:
            expected += [
                delta / np.sqrt(n) * np.array([1.0 if k >> i & 1 else -1.0 for i in range(n)])
                for k in range(2**n)
            ]
        labels = ["zero"] + [
            "const[" + ",".join(f"{v:+.4g}" for v in e) + "]" for e in expected[1:]
        ]
        assert [p.label for p in bat] == labels
        assert len(set(labels)) == len(labels)

        X = np.zeros((3, n))
        written = []
        for pol in bat:
            pol.prepare(sys, 1.0, 0.1)
            out = pol.values(0.0, X, np.full((3, n), -1.0))
            assert np.all(out == out[0])
            written.append(out[0].copy())
        np.testing.assert_allclose(written, expected, rtol=0, atol=1e-15)
        assert len({tuple(w) for w in written}) == len(written)
        assert isinstance(bat[0], ZeroPolicy)
        assert not np.signbit(written[0]).any()

    def test_random_count_arithmetic(self):
        sys = PerturbedSystem(parse_vector_field(["-x", "-y"], ["x", "y"]), 0.5)
        base = len(default_policy_battery(sys, n_random=0))
        assert len(default_policy_battery(sys, n_random=5, seed=1)) == base + 5

    def test_declared_set_fields_add_extremal_pairs(self, bench_sys):
        g = parse_scalar_field("x^2", ["x"])
        bat = default_policy_battery(bench_sys, n_random=0, set_fields=[g])
        assert len(bat) == 5
        assert sum("extremal" in p.label for p in bat) == 2

    def test_battery_deterministic_across_calls(self, bench_sys):
        a = default_policy_battery(bench_sys, n_random=3, seed=11)
        b = default_policy_battery(bench_sys, n_random=3, seed=11)
        assert [p.label for p in a] == [p.label for p in b]


class TestEnsemble:
    def test_delta_zero_collapses(self, linear_field):
        sys = PerturbedSystem(linear_field, 0.0)
        bat = default_policy_battery(sys, n_random=3, seed=5)
        trs = ensemble(sys, [0.7], bat, 2.0, 1e-2)
        ref = trs[0].states
        for tr in trs[1:]:
            assert np.array_equal(tr.states, ref)

    def test_all_trajectories_enter_target(self, bench_sys, bench_sets):
        # from -1 every battery member ends up inside Omega = [-0.25, 0.5]
        bat = default_policy_battery(bench_sys, n_random=8, seed=2024)
        assert len(bat) == 11
        trs = ensemble(bench_sys, [-1.0], bat, 20.0, 5e-3)
        for tr in trs:
            assert tr.terminated_reason == "horizon_reached"
            assert bench_sets["Omega"].contains_many(tr.final_state[None])[0]

    def test_shifted_fixed_point(self, linear_field):
        sys = PerturbedSystem(linear_field, 0.5)
        tr = integrate(sys, [0.0], ConstantPolicy([0.5]), 20.0, 5e-3)
        assert tr.final_state[0] == pytest.approx(0.5, abs=1e-8)

    def test_failures_do_not_abort_ensemble(self, bench_sys):
        trs = ensemble(
            bench_sys, [0.7],
            [ConstantPolicy([0.25]), ZeroPolicy()], 300.0, 1e-2,
        )
        assert trs[0].terminated_reason == "blow_up"
        assert trs[1].terminated_reason == "horizon_reached"

    def test_matches_per_policy_integrate_bitwise(self, bench_sys):
        # from 0.7 the +0.25 member blows up and the others do not
        bat = default_policy_battery(bench_sys, n_random=3, seed=3)
        trs = ensemble(bench_sys, [0.7], bat, 40.0, 1e-2)
        assert {tr.terminated_reason for tr in trs} == {"blow_up", "horizon_reached"}
        for pol, tr in zip(bat, trs):
            alone = integrate(bench_sys, [0.7], pol, 40.0, 1e-2)
            assert tr.terminated_reason == alone.terminated_reason
            assert tr.policy_label == alone.policy_label == pol.label
            assert np.array_equal(tr.times, alone.times)
            assert np.array_equal(tr.states, alone.states)
            assert np.array_equal(tr.disturbances, alone.disturbances)

    def test_left_domain_rows_cut_at_their_own_exit(self):
        sys = PerturbedSystem(parse_vector_field(["0"], ["x"]), 1.0)
        bat = [ConstantPolicy([1.0]), ConstantPolicy([0.5]), ZeroPolicy()]
        trs = ensemble(sys, [0.0], bat, 4.0, 1e-2, domain=Box((-1.0,), (1.0,)))
        assert [tr.terminated_reason for tr in trs] == ["left_domain", "left_domain",
                                                        "horizon_reached"]
        # each exit record ends at the first state outside, within one step
        for tr, t_exit in zip(trs[:2], (1.0, 2.0)):
            assert tr.final_time == pytest.approx(t_exit, abs=0.0101)
            assert tr.states[-1, 0] > 1.0 >= tr.states[-2, 0]
        assert trs[2].final_time == pytest.approx(4.0, abs=1e-9)
        assert trs[2].times.size == 401


class TestComparisonPrinciple:
    def test_plus_delta_dominates_pointwise(self, bench_sys):
        # scalar field: the d = +delta trajectory dominates every other policy
        bat = default_policy_battery(bench_sys, n_random=6, seed=17)
        trs = ensemble(bench_sys, [-1.0], bat, 10.0, 5e-3)
        top = next(tr for tr in trs if tr.policy_label == "const[+0.25]")
        bottom = next(tr for tr in trs if tr.policy_label == "const[-0.25]")
        for tr in trs:
            n = min(len(tr.times), len(top.times))
            assert np.all(tr.states[:n, 0] <= top.states[:n, 0] + 1e-9)
            assert np.all(tr.states[:n, 0] >= bottom.states[:n, 0] - 1e-9)


class TestSweepEngine:
    def test_matches_integrate_bitwise(self, bench_sys):
        pol = PiecewiseRandomPolicy(21, 0.1)
        tr = integrate(bench_sys, [-0.5], pol, 2.0, 1e-3)
        res = run_sweep(bench_sys, np.array([[-0.5]]), [PiecewiseRandomPolicy(21, 0.1)], 2.0, 1e-3)
        assert res.states[0, 0] == tr.final_state[0]

    def test_row_layout(self, bench_sys):
        starts = np.array([[-1.0], [0.0]])
        bat = [ZeroPolicy(), ConstantPolicy([0.25])]
        res = run_sweep(bench_sys, starts, bat, 1.0, 1e-2)
        assert list(res.start_index) == [0, 1, 0, 1]
        assert list(res.policy_index) == [0, 0, 1, 1]

    def test_blowup_rows_freeze_without_poisoning_others(self):
        sys = PerturbedSystem(parse_vector_field(["x^2"], ["x"]), 0.0, blowup_bound=1e3)
        starts = np.array([[2.0], [-0.5]])
        res = run_sweep(sys, starts, [ZeroPolicy()], 5.0, 1e-3)
        assert res.reason(0) == "blow_up"
        assert res.reason(1) == "horizon_reached"
        assert np.isfinite(res.states[1, 0])

    def test_snapshots(self, linear_sys):
        # an observer sees every row's state at every step, t = 0 included,
        # in blocks of consecutive steps
        seen = {}

        def record(steps, ts, X, rows, D):
            assert X.shape == D.shape == (steps.size, rows.size, 1)
            assert np.array_equal(ts, steps * 1e-3) and not seen.keys() & set(steps.tolist())
            for k, t, x, d in zip(steps.tolist(), ts.tolist(), X, D):
                seen[k] = (t, x.copy(), rows.copy(), d.copy())

        res = run_sweep(linear_sys, np.array([[1.0]]), [ZeroPolicy()], 2.0, 1e-3,
                        observer=record)
        assert sorted(seen) == list(range(2001))
        assert seen[0][0] == 0.0 and seen[0][1][0, 0] == 1.0
        assert seen[500][0] == pytest.approx(0.5)
        assert seen[500][1][0, 0] == pytest.approx(math.exp(-0.5), abs=1e-7)
        assert seen[1000][1][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)
        assert np.array_equal(seen[2000][1], res.states)
        assert all(rows.tolist() == [0] and not D.any() for _, _, rows, D in seen.values())

    def test_stops_once_every_row_froze(self, bench_sys):
        # blows up near t = 10 of a 300 time-unit horizon
        calls = []
        res = run_sweep(
            bench_sys, np.array([[0.6]]), [ConstantPolicy([0.25])], 300.0, 5e-3,
            observer=lambda steps, ts, X, rows, D: calls.extend(
                (k, x[:, 0].copy(), rows) for k, x in zip(steps.tolist(), X)),
        )
        assert res.reason(0) == "blow_up"
        assert 9.0 < res.end_times[0] < 12.0
        steps = [c[0] for c in calls]
        assert steps == list(range(steps[-1] + 1))
        # no call once no row runs: the last one is the step before the freeze,
        # whose state the frozen row keeps
        assert steps[-1] == round(res.end_times[0] / 5e-3) - 1
        assert all(rows.tolist() == [0] for _, _, rows in calls)
        assert calls[-1][1][0] == res.states[0, 0]
        assert calls[200][1][0] < res.states[0, 0]

    def test_frozen_at_start_runs_no_step(self):
        sys = PerturbedSystem(parse_vector_field(["1"], ["x"]), 0.0)
        calls = []
        res = run_sweep(
            sys, np.array([[5.0]]), [ZeroPolicy()], 2.0, 1e-2,
            freeze_domain=Box((-1.0,), (1.0,)),
            observer=lambda steps, ts, X, rows, D: calls.append(
                (steps.tolist(), X[:, 0, 0].tolist(), rows.tolist())),
        )
        assert calls == [([0], [5.0], [0])]
        assert res.reason(0) == "left_domain" and res.end_times[0] == 0.0
        assert res.states[0, 0] == 5.0

    def test_stop_at_start_ends_at_zero(self, linear_sys):
        calls = []

        def retire_all(steps, ts, X, rows, D):
            calls.extend(steps.tolist())
            return np.zeros(rows.size, dtype=int)

        res = run_sweep(linear_sys, np.array([[1.0], [2.0]]), [ZeroPolicy()], 1.0, 1e-2,
                        observer=retire_all)
        assert calls == [0]
        assert [res.reason(r) for r in range(2)] == ["retired", "retired"]
        assert res.end_times.tolist() == [0.0, 0.0]
        assert res.states.tolist() == [[1.0], [2.0]]

    def test_infinite_blowup_bound_still_catches_overflow(self):
        sys = PerturbedSystem(parse_vector_field(["x^2"], ["x"]), 0.0, blowup_bound=math.inf)
        res = run_sweep(sys, np.array([[2.0], [-0.5]]), [ZeroPolicy()], 5.0, 1e-3)
        assert res.reason(0) == "blow_up"
        assert np.isfinite(res.states[0, 0])
        assert res.reason(1) == "horizon_reached"

    def test_step_allocates_no_per_row_temporaries(self, bench_sys):
        """From one step's observer call to the next, the traced allocation
        peak above what was held at the earlier call stays below a quarter of
        one float64 per row: the step evaluates into the sweep's buffers.
        (The sweep gathers its running rows after the call at t=0.)"""
        battery = default_policy_battery(bench_sys, 8, 0)
        starts = np.linspace(-1.5, 1.5, 1500)[:, None]
        n_rows = starts.shape[0] * len(battery)  # 16,500
        held, excess = [0], []

        def observer(steps, ts, X, rows, D):
            assert steps.size == 1  # 16,500 rows take one step per block
            if steps[0] > 1:
                excess.append(tracemalloc.get_traced_memory()[1] - held[0])
            tracemalloc.reset_peak()
            held[0] = tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            res = run_sweep(bench_sys, starts, battery, 0.5, 0.01, observer=observer)
        finally:
            tracemalloc.stop()
        assert np.all(res.status == STATUS_HORIZON) and len(excess) == 49
        assert max(excess) < n_rows * 8 / 4

    def test_non_integral_horizon_rejected(self, linear_sys):
        # 1.0 / 0.3: the run would stop at 0.9 while reporting 1.0
        with pytest.raises(ValueError, match="whole number"):
            run_sweep(linear_sys, np.array([[1.0]]), [ZeroPolicy()], 1.0, 0.3)
        with pytest.raises(ValueError, match="whole number"):
            integrate(linear_sys, [1.0], ZeroPolicy(), 1.0, 0.3)

    def test_non_integral_dwell_rejected(self, bench_sys):
        # dwell 0.1 with dt 0.03: first segment 0.18, the rest 0.09
        pol = PiecewiseRandomPolicy(seed=1, dwell=0.1)
        with pytest.raises(ValueError, match="dwell"):
            pol.prepare(bench_sys, 3.0, 0.03)
        with pytest.raises(ValueError, match="dwell"):
            run_sweep(bench_sys, np.array([[0.0]]), [pol], 3.0, 0.03)

    @pytest.mark.parametrize("span, dt", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan)])
    def test_non_finite_span_or_dt_rejected(self, span, dt):
        with pytest.raises(ValueError, match="dwell=.* must be finite"):
            step_count(span, dt, "dwell")

    def test_integral_ratios_with_rounding_noise_accepted(self, bench_sys):
        # 0.1 / 0.005 and 0.3 / 0.1 are not exact in binary floating point
        assert step_count(0.3, 0.1) == 3
        assert step_count(0.1, 5e-3, "dwell") == 20
        pol = PiecewiseRandomPolicy(seed=1, dwell=0.1)
        pol.prepare(bench_sys, 0.3, 5e-3)
        assert pol.refresh_period(5e-3) == 20

    def test_rejects_bad_arguments(self, linear_sys):
        with pytest.raises(ValueError):
            run_sweep(linear_sys, np.array([[1.0]]), [], 1.0, 1e-3)
        with pytest.raises(ValueError):
            run_sweep(linear_sys, np.array([[np.nan]]), [ZeroPolicy()], 1.0, 1e-3)
        with pytest.raises(ValueError):
            run_sweep(linear_sys, np.array([[1.0]]), [ZeroPolicy()], 1.0, 2.0)


def _bench_policy(code: int):
    """A fresh policy per call: the sweep prepares the policies it is given."""
    if code == 0:
        return ZeroPolicy()
    if code == 1:
        return ConstantPolicy([0.25])
    if code == 2:
        return ConstantPolicy([-0.25])
    if code == 3:
        return ExtremalFeedbackPolicy(parse_scalar_field("x^2", ["x"]), +1)
    return PiecewiseRandomPolicy(seed=code, dwell=0.05)


def _check_rows_alone(run, n_rows, retire, dt):
    """``run(row, observer)`` sweeps every row (``row=None``) or one row
    alone.  In the batched sweep an observer retires, at each step of
    ``retire``, the rows it lists.  A row still running then must end
    ``retired`` at that step, holding the state it has there when run alone;
    every other row must be bitwise the row run alone."""

    def retirer(steps, ts, X, rows, D):
        at = np.full(rows.size, -1)
        for i, k in reversed(list(enumerate(steps.tolist()))):
            at[np.isin(rows, retire.get(k, []))] = i
        return at

    batch = run(None, retirer)
    for r in range(n_rows):
        seen = {}

        def record(steps, ts, X, rows, D):
            seen.update(zip(steps.tolist(), X.copy()))

        alone = run(r, record)
        # the row runs on the steps before the one it froze at
        froze = math.inf if alone.status[0] == STATUS_HORIZON else round(alone.end_times[0] / dt)
        hits = sorted(k for k, rs in retire.items() if r in rs and k < froze)
        if hits:
            assert batch.status[r] == STATUS_RETIRED
            assert batch.end_times[r] == hits[0] * dt
            assert np.array_equal(batch.states[r], seen[hits[0]][0])
        else:
            assert np.array_equal(batch.states[r], alone.states[0])
            assert batch.status[r] == alone.status[0]
            assert batch.end_times[r] == alone.end_times[0]


@settings(max_examples=25, deadline=None)
@given(
    starts=st.lists(st.floats(-1.8, 4.0), min_size=1, max_size=4),
    codes=st.lists(st.integers(0, 7), min_size=1, max_size=4),
    bound=st.sampled_from([1e6, 50.0]),
    retire=st.dictionaries(st.integers(0, 200), st.lists(st.integers(0, 15), max_size=3),
                           max_size=4),
)
# a start frozen at t=0 is passed to the observer but cannot be retired
@example(starts=[-1.8, 0.0], codes=[0], bound=1e6, retire={0: [0, 1]})
def test_batched_row_equals_row_alone(bench_field, starts, codes, bound, retire):
    """Each (start, policy) row of a sweep is bitwise what it is when run
    alone, including rows that blow up, rows that leave the domain and rows
    that other rows' retirement moves in the sweep's buffers."""
    sys = PerturbedSystem(bench_field, 0.25, bound)
    domain = Box((-1.5,), (100.0,))
    X0 = np.array(starts)[:, None]
    m = X0.shape[0]

    def run(r, observer):
        i, p = (slice(None), slice(None)) if r is None else (slice(r % m, r % m + 1), [r // m])
        return run_sweep(sys, X0[i], [_bench_policy(c) for c in np.asarray(codes)[p]], 2.0, 1e-2,
                         freeze_domain=domain, observer=observer)

    _check_rows_alone(run, m * len(codes), retire, 1e-2)


def test_batched_property_reaches_every_status(bench_field):
    # the property's ranges produce blow-ups, domain exits and full runs
    starts = np.array([[-1.8], [0.0], [4.0]])
    for bound, last in ((50.0, STATUS_BLOWUP), (1e6, STATUS_LEFT_DOMAIN)):
        sys = PerturbedSystem(bench_field, 0.25, bound)
        res = run_sweep(sys, starts, [ConstantPolicy([0.25])], 2.0, 1e-2,
                        freeze_domain=Box((-1.5,), (100.0,)))
        assert res.status.tolist() == [STATUS_LEFT_DOMAIN, STATUS_HORIZON, last]
        assert 0.0 < res.end_times[2] < 1.0


@settings(max_examples=15, deadline=None)
@given(
    starts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=3),
    n_random=st.integers(0, 2),
    retire=st.dictionaries(st.integers(0, 100), st.lists(st.integers(0, 38), max_size=6),
                           max_size=4),
)
def test_batched_row_equals_row_alone_2d(starts, n_random, retire):
    """Same property on a 2-D field with transcendental terms, whose state
    columns are strided views."""
    sys = PerturbedSystem(parse_vector_field(["-x + y^2", "-y + sin(3*x)*exp(y)"], ["x", "y"]),
                          0.3)
    domain = Box((-2.5, -2.5), (2.5, 2.5))
    g = parse_scalar_field("x^2 + y^2", ["x", "y"])
    X0 = np.array(starts, dtype=float)
    m = X0.shape[0]

    def run(r, observer):
        battery = default_policy_battery(sys, n_random=n_random, seed=4, set_fields=[g])
        if r is not None:
            X0_, battery = X0[r % m:r % m + 1], [battery[r // m]]
        return run_sweep(sys, X0 if r is None else X0_, battery, 1.0, 1e-2,
                         freeze_domain=domain, observer=observer)

    n_policies = len(default_policy_battery(sys, n_random=n_random, seed=4, set_fields=[g]))
    _check_rows_alone(run, m * n_policies, retire, 1e-2)


def _blocked_and_stepped(monkeypatch, run):
    """``run()`` with the default block length, then with one step per block."""
    from safestab import dynamics

    blocked = run()
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", 1)
    stepped = run()
    monkeypatch.undo()
    return blocked, stepped


def _assert_same_bits(a, b, names=("status", "end_times", "states", "disturbances")):
    for name in names:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        if x.dtype == np.float64:
            x, y = x.view(np.int64), y.view(np.int64)
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("seed, bound", [(0, 50.0), (1, 1e6), (2, 50.0), (3, 1e6)])
def test_blocks_equal_single_steps_under_random_retirement(monkeypatch, bench_field, seed,
                                                           bound):
    """A sweep observed in blocks ends every row bitwise as one observed step
    by step: rows retired at seeded random steps inside blocks, rows frozen
    at t=0, and blocks cut short by a blow-up (bound 50) or by an exit from
    the domain (bound 1e6)."""
    rng = np.random.default_rng(seed)
    sys = PerturbedSystem(bench_field, 0.25, bound)
    starts = np.vstack([rng.uniform(-1.8, 4.0, (11, 1)), [[-1.8]]])
    retire_at = rng.integers(0, 300, 12 * 8)  # beyond 200 steps: never

    def retirer(steps, ts, X, rows, D):
        at = retire_at[rows] - steps[0]
        return np.where(at < steps.size, at, -1)

    def run():
        return run_sweep(sys, starts, [_bench_policy(c) for c in range(8)], 2.0, 1e-2,
                         freeze_domain=Box((-1.5,), (100.0,)), observer=retirer)

    blocked, stepped = _blocked_and_stepped(monkeypatch, run)
    _assert_same_bits(blocked, stepped)
    late = blocked.end_times > 0
    cut = STATUS_BLOWUP if bound == 50.0 else STATUS_LEFT_DOMAIN
    assert np.any(late & (blocked.status == cut)) and np.any(~late)
    retired_at = blocked.end_times[late & (blocked.status == STATUS_RETIRED)]
    assert np.unique(retired_at).size > 10  # inside blocks of up to 42 steps


@pytest.mark.parametrize("bound", [math.inf, 50.0])
def test_blocks_equal_single_steps_when_rows_fail_inside_a_block(monkeypatch, bound):
    """x' = |x| x blows every positive start up and takes every negative one
    out of the domain, at many steps inside one block; rows that failed are
    integrated on to the block's end, through inf and NaN under an infinite
    bound, without a RuntimeWarning, and the observer never sees them."""
    rng = np.random.default_rng(0)
    sys = PerturbedSystem(parse_vector_field(["abs(x)*x"], ["x"]), 0.25, bound)
    starts = np.concatenate([rng.uniform(0.5, 1.0, 6), rng.uniform(-1.0, -0.5, 6)])[:, None]
    domain = Box((-10.0,), (math.inf,))

    def run():
        peak = np.zeros(starts.shape[0] * 8)

        def observer(steps, ts, X, rows, D):
            assert np.all(np.isfinite(X)) and np.all(domain.contains_many(X.reshape(-1, 1)))
            peak[rows] = np.maximum(peak[rows], np.abs(X).max(axis=(0, 2)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_sweep(sys, starts, [_bench_policy(c) for c in range(8)], 2.0, 1e-2,
                            freeze_domain=domain, observer=observer)
        return res, peak

    (blocked, peak_b), (stepped, peak_s) = _blocked_and_stepped(monkeypatch, run)
    _assert_same_bits(blocked, stepped)
    assert np.array_equal(peak_b.view(np.int64), peak_s.view(np.int64))
    blown, left = blocked.status == STATUS_BLOWUP, blocked.status == STATUS_LEFT_DOMAIN
    assert np.count_nonzero(blown) > 10 and np.count_nonzero(left) > 10
    fail_steps = np.unique(np.round(blocked.end_times[blown | left] / 1e-2))
    K = min(BLOCK_FLOATS // starts.shape[0] // 8, BLOCK_STEPS)
    assert np.any(fail_steps[3:] - fail_steps[:-3] < K)  # four failing steps in K


@pytest.mark.parametrize("seed, bound", [(0, 50.0), (1, 1e6), (2, 50.0), (3, 1e6)])
def test_record_sweep_holds_the_final_values_from_each_end_step(monkeypatch, bench_field, seed,
                                                                 bound):
    """``record_sweep`` records the same bits in blocks as step by step, and
    from the step at which a row stopped onward it holds the row's final
    state and disturbance: t=0 freezes, blow-ups (bound 50), domain exits
    (bound 1e6), and steps past the horizon, where every row has stopped."""
    from safestab.dynamics import record_sweep

    rng = np.random.default_rng(seed)
    sys = PerturbedSystem(bench_field, 0.25, bound)
    starts = np.vstack([rng.uniform(-1.8, 4.0, (11, 1)), [[-1.8]]])
    at = np.arange(240)  # the horizon is step 200

    def run():
        return record_sweep(sys, starts, [_bench_policy(c) for c in range(8)], 2.0, 1e-2, at,
                            value=lambda X, D: np.stack((X, D), axis=1),
                            freeze_domain=Box((-1.5,), (100.0,)))

    (res, blocked), (_, stepped) = _blocked_and_stepped(monkeypatch, run)
    assert blocked.shape == (240, 96, 2, 1)
    assert np.array_equal(blocked.view(np.int64), stepped.view(np.int64))
    assert np.array_equal(blocked[0, :, 0], np.tile(starts, (8, 1)))
    end = np.rint(res.end_times / 1e-2)
    cut = STATUS_BLOWUP if bound == 50.0 else STATUS_LEFT_DOMAIN
    assert np.any((res.status == cut) & (end > 0)) and np.any(end == 0)
    final = np.stack((res.states, res.disturbances), axis=1).view(np.int64)
    for r in range(96):
        held = blocked[at >= end[r], r].view(np.int64)
        assert np.array_equal(held, np.broadcast_to(final[r], held.shape)), r


@pytest.mark.parametrize("stride", range(1, 8))
def test_blocks_equal_single_steps_in_the_monitor(monkeypatch, bench_field, stride):
    """The battery monitor, with a gauge, two-level last times and groups
    that retire together, gives bitwise the same sweep and outcome table in
    blocks as step by step, at every sampling stride."""
    rng = np.random.default_rng(stride)
    sys = PerturbedSystem(bench_field, 0.25, 50.0)
    starts = rng.uniform(-1.4, 1.9, (10, 1))
    groups = rng.integers(0, 20, 10 * 8)
    A = Box((-0.2,), (0.2,))
    levels = np.array([0.05, 0.3])[:, None, None]

    def run():
        mon = _Monitor(groups.size, gauge=A.dist_many, groups=groups, stride=stride,
                       first=lambda pts, d, rows: d >= 2.0,
                       last=lambda pts, d, rows: d >= levels, levels=2)
        res = run_sweep(sys, starts, [_bench_policy(c) for c in range(8)], 2.0, 1e-2,
                        freeze_domain=Box((-1.5,), (100.0,)), observer=mon)
        return res, mon

    (blocked, mon_b), (stepped, mon_s) = _blocked_and_stepped(monkeypatch, run)
    _assert_same_bits(blocked, stepped)
    _assert_same_bits(mon_b, mon_s, ("first", "last", "peak", "latest"))
    assert np.any((blocked.status == STATUS_RETIRED) & (blocked.end_times > 0))


@pytest.mark.parametrize("extremal", [True, False], ids=["extremal", "no-extremal"])
def test_disturbance_segments_equal_single_steps(monkeypatch, extremal):
    """A battery of a constant, a random signal refreshed every 3 steps (so
    refreshes fall inside blocks) and, with ``extremal``, a feedback policy
    due at every step records bitwise the same per-step states and
    disturbances in blocks as step by step, through a block cut short by a
    row that blows up."""
    from safestab.dynamics import record_sweep

    names = ["x", "y"]
    sys = PerturbedSystem(parse_vector_field(["x^2 - y", "0.5*x - y"], names), 0.2, 50.0)
    starts = np.array([[0.2, 0.1], [-0.5, 0.3], [2.5, 0.0], [0.0, -0.4]])
    dt = 1e-2
    at = np.arange(121)  # the horizon is step 120

    def run():
        policies = [ConstantPolicy([0.1, -0.1]), PiecewiseRandomPolicy(seed=5, dwell=3 * dt)]
        if extremal:
            policies.append(ExtremalFeedbackPolicy(parse_scalar_field("x^2 + y^2", names), +1))
        return record_sweep(sys, starts, policies, 1.2, dt, at,
                            value=lambda X, D: np.stack((X, D), axis=1))

    (blocked_res, blocked), (stepped_res, stepped) = _blocked_and_stepped(monkeypatch, run)
    _assert_same_bits(blocked_res, stepped_res)
    assert np.array_equal(blocked.view(np.int64), stepped.view(np.int64))
    end = np.rint(blocked_res.end_times / dt).astype(int)
    blown = blocked_res.status == STATUS_BLOWUP
    assert np.any(blown) and np.all(end[blown] % BLOCK_STEPS > 0)  # inside a block
    random_rows = slice(starts.shape[0], 2 * starts.shape[0])
    changes = np.flatnonzero(np.any(np.diff(blocked[1:, random_rows, 1], axis=0), axis=(1, 2)))
    assert np.array_equal(changes[:3] + 1, [3, 6, 9])  # the random rows move every 3 steps
