import math

import numpy as np
import pytest

from safestab import (
    Box,
    DistanceIndicator,
    PerturbedSystem,
    default_policy_battery,
    integrate,
    parse_vector_field,
)
from safestab.converse import (
    KLEnvelope,
    NotSettlingError,
    NumericLyapunov,
    PiecewiseMonotone,
    PowerMonotone,
    SontagPair,
    estimate_kl_envelope,
    fit_sontag_pair,
    validate_lyapunov,
)


def value_at(V, x):
    """V at the one point x, through the batched form."""
    return V.value_many(np.atleast_2d(np.asarray(x, dtype=float)))[0]


@pytest.fixture(scope="module")
def linear_setup():
    f = parse_vector_field(["-x"], ["x"])
    sys = PerturbedSystem(f, 0.0)
    omega = DistanceIndicator(Box((0.0,), (0.0,)))
    battery = default_policy_battery(sys, n_random=2, seed=7)
    samples = np.linspace(-1.0, 1.0, 81)[:, None]
    env = estimate_kl_envelope(sys, omega, samples, battery, 8.0, 1e-3, n_bins=16)
    return sys, omega, battery, samples, env


class TestMonotoneFns:
    def test_piecewise_basics(self):
        f = PiecewiseMonotone([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        at0, at_half, at3 = f.value_many(np.array([0.0, 0.5, 3.0]))
        assert at0 == 0.0
        assert at_half == pytest.approx(0.5)
        assert at3 == pytest.approx(7.0)  # linear extrapolation
        s = np.linspace(0, 5, 100)
        assert np.all(np.diff(f.value_many(s)) > 0)

    def test_piecewise_flats_are_nudged_strictly_increasing(self):
        f = PiecewiseMonotone([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        at1, at2 = f.value_many(np.array([1.0, 2.0]))
        assert at2 > at1

    def test_piecewise_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseMonotone([0.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            PiecewiseMonotone([0.0, 1.0], [0.5, 1.0])

    def test_power_template(self):
        f = PowerMonotone(2, 0.5)
        assert f.value_many(np.array([2.0, 0.0])).tolist() == [2.0, 0.0]
        with pytest.raises(ValueError):
            PowerMonotone(0.5)
        with pytest.raises(ValueError, match="power"):
            PowerMonotone(math.nan)
        with pytest.raises(ValueError, match="scale"):
            PowerMonotone(2, math.nan)


class TestEnvelope:
    def test_linear_benchmark_matches_closed_form(self, linear_setup):
        _, _, _, _, env = linear_setup
        # beta(s, t) should be s e^{-t} within 5% on t in [0, 5]
        sel = env.t_samples <= 5.0
        for i, s in enumerate(env.s_bins):
            if s < 0.05:
                continue
            ref = s * np.exp(-env.t_samples[sel])
            err = np.abs(env.table[i, sel] - ref) / ref
            assert err.max() < 0.05

    def test_t0_column_dominates_bin_representatives(self, linear_setup):
        _, _, _, _, env = linear_setup
        assert np.all(env.table[:, 0] >= env.s_bins - 1e-12)

    def test_monotone_axes_exact(self, linear_setup):
        _, _, _, _, env = linear_setup
        assert env.check_monotone()

    def test_decay_rate_close_to_one(self, linear_setup):
        _, _, _, _, env = linear_setup
        assert env.decay_rate == pytest.approx(1.0, abs=0.02)

    def test_final_column_small(self, linear_setup):
        _, _, _, _, env = linear_setup
        assert env.settle_ratio < 0.05

    def test_escaping_region_raises(self):
        f = parse_vector_field(["x"], ["x"])
        sys = PerturbedSystem(f, 0.0)
        omega = DistanceIndicator(Box((0.0,), (0.0,)))
        bat = default_policy_battery(sys, n_random=0)
        samples = np.linspace(-1.0, 1.0, 11)[:, None]
        with pytest.raises(NotSettlingError):
            estimate_kl_envelope(
                sys, omega, samples, bat, 20.0, 1e-2, region=Box((-2.0,), (2.0,))
            )

    def test_non_settling_slow_horizon_raises(self, linear_setup):
        sys, omega, battery, samples, _ = linear_setup
        with pytest.raises(NotSettlingError):
            estimate_kl_envelope(sys, omega, samples, battery, 0.5, 1e-3)

    def test_csv_export(self, linear_setup, tmp_path):
        _, _, _, _, env = linear_setup
        path = tmp_path / "env.csv"
        env.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        assert data.shape[0] == env.s_bins.size * env.t_samples.size


class TestSontagFit:
    def test_identity_pair_for_exponential_envelope(self, linear_setup):
        _, _, _, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        assert pair.power == 1
        # alpha2(s) = max_t s e^{(0.5-1)t} = s: the identity on the bins
        s = np.array([0.25, 0.5, 1.0])
        np.testing.assert_allclose(pair.alpha2.value_many(s), s, rtol=1e-6)
        assert pair.min_margin >= 0.0

    def test_margin_nonnegative_on_whole_table(self, linear_setup):
        _, _, _, _, env = linear_setup
        pair = fit_sontag_pair(env)
        assert pair.certify(env) >= -1e-12

    def test_aggressive_lambda_rejected(self, linear_setup):
        _, _, _, _, env = linear_setup
        with pytest.raises(ValueError, match="smaller lambda"):
            fit_sontag_pair(env, lam=2.0 * env.decay_rate)

    def test_synthetic_slow_tail_needs_larger_power(self):
        # beta = s e^{-t} but we ask for lam close to the decay rate with the
        # default safety factor bypassed via an explicit argument
        t = np.linspace(0, 10, 201)
        s = np.array([0.5, 1.0])
        table = s[:, None] * np.exp(-t)[None, :]
        env = KLEnvelope(s, t, table, decay_rate=1.0, settle_ratio=float(np.exp(-10)))
        pair = fit_sontag_pair(env, lam=0.5)
        assert pair.power == 1
        assert pair.certify(env) >= -1e-12


class TestNumericLyapunov:
    def test_linear_closed_form(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        xs = np.linspace(-1, 1, 17)[:, None]
        np.testing.assert_allclose(V.value_many(xs), np.abs(xs[:, 0]), atol=1e-12)

    def test_zero_on_target(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.2, battery, 8.0, 1e-3, pair=pair)
        assert value_at(V, [0.0]) == 0.0

    def test_lower_bound_is_t0_term(self, linear_setup, rng):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.2, battery, 8.0, 1e-3, pair=pair)
        xs = rng.uniform(-1, 1, size=(12, 1))
        vals = V.value_many(xs)
        floor = pair.alpha1.value_many(np.abs(xs[:, 0]))
        assert np.all(vals >= floor - 1e-12)

    def test_truncation_matches_full_scan(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        xs = np.linspace(-1, 1, 9)[:, None]
        fast = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        slow = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=None)
        np.testing.assert_allclose(fast.value_many(xs), slow.value_many(xs), atol=1e-12)

    def test_value_alone_equals_value_in_a_batch(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.2, battery, 8.0, 1e-3, pair=pair)
        xs = np.array([[0.9], [0.7], [-0.05], [0.0]])
        assert value_at(V, [0.7]) == V.value_many(xs)[1]

    def test_each_start_retires_once_its_bound_is_certified(self, linear_setup, monkeypatch):
        """alpha2(s) e^{-(lam - mu) t} reaches V(x) = |x| at t = 0 for
        x = 0.3 (alpha2 = s there) and at t = 4 ln 3 for x = 1.0 (alpha2 = 3);
        the checks every 250 steps of dt = 1e-3 retire them at 0.25 and 4.5."""
        import safestab.converse as converse

        sys, omega, battery, _, _ = linear_setup
        pair = SontagPair(PowerMonotone(1), PiecewiseMonotone([0.5, 1.0], [0.5, 3.0]), lam=0.5)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        sweeps, run_sweep = [], converse.run_sweep

        def recording_sweep(*args, **kwargs):
            sweeps.append(run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(converse, "run_sweep", recording_sweep)
        xs = np.array([[0.3], [1.0]])
        np.testing.assert_allclose(V.value_many(xs), [0.3, 1.0], atol=1e-12)
        (res,) = sweeps
        for start, end in [(0, 0.25), (1, 4.5)]:
            rows = np.nonzero(res.start_index == start)[0]
            assert {res.reason(r) for r in rows} == {"retired"}
            np.testing.assert_allclose(res.end_times[rows], end, rtol=1e-12)

    def test_mu_must_stay_below_lambda(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        with pytest.raises(ValueError):
            NumericLyapunov(sys, omega, pair.alpha1, 0.6, battery, 8.0, 1e-3, pair=pair)

    def test_escape_raises(self, linear_setup):
        f = parse_vector_field(["x"], ["x"])
        esys = PerturbedSystem(f, 0.0)
        omega = DistanceIndicator(Box((0.0,), (0.0,)))
        bat = default_policy_battery(esys, n_random=0)
        V = NumericLyapunov(esys, omega, PowerMonotone(1), 0.2, bat, 10.0, 1e-2,
                            region=Box((-2.0,), (2.0,)))
        with pytest.raises(NotSettlingError):
            value_at(V, [1.0])


class TestValidation:
    def test_linear_decrease_tight(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        xs = np.linspace(-1, 1, 21)[:, None]
        val = validate_lyapunov(V, pair.alpha2, xs, taus=(0.5, 1.0, 2.0), tol=1e-3)
        assert val.passed
        # actual decay rate 1 >= mu = 0.25, so the ratio stays below e^{-(1-mu)tau}
        assert val.worst_decrease_ratio <= math.exp(-0.75 * 0.5) + 1e-6

    def test_zero_point_passes_trivially(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.2, battery, 8.0, 1e-3, pair=pair)
        val = validate_lyapunov(V, pair.alpha2, np.array([[0.0]]), taus=(0.5,), tol=1e-3)
        assert val.passed

    def test_semigroup_consistency_along_fixed_path(self, linear_setup):
        # along one realized trajectory, V decays by e^{-mu tau} per segment
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        mu = 0.25
        V = NumericLyapunov(sys, omega, pair.alpha1, mu, battery, 8.0, 1e-3, pair=pair)
        tr = integrate(sys, [0.9], battery[0], 3.0, 1e-3)
        x1 = tr.states[1000]
        x2 = tr.states[2500]
        assert value_at(V, x2) <= value_at(V, x1) * math.exp(-mu * 1.5) * (1 + 1e-9)

    def test_doubling_mu_keeps_measured_rate_above_the_doubled_floor(self, linear_setup):
        # the guaranteed log-decrease scales with mu; measured decreases must
        # clear the doubled floor with 20% slack
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        xs = np.linspace(0.3, 1.0, 8)[:, None]
        for mu in (0.1, 0.2):
            V = NumericLyapunov(sys, omega, pair.alpha1, mu, battery, 8.0, 1e-3, pair=pair)
            val = validate_lyapunov(V, pair.alpha2, xs, taus=(1.0,), tol=1e-3)
            assert val.passed
            measured_rate = -math.log(max(val.worst_decrease_ratio, 1e-12)) / 1.0 + mu
            assert measured_rate >= 2 * mu * 0.8

    @pytest.mark.parametrize("taus", [(0.0015, 0.5), (0.0, 0.5), (-3.0, 0.5)])
    def test_tau_must_be_whole_positive_steps(self, linear_setup, taus):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        with pytest.raises(ValueError, match="tau"):
            validate_lyapunov(V, pair.alpha2, np.array([[0.8]]), taus=taus, tol=1e-3)

    def test_decrease_reads_the_state_at_each_tau(self, linear_setup):
        # the worst ratio equals the one recomputed from recorded trajectories
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        mu = 0.25
        V = NumericLyapunov(sys, omega, pair.alpha1, mu, battery, 8.0, 1e-3, pair=pair)
        xs = np.array([[0.8], [-0.3]])
        val = validate_lyapunov(V, pair.alpha2, xs, taus=(0.5, 1.0), tol=1e-3)
        ratios = []
        for x in xs:
            for pol in battery:
                tr = integrate(sys, x, pol, 1.0, 1e-3)
                for tau, k in ((0.5, 500), (1.0, 1000)):
                    ratios.append(value_at(V, tr.states[k])
                                  / (value_at(V, x) * math.exp(-mu * tau)))
        assert val.worst_decrease_ratio == pytest.approx(max(ratios), rel=1e-12)

    def test_failures_are_reported_with_points(self, linear_setup):
        sys, omega, battery, _, env = linear_setup
        pair = fit_sontag_pair(env, lam=0.5)
        V = NumericLyapunov(sys, omega, pair.alpha1, 0.25, battery, 8.0, 1e-3, pair=pair)
        # an alpha2 far below V forces sandwich failures
        tiny = PowerMonotone(1, 1e-6)
        val = validate_lyapunov(V, tiny, np.array([[0.8]]), taus=(0.5,), tol=1e-3)
        assert not val.sandwich_passed
        assert val.failures and val.failures[0]["check"] == "sandwich"
