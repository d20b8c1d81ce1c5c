import math

import numpy as np
import pytest

from safestab import (
    Box,
    BoxComplement,
    DistanceIndicator,
    PerturbedSystem,
    make_grid,
    parse_scalar_field,
    parse_vector_field,
)
from safestab.certify import (
    Certificate,
    CertificateError,
    barrier_from_lyapunov,
    check_lyapunov_barrier_pair,
    check_lyapunov_certificate,
    lie_many,
)
from safestab.converse import PowerMonotone
from test_expr import at


@pytest.fixture(scope="module")
def linear():
    f = parse_vector_field(["-x"], ["x"])
    V = parse_scalar_field("x^2", ["x"])
    return f, V


def worst_case_lie(V, sys, x) -> float:
    """The batched closed form the certificate checks use, at one point."""
    return float(lie_many(V, sys, np.atleast_2d(np.asarray(x, dtype=float)), +1.0)[0])


def best_case_lie(B, sys, x) -> float:
    return float(lie_many(B, sys, np.atleast_2d(np.asarray(x, dtype=float)), -1.0)[0])


def brute_force_lie(V, sys, x, n_samples=10_000):
    """Independent oracle: maximize grad V(x).(f(x)+d) over sampled d in the
    delta-ball (sphere directions; the objective is linear in d)."""
    x = np.asarray(x, dtype=float)
    g = at(V.grad(), *x)
    fx = at(sys.f, *x)
    base = float(g @ fx)
    n = x.size
    if sys.delta == 0:
        return base
    if n == 1:
        ds = np.linspace(-sys.delta, sys.delta, n_samples)
        return base + float((g[0] * ds).max())
    angles = np.linspace(0.0, 2 * math.pi, n_samples, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return base + sys.delta * float((dirs @ g).max())


class TestWorstCaseLie:
    def test_hand_values(self, linear):
        f, V = linear
        assert worst_case_lie(V, PerturbedSystem(f, 0.0), [1.0]) == pytest.approx(-2.0)
        assert worst_case_lie(V, PerturbedSystem(f, 0.5), [1.0]) == pytest.approx(-1.0)

    def test_zero_gradient_annihilates_disturbance(self, linear):
        f, V = linear
        for delta in (0.0, 0.3, 1.0):
            assert worst_case_lie(V, PerturbedSystem(f, delta), [0.0]) == 0.0

    def test_brute_force_1d(self, linear, rng):
        f, V = linear
        for _ in range(30):
            x = rng.uniform(-2, 2, size=1)
            sys = PerturbedSystem(f, float(rng.uniform(0, 1)))
            closed = worst_case_lie(V, sys, x)
            brute = brute_force_lie(V, sys, x, n_samples=1001)
            scale = 1.0 + abs(closed)
            assert abs(closed - brute) <= 1e-9 * scale

    def test_min_case_dual(self, rng):
        f = parse_vector_field(["-x + y", "-y"], ["x", "y"])
        B = parse_scalar_field("1 - x^2 - 0.5*y^2", ["x", "y"])
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            sys = PerturbedSystem(f, float(rng.uniform(0, 1)))
            closed = best_case_lie(B, sys, x)
            g = at(B.grad(), *x)
            fx = at(f, *x)
            angles = np.linspace(0, 2 * math.pi, 2001, endpoint=False)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            brute = float(g @ fx) + sys.delta * float((dirs @ g).min())
            assert abs(closed - brute) <= 1e-6 * (1 + abs(closed) + sys.delta * np.linalg.norm(g))

    def test_scaling_covariance(self, linear, rng):
        f, _ = linear
        V = parse_scalar_field("x^2", ["x"])
        kV = parse_scalar_field("3.7*x^2", ["x"])
        sys = PerturbedSystem(f, 0.4)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=1)
            assert worst_case_lie(kV, sys, x) == pytest.approx(
                3.7 * worst_case_lie(V, sys, x), rel=1e-12
            )

    def test_non_smooth_rejected(self, linear):
        f, _ = linear
        V = parse_scalar_field("abs(x)", ["x"])
        with pytest.raises(Exception):
            worst_case_lie(V, PerturbedSystem(f, 0.0), [1.0])


class TestPairCertificate:
    def setup_method(self):
        self.f = parse_vector_field(["-x"], ["x"])
        self.V = parse_scalar_field("x^2", ["x"])
        self.grid = make_grid(Box((-2.505,), (2.505,)), 0.01)  # 0 is a cell center
        self.A = Box((0.0,), (0.0,))
        self.W = Box((-0.5,), (0.5,))
        self.U = BoxComplement(Box((-2.0,), (2.0,)))
        self.D = Box((-1.5,), (1.5,))

    def test_known_good_pair_passes(self):
        B = parse_scalar_field("1 - x^2", ["x"])
        cert = Certificate(V=self.V, D=self.D, B=B)
        rep = check_lyapunov_barrier_pair(
            cert, PerturbedSystem(self.f, 0.0), self.A, self.W, self.U, self.grid
        )
        assert rep.passed
        assert rep.conditions["B_nonneg_on_W"].margin >= 0.74
        assert rep.conditions["B_negative_on_U"].lhs <= -3.0

    def test_disturbance_breaks_barrier_monotonicity(self):
        # min-case Lie of B at x: 2x^2 - 0.8|x| < 0 for |x| < 0.4
        B = parse_scalar_field("1 - x^2", ["x"])
        cert = Certificate(V=self.V, D=self.D, B=B)
        rep = check_lyapunov_barrier_pair(
            cert, PerturbedSystem(self.f, 0.4), self.A, self.W, self.U, self.grid
        )
        cond = rep.conditions["B_nondecreasing"]
        assert cond.status == "fail"
        assert abs(cond.worst_point[0]) < 0.4
        # the report carries the counterexample: the worst point and its Lie derivative
        reported = rep.to_dict()["conditions"]["B_nondecreasing"]
        assert reported["worst_point"] == list(cond.worst_point)
        assert reported["margin"] < 0 and reported["lhs"] < 0

    def test_hand_value_at_x01(self):
        B = parse_scalar_field("1 - x^2", ["x"])
        val = best_case_lie(B, PerturbedSystem(self.f, 0.4), [0.1])
        assert val == pytest.approx(2 * 0.01 - 0.4 * 0.2, abs=1e-12)
        assert val < 0

    def test_constant_barrier_cannot_separate(self):
        B = parse_scalar_field("1", ["x"])
        cert = Certificate(V=self.V, D=self.D, B=B)
        rep = check_lyapunov_barrier_pair(
            cert, PerturbedSystem(self.f, 0.0), self.A, self.W, self.U, self.grid
        )
        assert rep.conditions["B_negative_on_U"].status == "fail"

    def test_missing_barrier_rejected(self):
        cert = Certificate(V=self.V, D=self.D)
        with pytest.raises(CertificateError):
            check_lyapunov_barrier_pair(
                cert, PerturbedSystem(self.f, 0.0), self.A, self.W, self.U, self.grid
            )

    def test_report_reproducible(self):
        B = parse_scalar_field("1 - x^2", ["x"])
        cert = Certificate(V=self.V, D=self.D, B=B)
        sys = PerturbedSystem(self.f, 0.4)
        r1 = check_lyapunov_barrier_pair(cert, sys, self.A, self.W, self.U, self.grid)
        r2 = check_lyapunov_barrier_pair(cert, sys, self.A, self.W, self.U, self.grid)
        assert r1.to_dict() == r2.to_dict()

    def test_json_serialization(self):
        B = parse_scalar_field("1 - x^2", ["x"])
        cert = Certificate(V=self.V, D=self.D, B=B)
        rep = check_lyapunov_barrier_pair(
            cert, PerturbedSystem(self.f, 0.0), self.A, self.W, self.U, self.grid
        )
        import json

        parsed = json.loads(json.dumps(rep.to_dict()))
        assert parsed["passed"] is True
        assert set(parsed["conditions"]) == {
            "V_zero_on_A", "V_positive_definite", "V_strict_decrease_off_A",
            "B_nonneg_on_W", "B_negative_on_U", "B_nondecreasing",
        }


class TestSingleCertificate:
    def setup_method(self):
        self.f = parse_vector_field(["-x"], ["x"])
        self.V = parse_scalar_field("x^2", ["x"])
        self.omega = DistanceIndicator(Box((0.0,), (0.0,)))
        self.cert = Certificate(
            V=self.V,
            D=Box((-2.0,), (2.0,)),
            alpha1=PowerMonotone(2, 0.5),
            alpha2=PowerMonotone(2, 2.0),
            omega=self.omega,
        )
        self.grid = make_grid(Box((-1.0,), (1.0,)), 0.01)

    def test_nominal_passes(self):
        rep = check_lyapunov_certificate(self.cert, PerturbedSystem(self.f, 0.0), self.grid)
        assert rep.passed
        # Lie margin is -x^2 - (-2x^2) = x^2 >= 0
        assert rep.conditions["decrease"].margin >= 0

    def test_disturbance_fails_decrease(self):
        rep = check_lyapunov_certificate(self.cert, PerturbedSystem(self.f, 0.6), self.grid)
        assert rep.failed_conditions() == ["decrease"]
        # hand arithmetic at x = 0.25: lie = -0.125 + 0.3 = +0.175 > -V = -0.0625
        sys = PerturbedSystem(self.f, 0.6)
        assert worst_case_lie(self.V, sys, [0.25]) == pytest.approx(0.175)
        assert worst_case_lie(self.V, sys, [0.25]) > -at(self.V, 0.25)

    def test_degenerate_zero_certificate(self):
        # grid entirely inside A: both bounds hold with equality and the
        # decrease is 0 <= 0
        A = Box((-1.0,), (1.0,))
        cert = Certificate(
            V=parse_scalar_field("0", ["x"]),
            D=Box((-2.0,), (2.0,)),
            alpha1=PowerMonotone(1),
            alpha2=PowerMonotone(1),
            omega=DistanceIndicator(A),
        )
        rep = check_lyapunov_certificate(cert, PerturbedSystem(self.f, 0.0), self.grid)
        assert rep.passed

    def test_needs_sandwich_data(self):
        cert = Certificate(V=self.V, D=Box((-2.0,), (2.0,)))
        with pytest.raises(CertificateError):
            check_lyapunov_certificate(cert, PerturbedSystem(self.f, 0.0), self.grid)

    def test_non_smooth_certificate_rejected(self):
        with pytest.raises(CertificateError):
            Certificate(V=parse_scalar_field("abs(x)", ["x"]), D=Box((-1.0,), (1.0,)))


class TestBarrierConstruction:
    def setup_method(self):
        self.f = parse_vector_field(["-x"], ["x"])
        self.V = parse_scalar_field("x^2", ["x"])
        self.grid = make_grid(Box((-2.505,), (2.505,)), 0.01)

    def test_level_from_grid_max(self):
        K = Box((-0.5,), (0.5,))
        B = barrier_from_lyapunov(self.V, K, K, self.grid)
        # c = 1.05 * max(x^2 on [-0.5, 0.5]) = 1.05 * 0.25 = 0.2625
        assert at(B, 0.0) == pytest.approx(0.2625, abs=1e-6)
        assert B.source.startswith("0.2625")

    def test_zero_lyapunov_gives_positive_constant(self):
        B = barrier_from_lyapunov(
            parse_scalar_field("0", ["x"]), Box((-0.5,), (0.5,)), Box((-0.5,), (0.5,)),
            self.grid,
        )
        assert at(B, 0.0) > 0 and at(B, 2.0) == at(B, 0.0)

    def test_constructed_pair_passes_checks(self):
        W = Box((-0.5,), (0.5,))
        B = barrier_from_lyapunov(self.V, W, W, self.grid)
        cert = Certificate(V=self.V, D=Box((-1.5,), (1.5,)), B=B)
        rep = check_lyapunov_barrier_pair(
            cert, PerturbedSystem(self.f, 0.0),
            Box((0.0,), (0.0,)), W, BoxComplement(Box((-2.0,), (2.0,))), self.grid,
        )
        assert rep.conditions["B_nonneg_on_W"].status == "pass_sampled"
        assert rep.conditions["B_nondecreasing"].status == "pass_sampled"
        assert rep.passed

    def test_empty_region_rejected(self):
        with pytest.raises(CertificateError):
            barrier_from_lyapunov(self.V, Box((9.0,), (9.5,)), Box((9.0,), (9.5,)), self.grid)


def test_necessity_chain():
    """A V passing the single-function check yields, via the constructed
    barrier, a pair passing the pair check on the same grid."""
    f = parse_vector_field(["-x"], ["x"])
    V = parse_scalar_field("x^2", ["x"])
    sys = PerturbedSystem(f, 0.0)
    grid = make_grid(Box((-1.005,), (1.005,)), 0.01)
    A = Box((0.0,), (0.0,))
    W = Box((-0.5,), (0.5,))
    U = BoxComplement(Box((-2.0,), (2.0,)))
    D = Box((-2.0,), (2.0,))
    single = Certificate(
        V=V, D=D, alpha1=PowerMonotone(2, 0.5), alpha2=PowerMonotone(2, 2.0),
        omega=DistanceIndicator(A),
    )
    rep1 = check_lyapunov_certificate(single, sys, grid)
    assert rep1.passed
    B = barrier_from_lyapunov(V, W, W, grid)
    pair = Certificate(V=V, D=D, B=B)
    rep2 = check_lyapunov_barrier_pair(pair, sys, A, W, U, grid)
    assert rep2.passed
