"""Release acceptance criteria, one test each, with pinned tolerances.

Each test appends a PASS/FAIL line to the terminal summary (see conftest).
The scalar benchmark is x' = -x + x^2 with delta = 0.25, W = [-1, -0.9],
U = [0.6, inf), Omega = [-0.25, 0.5]; its extreme-disturbance equilibria
(1 - sqrt(2))/2 and 0.5 make every expected value derivable by hand.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from safestab import (
    Box,
    BoxComplement,
    ConstantPolicy,
    DistanceIndicator,
    PerturbedSystem,
    ProperIndicator,
    default_policy_battery,
    integrate,
    make_grid,
    parse_scalar_field,
    parse_vector_field,
)
from safestab.certify import (
    Certificate,
    barrier_from_lyapunov,
    check_lyapunov_barrier_pair,
    lie_many,
)
from safestab.cli import main as cli_main
from safestab.converse import (
    NumericLyapunov,
    estimate_kl_envelope,
    fit_sontag_pair,
    validate_lyapunov,
)
from safestab.geometry import as_report
from safestab.reach import probe_uas, reach_tube, winning_set

from conftest import record_acceptance
from test_expr import at

ROOT_LEFT = (1.0 - math.sqrt(2.0)) / 2.0
SEED = 2024
_SUITE_T0 = time.perf_counter()


def _bench_config(tmp_path, **overrides):
    cfg = {
        "system": {"dim": 1, "state_vars": ["x"], "f": ["-x + x^2"], "delta": 0.25},
        "sets": {
            "W": {"kind": "box", "lo": [-1.0], "hi": [-0.9]},
            "U": {"kind": "complement_box", "lo": [-1.0e9], "hi": [0.6]},
            "Omega": {"kind": "box", "lo": [-0.25], "hi": [0.5]},
            "A": {"kind": "box", "lo": [ROOT_LEFT], "hi": [0.5]},
        },
        "grid": {"domain": {"lo": [-1.5], "hi": [1.5]}, "resolution": 0.001},
        "battery": {"n_random": 8, "seed": SEED, "dwell": 0.1},
        "integration": {"dt": 0.001, "horizon": 30.0, "blowup_bound": 1.0e6},
        "tolerances": {"strict_tol": 1.0e-9, "pd_coeff": 1.0e-6, "validation_tol": 0.05},
        "ras": {"initial": "W", "unsafe": "U", "target": "Omega"},
        "invariant_set": {"target": "Omega", "mode": "core"},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "bench.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_criterion_1_benchmark_ras_verification(tmp_path):
    """verify-ras at h = dt = 1e-3, horizon 30, fixed seed: exit 0, the safety
    clause with margin >= 1e-3, a finite witness time, in under 60 s."""
    path = _bench_config(tmp_path)
    t0 = time.perf_counter()
    result = CliRunner().invoke(
        cli_main, ["verify-ras", "--config", path, "--out", str(tmp_path / "runs")],
        catch_exceptions=False,
    )
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 0, result.output
    report = json.loads(next((tmp_path / "runs").glob("verify-ras-*/report.json")).read_text())
    verdict = report["verdict"]
    assert verdict["satisfied"] == "yes_sampled"
    assert verdict["witness_T"] is not None and 0.0 <= verdict["witness_T"] < 30.0
    # no trajectory sample reached 0.6 - 1e-3
    assert verdict["details"]["min_dist_to_unsafe"] >= 1e-3
    assert elapsed < 60.0
    record_acceptance(
        f"criterion 1 PASS: verify-ras exit 0, witness_T={verdict['witness_T']:.3f}, "
        f"safety margin {verdict['details']['min_dist_to_unsafe']:.4f}, {elapsed:.1f}s"
    )


def test_criterion_2_invariant_set_endpoints(tmp_path):
    """invariant-set endpoints equal (1-sqrt(2))/2 and 0.5 within 2 cells."""
    path = _bench_config(tmp_path)
    result = CliRunner().invoke(
        cli_main, ["invariant-set", "--config", path, "--out", str(tmp_path / "runs")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    report = json.loads(next((tmp_path / "runs").glob("invariant-set-*/report.json")).read_text())
    (lo, hi), = report["result"]["endpoints"]
    assert lo == pytest.approx(ROOT_LEFT, abs=2e-3)
    assert hi == pytest.approx(0.5, abs=2e-3)
    record_acceptance(
        f"criterion 2 PASS: invariant set [{lo:.6f}, {hi:.6f}] vs "
        f"[{ROOT_LEFT:.6f}, 0.5] within 2e-3"
    )


def test_criterion_3_robustness_gap():
    """The invariant interval probes as UAS at delta' = 0.20 but as violated
    at delta = 0.25, with an escape starting in (0.5, 0.51] under d = +0.25
    whose trajectory exceeds 1.0."""
    f = parse_vector_field(["-x + x^2"], ["x"])
    A = Box((ROOT_LEFT,), (0.5,))
    eps = [0.1, 0.25, 0.5]

    sys_ok = PerturbedSystem(f, 0.20)
    rep_ok = probe_uas(
        sys_ok, A, eps, default_policy_battery(sys_ok, 8, SEED), 60.0, 5e-3
    )
    assert rep_ok.verdict == "consistent_with_UAS"
    deltas = [d for _, d in rep_ok.eps_table]
    assert deltas == sorted(deltas)

    sys_bad = PerturbedSystem(f, 0.25)
    rep_bad = probe_uas(
        sys_bad, A, eps, default_policy_battery(sys_bad, 8, SEED), 250.0, 5e-3
    )
    assert rep_bad.verdict == "violated"
    witnesses = [
        ce for ce in rep_bad.counterexamples
        if 0.5 < ce.x0[0] <= 0.51 and "+0.25" in ce.policy
        and ce.kind in ("left_eps_shell", "blow_up")
    ]
    assert witnesses, [as_report(c) for c in rep_bad.counterexamples]
    # reproduce the reported counterexample and confirm it escapes past 1.0
    tr = integrate(sys_bad, list(witnesses[0].x0), ConstantPolicy([0.25]), 250.0, 5e-3)
    assert tr.states.max() > 1.0
    record_acceptance(
        "criterion 3 PASS: UAS consistent at delta=0.20, violated at 0.25 with "
        f"x0={witnesses[0].x0[0]:.6f} reaching {tr.states.max():.3g} > 1.0"
    )


def _random_polynomial(rng, var_names, degree=4):
    terms = []
    if len(var_names) == 1:
        for p in range(degree + 1):
            c = rng.uniform(-2, 2)
            terms.append(f"({c:.6f})*{var_names[0]}^{p}" if p else f"({c:.6f})")
    else:
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                if rng.random() < 0.5:
                    continue
                c = rng.uniform(-2, 2)
                term = f"({c:.6f})"
                if i:
                    term += f"*{var_names[0]}^{i}"
                if j:
                    term += f"*{var_names[1]}^{j}"
                terms.append(term)
    return " + ".join(terms) if terms else "0"


def test_criterion_4_worst_case_closed_form():
    """For 200 random (polynomial V, point, delta in [0,1]) the closed-form
    worst-case Lie derivative matches a 10^4-sample brute-force maximum to
    1e-6 relative (scale: 1 + |grad V . f| + delta |grad V|)."""
    rng = np.random.default_rng(SEED)
    systems = {
        1: parse_vector_field(["-x + x^2"], ["x"]),
        2: parse_vector_field(["-x + y^2", "-y + 0.5*x"], ["x", "y"]),
    }
    n_checked = 0
    worst_rel = 0.0
    for k in range(200):
        dim = 1 if k < 100 else 2
        names = ["x"] if dim == 1 else ["x", "y"]
        V = parse_scalar_field(_random_polynomial(rng, names), names)
        x = rng.uniform(-2, 2, size=dim)
        delta = float(rng.uniform(0, 1))
        sys = PerturbedSystem(systems[dim], delta)
        closed = float(lie_many(V, sys, x[None, :], +1.0)[0])
        g = at(V.grad(), *x)
        fx = at(systems[dim], *x)
        base = float(g @ fx)
        if dim == 1:
            ds = np.linspace(-delta, delta, 10_000)
            brute = base + float((g[0] * ds).max())
        else:
            ang = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            brute = base + delta * float((dirs @ g).max())
        scale = 1.0 + abs(base) + delta * float(np.linalg.norm(g))
        rel = abs(closed - brute) / scale
        assert brute <= closed + 1e-9 * scale  # sampled max never beats the sup
        assert rel <= 1e-6, (V.source, x, delta, closed, brute)
        worst_rel = max(worst_rel, rel)
        n_checked += 1
    assert n_checked == 200
    record_acceptance(
        f"criterion 4 PASS: 200 random (V, x, delta) worst-case Lie vs 1e4-sample "
        f"brute force, worst relative gap {worst_rel:.2e} <= 1e-6"
    )


def test_criterion_5_certificate_checker_soundness():
    """The constructed pair (V = x^2, B = 0.2625 - x^2) passes all pair
    conditions at delta = 0; at delta = 0.4 the barrier-monotonicity condition
    fails with a counterexample at |x| < 0.4; both verdicts reproduce."""
    f = parse_vector_field(["-x"], ["x"])
    V = parse_scalar_field("x^2", ["x"])
    grid = make_grid(Box((-2.505,), (2.505,)), 0.01)
    A = Box((0.0,), (0.0,))
    W = Box((-0.5,), (0.5,))
    U = BoxComplement(Box((-2.0,), (2.0,)))
    D = Box((-1.5,), (1.5,))

    B = barrier_from_lyapunov(V, W, W, grid)
    assert at(B, 0.0) == pytest.approx(0.2625, abs=1e-9)
    cert = Certificate(V=V, D=D, B=B)

    good = check_lyapunov_barrier_pair(cert, PerturbedSystem(f, 0.0), A, W, U, grid)
    assert good.passed, good.failed_conditions()

    bad1 = check_lyapunov_barrier_pair(cert, PerturbedSystem(f, 0.4), A, W, U, grid)
    bad2 = check_lyapunov_barrier_pair(cert, PerturbedSystem(f, 0.4), A, W, U, grid)
    cond = bad1.conditions["B_nondecreasing"]
    assert cond.status == "fail"
    assert abs(cond.worst_point[0]) < 0.4
    assert as_report(bad1) == as_report(bad2)
    record_acceptance(
        "criterion 5 PASS: pair passes at delta=0; at delta=0.4 the barrier "
        f"condition fails at x={cond.worst_point[0]:+.3f} (|x| < 0.4), deterministically"
    )


def test_criterion_6_converse_pipeline_linear():
    """Linear benchmark: envelope within 5% of s e^{-t} on [0, 5], the fitted
    pair certifies with margin >= 0, and V obeys the sandwich and the decrease
    V(phi(tau)) <= V(x) e^{-mu tau} (1 + 1e-3) at 200 sampled (x, tau)."""
    f = parse_vector_field(["-x"], ["x"])
    sys = PerturbedSystem(f, 0.0)
    omega = DistanceIndicator(Box((0.0,), (0.0,)))
    battery = default_policy_battery(sys, n_random=2, seed=SEED)
    samples = np.linspace(-1.0, 1.0, 81)[:, None]
    env = estimate_kl_envelope(sys, omega, samples, battery, 8.0, 1e-3, n_bins=16)

    sel = env.t_samples <= 5.0
    worst = 0.0
    for i, s in enumerate(env.s_bins):
        if s < 0.05:
            continue
        ref = s * np.exp(-env.t_samples[sel])
        worst = max(worst, float((np.abs(env.table[i, sel] - ref) / ref).max()))
    assert worst < 0.05

    pair = fit_sontag_pair(env, lam=0.5)
    assert pair.certify(env) >= 0.0

    mu = 0.25
    V = NumericLyapunov(sys, omega, pair.alpha1, mu, battery, 8.0, 1e-3, pair=pair)
    xs = np.linspace(-1.0, 1.0, 67)[:, None]  # 67 points x 3 taus = 201 pairs
    vals = V.value_many(xs)
    w = omega.value_many(xs)
    a1 = pair.alpha1.value_many(w)
    a2 = pair.alpha2.value_many(w)
    assert np.all(vals >= a1 - 1e-12)
    assert np.all(vals <= a2 + 1e-9 * (1 + a2))
    validation = validate_lyapunov(V, pair.alpha2, xs, taus=(0.5, 1.0, 2.0), tol=1e-3)
    assert validation.passed
    record_acceptance(
        f"criterion 6 PASS: envelope within {worst:.3%} of s*exp(-t); pair margin "
        f"{pair.certify(env):.2e} >= 0; sandwich and decrease hold at 201 (x, tau) "
        f"pairs with tol 1e-3"
    )


def test_criterion_7_converse_pipeline_benchmark():
    """Benchmark at delta' = 0.2 with the construction domain inside the
    sampled winning set: sandwich and decrease pass at 200 points, tol 0.05."""
    f = parse_vector_field(["-x + x^2"], ["x"])
    sys = PerturbedSystem(f, 0.2)
    battery = default_policy_battery(sys, n_random=8, seed=SEED)
    A = Box((ROOT_LEFT,), (0.5,))
    U = BoxComplement(Box((-1e9,), (0.6,)))
    D = Box((-1.2,), (0.55,))

    # the construction domain must sit inside the sampled winning set, which
    # must in turn contain the initial set
    coarse = make_grid(Box((-1.5,), (1.5,)), 0.01)
    win = winning_set(sys, A, U, coarse, battery, 30.0, 5e-3)
    d_cells = coarse.select(D)
    assert win.mask[d_cells].all(), "D is not inside the sampled winning set"
    assert win.mask[coarse.select(Box((-1.0,), (-0.9,)))].all()

    omega = ProperIndicator(A, D)
    sgrid = make_grid(D, 0.008)
    samples = sgrid.points
    assert samples.shape[0] >= 200
    env = estimate_kl_envelope(sys, omega, samples, battery, 30.0, 2e-3, n_bins=20, region=D)
    assert np.all(np.diff(env.table, axis=0) >= -1e-15)  # nondecreasing in s
    assert np.all(np.diff(env.table, axis=1) <= 1e-15)  # nonincreasing in t
    assert env.settle_ratio <= 0.05
    pair = fit_sontag_pair(env)
    mu = 0.5 * pair.lam
    V = NumericLyapunov(
        sys, omega, pair.alpha1, mu, battery, 30.0, 2e-3, pair=pair, region=D
    )
    rng = np.random.default_rng(SEED)
    pick = rng.choice(samples.shape[0], size=200, replace=False)
    validation = validate_lyapunov(V, pair.alpha2, samples[pick], taus=(0.5, 1.0, 2.0), tol=0.05)
    assert validation.passed, validation.failures[:3]
    record_acceptance(
        "criterion 7 PASS: benchmark construction at delta'=0.2 on D=[-1.2, 0.55] "
        f"(inside the sampled winning set); 200-point validation with tol 0.05, "
        f"worst decrease ratio {validation.worst_decrease_ratio:.3f}"
    )


def test_criterion_8_property_suites():
    """Bundled property checks at their stated tolerances: RK4 order, tube
    monotonicity in delta and horizon, the 1-D extremal-disturbance oracle,
    winning-set safety/closure, and symbolic-vs-FD gradients."""
    from safestab import ZeroPolicy, run_sweep
    from safestab.reach import _Occupancy
    from test_expr import _smooth_corpus, central_fd

    notes = []

    # RK4 order: halving dt cuts the final error by >= 12
    lin = PerturbedSystem(parse_vector_field(["-x"], ["x"]), 0.0)
    errs = [
        abs(integrate(lin, [1.0], ZeroPolicy(), 1.0, dt).final_state[0] - math.exp(-1.0))
        for dt in (0.2, 0.1)
    ]
    ratio = errs[0] / errs[1]
    assert ratio >= 12.0
    notes.append(f"RK4 ratio {ratio:.1f}")

    # reach-tube monotonicity in delta and in horizon
    f = parse_vector_field(["-x + x^2"], ["x"])
    grid = make_grid(Box((-1.5,), (1.5,)), 0.01)
    W = Box((-1.0,), (-0.9,))
    tubes = {}
    for delta in (0.1, 0.2):
        s = PerturbedSystem(f, delta)
        bat = default_policy_battery(s, 4, SEED)
        tubes[delta] = reach_tube(s, W, 5.0, grid, bat, 5e-3)
    assert np.all(grid.dilate(tubes[0.2].mask, 1)[tubes[0.1].mask])
    s25 = PerturbedSystem(f, 0.25)
    bat25 = default_policy_battery(s25, 4, SEED)
    t_short = reach_tube(s25, W, 2.0, grid, bat25, 5e-3)
    t_long = reach_tube(s25, W, 5.0, grid, bat25, 5e-3)
    assert np.all(t_long.mask[t_short.mask])
    notes.append("tube monotone in delta and T")

    # 1-D extremal-disturbance oracle: tube hull within one cell of the two
    # constant-extreme trajectories
    full = reach_tube(s25, W, 10.0, grid, default_policy_battery(s25, 8, SEED), 5e-3)
    marked = grid.points[full.mask][:, 0]
    hi = integrate(s25, [-0.9], ConstantPolicy([0.25]), 10.0, 5e-3).states.max()
    lo = integrate(s25, [-1.0], ConstantPolicy([-0.25]), 10.0, 5e-3).states.min()
    h = grid.widths.min()
    assert abs(marked.max() - hi) <= h and abs(marked.min() - lo) <= h
    notes.append("1-D extremal oracle within 1 cell")

    # winning set never touches U and is forward-closed under the battery
    s02 = PerturbedSystem(f, 0.2)
    bat02 = default_policy_battery(s02, 8, SEED)
    A = Box((ROOT_LEFT,), (0.5,))
    U = BoxComplement(Box((-1e9,), (0.6,)))
    win = winning_set(s02, A, U, grid, bat02, 30.0, 5e-3)
    assert not win.mask[U.contains_many(grid.points)].any()
    idx = np.nonzero(win.mask)[0][::4]
    occ = _Occupancy(grid)
    run_sweep(s02, grid.point_of(idx), bat02, 10.0, 5e-3,
              freeze_domain=grid.domain, observer=occ)
    target = A.dist_many(grid.points) <= win.conv_radius
    assert np.all(grid.dilate(win.mask | target, 1)[occ.mask])
    notes.append("winning set safe and forward-closed")

    # symbolic gradients vs central differences at 1e-4 relative
    rng = np.random.default_rng(SEED)
    for src in _smooth_corpus(rng, ("x", "y"), 20):
        field = parse_scalar_field(src, ("x", "y"))
        grad = field.grad()
        pts = rng.uniform(-2, 2, size=(100, 2))
        sym = grad.eval_many(pts)
        for p, sv in zip(pts[::10], sym[::10]):
            fd = central_fd(field, p, h=1e-5)
            assert np.all(np.abs(sv - fd) <= 1e-4 * (1.0 + np.abs(sv)))
    notes.append("gradient vs FD at 1e-4")

    record_acceptance("criterion 8 PASS: " + "; ".join(notes))


def test_criterion_8_suite_runtime():
    """The acceptance module itself stays well inside the 10-minute budget for
    the whole test run (the pytest summary reports the full-suite time)."""
    elapsed = time.perf_counter() - _SUITE_T0
    assert elapsed < 600.0
    record_acceptance(f"criterion 8 runtime PASS: acceptance module {elapsed:.0f}s < 600s")
