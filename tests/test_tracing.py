"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps the
package's entry points by name; a rename or deletion in ``src/`` must not
break it.  This installs the span recorder, runs one small sweep through it,
and checks that uninstalling restores every patched attribute."""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from safestab import certify, cli, config, converse, dynamics, expr, geometry, reach

MODULES = (certify, cli, config, converse, dynamics, expr, geometry, reach)
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every module attribute and every class attribute of the package."""
    snap = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("safestab"):
                for attr, member in vars(value).items():
                    snap[(value.__module__, value.__qualname__, attr)] = member
    return snap


def test_span_recorder_installs_and_restores():
    tracing = _load_tracing()
    before = _snapshot()
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in rec._undo}
        for owner, attr in [(reach, "run_sweep"), (converse, "run_sweep"),
                            (dynamics, "run_sweep"), (reach, "check_invariance"),
                            (reach, "maximal_invariant"), (converse, "validate_lyapunov"),
                            (certify, "check_lyapunov_barrier_pair"),
                            (dynamics.ConstantPolicy, "values"), (geometry.Box, "contains_many"),
                            (geometry.Grid, "cell_index_many"),
                            (geometry.ProperIndicator, "value_many")]:
            assert (owner, attr) in patched, (owner, attr)

        # one traced sweep with an observer, through the patched reach module
        sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x"], ["x"]), 0.1)
        grid = geometry.make_grid(geometry.Box((-1.0,), (1.0,)), 0.1)
        res = reach.reach_tube(sys_, geometry.Box((0.5,), (0.8,)), 0.5, grid,
                               dynamics.default_policy_battery(sys_, n_random=0), 0.05)
        assert res.mask.any()
        assert len(rec.sweeps) == 1
        names = {rec.names[i] for i in rec.name}
        assert {"dynamics.run_sweep", "dynamics.observer", "reach.reach_tube"} <= names
    finally:
        rec.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert np.isfinite(rec.metrics()["dynamics.busy_s"])


def test_winning_set_sweep_counts_running_rows_only():
    """Cells that start in U lose every row at t=0, so a winning-set sweep
    on a contraction, whose rows would otherwise all run to the horizon,
    records a full-length sweep that is not aborted and fewer running
    row-steps than rows times steps."""
    tracing = _load_tracing()
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x"], ["x"]), 0.1)
        grid = geometry.make_grid(geometry.Box((-1.0,), (1.0,)), 0.05)
        reach.winning_set(sys_, geometry.Box((-0.05,), (0.05,)), geometry.Box((0.5,), (1.0,)),
                          grid, dynamics.default_policy_battery(sys_, n_random=2, seed=3),
                          5.0, 1e-2)
    finally:
        rec.uninstall()
    (_, rows, _, steps, nominal, ran, aborted), = rec.sweeps
    assert not aborted
    assert steps == nominal == 500
    assert ran < rows * steps


def _probe_sweeps(*args, **kwargs):
    """The report of one probe_uas call and the sweeps it ran."""
    tracing = _load_tracing()
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        rep = reach.probe_uas(*args, **kwargs)
    finally:
        rec.uninstall()
    return rep, rec.sweeps


@pytest.mark.parametrize("eps_schedule", [[0.5], [0.1, 0.25, 0.5]])
def test_consistent_probe_runs_one_shell_sweep_per_round_and_one_attractivity_sweep(
        eps_schedule):
    """Every shell of x' = -x passes, so each level's search climbs toward
    eps, far above the floor, and every round of BISECT_ROUNDS has radii to
    sweep."""
    sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x"], ["x"]), 0.05)
    rep, sweeps = _probe_sweeps(sys_, geometry.Box((0.0,), (0.0,)), eps_schedule,
                                dynamics.default_policy_battery(sys_, n_random=1, seed=3),
                                5.0, 1e-2)
    assert rep.verdict == "consistent_with_UAS"
    assert len(sweeps) == len(reach.BISECT_ROUNDS) + 1 == 5
    # the attractivity sweep runs the shell at rho only
    assert sweeps[-1][2] == 2


def test_violated_benchmark_probe_runs_shell_sweeps_down_to_the_floor():
    """Criterion 3's probe at delta = 0.25, on a shorter horizon with a
    floor to match: every shell fails, so level eps tests the radii
    eps / 2^k down to the floor (the search at eps = 0.5 stops at its 7th
    step), only the rounds that begin by then run a sweep, and, being
    violated, the probe runs no attractivity sweep."""
    sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x + x^2"], ["x"]), 0.25)
    A = geometry.Box(((1.0 - math.sqrt(2.0)) / 2.0,), (0.5,))
    levels, floor = [0.1, 0.25, 0.5], 0.005
    rep, sweeps = _probe_sweeps(sys_, A, levels,
                                dynamics.default_policy_battery(sys_, 8, 2024), 60.0, 5e-3,
                                delta_floor=floor)
    assert rep.verdict == "violated"
    steps = max(k for eps in levels for k in range(1, reach.BISECT_ITERS + 1)
                if eps / 2**k >= floor)
    first_steps = np.cumsum((0,) + reach.BISECT_ROUNDS[:-1])
    assert steps == 6
    assert len(sweeps) == np.count_nonzero(first_steps < steps) == 2


def test_observer_runs_once_per_block_of_steps():
    """A traced 500-step sweep of 22 rows that no row leaves early calls its
    observer once at t=0 and once per block of K steps, not once per step."""
    tracing = _load_tracing()
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x"], ["x"]), 0.1)
        grid = geometry.make_grid(geometry.Box((-2.0,), (2.0,)), 0.5)
        battery = dynamics.default_policy_battery(sys_, n_random=8)
        reach.reach_tube(sys_, geometry.Box((0.1,), (0.9,)), 5.0, grid, battery, 0.01)
        (sweep,) = rec.sweeps
        assert sweep[1:4] == (22, 2, 500)  # rows, starts, steps
        calls = sum(rec.names[i] == tracing.OBSERVER for i in rec.name)
    finally:
        rec.uninstall()
    K = min(max(dynamics.BLOCK_FLOATS // 22, 1), dynamics.BLOCK_STEPS)
    assert K > 1 and calls == math.ceil(500 / K) + 1


def test_tolerant_membership_and_extremal_gradient_are_traced():
    """A winning set's target test runs the set's traced distance inside the
    observer, and an extremal feedback's gradient runs the traced field
    evaluation inside the policy refresh."""
    tracing = _load_tracing()
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        sys_ = dynamics.PerturbedSystem(expr.parse_vector_field(["-x"], ["x"]), 0.1)
        grid = geometry.make_grid(geometry.Box((-1.0,), (1.0,)), 0.1)
        U = geometry.BoxComplement(geometry.Box((-math.inf,), (0.6,)))
        reach.winning_set(sys_, geometry.Box((-0.05,), (0.05,)), U, grid,
                          dynamics.default_policy_battery(sys_, n_random=0), 1.0, 1e-2)
        g = expr.parse_scalar_field("x^2", ["x"])
        dynamics.run_sweep(sys_, np.array([[0.3], [-0.4]]),
                           [dynamics.ExtremalFeedbackPolicy(g, +1)], 0.1, 1e-2)
    finally:
        rec.uninstall()
    pairs = {(rec.names[rec.name[i]], rec.names[rec.name[p]])  # (span, its parent)
             for i, p in enumerate(rec.parent) if p >= 0}
    assert ("geometry.dist", tracing.OBSERVER) in pairs
    assert ("expr.eval", tracing.POLICY) in pairs
