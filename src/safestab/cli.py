"""Command-line interface: config ingestion, subcommand dispatch, and
report/plot-data emission.

Every run writes a directory named <command>-<config digest>-<timestamp>
(suffixed -1, -2, ... when an identical run in the same second took the name)
containing report.json (the resolved config echo plus verdicts, margins,
counterexamples, timing, and artifact paths) and the command's CSV artifacts.
A run that stops on an input error writes nothing.

Exit codes: 0 = pass / yes_sampled, 1 = no (counterexample found),
2 = configuration or usage error, 3 = inconclusive.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .certify import (
    Certificate,
    barrier_from_lyapunov,
    check_lyapunov_barrier_pair,
    check_lyapunov_certificate,
)
from .config import Block, ConfigError, RunConfig, load_config
from .converse import (
    NotSettlingError,
    NumericLyapunov,
    PowerMonotone,
    estimate_kl_envelope,
    fit_sontag_pair,
    validate_lyapunov,
)
from .dynamics import ensemble
from .geometry import Box, MaskSet, ProperIndicator, _write_csv, as_report, make_grid
from .reach import (
    DELTA_FLOOR,
    EPS_SCHEDULE,
    check_ras,
    check_sws,
    maximal_invariant,
    probe_uas,
    reach_tube,
    winning_set,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


class _Run:
    """One run: its accumulating report, and the run directory, made when the
    first artifact or the report is written."""

    def __init__(self, cfg: RunConfig, command: str, out_dir: str, seed: int | None):
        self.seed = cfg.battery_seed if seed is None else seed
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        self.root = Path(out_dir)
        self.name = f"{command}-{cfg.digest()}-{stamp}"
        self._dir: Path | None = None
        self.t0 = time.perf_counter()
        self.report = {
            "command": command,
            "safestab_version": __version__,
            "seed": self.seed,
            "config": cfg.resolved(),
            "artifacts": [],
        }
        if seed is not None:
            self.report["config"]["battery"]["seed"] = seed

    @property
    def dir(self) -> Path:
        if self._dir is None:
            self._dir = _fresh_dir(self.root, self.name)
        return self._dir

    def artifact(self, name: str) -> Path:
        self.report["artifacts"].append(name)  # relative, so a moved run still resolves it
        return self.dir / name

    def finish(self, **fields) -> Path:
        # as_report leaves out the config echo, which keeps its -inf box corners
        self.report.update(as_report(fields))
        self.report["elapsed_seconds"] = round(time.perf_counter() - self.t0, 3)
        out = self.dir / "report.json"
        with open(out, "w") as fh:
            json.dump(self.report, fh, indent=2)
        click.echo(f"report: {out}")
        return out


def _fresh_dir(root: Path, name: str) -> Path:
    """Create and return root/name, or root/name-1, root/name-2, ... when an
    identical run in the same second already took the name."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / name
    suffix = 0
    while True:
        try:
            path.mkdir()
            return path
        except FileExistsError:
            suffix += 1
            path = root / f"{name}-{suffix}"


@click.group()
@click.version_option(__version__)
def main():
    """Sampled verification of disturbed nonlinear ODE specifications."""


_COMMON_OPTIONS = (
    click.option("--config", "config_path", required=True, type=click.Path(), help="YAML run configuration"),
    click.option("--out", "out_dir", default="runs", show_default=True, help="output directory root"),
    click.option("--seed", default=None, type=int, help="override battery.seed"),
)


def command(name: str, *options):
    """Register ``body(cfg, run, **options)`` as the subcommand ``name``.

    The scaffold owns the common options, loading the config, the run and
    its report, and exit code 2 for every input error (ValueError, which
    ConfigError and the library's input errors are, NotSettlingError, or a
    RecursionError from an expression that nests too deeply); the body
    parses its block, calls the library, writes its artifacts and report
    fields, and returns its exit code."""

    def register(body):
        @functools.wraps(body)
        def run_command(config_path, out_dir, seed, **kwargs):
            try:
                cfg = load_config(config_path)
                code = body(cfg, _Run(cfg, name, out_dir, seed), **kwargs)
            except (ValueError, NotSettlingError, RecursionError) as ex:
                why = "the input nests too deeply" if isinstance(ex, RecursionError) else ex
                click.echo(f"config error: {why}", err=True)
                sys.exit(EXIT_CONFIG)
            sys.exit(code)

        for opt in reversed(_COMMON_OPTIONS + options):
            run_command = opt(run_command)
        return main.command(name)(run_command)

    return register


_VERDICT_EXIT = {"yes_sampled": EXIT_YES, "no": EXIT_NO, "inconclusive": EXIT_INCONCLUSIVE}


@command("simulate", click.option(
    "--x0", default=None, help="initial state, comma-separated (overrides the simulate block)"))
def simulate(cfg, run, x0):
    """Integrate the policy battery from one initial state; one CSV per
    trajectory plus an index JSON."""
    if x0 is not None:
        start = Block(cfg, "", {"--x0": x0.split(",")}).nums("--x0")
    else:
        start = cfg.command_block("simulate").nums("x0", [])
    if len(start) != cfg.system.dim:
        raise ConfigError("simulate.x0", f"expected {cfg.system.dim} coordinates")
    battery = cfg.make_battery(seed=run.seed)
    trajectories = ensemble(cfg.system, start, battery, cfg.horizon, cfg.dt)
    index = []
    for i, (pol, tr) in enumerate(zip(battery, trajectories)):
        name = f"trajectory_{i:03d}.csv"
        tr.to_csv(run.artifact(name))
        index.append(
            {
                "file": name,
                "policy": pol.label,
                "terminated": tr.terminated_reason,
                "final_time": tr.final_time,
                "final_state": tr.final_state.tolist(),
            }
        )
    with open(run.artifact("index.json"), "w") as fh:
        json.dump(index, fh, indent=2)
    run.finish(x0=start, n_trajectories=len(trajectories))
    return EXIT_YES


@command("reach")
def reach(cfg, run):
    """Sampled reach tube of the initial set over the configured horizon."""
    blk = cfg.command_block("reach")
    W = blk.set("initial", "W")
    t_lo = blk.num("t_lo", 0.0, within=(0.0, cfg.horizon))
    result = reach_tube(
        cfg.system, W, (t_lo, cfg.horizon), cfg.make_grid(), cfg.make_battery(seed=run.seed),
        cfg.dt,
    )
    MaskSet(result.grid, result.mask).to_csv(run.artifact("reach_mask.csv"))
    run.finish(
        semantics=result.semantics,
        horizon=[result.horizon[0], result.horizon[1]],
        n_marked=int(result.mask.sum()),
        boundary_exits=result.boundary_exits,
    )
    return EXIT_YES


@command("invariant-set")
def invariant_set(cfg, run):
    """Sampled maximal invariant subset of the target set."""
    blk = cfg.command_block("invariant_set")
    Om = blk.set("target", "Omega")
    mode = blk.get("mode", "core", choices=("core", "kernel"))
    result = maximal_invariant(
        cfg.system, Om, cfg.make_grid(), cfg.make_battery(seed=run.seed), cfg.horizon, cfg.dt,
        dwell_window=blk.span("dwell_window", None), mode=mode,
    )
    result.mask.to_csv(run.artifact("invariant_mask.csv"))
    run.finish(result=dict(
        mode=result.mode, iterations=result.iterations, empty=result.empty,
        n_cells=int(result.mask.mask.sum()), n_kernel_cells=int(result.kernel.mask.sum()),
        endpoints=result.endpoints(), notes=result.notes))
    return EXIT_INCONCLUSIVE if result.empty else EXIT_YES


@command("winning-set")
def winning_set_cmd(cfg, run):
    """Cells whose battery trajectories all converge to the stable set while
    avoiding the unsafe set."""
    blk = cfg.command_block("winning_set")
    A = blk.set("stable", "A")
    U = blk.set("unsafe", "U")
    conv_radius = blk.num("conv_radius", None, nonnegative=True)
    result = winning_set(
        cfg.system, A, U, cfg.make_grid(), cfg.make_battery(seed=run.seed), cfg.horizon, cfg.dt,
        conv_radius=conv_radius,
    )
    MaskSet(result.grid, result.mask).to_csv(run.artifact("winning_mask.csv"))
    run.finish(
        n_marked=int(result.mask.sum()),
        n_inconclusive=int(result.inconclusive.sum()),
        conv_radius=result.conv_radius,
        notes=result.notes,
    )
    return EXIT_YES if result.mask.any() else EXIT_INCONCLUSIVE


@command("verify-ras")
def verify_ras(cfg, run):
    """Check the reach-avoid-stay specification (initial, unsafe, target)."""
    blk = cfg.command_block("ras")
    W = blk.set("initial", "W")
    U = blk.set("unsafe", "U")
    Om = blk.set("target", "Omega")
    verdict = check_ras(
        cfg.system, W, U, Om, cfg.make_grid(), cfg.make_battery(seed=run.seed), cfg.horizon, cfg.dt,
    )
    run.finish(verdict=verdict)
    click.echo(f"ras: {verdict.satisfied}"
               + (f" (witness_T={verdict.witness_T:g})" if verdict.witness_T is not None else ""))
    return _VERDICT_EXIT[verdict.satisfied]


@command("verify-sws")
def verify_sws(cfg, run):
    """Check the stability-with-safety specification (initial, unsafe, stable)."""
    blk = cfg.command_block("sws")
    W = blk.set("initial", "W")
    U = blk.set("unsafe", "U")
    A = blk.set("stable", "A")
    verdict = check_sws(
        cfg.system, W, U, A, cfg.make_grid(), cfg.make_battery(seed=run.seed), cfg.horizon, cfg.dt,
        eps_schedule=blk.nums("eps_schedule", EPS_SCHEDULE),
        probe_horizon=blk.span("probe_horizon", None),
    )
    run.finish(verdict=verdict)
    click.echo(f"sws: {verdict.satisfied}")
    return _VERDICT_EXIT[verdict.satisfied]


@command("probe-uas")
def probe_uas_cmd(cfg, run):
    """Probe uniform asymptotic stability of the stable set."""
    blk = cfg.command_block("uas")
    A = blk.set("stable", "A")
    report = probe_uas(
        cfg.system, A, blk.nums("eps_schedule", EPS_SCHEDULE), cfg.make_battery(seed=run.seed),
        blk.span("horizon", cfg.horizon), cfg.dt,
        rho=blk.num("rho", None), delta_floor=blk.num("delta_floor", DELTA_FLOOR),
    )
    run.finish(probe=report)
    click.echo(f"uas probe: {report.verdict}")
    return EXIT_YES if report.verdict == "consistent_with_UAS" else EXIT_NO


@command("check-cert")
def check_cert(cfg, run):
    """Check a Lyapunov (or Lyapunov-barrier) certificate on the grid."""
    blk = cfg.command_block("certificate")
    kind = blk.get("check", "pair", choices=("pair", "single"))
    V = blk.expr("V")
    D = blk.set("domain", "D")
    grid = cfg.make_grid()
    if kind == "pair":
        A = blk.set("stable", "A")
        W = blk.set("initial", "W")
        U = blk.set("unsafe", "U")
        if "B" in blk:
            B = blk.expr("B")
        elif "barrier_from" in blk:
            K = blk.block("barrier_from").set("neighborhood", "K")
            B = barrier_from_lyapunov(V, K, W, grid)
        else:
            raise ConfigError("certificate.B", "a pair check needs B or barrier_from")
        cert = Certificate(V=V, D=D, B=B)
        report = check_lyapunov_barrier_pair(
            cert, cfg.system, A, W, U, grid,
            strict_tol=cfg.strict_tol, pd_coeff=cfg.pd_coeff,
        )
    else:
        a1, a2 = blk.block("alpha1"), blk.block("alpha2")
        alpha1 = PowerMonotone(a1.num("power", 1), a1.num("scale", 1.0))
        alpha2 = PowerMonotone(a2.num("power", 1), a2.num("scale", 1.0))
        om = blk.block("omega", {})
        A = om.set("stable", "A")
        omega = ProperIndicator(A, om.set("domain", None))
        cert = Certificate(V=V, D=D, alpha1=alpha1, alpha2=alpha2, omega=omega)
        report = check_lyapunov_certificate(cert, cfg.system, grid)
    written = as_report(report)
    with open(run.artifact("certificate_report.json"), "w") as fh:
        fh.write(json.dumps(written, indent=2))
    run.finish(certificate=written)
    click.echo("certificate: " + ("pass_sampled" if report.passed else
                                  f"fail ({', '.join(report.failed_conditions())})"))
    return EXIT_YES if report.passed else EXIT_NO


@command("construct-lyapunov")
def construct_lyapunov(cfg, run):
    """Estimate the decay envelope, fit the comparison pair, build the
    numerical Lyapunov function, and validate it."""
    blk = cfg.command_block("lyapunov")
    region = blk.set("region", "D")
    if not isinstance(region, Box):
        raise ConfigError("lyapunov.region", "the sampling region must be a box")
    A = blk.set("stable", "A")
    om_dom = blk.get("omega_domain", blk.get("region", "D"))
    omega = ProperIndicator(A, blk.set("omega_domain", om_dom))
    sample_res = blk.num("sample_resolution", 10 * cfg.grid_resolution, positive=True)
    n_validation = blk.count("n_validation", 200)
    n_bins = blk.count("n_bins", 20)
    taus = blk.spans("taus", [0.5, 1.0, 2.0])
    if not taus:
        raise ConfigError("lyapunov.taus", "expected at least one time span")
    horizon = blk.span("horizon", cfg.horizon)
    lam_cfg = blk.num("lam", None, positive=True)
    mu_cfg = blk.num("mu", None, positive=True)
    battery = cfg.make_battery(seed=run.seed)

    samples = make_grid(region, sample_res, size_cap=cfg.grid_size_cap).points
    env = estimate_kl_envelope(
        cfg.system, omega, samples, battery, horizon, cfg.dt,
        n_bins=n_bins, region=region,
    )
    pair = fit_sontag_pair(env, lam_cfg)
    mu = mu_cfg if mu_cfg is not None else 0.5 * pair.lam
    Vnum = NumericLyapunov(
        cfg.system, omega, pair.alpha1, mu, battery, horizon, cfg.dt,
        pair=pair, region=region,
    )
    rng = np.random.default_rng(run.seed)
    pick = rng.choice(samples.shape[0], size=min(n_validation, samples.shape[0]), replace=False)
    validation = validate_lyapunov(
        Vnum, pair.alpha2, samples[pick], taus=taus, tol=cfg.validation_tol,
    )

    env.to_csv(run.artifact("kl_envelope.csv"))
    vgrid_vals = Vnum.value_many(samples)
    header = ",".join([f"x{i+1}" for i in range(cfg.system.dim)] + ["V"])
    _write_csv(run.artifact("lyapunov_grid.csv"), np.column_stack([samples, vgrid_vals]), header)
    run.finish(
        envelope={
            "decay_rate": env.decay_rate,
            "settle_ratio": env.settle_ratio,
            "n_bins": int(env.s_bins.size),
            "n_trajectories": env.n_trajectories,
        },
        pair={"lam": pair.lam, "power": pair.power, "min_margin": pair.min_margin},
        mu=mu,
        provenance=Vnum.provenance,
        validation=validation,
    )
    click.echo(f"construct-lyapunov: validation {'pass' if validation.passed else 'fail'}")
    return EXIT_YES if validation.passed else EXIT_NO


if __name__ == "__main__":
    main()
