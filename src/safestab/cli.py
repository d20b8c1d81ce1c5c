"""Command-line interface: config ingestion, subcommand dispatch, and
report/plot-data emission.

Every run writes a directory named <command>-<config digest>-<timestamp>
(suffixed -1, -2, ... when an identical run in the same second took the name)
containing report.json (the resolved config echo plus verdicts, margins,
counterexamples, timing, and artifact paths) and the command's CSV artifacts.

Exit codes: 0 = pass / yes_sampled, 1 = no (counterexample found),
2 = configuration or usage error, 3 = inconclusive.
"""

from __future__ import annotations

import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .certify import (
    Certificate,
    CertificateError,
    barrier_from_lyapunov,
    check_lyapunov_barrier_pair,
    check_lyapunov_certificate,
)
from .config import ConfigError, RunConfig, load_config
from .converse import (
    NotSettlingError,
    NumericLyapunov,
    PowerMonotone,
    estimate_kl_envelope,
    fit_sontag_pair,
    validate_lyapunov,
)
from .dynamics import ensemble
from .expr import ParseError, parse_scalar_field
from .geometry import (
    Box,
    DistanceIndicator,
    EmptySetError,
    GridSizeError,
    ProperIndicator,
    make_grid,
)
from .reach import (
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
    """One run directory plus its accumulating report."""

    def __init__(self, cfg: RunConfig, command: str, out_dir: str, seed: int | None):
        self.cfg = cfg
        self.command = command
        self.seed = cfg.battery_seed if seed is None else seed
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        self.dir = _fresh_dir(Path(out_dir), f"{command}-{cfg.digest()}-{stamp}")
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

    def artifact(self, name: str) -> Path:
        path = self.dir / name
        self.report["artifacts"].append(str(path))
        return path

    def finish(self, **fields) -> Path:
        self.report.update(fields)
        self.report["elapsed_seconds"] = round(time.perf_counter() - self.t0, 3)
        out = self.dir / "report.json"
        with open(out, "w") as fh:
            json.dump(self.report, fh, indent=2, default=_json_default)
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


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return str(value)


def _fail_config(ex: Exception) -> None:
    click.echo(f"config error: {ex}", err=True)
    sys.exit(EXIT_CONFIG)


def _load(config_path: str) -> RunConfig:
    try:
        return load_config(config_path)
    except ConfigError as ex:
        _fail_config(ex)


_common = [
    click.option("--config", "config_path", required=True, type=click.Path(), help="YAML run configuration"),
    click.option("--out", "out_dir", default="runs", show_default=True, help="output directory root"),
    click.option("--seed", default=None, type=int, help="override battery.seed"),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Sampled verification of disturbed nonlinear ODE specifications."""


@main.command()
@common_options
@click.option("--x0", default=None, help="initial state, comma-separated (overrides the simulate block)")
def simulate(config_path, out_dir, seed, x0):
    """Integrate the policy battery from one initial state; one CSV per
    trajectory plus an index JSON."""
    cfg = _load(config_path)
    try:
        if x0 is not None:
            start = [float(v) for v in x0.split(",")]
        else:
            start = list(cfg.commands.get("simulate", {}).get("x0", []))
        if len(start) != cfg.dim:
            raise ConfigError("simulate.x0", f"expected {cfg.dim} coordinates")
        battery = cfg.make_battery(seed)
    except (ConfigError, ValueError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "simulate", out_dir, seed)
    try:
        trajectories = ensemble(
            cfg.system, start, battery, cfg.horizon, cfg.dt,
            blowup_bound=cfg.blowup_bound,
        )
    except ValueError as ex:
        _fail_config(ex)
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
    sys.exit(EXIT_YES)


@main.command()
@common_options
def reach(config_path, out_dir, seed):
    """Sampled reach tube of the initial set over the configured horizon."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("reach")
        W = cfg.get_set(blk.get("initial", "W"), "reach.initial")
        t_lo = float(blk.get("t_lo", 0.0))
        grid = cfg.make_grid()
        battery = cfg.make_battery(seed)
    except (ConfigError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "reach", out_dir, seed)
    try:
        result = reach_tube(
            cfg.system, W, (t_lo, cfg.horizon), grid, battery, cfg.dt,
            blowup_bound=cfg.blowup_bound,
        )
    except ValueError as ex:
        _fail_config(ex)
    result.mask_set().to_csv(run.artifact("reach_mask.csv"))
    run.finish(
        semantics=result.semantics,
        horizon=[result.horizon[0], result.horizon[1]],
        n_marked=int(result.mask.sum()),
        boundary_exits=result.boundary_exits,
    )
    sys.exit(EXIT_YES)


@main.command("invariant-set")
@common_options
def invariant_set(config_path, out_dir, seed):
    """Sampled maximal invariant subset of the target set."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("invariant_set")
        Om = cfg.get_set(blk.get("target", "Omega"), "invariant_set.target")
        mode = blk.get("mode", "core")
        if mode not in ("core", "kernel"):
            raise ConfigError("invariant_set.mode", f"expected core or kernel, got {mode!r}")
        dwell_window = blk.get("dwell_window")
        grid = cfg.make_grid()
        battery = cfg.make_battery(seed)
    except (ConfigError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "invariant-set", out_dir, seed)
    try:
        result = maximal_invariant(
            cfg.system, Om, grid, battery, cfg.horizon, cfg.dt,
            dwell_window=dwell_window, mode=mode, blowup_bound=cfg.blowup_bound,
        )
    except ValueError as ex:
        _fail_config(ex)
    result.mask.to_csv(run.artifact("invariant_mask.csv"))
    run.finish(result=result.to_dict())
    sys.exit(EXIT_INCONCLUSIVE if result.empty else EXIT_YES)


@main.command("winning-set")
@common_options
def winning_set_cmd(config_path, out_dir, seed):
    """Cells whose battery trajectories all converge to the stable set while
    avoiding the unsafe set."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("winning_set")
        A = cfg.get_set(blk.get("stable", "A"), "winning_set.stable")
        U = cfg.get_set(blk.get("unsafe", "U"), "winning_set.unsafe")
        conv = blk.get("conv_radius")
        grid = cfg.make_grid()
        battery = cfg.make_battery(seed)
    except (ConfigError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "winning-set", out_dir, seed)
    try:
        result = winning_set(
            cfg.system, A, U, grid, battery, cfg.horizon, cfg.dt,
            conv_radius=conv, blowup_bound=cfg.blowup_bound,
        )
    except ValueError as ex:
        _fail_config(ex)
    result.mask_set().to_csv(run.artifact("winning_mask.csv"))
    run.finish(
        n_marked=int(result.mask.sum()),
        n_inconclusive=result.n_inconclusive(),
        conv_radius=result.conv_radius,
        notes=result.notes,
    )
    sys.exit(EXIT_YES if result.mask.any() else EXIT_INCONCLUSIVE)


_VERDICT_EXIT = {"yes_sampled": EXIT_YES, "no": EXIT_NO, "inconclusive": EXIT_INCONCLUSIVE}


@main.command("verify-ras")
@common_options
def verify_ras(config_path, out_dir, seed):
    """Check the reach-avoid-stay specification (initial, unsafe, target)."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("ras")
        W = cfg.get_set(blk.get("initial", "W"), "ras.initial")
        U = cfg.get_set(blk.get("unsafe", "U"), "ras.unsafe")
        Om = cfg.get_set(blk.get("target", "Omega"), "ras.target")
        grid = cfg.make_grid()
        battery = cfg.make_battery(seed)
    except (ConfigError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "verify-ras", out_dir, seed)
    try:
        verdict = check_ras(
            cfg.system, W, U, Om, grid, battery, cfg.horizon, cfg.dt,
            blowup_bound=cfg.blowup_bound,
        )
    except ValueError as ex:
        _fail_config(ex)
    run.finish(verdict=verdict.to_dict())
    click.echo(f"ras: {verdict.satisfied}"
               + (f" (witness_T={verdict.witness_T:g})" if verdict.witness_T is not None else ""))
    sys.exit(_VERDICT_EXIT[verdict.satisfied])


@main.command("verify-sws")
@common_options
def verify_sws(config_path, out_dir, seed):
    """Check the stability-with-safety specification (initial, unsafe, stable)."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("sws")
        W = cfg.get_set(blk.get("initial", "W"), "sws.initial")
        U = cfg.get_set(blk.get("unsafe", "U"), "sws.unsafe")
        A = cfg.get_set(blk.get("stable", "A"), "sws.stable")
        eps = blk.get("eps_schedule", [0.1, 0.25, 0.5])
        probe_h = blk.get("probe_horizon")
        grid = cfg.make_grid()
        battery = cfg.make_battery(seed)
    except (ConfigError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "verify-sws", out_dir, seed)
    try:
        verdict = check_sws(
            cfg.system, W, U, A, grid, battery, cfg.horizon, cfg.dt,
            eps_schedule=eps, probe_horizon=probe_h, blowup_bound=cfg.blowup_bound,
        )
    except (ValueError, TypeError) as ex:
        _fail_config(ex)
    run.finish(verdict=verdict.to_dict())
    click.echo(f"sws: {verdict.satisfied}")
    sys.exit(_VERDICT_EXIT[verdict.satisfied])


@main.command("probe-uas")
@common_options
def probe_uas_cmd(config_path, out_dir, seed):
    """Probe uniform asymptotic stability of the stable set."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("uas")
        A = cfg.get_set(blk.get("stable", "A"), "uas.stable")
        eps = blk.get("eps_schedule", [0.1, 0.25, 0.5])
        horizon = float(blk.get("horizon", cfg.horizon))
        rho = blk.get("rho")
        floor = float(blk.get("delta_floor", 1e-3))
        battery = cfg.make_battery(seed)
    except (ConfigError, ValueError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "probe-uas", out_dir, seed)
    try:
        report = probe_uas(
            cfg.system, A, eps, battery, horizon, cfg.dt,
            rho=rho, delta_floor=floor, blowup_bound=cfg.blowup_bound,
        )
    except (ValueError, TypeError) as ex:
        _fail_config(ex)
    run.finish(probe=report.to_dict())
    click.echo(f"uas probe: {report.verdict}")
    sys.exit(EXIT_YES if report.verdict == "consistent_with_UAS" else EXIT_NO)


@main.command("check-cert")
@common_options
def check_cert(config_path, out_dir, seed):
    """Check a Lyapunov (or Lyapunov-barrier) certificate on the grid."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("certificate")
        kind = blk.get("check", "pair")
        V = parse_scalar_field(str(blk["V"]), cfg.var_names) if "V" in blk else None
        if V is None:
            raise ConfigError("certificate.V", "missing required field")
        D = cfg.get_set(blk.get("domain", "D"), "certificate.domain")
        grid = cfg.make_grid()
    except (ConfigError, ParseError, GridSizeError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "check-cert", out_dir, seed)
    try:
        if kind == "pair":
            A = cfg.get_set(blk.get("stable", "A"), "certificate.stable")
            W = cfg.get_set(blk.get("initial", "W"), "certificate.initial")
            U = cfg.get_set(blk.get("unsafe", "U"), "certificate.unsafe")
            if "B" in blk:
                B = parse_scalar_field(str(blk["B"]), cfg.var_names)
            elif "barrier_from" in blk:
                K = cfg.get_set(blk["barrier_from"].get("neighborhood", "K"),
                                "certificate.barrier_from.neighborhood")
                B = barrier_from_lyapunov(V, K, W, grid)
            else:
                raise ConfigError("certificate.B", "a pair check needs B or barrier_from")
            cert = Certificate(V=V, D=D, B=B)
            report = check_lyapunov_barrier_pair(
                cert, cfg.system, A, W, U, grid,
                strict_tol=cfg.strict_tol, pd_coeff=cfg.pd_coeff,
            )
        elif kind == "single":
            a1 = blk.get("alpha1")
            a2 = blk.get("alpha2")
            om = blk.get("omega") or {}
            if not (isinstance(a1, dict) and isinstance(a2, dict)):
                raise ConfigError("certificate.alpha1", "single check needs alpha1/alpha2 power specs")
            alpha1 = PowerMonotone(float(a1.get("power", 1)), float(a1.get("scale", 1.0)))
            alpha2 = PowerMonotone(float(a2.get("power", 1)), float(a2.get("scale", 1.0)))
            A = cfg.get_set(om.get("stable", "A"), "certificate.omega.stable")
            if om.get("domain") is None:
                omega = DistanceIndicator(A)
            else:
                omega = ProperIndicator(A, cfg.get_set(om["domain"], "certificate.omega.domain"))
            cert = Certificate(V=V, D=D, alpha1=alpha1, alpha2=alpha2, omega=omega)
            report = check_lyapunov_certificate(cert, cfg.system, grid)
        else:
            raise ConfigError("certificate.check", f"expected pair or single, got {kind!r}")
    except (ConfigError, ParseError, CertificateError, EmptySetError, ValueError) as ex:
        _fail_config(ex)
    with open(run.artifact("certificate_report.json"), "w") as fh:
        fh.write(report.to_json(indent=2))
    run.finish(certificate=report.to_dict())
    click.echo("certificate: " + ("pass_sampled" if report.passed else
                                  f"fail ({', '.join(report.failed_conditions())})"))
    sys.exit(EXIT_YES if report.passed else EXIT_NO)


@main.command("construct-lyapunov")
@common_options
def construct_lyapunov(config_path, out_dir, seed):
    """Estimate the decay envelope, fit the comparison pair, build the
    numerical Lyapunov function, and validate it."""
    cfg = _load(config_path)
    try:
        blk = cfg.command_block("lyapunov")
        region = cfg.get_set(blk.get("region", "D"), "lyapunov.region")
        if not isinstance(region, Box):
            raise ConfigError("lyapunov.region", "the sampling region must be a box")
        A = cfg.get_set(blk.get("stable", "A"), "lyapunov.stable")
        om_dom = blk.get("omega_domain", blk.get("region", "D"))
        omega = (
            DistanceIndicator(A)
            if om_dom is None
            else ProperIndicator(A, cfg.get_set(om_dom, "lyapunov.omega_domain"))
        )
        sample_res = float(blk.get("sample_resolution", 10 * cfg.grid_resolution))
        n_validation = int(blk.get("n_validation", 200))
        n_bins = int(blk.get("n_bins", 20))
        taus = [float(t) for t in blk.get("taus", [0.5, 1.0, 2.0])]
        horizon = float(blk.get("horizon", cfg.horizon))
        lam_cfg = blk.get("lam")
        mu_cfg = blk.get("mu")
        battery = cfg.make_battery(seed)
    except (ConfigError, ValueError) as ex:
        _fail_config(ex)
    run = _Run(cfg, "construct-lyapunov", out_dir, seed)
    try:
        sgrid = make_grid(region, sample_res, size_cap=cfg.grid_size_cap)
        samples = sgrid.points
        env = estimate_kl_envelope(
            cfg.system, omega, samples, battery, horizon, cfg.dt,
            n_bins=n_bins, blowup_bound=cfg.blowup_bound, region=region,
        )
        pair = fit_sontag_pair(env, lam_cfg)
        mu = float(mu_cfg) if mu_cfg is not None else 0.5 * pair.lam
        Vnum = NumericLyapunov(
            cfg.system, omega, pair.alpha1, mu, battery, horizon, cfg.dt,
            pair=pair, region=region, blowup_bound=cfg.blowup_bound,
        )
        rng = np.random.default_rng(run.seed)
        pick = rng.choice(samples.shape[0], size=min(n_validation, samples.shape[0]), replace=False)
        validation = validate_lyapunov(
            Vnum, pair.alpha2, samples[pick], taus=taus, tol=cfg.validation_tol,
        )
    except (NotSettlingError, GridSizeError, EmptySetError) as ex:
        _fail_config(ex)
    except ValueError as ex:
        _fail_config(ex)

    env.to_csv(run.artifact("kl_envelope.csv"))
    vgrid_vals = Vnum.value_many(samples)
    header = ",".join([f"x{i+1}" for i in range(cfg.dim)] + ["V"])
    np.savetxt(run.artifact("lyapunov_grid.csv"),
               np.column_stack([samples, vgrid_vals]), delimiter=",",
               header=header, comments="")
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
        validation=validation.to_dict(),
    )
    click.echo(f"construct-lyapunov: validation {'pass' if validation.passed else 'fail'}")
    sys.exit(EXIT_YES if validation.passed else EXIT_NO)


if __name__ == "__main__":
    main()
