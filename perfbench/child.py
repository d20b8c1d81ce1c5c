"""One workload process: set up, run one timed pass, check every op.  With
--trace 1 the pass runs under the span recorder; with --setup-only the
process stops once set up; with --engine it runs only the engine
microbenchmark.  Every pass gets a fresh process, as every CLI call does: a
process that has already run a pass serves large arrays from its heap
instead of mapping each one, and runs large-array work up to twice as fast,
which is not what a user's call meets.  Started by run.py; writes its result as JSON to --result.

The package is imported from the checkout's src/ and driven only through
the click ``main`` (each op is one CLI invocation with its own --out
directory) and, in the microbenchmark, ``run_sweep``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import hostref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_EVERY_S = 1.0  # op time between two probes of the reference kernel
PROBE_REPEATS = 3


def import_package():
    """Import safestab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import safestab
    import safestab.cli

    if Path(safestab.__file__).resolve().parent != SRC / "safestab":
        raise ImportError(f"safestab imported from {safestab.__file__}, not {SRC}")
    return safestab, safestab.cli.main


def run_cli(main, argv: list[str]) -> int:
    """One CLI invocation in this process; returns its exit code (-1 when
    it raised instead of exiting)."""
    try:
        main.main(args=argv, prog_name="safestab", standalone_mode=False)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 1
    except Exception:  # an op that raises is a failed op, never a crashed run
        traceback.print_exc()
        return -1
    return 0


def run_pass(main, ops, configs, out_root: Path, mix, rec=None) -> dict:
    """Run every op once, in order, as a closed loop with one client.

    The host-speed reference kernel runs before the first op, again whenever
    PROBE_EVERY_S of op time has passed, and after the last op; the pass's
    latencies are rescaled by the host slowdown those probes give for the
    workload's mix of work (see hostref.py).  Probe time is not op time."""
    latencies, codes = [], []
    cli_op = rec.name_id("cli.op") if rec else None
    probes = [hostref.probe(PROBE_REPEATS)]
    since_probe = 0.0
    for k, (op, cfg) in enumerate(zip(ops, configs)):
        argv = [op.command, "--config", str(cfg), "--out", str(out_root / op.name)]
        span = rec.open(cli_op) if rec else None
        t = time.perf_counter()
        codes.append(run_cli(main, argv))
        latencies.append(time.perf_counter() - t)
        if rec:
            rec.close(span)
        since_probe += latencies[-1]
        if since_probe >= PROBE_EVERY_S or k == len(ops) - 1:
            probes.append(hostref.probe(PROBE_REPEATS))
            since_probe = 0.0
    parts = hostref.part_slowdowns(probes)
    scaled = [x / hostref.slowdown(mix, parts) for x in latencies]
    return {"wall": sum(latencies), "scaled_wall": sum(scaled), "parts": parts,
            "latencies": latencies, "scaled": scaled, "codes": codes}


def check_pass(checker, ops, result, out_root: Path) -> list[str]:
    """Oracle failures of one pass, one line per failed op."""
    failures = []
    for op, code in zip(ops, result["codes"]):
        fails = checker.check(op, code, out_root / op.name)
        if fails:
            failures.append(f"{op.name}: " + "; ".join(fails))
    return failures


def artifact_bytes(out_root: Path) -> int:
    return sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())


def main_() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, help="record spans in the pass")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--engine", action="store_true",
                    help="run only the engine microbenchmark")
    args = ap.parse_args()

    ss, cli_main = import_package()
    if args.engine:
        from engine import measure

        args.result.write_text(json.dumps({"engine": measure(ss, args.seed)}))
        return 0
    from safestab.config import load_config

    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    configs = workloads.write_ops(ops, args.work / "configs")
    for path in dict.fromkeys(configs):
        load_config(str(path))
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "setup_probe": hostref.probe(PROBE_REPEATS)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    from oracles import Checker

    rec = None
    if args.trace:
        from tracing import SpanRecorder

        rec = SpanRecorder()
        rec.install()
    out = args.work / "out"
    try:
        res = run_pass(cli_main, ops, configs, out, hostref.MIX[args.workload], rec)
    finally:
        if rec:
            rec.uninstall()
    result.update({
        "ops": [{"name": op.name, "command": op.command} for op in ops],
        "pass": {k: res[k] for k in ("wall", "scaled_wall", "parts", "latencies", "scaled")},
        "failures": check_pass(Checker(ss), ops, res, out),
        "attempted": len(ops),
    })
    if rec:
        layers = rec.metrics()
        layers["cli.artifact_bytes"] = artifact_bytes(out)
        layers["trace.spans"] = len(rec.start)
        trace_path = ROOT / ".perfbench_work" / "traces" / f"{args.workload}-s{args.seed}.npz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        rec.save(trace_path)
        result["layers"] = layers
    shutil.rmtree(out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
