"""safestab benchmark: one command per workload, or all of them.

    python3 perfbench/run.py --workload grid-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout that has src/safestab.  Each workload
runs one pass per fresh child process (perfbench/child.py, one thread), as
many passes as fit in --seconds; the child is launched a few more times with
--setup-only, before and after the passes, to sample set-up time.  Times are
rescaled to a fixed host speed with the reference kernel of
perfbench/hostref.py; the raw times and the host's slowdown in the timed
passes are printed beside them.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of one traced pass between two untraced ones.
Every metric is also printed above it as a table with its unit and sample
count.  See perfbench/spec.json for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-batch", "query-stream", "stability")
SETUP_PROBES = 3          # set-up-only launches on each side of the passes
DEADLINE_S = 170.0        # a run must end within 180 s
COMMAND_METRICS = {
    "winning-set": "winning_set_s",
    "invariant-set": "invariant_set_s",
    "verify-ras": "verify_ras_s",
    "reach": "reach_s",
    "simulate": "simulate_s",
    "check-cert": "check_cert_s",
    "probe-uas": "probe_uas_s",
    "construct-lyapunov": "construct_lyapunov_s",
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DRIVER_E2E = tuple(m["name"] for m in SPEC["end_to_end"])
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], work: Path, result: Path, deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; return its result and its launch time."""
    # MALLOC_MMAP_THRESHOLD_ pins glibc's starting threshold (128 KiB): left
    # dynamic, it rises or not depending on allocation history, and the first
    # 16,500-row sweep of a process then ran in 7 s or in 14-17 s at random
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_="131072")
    env.pop("PYTHONPATH", None)
    log = work / "child.log"
    t_launch = time.monotonic()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args, "--work", str(work),
             "--result", str(result)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("workload process exceeded the time limit") from None
    if code != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError(f"workload process exited with {code}:\n{tail}")
    return json.loads(result.read_text()), t_launch


def _quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups = []  # (seconds from launch to ready, reference probe) per process

    def launch(name: str, *extra: str) -> dict:
        run_dir = work / name
        run_dir.mkdir()
        res, t0 = _child(["--workload", workload, "--seed", str(seed), *extra], run_dir,
                         run_dir / "r.json", deadline)
        if "t_ready" in res:
            setups.append((res["t_ready"] - t0, res["setup_probe"]))
        return res

    try:
        if trace:
            # untraced passes on both sides of the traced one, so drift cancels
            passes = [launch("pass0"), launch("traced", "--trace", "1"), launch("pass1")]
            traced = passes.pop(1)
            layers = traced["layers"]
            layers["trace.overhead_s"] = traced["pass"]["scaled_wall"] - statistics.fmean(
                p["pass"]["scaled_wall"] for p in passes)
            layers.update(launch("engine", "--engine")["engine"])
            checked = passes + [traced]
        else:
            layers = {}
            for k in range(SETUP_PROBES):
                launch(f"setup{k}", "--setup-only")
            # passes run while the next one is expected to end within --seconds
            passes, measured = [], 0.0
            while not passes or measured * (1 + 1 / len(passes)) <= seconds:
                passes.append(launch(f"pass{len(passes)}"))
                measured += passes[-1]["pass"]["wall"]
            for k in range(SETUP_PROBES, 2 * SETUP_PROBES):
                launch(f"setup{k}", "--setup-only")
            checked = passes
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, passes, checked, setups, layers)


def summarize(workload: str, runs: list[dict], checked: list[dict], setups: list[tuple],
              layers: dict) -> dict:
    """Metric -> (value, unit, sample count) for every end-to-end metric that
    applies to the workload, from the untraced pass processes ``runs``; the
    oracle verdicts cover every pass process in ``checked``."""
    passes = [r["pass"] for r in runs]
    ops = runs[0]["ops"]
    lat = [x for p in passes for x in p["scaled"]]
    failures = [f for r in checked for f in r["failures"]]
    attempted = sum(r["attempted"] for r in checked)
    m = {
        "wall_s": (statistics.median(p["scaled_wall"] for p in passes), "s", len(passes)),
        "setup_s": (statistics.median(raw / _slowdown("setup", [probe]) for raw, probe in setups),
                    "s", len(setups)),
        "op_p50_s": (statistics.median(lat), "s", len(lat)),
        "op_p90_s": (_quantile(lat, 90), "s", len(lat)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB", len(runs)),
        "op_fail_ratio": (len(failures) / attempted, "ratio", attempted),
    }
    for cmd, metric in COMMAND_METRICS.items():
        idx = [i for i, op in enumerate(ops) if op["command"] == cmd]
        if idx:
            per_pass = [sum(p["scaled"][i] for i in idx) for p in passes]
            m[metric] = (statistics.median(per_pass), "s", len(per_pass))
    m["wall_raw_s"] = (statistics.median(p["wall"] for p in passes), "s", len(passes))
    m["setup_raw_s"] = (statistics.median(raw for raw, _ in setups), "s", len(setups))
    for i, part in enumerate(hostref.PARTS):
        m[f"host_slowdown_{part}"] = (statistics.median(p["parts"][i] for p in passes), "x",
                                      len(passes))
    return {"workload": workload, "e2e": m, "layers": layers, "attempted": attempted,
            "failed": len(failures), "failures": failures, "n_ops": len(ops)}


def _slowdown(phase: str, probes) -> float:
    return hostref.slowdown(hostref.MIX[phase], hostref.part_slowdowns(probes))


def print_table(s: dict, seed: int) -> None:
    print(f"== {s['workload']} (seed {seed}; closed loop, 1 client; {s['n_ops']} ops per pass)")
    print(f"   {'metric':<34}{'value':>14}  {'unit':<10}samples")
    for name, (value, unit, count) in s["e2e"].items():
        print(f"   {name:<34}{value:>14.6g}  {unit:<10}{count}")
    for name, value in sorted(s["layers"].items()):
        print(f"   {name:<34}{value:>14.6g}")
    for line in s["failures"][:20]:
        print(f"   FAILED {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "safestab" / "__init__.py").is_file():
        print(f"no safestab package under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    for s in summaries:
        print_table(s, args.seed)

    def pick(s):
        if args.trace:
            return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in s["layers"].items()}
        return {k: {"value": s["e2e"][k][0], "unit": s["e2e"][k][1]} for k in DRIVER_E2E}

    if len(summaries) == 1:
        metrics = pick(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in pick(s).items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
