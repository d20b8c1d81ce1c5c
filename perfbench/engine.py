"""Engine microbenchmark: the cost of one ``run_sweep`` step with no
observer, on the 1-D benchmark field (delta 0.25) with its 11-policy battery
at the row counts the CLI produces on configs/benchmark.yaml -- R=22 (the two
probe-uas shell points), R=1100 (the 100 W cells of verify-ras) and R=33000
(the 3000 cells of the whole grid, as in winning-set) -- and on the 2-D
linear field with its 17-policy battery at R=1700.

A step's cost is the difference between two sweep lengths divided by the
step difference, so per-sweep set-up cancels; each point is the median of
seven such differences.  A least-squares line through the three 1-D points
gives the fixed cost per step and the cost per row-step.

It runs in a fresh process of its own, as a CLI call meets the engine.  Run
after a workload's passes in the same process, the large-array points came
out up to three times lower (R=33000: 0.9 ms against 2.0-3.3 ms fresh), so
the process's allocator state, not only the host, sets them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import ROOT_LEFT, grid_centers

DT = 1e-3
REPEATS = 7
POINTS = (  # (metric, dim, starts, short steps, long steps)
    ("dynamics.step_us.r22", 1, np.array([[ROOT_LEFT - 0.05], [0.55]]), 500, 2500),
    ("dynamics.step_us.r1100", 1, grid_centers(-1.0, -0.9, 0.001)[:, None], 300, 1300),
    ("dynamics.step_us.r33000", 1, grid_centers(-1.5, 1.5, 0.001)[:, None], 60, 260),
    ("dynamics.step_us.2d_r1700", 2, np.stack(np.meshgrid(
        *[np.linspace(-1.0, 1.0, 10)] * 2, indexing="ij"), axis=-1).reshape(-1, 2), 200, 700),
)


def _sweep_s(ss, sys, starts, battery, steps: int) -> float:
    t0 = time.perf_counter()
    ss.run_sweep(sys, starts, battery, steps * DT, DT)
    return time.perf_counter() - t0


def measure(ss, seed: int) -> dict:
    systems = {
        1: ss.PerturbedSystem(ss.parse_vector_field(["-x + x^2"], ["x"]), 0.25),
        2: ss.PerturbedSystem(ss.parse_vector_field(["-x", "-y"], ["x", "y"]), 0.2),
    }
    out = {}
    fit_r, fit_us = [], []
    for metric, dim, starts, short, long in POINTS:
        sys = systems[dim]
        battery = ss.default_policy_battery(sys, 8, seed)
        per_step = []
        for _ in range(REPEATS):
            a = _sweep_s(ss, sys, starts, battery, short)
            b = _sweep_s(ss, sys, starts, battery, long)
            per_step.append((b - a) / (long - short) * 1e6)
        out[metric] = statistics.median(per_step)
        if dim == 1:
            fit_r.append(starts.shape[0] * len(battery))
            fit_us.append(out[metric])
    slope, intercept = np.polyfit(np.asarray(fit_r, float), np.asarray(fit_us), 1)
    out["dynamics.row_step_ns"] = float(slope * 1e3)
    out["dynamics.step_fixed_us"] = float(intercept)
    return out
