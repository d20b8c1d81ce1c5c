"""Host-speed reference for the timed metrics.

The CPU speed of a shared host drifts by tens of percent over minutes, far
more than the bounds the benchmark gates on, and not by the same factor for
every kind of work.  Every timed phase is therefore bracketed by runs of a
fixed reference kernel that does not touch safestab, so a change to the
program cannot move it.  The kernel has four parts, one per kind of work the
workloads do:

* ``big``: numpy RK4 steps on a 16,500-row array, allocating nothing (the
  arithmetic of the grid-batch sweeps);
* ``small``: the same on 22 rows (fixed per-step dispatch, as in probe-uas
  and the small queries);
* ``python``: a pure-Python loop over dicts and strings (CLI and config
  handling, imports);
* ``fault``: mapping fresh memory and touching each page, as numpy does for
  every array of 128 KiB or more under the benchmark's allocator setting
  (about half of grid-batch's winning-set time).

Each part's time over its nominal time is the host's slowdown for that kind
of work.  A pass of a workload probes the kernel at its start, about once a
second during it and at its end; the pass reports ``t / slowdown``, where
``slowdown`` weighs each part's median slowdown over those probes by the
workload's mix of work (``MIX``).  A set-up sample is rescaled the same way
by one probe taken right after set-up in the same process.  The raw times
are printed beside the rescaled ones.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

PARTS = ("big", "small", "python", "fault")
NOMINAL_S = (0.010, 0.008, 0.012, 0.010)  # per part, about its time on a quiet host
MIX = {  # weights of the parts: the kind of work that dominates
    "grid-batch": (0.5, 0.0, 0.0, 0.5),        # sweeps of up to 16,500 rows, heap regrowth
    "query-stream": (0.0, 0.5, 0.5, 0.0),      # small sweeps, CLI and config handling
    "stability": (0.0, 0.5, 0.5, 0.0),         # 22-row sweeps with Python observers
    "setup": (0.25, 0.25, 0.25, 0.25),         # imports, numpy set-up, YAML writing and parsing
}
_PAGE = mmap.PAGESIZE


class _RK4:
    """RK4 steps of x' = -x + x^2 + 0.1 on a fixed column of starts.  Every
    array is allocated once, so a probe allocates nothing and does not
    depend on the state of the process's heap."""

    def __init__(self, rows: int):
        self.x0 = np.linspace(-1.0, 0.4, rows)[:, None]
        self.x, self.xt, self.tmp, self.acc = (np.empty_like(self.x0) for _ in range(4))
        self.k = np.empty_like(self.x0)
        self.ok = np.empty(rows, dtype=bool)

    def _f(self, x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(x, x, out=out)
        out -= x
        out += 0.1

    def __call__(self, steps: int) -> None:
        dt = 1e-3
        x, xt, tmp, acc, k = self.x, self.xt, self.tmp, self.acc, self.k
        np.copyto(x, self.x0)
        for _ in range(steps):
            self._f(x, k)
            np.copyto(acc, k)
            for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
                np.multiply(k, c * dt, out=tmp)
                tmp += x
                self._f(tmp, k)
                np.multiply(k, w, out=tmp)
                acc += tmp
            np.multiply(acc, dt / 6.0, out=xt)
            xt += x
            np.isfinite(xt[:, 0], out=self.ok)
            np.copyto(x, xt, where=self.ok[:, None])


_BIG = _RK4(16_500)
_SMALL = _RK4(22)


def _python(n: int) -> int:
    acc = 0
    table: dict[str, int] = {}
    for i in range(n):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
        acc += len(key)
    return acc + len(table)


def _fault(megabytes: int) -> None:
    # small mappings, so the probe adds little to the process's peak RSS
    chunk = 64 * _PAGE
    for _ in range((megabytes << 20) // chunk):
        with mmap.mmap(-1, chunk) as m:
            pages = np.frombuffer(m, dtype=np.uint8)
            pages[::_PAGE] = 1
            del pages


_RUNS = (
    lambda: _BIG(40),
    lambda: _SMALL(250),
    lambda: _python(32_000),
    lambda: _fault(10),
)


def probe(repeats: int = 1) -> tuple[float, ...]:
    """Seconds per run of each part (each the median of ``repeats`` runs)."""
    times = [[] for _ in _RUNS]
    for _ in range(repeats):
        for run, out in zip(_RUNS, times):
            t = time.perf_counter()
            run()
            out.append(time.perf_counter() - t)
    return tuple(statistics.median(t) for t in times)


def part_slowdowns(probes) -> tuple[float, ...]:
    """Each part's median time over the probes, over its nominal time."""
    return tuple(statistics.median(p[i] for p in probes) / nominal
                 for i, nominal in enumerate(NOMINAL_S))


def slowdown(mix, parts) -> float:
    """The host's slowdown for work with the given per-part weights (summing
    to 1), from the parts' slowdowns."""
    return sum(w * s for w, s in zip(mix, parts))
