"""Span recorder and per-layer metrics for the traced run.

Only the traced run calls ``install``; it wraps the package's public entry
points from outside (module attributes and class methods), so timed runs
import the package untouched.  Each span records name, start, end, parent
and a row count, is kept in memory in flat arrays and is written out at the
end with ``save``.

Self time is a span's duration minus its direct children's durations; the
process is single-threaded, so the children of one span never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

SWEEP = "dynamics.run_sweep"
POLICY = "dynamics.policy"
OBSERVER = "dynamics.observer"
STATUS_ABORTED = 4


def _rows(X) -> int:
    shape = np.shape(X)
    return int(shape[0]) if len(shape) == 2 else 1


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.stack: list[int] = []
        self.sweeps: list[tuple] = []       # (span, rows, starts, steps, nominal, active, aborted)
        self.invariant_iterations = 0
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, n: int = 0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.n.append(n)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, rows=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid, rows(args) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, modules, attr: str, name: str, rows=None, post=None) -> None:
        original = getattr(modules[0], attr)
        wrapped = self.wrap(name, original, rows)
        if post is not None:
            inner = wrapped

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                post(result)
                return result

        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, rows=None) -> None:
        if attr in cls.__dict__:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], rows))

    def install(self) -> None:
        """Wrap the public functions of every layer of the ``safestab``
        package; ``uninstall`` restores them."""
        from safestab import certify, cli, config, converse, dynamics, expr, geometry, reach

        self._patch_sweep([dynamics, reach, converse])
        for cls in (dynamics.ZeroPolicy, dynamics.ConstantPolicy,
                    dynamics.PiecewiseRandomPolicy, dynamics.ExtremalFeedbackPolicy):
            self._patch_method(cls, "values", POLICY, lambda a: _rows(a[2]))
        for cls in (geometry.Box, geometry.BoxComplement, geometry.Sublevel,
                    geometry.Union, geometry.MaskSet):
            self._patch_method(cls, "contains_many", "geometry.contains", lambda a: _rows(a[1]))
            self._patch_method(cls, "dist_many", "geometry.dist", lambda a: _rows(a[1]))
        self._patch_method(geometry.Grid, "cell_index_many", "geometry.cell_index",
                           lambda a: _rows(a[1]))
        self._patch_method(geometry.Grid, "select", "geometry.select")
        self._patch_method(geometry.ProperIndicator, "value_many", "geometry.indicator",
                           lambda a: _rows(a[1]))

        for fn in ("parse_scalar_field", "parse_vector_field"):
            self._patch_function([expr, config, cli], fn, "expr.parse")
        self._patch_method(expr.ScalarField, "grad", "expr.grad")
        self._patch_method(expr.ScalarField, "eval_many", "expr.eval", lambda a: _rows(a[1]))
        self._patch_method(expr.VectorField, "eval_many", "expr.eval", lambda a: _rows(a[1]))

        for fn in ("reach_tube", "check_invariance", "winning_set", "check_ras", "check_sws",
                   "probe_uas"):
            self._patch_function([reach, cli], fn, "reach." + fn)
        self._patch_function([reach, cli], "maximal_invariant", "reach.maximal_invariant",
                             post=self._count_iterations)

        self._patch_function([certify, cli], "check_lyapunov_certificate", "certify.check",
                             lambda a: a[2].size)
        self._patch_function([certify, cli], "check_lyapunov_barrier_pair", "certify.check",
                             lambda a: a[5].size)
        self._patch_function([certify, cli], "barrier_from_lyapunov", "certify.barrier")

        self._patch_function([converse, cli], "estimate_kl_envelope", "converse.envelope")
        self._patch_function([converse, cli], "fit_sontag_pair", "converse.fit")
        self._patch_function([converse, cli], "validate_lyapunov", "converse.validate")
        self._patch_method(converse.NumericLyapunov, "value_many", "converse.V",
                           lambda a: _rows(a[1]))

        self._patch_function([config, cli], "load_config", "config.load")

    def _count_iterations(self, result) -> None:
        self.invariant_iterations += result.iterations

    def _patch_sweep(self, modules) -> None:
        original = modules[0].run_sweep
        nid = self.name_id(SWEEP)

        @functools.wraps(original)
        def traced_sweep(sys, starts, policies, horizon, dt, *, observer=None, **kwargs):
            if observer is not None:
                observer = self.wrap(OBSERVER, observer)
            i = self.open(nid)
            try:
                res = original(sys, starts, policies, horizon, dt, observer=observer, **kwargs)
            finally:
                self.close(i)
            self._sweep_stats(i, res, horizon, dt)
            return res

        for mod in modules:
            self._patch(mod, "run_sweep", traced_sweep)

    def _sweep_stats(self, i, res, horizon, dt) -> None:
        nominal = max(1, int(round(horizon / dt)))
        aborted = res.status == STATUS_ABORTED
        steps = int(round(res.end_times[aborted].max() / dt)) if aborted.any() else nominal
        ran = np.minimum(np.rint(res.end_times / dt), steps)
        rows = int(res.status.size)
        self.sweeps.append((i, rows, rows // (int(res.policy_index.max()) + 1), steps,
                            nominal, float(ran.sum()), bool(aborted.any())))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "n": np.frombuffer(self.n, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict:
        return layer_metrics(self.names, self.arrays(), self.sweeps, self.invariant_iterations)


def layer_metrics(names, a, sweeps, invariant_iterations) -> dict:
    """Per-layer metrics from the span arrays (see perfbench/spec.json)."""
    name, parent, n = a["name"], a["parent"], a["n"]
    dur = a["end"] - a["start"]
    ids = {s: k for k, s in enumerate(names)}
    pname = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def is_(*wanted):
        return np.isin(name, [ids[w] for w in wanted if w in ids])

    def parent_is(*wanted):
        return np.isin(pname, [ids[w] for w in wanted if w in ids])

    def prefixed(p):
        return [s for s in names if s.startswith(p)]

    def children_sum(mask):
        """Per-span sum of the durations of its direct children in ``mask``."""
        keep = mask & (parent >= 0)
        return np.bincount(parent[keep], weights=dur[keep], minlength=name.size)

    every = np.ones(name.size, dtype=bool)
    child_all = children_sum(every)
    m = {}

    sweep = is_(SWEEP)
    hooks = is_(POLICY, OBSERVER) & parent_is(SWEEP)
    st = np.array([s[1:] for s in sweeps], dtype=float).reshape(-1, 6)
    rows, starts, steps, nominal, active, aborted = st.T
    row_steps = float((rows * steps).sum())
    m["dynamics.sweeps"] = len(sweeps)
    m["dynamics.rows"] = int(rows.sum())
    m["dynamics.steps"] = int(steps.sum())
    m["dynamics.row_steps"] = int(row_steps)
    m["dynamics.aborted_sweeps"] = int(aborted.sum())
    m["dynamics.active_row_fraction"] = float(active.sum() / row_steps) if row_steps else 0.0
    m["dynamics.busy_s"] = float(dur[sweep].sum())
    m["dynamics.self_s"] = float(dur[sweep].sum() - dur[hooks].sum())
    for key, nm in (("policy", POLICY), ("observer", OBSERVER)):
        m[f"dynamics.{key}_s"] = float(dur[is_(nm)].sum())
        m[f"dynamics.{key}_calls"] = int(is_(nm).sum())

    geo_outer = is_(*prefixed("geometry.")) & ~parent_is(*prefixed("geometry."))
    per_row = 0
    calls = 0
    for key in ("contains", "dist", "cell_index"):
        mask = geo_outer & is_(f"geometry.{key}")
        m[f"geometry.{key}_s"] = float(dur[mask].sum())
        m[f"geometry.{key}_calls"] = int(mask.sum())
        per_row += int(n[mask].sum())
        calls += int(mask.sum())
    m["geometry.indicator_s"] = float(dur[geo_outer & is_("geometry.indicator")].sum())
    m["geometry.select_s"] = float(dur[geo_outer & is_("geometry.select")].sum())
    m["geometry.rows_per_call"] = per_row / calls if calls else 0.0

    expr_outer = is_(*prefixed("expr.")) & ~parent_is(*prefixed("expr."))
    ev = expr_outer & is_("expr.eval")
    m["expr.compile_s"] = float(dur[expr_outer & is_("expr.parse", "expr.grad")].sum())
    m["expr.eval_s"] = float(dur[ev].sum())
    m["expr.eval_calls"] = int(ev.sum())
    m["expr.eval_points"] = int(n[ev].sum())

    reach_all = is_(*prefixed("reach."))
    nested = children_sum(sweep | reach_all)
    m["reach.self_s"] = float((dur - nested)[reach_all].sum())
    probes = is_("reach.probe_uas")
    m["reach.probe_sweeps"] = float((sweep & parent_is("reach.probe_uas")).sum() / probes.sum()) \
        if probes.any() else 0.0
    m["reach.invariant_iterations"] = int(invariant_iterations)

    cert_outer = is_(*prefixed("certify.")) & ~parent_is(*prefixed("certify."))
    checks = is_("certify.check")
    m["certify.busy_s"] = float(dur[cert_outer].sum())
    m["certify.points"] = int(n[checks].sum())
    m["certify.points_per_s"] = float(n[checks].sum() / dur[checks].sum()) if checks.any() else 0.0

    for key in ("envelope", "fit", "validate"):
        m[f"converse.{key}_s"] = float(dur[is_(f"converse.{key}")].sum())
    v_outer = is_("converse.V") & ~parent_is("converse.V")
    m["converse.V_s"] = float(dur[v_outer].sum())
    requested = int(n[v_outer].sum())
    by_span = {s[0]: s for s in sweeps}
    v_sweeps = [by_span[int(i)] for i in np.nonzero(sweep & parent_is("converse.V"))[0]]
    swept = sum(s[2] for s in v_sweeps)
    m["converse.V_cache_hit_ratio"] = (requested - swept) / requested if requested else 0.0
    nominal_v = sum(s[4] for s in v_sweeps)
    m["converse.V_truncation_ratio"] = sum(s[3] for s in v_sweeps) / nominal_v if nominal_v else 0.0

    load = is_("config.load") & ~parent_is("config.load")
    m["config.load_s"] = float(dur[load].sum())
    m["config.load_calls"] = int(load.sum())
    ops = is_("cli.op")
    m["cli.self_s"] = float((dur - child_all)[ops].sum())
    return m
