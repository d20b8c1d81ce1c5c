"""Output oracles: judge each op's exit code, report and artifacts against
closed-form facts that do not come from the code under test.

* 1-D benchmark field: the roots of x^2 - x + d bound every trajectory and
  give exact crossing times for constant disturbances (``Riccati1D``).
* 2-D linear field: |x_i(t)| <= max(|x_i(0)|, delta) per axis, and exact
  crossing times for constant disturbances.
* Certificates: worst-case Lie derivatives in closed form on the grid.
* Fixed workloads: the criterion 1/2/3/7 values.

"No" counterexamples are also replayed with ``safestab.integrate`` (the only
use of the package here), outside the timed phase.  ``check`` returns a list
of failure strings; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import DWELL, N_RANDOM, ROOT_LEFT, Riccati1D, grid_centers, linear_crossing_time

EXIT = {"yes_sampled": 0, "no": 1, "inconclusive": 3}
REPLAYS_PER_OP = 4


def load_report(out_dir: Path) -> tuple[dict, Path]:
    """The single report.json under an op's own --out directory."""
    found = list(out_dir.glob("*/report.json"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one report under {out_dir}, found {len(found)}")
    return json.loads(found[0].read_text()), found[0].parent


def _marked(run_dir: Path, name: str) -> np.ndarray:
    data = np.loadtxt(run_dir / name, delimiter=",", skiprows=1, ndmin=2)
    return data[data[:, -1] > 0.5, :-1]


class Checker:
    """Holds the package handles the replays need."""

    def __init__(self, safestab):
        self.ss = safestab

    def check(self, op, code, out_dir: Path) -> list[str]:
        want = _expected_exit(op)
        fails = [] if code == want else [f"exit code {code}, expected {want}"]
        try:
            report, run_dir = load_report(out_dir)
        except (FileNotFoundError, ValueError) as ex:
            return fails + [str(ex)]
        try:
            fails += getattr(self, "_" + op.kind)(op.expect, report, run_dir)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as ex:
            fails.append(f"oracle could not read the output: {type(ex).__name__}: {ex}")
        return fails

    # -- grid-batch ---------------------------------------------------------

    def _gb_winning(self, e, report, run_dir):
        lo, hi, h = e["grid"]
        pts = grid_centers(lo, hi, h)
        win = np.isin(np.round(pts, 9), np.round(_marked(run_dir, "winning_mask.csv")[:, 0], 9))
        fails = []
        if int(win.sum()) != report["n_marked"]:
            fails.append("n_marked disagrees with winning_mask.csv")
        # below the +delta double root 0.5 every trajectory settles in A; from
        # 0.5 + e the +0.25 solution reaches U (0.6) at 1/e - 10 <= horizon
        must_win = pts < 0.5 - 2 * h
        must_lose = pts > 0.5 + 1.2 / (e["horizon"] + 10.0)
        if not win[must_win].all():
            fails.append(f"cell {pts[must_win & ~win][0]:.4f} below 0.5 not winning")
        if win[must_lose].any():
            fails.append(f"cell {pts[must_lose & win][0]:.4f} above the separatrix winning")
        return fails

    def _gb_invariant(self, e, report, run_dir):
        (lo, hi), = report["result"]["endpoints"]
        h = e["grid"][2]
        fails = []
        if abs(lo - ROOT_LEFT) > 2 * h or abs(hi - 0.5) > 2 * h:  # criterion 2
            fails.append(f"invariant set [{lo}, {hi}] not within 2 cells of [{ROOT_LEFT}, 0.5]")
        return fails

    def _gb_ras(self, e, report, run_dir):
        v = report["verdict"]
        fails = _verdict(v, "yes_sampled")
        # every trajectory from W stays below the double root 0.5 (criterion 1)
        if (v["details"]["min_dist_to_unsafe"] or 0.0) < e["U_lo"] - 0.5 - 1e-6:
            fails.append(f"min_dist_to_unsafe {v['details']['min_dist_to_unsafe']} < 0.1")
        if v["witness_T"] is None or not 0.0 <= v["witness_T"] <= 0.75 * e["horizon"] + e["dt"]:
            fails.append(f"witness_T {v['witness_T']} outside [0, settle deadline]")
        return fails

    def _gb_reach(self, e, report, run_dir):
        lo, hi, h = e["grid"]
        c = grid_centers(lo, hi, h)
        w = c[(c >= e["W"][0]) & (c <= e["W"][1])]
        return _hull_check(_marked(run_dir, "reach_mask.csv")[:, 0], report, e["delta"],
                           w.min(), w.max(), e["horizon"], h)

    # -- stability ----------------------------------------------------------

    def _st_probe_ok(self, e, report, run_dir):
        p = report["probe"]
        fails = [] if p["verdict"] == "consistent_with_UAS" else [f"verdict {p['verdict']}"]
        table = p["eps_table"]
        ds = [d for _, d in table]
        if ds != sorted(ds):
            fails.append("eps_table not monotone")
        # distance from A's top end 0.5 to the +delta separatrix bounds delta_eps
        sep = Riccati1D(e["delta"]).hi - 0.5
        for eps, d in table:
            want = min(eps, sep)
            if not want - 2 * eps / 2**10 - 1e-9 <= d <= want + 1e-9:
                fails.append(f"delta_eps({eps}) = {d}, expected {want:.5f} (bisection resolution)")
        return fails

    def _st_probe_bad(self, e, report, run_dir):
        p = report["probe"]
        fails = [] if p["verdict"] == "violated" else [f"verdict {p['verdict']}"]
        up = Riccati1D(0.25)
        eps = e["eps"][0]
        witness = None
        for ce in p["counterexamples"]:
            if ce["policy"] != "const[+0.25]":
                continue
            x0 = ce["x0"][0]
            if ce["kind"] == "left_eps_shell":
                t_true = up.crossing_time(x0, 0.5 + eps, e["horizon"])
                if not t_true - 1e-6 <= ce["time"] <= t_true + 0.01 + e["dt"] + 1e-6:
                    fails.append(f"escape from {x0} at {ce['time']}, closed form {t_true:.4f}")
                if 0.5 < x0 <= 0.51 and witness is None:
                    witness = ce
            elif ce["kind"] == "still_growing_at_horizon":
                d_true = float(up.x(x0, e["horizon"])) - 0.5
                if abs(ce["value"] - d_true) > 1e-6 * (1.0 + d_true):
                    fails.append(f"final distance from {x0} is {ce['value']}, closed form {d_true}")
        if witness is None:  # criterion 3
            return fails + ["no left_eps_shell witness in (0.5, 0.51] under const[+0.25]"]
        ss = self.ss
        sys = ss.PerturbedSystem(ss.parse_vector_field(["-x + x^2"], ["x"]), 0.25)
        tr = ss.integrate(sys, witness["x0"], ss.ConstantPolicy([0.25]),
                          witness["time"] + 2 * e["dt"], e["dt"])
        if tr.states.max() < 0.5 + eps:
            fails.append("replayed criterion-3 witness does not leave the eps shell")
        return fails

    def _st_lyapunov(self, e, report, run_dir):
        fails = []
        val = report["validation"]
        if not val["passed"]:  # criterion 7
            fails.append(f"validation failed: {val['failures'][:2]}")
        if report["envelope"]["settle_ratio"] > 0.05:
            fails.append(f"settle ratio {report['envelope']['settle_ratio']} > 0.05")
        n_samples = grid_centers(*e["D"], e["sample_resolution"]).size
        if report["envelope"]["n_trajectories"] != n_samples * (3 + N_RANDOM):
            fails.append("envelope trajectory count is not samples x battery")
        if not 0 < report["mu"] < report["pair"]["lam"]:
            fails.append("mu not in (0, lambda)")
        return fails

    # -- query-stream -------------------------------------------------------

    def _ras1d(self, e, report, run_dir):
        v = report["verdict"]
        fails = _verdict(v, e["verdict"])
        d, u = e["delta"], e["U_lo"]
        if e["verdict"] == "yes_sampled":
            # every trajectory stays below max(W, r1) and W lies below r1
            bound = u - max(Riccati1D(d).lo, e["W_top"])
            if v["details"]["min_dist_to_unsafe"] < bound - 1e-9:
                fails.append(f"min_dist_to_unsafe {v['details']['min_dist_to_unsafe']} < {bound}")
            return fails
        t_first = Riccati1D(d).crossing_time(e["W_top"], u, e["horizon"])

        def closed_form(x0, dvec):
            return Riccati1D(dvec[0]).crossing_time(x0[0], u, e["horizon"])

        return fails + self._no_counterexamples(report, e, t_first, closed_form,
                                                lambda X: X[:, 0] >= u)

    def _ras2d(self, e, report, run_dir):
        v = report["verdict"]
        fails = _verdict(v, e["verdict"])
        if e["verdict"] == "yes_sampled":
            bound = e["U_box"] - e["W_reach"]  # per-axis bound max(|x_i(0)|, delta)
            if v["details"]["min_dist_to_unsafe"] < bound - 1e-9:
                fails.append(f"min_dist_to_unsafe {v['details']['min_dist_to_unsafe']} < {bound}")
            return fails
        u, d = e["U_x_lo"], e["delta"]
        t_first = linear_crossing_time(e["W_top"], d, u)

        def closed_form(x0, dvec):
            return linear_crossing_time(x0[0], dvec[0], u)

        return fails + self._no_counterexamples(report, e, t_first, closed_form,
                                                lambda X: X[:, 0] >= u)

    def _no_counterexamples(self, report, e, t_first, closed_form, in_unsafe):
        """Constant-policy counterexamples against their closed-form entry
        time; the earliest one per policy (up to REPLAYS_PER_OP) replayed."""
        v = report["verdict"]
        fails = []
        ces = v["counterexamples"]
        if not ces or v["n_counterexamples"] < 1:
            return ["a 'no' verdict without counterexamples"]
        sys, battery = self._system(report["config"])
        by_label = {p.label: p for p in battery}
        consts = {p.label: p.vector for p in battery if type(p).__name__ == "ConstantPolicy"}
        consts["zero"] = np.zeros(sys.dim)
        dt = e["dt"]
        earliest = {}
        for ce in ces:
            if ce["kind"] != "entered_unsafe":
                continue
            if ce["time"] < t_first - 1e-6:
                fails.append(f"entry at {ce['time']} before the extremal bound {t_first:.4f}")
            if ce["policy"] in consts:
                t_true = closed_form(ce["x0"], consts[ce["policy"]])
                if not t_true - 1e-6 <= ce["time"] <= t_true + dt + 1e-6:
                    fails.append(f"{ce['policy']} from {ce['x0']} entered U at {ce['time']}, "
                                 f"closed form {t_true:.5f}")
            best = earliest.get(ce["policy"])
            if best is None or ce["time"] < best["time"]:
                earliest[ce["policy"]] = ce
        if not earliest:
            fails.append("no entered_unsafe counterexample listed")
        lo, hi, _ = e["grid"]
        domain = self.ss.Box((lo,) * sys.dim, (hi,) * sys.dim)
        for ce in sorted(earliest.values(), key=lambda c: c["time"])[:REPLAYS_PER_OP]:
            tr = self.ss.integrate(sys, ce["x0"], by_label[ce["policy"]], ce["time"] + 2 * dt,
                                   dt, domain=domain)
            hit = np.nonzero(in_unsafe(tr.states))[0]
            if hit.size == 0 or abs(tr.times[hit[0]] - ce["time"]) > 1e-9:
                fails.append(f"replay of {ce['policy']} from {ce['x0']} does not enter U at "
                             f"{ce['time']}")
        return fails

    def _system(self, cfg):
        ss = self.ss
        s = cfg["system"]
        sys = ss.PerturbedSystem(ss.parse_vector_field(s["f"], s["state_vars"]), s["delta"])
        fields = [ss.parse_scalar_field(cfg["sets"][n]["expr"], s["state_vars"])
                  for n in cfg["battery"].get("extremal_sets", [])]
        battery = ss.default_policy_battery(sys, N_RANDOM, cfg["battery"]["seed"],
                                            set_fields=fields, dwell=DWELL)
        return sys, battery

    def _reach1d(self, e, report, run_dir):
        return _hull_check(_marked(run_dir, "reach_mask.csv")[:, 0], report, e["delta"],
                           e["W_lo"], e["W_hi"], e["horizon"], e["grid"][2])

    def _sim1d(self, e, report, run_dir):
        up, down = Riccati1D(e["delta"]), Riccati1D(-e["delta"])
        x0 = e["x0"][0]

        def bound(t, X, D):
            lo = down.x(x0, t) - 1e-7
            hi = up.x(x0, t) + 1e-7
            return bool(np.all((X[:, 0] >= lo) & (X[:, 0] <= hi)))

        return _trajectories(run_dir, e, bound)

    def _sim2d(self, e, report, run_dir):
        cap = np.maximum(np.abs(np.asarray(e["x0"])), e["delta"]) + 1e-9

        def bound(t, X, D):
            return bool(np.all(np.abs(X) <= cap))

        return _trajectories(run_dir, e, bound)

    def _cert(self, e, report, run_dir):
        got = {k for k, c in report["certificate"]["conditions"].items() if c["status"] == "fail"}
        want, lie = _cert_expectation(e)
        fails = [] if got == want else [f"failed conditions {sorted(got)}, expected {sorted(want)}"]
        for name in got & want:
            c = report["certificate"]["conditions"][name]
            x = np.asarray(c["worst_point"])[None, :]
            ref = float(lie[name](x)[0])
            if abs(c["lhs"] - ref) > 1e-9 * (1.0 + abs(ref)):
                fails.append(f"{name} lhs {c['lhs']} at {c['worst_point']}, closed form {ref}")
        return fails


def _expected_exit(op) -> int:
    e = op.expect
    if "verdict" in e:
        return EXIT[e["verdict"]]
    if e["kind"] == "st_probe_bad":
        return 1
    if e["kind"] == "cert":
        return 1 if _cert_expectation(e)[0] else 0
    return 0


def _verdict(v: dict, want: str) -> list[str]:
    return [] if v["satisfied"] == want else [f"verdict {v['satisfied']}, expected {want}"]


def _hull_check(marked, report, delta, w_lo, w_hi, horizon, h) -> list[str]:
    """1-D comparison principle: the tube over [0, T] is bounded by the
    constant -delta solution from min W and the +delta one from max W."""
    fails = []
    if marked.size != report["n_marked"]:
        fails.append("n_marked disagrees with reach_mask.csv")
    lo = min(w_lo, float(Riccati1D(-delta).x(w_lo, horizon)))
    hi = max(w_hi, float(Riccati1D(+delta).x(w_hi, horizon)))
    if marked.size == 0 or abs(marked.min() - lo) > h or abs(marked.max() - hi) > h:
        got = (marked.min(), marked.max()) if marked.size else None
        fails.append(f"tube hull {got} not within one cell of [{lo:.5f}, {hi:.5f}]")
    return fails


def _trajectories(run_dir: Path, e: dict, bound) -> list[str]:
    index = json.loads((run_dir / "index.json").read_text())
    fails = []
    if len(index) != e["n_policies"]:
        fails.append(f"{len(index)} trajectories, battery has {e['n_policies']}")
    dim = len(e["x0"])
    for entry in index:
        data = np.loadtxt(run_dir / entry["file"], delimiter=",", skiprows=1, ndmin=2)
        t, X, D = data[:, 0], data[:, 1:1 + dim], data[:, 1 + dim:]
        if entry["terminated"] != "horizon_reached" or abs(t[-1] - e["horizon"]) > 1e-9:
            fails.append(f"{entry['policy']} ended early: {entry['terminated']}")
        if np.sqrt((D * D).sum(axis=1)).max() > e["delta"] * (1 + 1e-12):
            fails.append(f"{entry['policy']} applied |d| > delta")
        if not bound(t, X, D):
            fails.append(f"{entry['policy']} left its closed-form bound")
    return fails


def _cert_expectation(e: dict):
    """Failed conditions expected for the certificate queries, from the
    closed-form worst-case Lie derivatives on the grid points in D
    (f = -x, V = a |x|^2, B = c - V)."""
    lo, hi, h = e["grid"]
    c = grid_centers(lo, hi, h)
    c = c[np.abs(c) <= e["D"]]
    X = np.stack(np.meshgrid(*([c] * e["dim"]), indexing="ij"), axis=-1).reshape(-1, e["dim"])
    a, d = e["a"], e["delta"]
    r = np.sqrt((X * X).sum(axis=1))

    def lie_v(P):
        rr = np.sqrt((P * P).sum(axis=1))
        return -2 * a * rr**2 + d * 2 * a * rr

    def lie_b(P):
        rr = np.sqrt((P * P).sum(axis=1))
        return 2 * a * rr**2 - d * 2 * a * rr

    V = a * r**2
    want = set()
    if e["check"] == "pair":
        off_a = r > 0.5 * h * math.sqrt(e["dim"])
        if np.any(lie_v(X)[off_a] > -1e-9 * (1 + V[off_a])):
            want.add("V_strict_decrease_off_A")
        if np.any(lie_b(X) < -1e-9 * (1 + np.abs(e["c"] - V))):
            want.add("B_nondecreasing")
        return want, {"V_strict_decrease_off_A": lie_v, "B_nondecreasing": lie_b}
    if np.any(-V + 1e-9 * (1 + V) - lie_v(X) < 0):
        want.add("decrease")
    return want, {"decrease": lie_v}
