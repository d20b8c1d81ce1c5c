"""Seeded workload generators and the closed-form solutions their oracles use.

Every workload is a list of ``Op``: one CLI invocation with its own config
file and its own ``--out`` directory, plus the facts an oracle needs to judge
the result.  The generators only build plain dicts; ``write_ops`` turns them
into YAML files before timing starts.  Nothing here imports ``safestab``.

Systems used:

* the benchmark field x' = -x + x^2 + d, |d| <= delta, whose equilibria
  under a constant d are the roots of x^2 - x + d (``Riccati1D``);
* the 2-D linear field x' = -x + d, |d| <= delta (Euclidean ball), solved
  per axis as x_i(t) = d_i + (x_i(0) - d_i) e^{-t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

ROOT_LEFT = (1.0 - math.sqrt(2.0)) / 2.0  # stable root of x^2 - x - 0.25
N_RANDOM = 8
DWELL = 0.1

# query-stream: the few distinct systems the queries are drawn from
DELTAS_1D = (0.10, 0.15, 0.20, 0.25)
DELTAS_2D = (0.10, 0.20)
DELTAS_CERT = (0.0, 0.1, 0.2, 0.4)
Q_GRID_1D = (-1.5, 1.5, 0.01)
Q_GRID_2D = (-1.5, 1.5, 0.05)
Q_DT = 0.01
Q_HORIZON = 5.0
SIM_HORIZON = 2.0
REACH_HORIZONS = (2.0, 5.0)
# Equal ops per command (verify-ras, reach, simulate, check-cert), split
# evenly between the 1-D and 2-D families where a command has both.  No usage
# data exists, so this mix is an assumption; 120 ops put 12 samples beyond p90.
QUERY_MIX = (  # (kind, ops per pass)
    ("ras1d", 15),
    ("ras2d", 15),
    ("reach1d", 30),
    ("sim1d", 15),
    ("sim2d", 15),
    ("cert1d", 15),
    ("cert2d", 15),
)

# grid-batch: configs/benchmark.yaml with the grid and dt coarsened
GB_RESOLUTION = 0.002
GB_DT = 5e-3
GB_HORIZON = 30.0


@dataclass
class Op:
    """One CLI query: command, config dict and what its oracle expects."""

    name: str
    command: str
    config: dict
    expect: dict

    @property
    def kind(self) -> str:
        return self.expect["kind"]


# ---------------------------------------------------------------------------
# Closed-form solutions


class Riccati1D:
    """x' = x^2 - x + d for a constant d <= 1/4 (the benchmark field under a
    constant disturbance), solved in closed form."""

    def __init__(self, d: float):
        self.d = float(d)
        disc = 1.0 - 4.0 * self.d
        if disc < -1e-15:
            raise ValueError("d must be at most 1/4")
        self.s = math.sqrt(max(disc, 0.0))
        self.lo = 0.5 * (1.0 - self.s)  # stable root
        self.hi = 0.5 * (1.0 + self.s)  # unstable root (separatrix)

    def x(self, x0: float, t):
        t = np.asarray(t, dtype=float)
        if x0 == self.lo or x0 == self.hi:
            return np.full_like(t, x0)
        if self.s == 0.0:  # double root: y' = y^2 with y = x - 1/2
            return 0.5 + 1.0 / (1.0 / (x0 - 0.5) - t)
        q = (x0 - self.hi) / (x0 - self.lo) * np.exp(self.s * t)
        return (self.hi - q * self.lo) / (1.0 - q)

    def blowup_time(self, x0: float) -> float:
        """Finite escape time of a start above the unstable root, else inf."""
        if x0 <= self.hi:
            return math.inf
        if self.s == 0.0:
            return 1.0 / (x0 - 0.5)
        return -math.log((x0 - self.hi) / (x0 - self.lo)) / self.s

    def crossing_time(self, x0: float, u: float, t_max: float) -> float:
        """First t in [0, t_max] with x(t) = u, by bisection on the monotone
        solution; inf when u is not reached."""
        t_max = min(t_max, self.blowup_time(x0) * (1.0 - 1e-12))
        sign = 1.0 if u >= x0 else -1.0
        if sign * (float(self.x(x0, t_max)) - u) < 0:
            return math.inf
        a, b = 0.0, t_max
        for _ in range(200):
            mid = 0.5 * (a + b)
            if sign * (float(self.x(x0, mid)) - u) >= 0:
                b = mid
            else:
                a = mid
        return b


def linear_crossing_time(x0: float, d: float, u: float) -> float:
    """First t with d + (x0 - d) e^{-t} = u (x0 < u < d), else inf."""
    if not (x0 < u < d):
        return math.inf
    return math.log((d - x0) / (d - u))


def grid_centers(lo: float, hi: float, h: float) -> np.ndarray:
    """Cell centres of one axis of a cell-centred grid over [lo, hi]."""
    n = max(1, int(math.ceil((hi - lo) / h - 1e-12)))
    w = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * w


def _box(lo, hi) -> dict:
    return {"kind": "box", "lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}


def _cbox(lo, hi) -> dict:
    return {"kind": "complement_box", "lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}


def _cover(centers: np.ndarray, i: int, j: int) -> tuple:
    """Box bounds that select exactly the centres i..j of one axis."""
    w = centers[1] - centers[0]
    return float(centers[i] - 0.25 * w), float(centers[j] + 0.25 * w)


def _base(f, names, delta, grid, dt, horizon, battery_seed, sets) -> dict:
    lo, hi, h = grid
    dim = len(names)
    return {
        "system": {"dim": dim, "state_vars": list(names), "f": list(f), "delta": float(delta)},
        "sets": sets,
        "grid": {"domain": {"lo": [lo] * dim, "hi": [hi] * dim}, "resolution": h},
        "battery": {"n_random": N_RANDOM, "seed": int(battery_seed), "dwell": DWELL},
        "integration": {"dt": dt, "horizon": horizon, "blowup_bound": 1.0e6},
        "tolerances": {"strict_tol": 1.0e-9, "pd_coeff": 1.0e-6, "validation_tol": 0.05},
    }


def _battery_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# grid-batch


def grid_batch(seed: int) -> list[Op]:
    """winning-set, invariant-set, verify-ras and reach on one config: the
    configs/benchmark.yaml system with the grid and dt coarsened."""
    rng = np.random.default_rng([seed, 1])
    sets = {
        "W": _box([-1.0], [-0.9]),
        "U": _cbox([-1.0e9], [0.6]),
        "Omega": _box([-0.25], [0.5]),
        "A": _box([ROOT_LEFT], [0.5]),
    }
    cfg = _base(["-x + x^2"], ["x"], 0.25, (-1.5, 1.5, GB_RESOLUTION), GB_DT, GB_HORIZON,
                _battery_seed(rng), sets)
    cfg["ras"] = {"initial": "W", "unsafe": "U", "target": "Omega"}
    cfg["invariant_set"] = {"target": "Omega", "mode": "core"}
    cfg["winning_set"] = {"stable": "A", "unsafe": "U"}
    cfg["reach"] = {"initial": "W"}
    common = {"delta": 0.25, "grid": (-1.5, 1.5, GB_RESOLUTION), "dt": GB_DT,
              "horizon": GB_HORIZON, "W": (-1.0, -0.9), "U_lo": 0.6}
    return [
        Op("gb-winning-set", "winning-set", cfg, {"kind": "gb_winning", **common}),
        Op("gb-invariant-set", "invariant-set", cfg, {"kind": "gb_invariant", **common}),
        Op("gb-verify-ras", "verify-ras", cfg, {"kind": "gb_ras", **common}),
        Op("gb-reach", "reach", cfg, {"kind": "gb_reach", **common}),
    ]


# ---------------------------------------------------------------------------
# stability


def stability(seed: int) -> list[Op]:
    """The criterion-3 probe pair and the criterion-7 converse construction."""
    rng = np.random.default_rng([seed, 3])
    bseed = _battery_seed(rng)
    sets = {"A": _box([ROOT_LEFT], [0.5]), "D": _box([-1.2], [0.55])}
    grid = (-1.5, 1.5, 0.001)

    ok = _base(["-x + x^2"], ["x"], 0.20, grid, 5e-3, 30.0, bseed, sets)
    ok["uas"] = {"stable": "A", "eps_schedule": [0.1, 0.25, 0.5], "horizon": 30.0}
    # horizon 250 is needed: at 120 the +0.25 escape from (0.5, 0.51] is missed
    bad = _base(["-x + x^2"], ["x"], 0.25, grid, 5e-3, 250.0, bseed, sets)
    bad["uas"] = {"stable": "A", "eps_schedule": [0.1], "horizon": 250.0}
    lyap = _base(["-x + x^2"], ["x"], 0.20, grid, 2e-3, 30.0, bseed, sets)
    lyap["lyapunov"] = {"region": "D", "stable": "A", "sample_resolution": 0.008,
                        "n_validation": 200, "n_bins": 20, "taus": [0.5, 1.0, 2.0],
                        "horizon": 30.0}
    return [
        Op("st-probe-uas-0.20", "probe-uas", ok,
           {"kind": "st_probe_ok", "delta": 0.20, "eps": [0.1, 0.25, 0.5]}),
        Op("st-probe-uas-0.25", "probe-uas", bad,
           {"kind": "st_probe_bad", "delta": 0.25, "eps": [0.1], "dt": 5e-3, "horizon": 250.0}),
        Op("st-construct-lyapunov", "construct-lyapunov", lyap,
           {"kind": "st_lyapunov", "D": (-1.2, 0.55), "sample_resolution": 0.008}),
    ]


# ---------------------------------------------------------------------------
# query-stream


def _ras1d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("ras1d.delta", DELTAS_1D))
    up, down = Riccati1D(+delta), Riccati1D(-delta)
    lo, hi, h = Q_GRID_1D
    c = grid_centers(lo, hi, h)
    k = int(deck.draw("ras1d.k", range(1, 31)))
    want_no = bool(deck.draw("ras1d.no", (True, False)))
    # W's top centre stays below the stable root r1 of the +delta field, so
    # every battery trajectory stays in [min(W), r1] and settles on [a, r1]
    top_max = up.lo - (0.12 if want_no else 0.02)
    j_max = int(np.searchsorted(c, top_max, side="right")) - 1
    j = int(rng.integers(k - 1 + 50, j_max + 1))  # W stays above -1.0
    i0 = j - k + 1
    w_lo, w_hi = _cover(c, i0, j)
    if want_no:
        t_c = float(rng.uniform(0.3, 2.0))
        u = float(up.x(c[j], t_c))  # const[+delta] from the top centre enters U at t_c
    else:
        u = float(up.lo + rng.uniform(0.05, 0.2))
    sets = {
        "W": _box([w_lo], [w_hi]),
        "U": _cbox([-1.0e9], [u]),
        "Omega": _box([down.lo - 0.02], [up.lo + 0.02]),
    }
    cfg = _base(["-x + x^2"], ["x"], delta, Q_GRID_1D, Q_DT, Q_HORIZON, bseed, sets)
    cfg["ras"] = {"initial": "W", "unsafe": "U", "target": "Omega"}
    expect = {"kind": "ras1d", "delta": delta, "U_lo": u, "W_top": float(c[j]),
              "verdict": "no" if want_no else "yes_sampled", "dt": Q_DT,
              "horizon": Q_HORIZON, "grid": Q_GRID_1D}
    return Op(f"q{i:03d}-ras1d", "verify-ras", cfg, expect)


def _ras2d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("ras2d.delta", DELTAS_2D))
    lo, hi, h = Q_GRID_2D
    c = grid_centers(lo, hi, h)
    kx, ky = int(deck.draw("ras2d.kx", range(1, 6))), int(deck.draw("ras2d.ky", range(1, 6)))
    want_no = bool(deck.draw("ras2d.no", (True, False)))
    extremal = bool(deck.draw("ras2d.extremal", (True, False)))
    inner = np.nonzero(np.abs(c) <= 1.0)[0]
    iy = int(rng.integers(inner[0], inner[-1] - ky + 2))
    if want_no:
        # W's x-range lies below delta, so const[+delta e1] carries the top
        # column across x = u at t_c
        right = np.nonzero(c < delta - 0.15)[0]
        jx = int(rng.integers(max(inner[0] + kx - 1, 0), right[-1] + 1))
    else:
        jx = int(rng.integers(inner[0] + kx - 1, inner[-1] + 1))
    ix = jx - kx + 1
    wx, wy = _cover(c, ix, jx), _cover(c, iy, iy + ky - 1)
    sets = {
        "W": _box([wx[0], wy[0]], [wx[1], wy[1]]),
        "Omega": _box([-(delta + 0.05)] * 2, [delta + 0.05] * 2),
        "G": {"kind": "sublevel", "expr": "x^2 + y^2", "level": 4.0},
    }
    if want_no:
        t_c = float(rng.uniform(0.3, 2.0))
        u = delta + (c[jx] - delta) * math.exp(-t_c)
        sets["U"] = _cbox([-1.0e9, -1.0e9], [u, 1.0e9])  # U = {x >= u}
        bound = None
    else:
        reach = max(np.abs(c[[ix, jx]]).max(), np.abs(c[[iy, iy + ky - 1]]).max(), delta)
        bound = float(min(reach + rng.uniform(0.1, 0.3), 1.45))
        sets["U"] = _cbox([-bound] * 2, [bound] * 2)
        u = None
    cfg = _base(["-x", "-y"], ["x", "y"], delta, Q_GRID_2D, Q_DT, Q_HORIZON, bseed, sets)
    if extremal:
        cfg["battery"]["extremal_sets"] = ["G"]
    cfg["ras"] = {"initial": "W", "unsafe": "U", "target": "Omega"}
    expect = {"kind": "ras2d", "delta": delta, "U_x_lo": u, "U_box": bound, "W_top": float(c[jx]),
              "W_reach": None if want_no else float(max(
                  np.abs(c[[ix, jx]]).max(), np.abs(c[[iy, iy + ky - 1]]).max(), delta)),
              "extremal": extremal, "verdict": "no" if want_no else "yes_sampled",
              "dt": Q_DT, "horizon": Q_HORIZON, "grid": Q_GRID_2D}
    return Op(f"q{i:03d}-ras2d", "verify-ras", cfg, expect)


def _reach1d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("reach1d.delta", DELTAS_1D))
    up = Riccati1D(+delta)
    lo, hi, h = Q_GRID_1D
    c = grid_centers(lo, hi, h)
    k = int(deck.draw("reach1d.k", range(1, 31)))
    # keep W a margin below the separatrix of the +delta field
    j_max = int(np.searchsorted(c, up.hi - 0.15, side="right")) - 1
    j = int(rng.integers(k - 1 + 10, j_max + 1))
    i0 = j - k + 1
    w_lo, w_hi = _cover(c, i0, j)
    horizon = float(deck.draw("reach1d.horizon", REACH_HORIZONS))
    sets = {"W": _box([w_lo], [w_hi])}
    cfg = _base(["-x + x^2"], ["x"], delta, Q_GRID_1D, Q_DT, horizon, bseed, sets)
    cfg["reach"] = {"initial": "W"}
    expect = {"kind": "reach1d", "delta": delta, "W_lo": float(c[i0]), "W_hi": float(c[j]),
              "horizon": horizon, "grid": Q_GRID_1D}
    return Op(f"q{i:03d}-reach1d", "reach", cfg, expect)


def _sim1d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("sim1d.delta", DELTAS_1D))
    up = Riccati1D(+delta)
    x0 = float(rng.uniform(-1.2, up.hi - 0.15))
    cfg = _base(["-x + x^2"], ["x"], delta, Q_GRID_1D, Q_DT, SIM_HORIZON, bseed, {})
    cfg["simulate"] = {"x0": [x0]}
    expect = {"kind": "sim1d", "delta": delta, "x0": [x0], "n_policies": 3 + N_RANDOM,
              "horizon": SIM_HORIZON}
    return Op(f"q{i:03d}-sim1d", "simulate", cfg, expect)


def _sim2d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("sim2d.delta", DELTAS_2D))
    x0 = [float(v) for v in rng.uniform(-1.0, 1.0, size=2)]
    extremal = bool(deck.draw("sim2d.extremal", (True, False)))
    sets = {"G": {"kind": "sublevel", "expr": "x^2 + y^2", "level": 4.0}}
    cfg = _base(["-x", "-y"], ["x", "y"], delta, Q_GRID_2D, Q_DT, SIM_HORIZON, bseed, sets)
    if extremal:
        cfg["battery"]["extremal_sets"] = ["G"]
    cfg["simulate"] = {"x0": x0}
    expect = {"kind": "sim2d", "delta": delta, "x0": x0,
              "n_policies": 9 + N_RANDOM + (2 if extremal else 0), "horizon": SIM_HORIZON}
    return Op(f"q{i:03d}-sim2d", "simulate", cfg, expect)


def _cert1d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("cert1d.delta", DELTAS_CERT))
    a = float(deck.draw("cert1d.a", (0.5, 1.0, 2.0)))
    check = deck.draw("cert1d.check", ("pair", "single"))
    sets = {
        "A": _box([0.0], [0.0]),
        "W": _box([-0.5], [0.5]),
        "U": _cbox([-2.0], [2.0]),
        "D": _box([-1.5], [1.5]),
    }
    cfg = _base(["-x"], ["x"], delta, (-2.505, 2.505, 0.01), Q_DT, Q_HORIZON, bseed, sets)
    blk = {"check": check, "V": f"{a:g}*x^2", "domain": "D"}
    if check == "pair":
        blk.update({"B": f"{0.26 * a:g} - {a:g}*x^2", "stable": "A", "initial": "W", "unsafe": "U"})
    else:
        blk.update({"alpha1": {"power": 2, "scale": a}, "alpha2": {"power": 2, "scale": a},
                    "omega": {"stable": "A"}})
    cfg["certificate"] = blk
    expect = {"kind": "cert", "dim": 1, "delta": delta, "a": a, "c": 0.26 * a, "check": check,
              "grid": (-2.505, 2.505, 0.01), "D": 1.5}
    return Op(f"q{i:03d}-cert1d", "check-cert", cfg, expect)


def _cert2d(rng, deck, i, bseed) -> Op:
    delta = float(deck.draw("cert2d.delta", DELTAS_CERT))
    sets = {
        "A": _box([0.0, 0.0], [0.0, 0.0]),
        "W": _box([-0.5, -0.5], [0.5, 0.5]),
        "U": _cbox([-2.0, -2.0], [2.0, 2.0]),
        "D": _box([-1.5, -1.5], [1.5, 1.5]),
    }
    cfg = _base(["-x", "-y"], ["x", "y"], delta, (-2.5, 2.5, 0.05), Q_DT, Q_HORIZON, bseed, sets)
    cfg["certificate"] = {"check": "pair", "V": "x^2 + y^2", "B": "0.55 - x^2 - y^2",
                          "domain": "D", "stable": "A", "initial": "W", "unsafe": "U"}
    expect = {"kind": "cert", "dim": 2, "delta": delta, "a": 1.0, "c": 0.55, "check": "pair",
              "grid": (-2.5, 2.5, 0.05), "D": 1.5}
    return Op(f"q{i:03d}-cert2d", "check-cert", cfg, expect)


_QUERY_MAKERS = {"ras1d": _ras1d, "ras2d": _ras2d, "reach1d": _reach1d, "sim1d": _sim1d,
                 "sim2d": _sim2d, "cert1d": _cert1d, "cert2d": _cert2d}


class _Deck:
    """Balanced draws: across the ops of one kind every listed value comes up
    equally often (to within one), so the work in a pass, and with it the
    timings, depends little on the seed while the queries themselves do."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.cards: dict[str, list] = {}

    def draw(self, key: str, values):
        if not self.cards.get(key):
            cards = list(values)
            self.rng.shuffle(cards)
            self.cards[key] = cards
        return self.cards[key].pop()


def query_stream(seed: int) -> list[Op]:
    """120 small seeded queries over a handful of systems, in seeded order."""
    rng = np.random.default_rng([seed, 2])
    deck = _Deck(rng)
    bseed = _battery_seed(rng)
    kinds = [k for k, n in QUERY_MIX for _ in range(n)]
    rng.shuffle(kinds)
    return [_QUERY_MAKERS[k](rng, deck, i, bseed) for i, k in enumerate(kinds)]


WORKLOADS = {"grid-batch": grid_batch, "query-stream": query_stream, "stability": stability}


def write_ops(ops: list[Op], config_dir: Path) -> list[Path]:
    """Write one YAML file per distinct config; ops sharing a config dict
    share the file."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths, seen = [], {}
    for op in ops:
        key = id(op.config)
        if key not in seen:
            seen[key] = config_dir / f"{op.name}.yaml"
            seen[key].write_text(yaml.safe_dump(op.config, sort_keys=False))
        paths.append(seen[key])
    return paths
