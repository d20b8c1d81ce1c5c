"""Run configuration: one YAML file describes the system, the sets, the grid,
the disturbance battery, integration and tolerance settings, and per-command
blocks.  Reports echo the fully resolved configuration so a run can be
reproduced from its report alone.

Validation failures raise ConfigError carrying the dotted field path; the CLI
maps them to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .dynamics import PerturbedSystem, default_policy_battery, step_count
from .expr import ParseError, parse_scalar_field, parse_vector_field
from .geometry import Box, BoxComplement, Grid, SetSpec, Sublevel, Union, make_grid

__all__ = ["ConfigError", "CommandBlock", "RunConfig", "load_config"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def _real(value, path: str) -> float:
    """A number other than NaN, infinity included.  Only box corners and
    ``integration.blowup_bound``, where infinity has a meaning, read through
    this alone; every other number is read with ``_num``."""
    # YAML 1.1 reads exponent literals without a sign (1e9) as strings
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            v = float(value)
        except (ValueError, OverflowError):  # not a number, or an int past the float range
            v = math.nan
        if not math.isnan(v):
            return v
    raise ConfigError(path, f"expected a number, got {value!r}")


def _num(value, path: str, *, positive=False, nonnegative=False) -> float:
    """A finite number."""
    v = _real(value, path)
    if math.isinf(v):
        raise ConfigError(path, f"must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(path, f"must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(path, f"must be nonnegative, got {v}")
    return v


def _count(value, path: str, minimum: int) -> int:
    """A whole number >= minimum (a YAML bool is not one).  Integers are kept
    as they are: a large seed must not pass through a float."""
    if isinstance(value, int) and not isinstance(value, bool):
        v = value
    else:
        f = _num(value, path)
        v = int(f) if f.is_integer() else None
    if v is None or v < minimum:
        raise ConfigError(path, f"expected a whole number >= {minimum}, got {value!r}")
    return v


def _whole_steps(span: float, dt: float, path: str) -> None:
    try:
        step_count(span, dt, path.rsplit(".", 1)[-1])
    except ValueError as ex:
        raise ConfigError(path, str(ex)) from None


def _section(raw: dict, key: str) -> dict:
    """An optional mapping at the top level; absent or null reads as empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(key, "expected a mapping")
    return value


def _string_keys(value, path: str) -> None:
    """Every mapping key in the file is a string: the run digest sorts the
    keys, and a number cannot be ordered against a string."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if not isinstance(key, str):
                raise ConfigError(where, f"mapping keys must be strings, got {key!r}")
            _string_keys(item, where)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _string_keys(item, f"{path}[{i}]")


def _numbers(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of numbers")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _vector(value, dim: int, path: str) -> tuple:
    """A box corner, one number per axis; -inf or inf leaves that side open."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of numbers")
    if len(value) != dim:
        raise ConfigError(path, f"expected {dim} entries, got {len(value)}")
    return tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass
class RunConfig:
    raw: dict
    path: str
    dim: int
    var_names: tuple
    system: PerturbedSystem
    sets: dict                      # name -> SetSpec
    grid_domain: Box
    grid_resolution: float
    grid_size_cap: int
    battery_n_random: int
    battery_seed: int
    battery_dwell: float
    battery_extremal: tuple         # ScalarFields feeding extremal policies
    dt: float
    horizon: float
    strict_tol: float
    pd_coeff: float
    validation_tol: float
    commands: dict = field(default_factory=dict)

    def make_grid(self) -> Grid:
        return make_grid(self.grid_domain, self.grid_resolution, size_cap=self.grid_size_cap)

    def make_battery(self, seed: int | None = None):
        return default_policy_battery(
            self.system,
            n_random=self.battery_n_random,
            seed=self.battery_seed if seed is None else seed,
            set_fields=self.battery_extremal,
            dwell=self.battery_dwell,
        )

    def get_set(self, name, path: str) -> SetSpec:
        if not isinstance(name, str) or name not in self.sets:
            raise ConfigError(path, f"unknown set {name!r}; declared sets: {sorted(self.sets)}")
        return self.sets[name]

    def command_block(self, name: str) -> "CommandBlock":
        blk = self.commands.get(name)
        if blk is None:
            raise ConfigError(name, "missing command block in the config file")
        return CommandBlock(self, name, blk)

    def resolved(self) -> dict:
        out = {
            "system": {
                "dim": self.dim,
                "state_vars": list(self.var_names),
                "f": [c.source for c in self.system.f.components],
                "delta": self.system.delta,
            },
            "sets": self.raw.get("sets", {}),
            "grid": {
                "domain": {"lo": list(self.grid_domain.lo), "hi": list(self.grid_domain.hi)},
                "resolution": self.grid_resolution,
                "size_cap": self.grid_size_cap,
            },
            "battery": {
                "n_random": self.battery_n_random,
                "seed": self.battery_seed,
                "dwell": self.battery_dwell,
                "extremal_sets": self.raw.get("battery", {}).get("extremal_sets", []),
            },
            "integration": {
                "dt": self.dt,
                "horizon": self.horizon,
                "blowup_bound": self.system.blowup_bound,
            },
            "tolerances": {
                "strict_tol": self.strict_tol,
                "pd_coeff": self.pd_coeff,
                "validation_tol": self.validation_tol,
            },
        }
        out.update(self.commands)
        return out

    def digest(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:8]


class CommandBlock:
    """One command's block of the config file.  Every typed read validates
    the field and names its dotted path in the ConfigError."""

    def __init__(self, cfg: RunConfig, path: str, raw: dict):
        self.cfg = cfg
        self.path = path
        self.raw = raw

    def __contains__(self, key: str) -> bool:
        return key in self.raw

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def num(self, key: str, default=None) -> float | None:
        """A number (None when absent without a default)."""
        value = self.raw.get(key, default)
        return None if value is None else _num(value, f"{self.path}.{key}")

    def nums(self, key: str, default) -> list:
        return _numbers(self.raw.get(key, default), f"{self.path}.{key}")

    def count(self, key: str, default: int) -> int:
        """A positive whole number."""
        return _count(self.raw.get(key, default), f"{self.path}.{key}", 1)

    def span(self, key: str, default=None) -> float | None:
        """A time span that must be a whole number of integration steps."""
        value = self.num(key, default)
        if value is not None:
            _whole_steps(value, self.cfg.dt, f"{self.path}.{key}")
        return value

    def spans(self, key: str, default) -> list:
        """A list of time spans, each a whole number of integration steps."""
        values = self.nums(key, default)
        for i, v in enumerate(values):
            _whole_steps(v, self.cfg.dt, f"{self.path}.{key}[{i}]")
        return values

    def set(self, key: str, default=None) -> SetSpec:
        return self.cfg.get_set(self.raw.get(key, default), f"{self.path}.{key}")

    def block(self, key: str, default=None) -> "CommandBlock":
        """A nested mapping, read the same way; an absent or null one is ``default``."""
        raw = self.raw.get(key)
        raw = default if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigError(f"{self.path}.{key}", "expected a mapping")
        return CommandBlock(self.cfg, f"{self.path}.{key}", raw)


_COMMAND_BLOCKS = (
    "simulate",
    "reach",
    "invariant_set",
    "winning_set",
    "ras",
    "sws",
    "uas",
    "certificate",
    "lyapunov",
)


def _build_set(spec, var_names, path: str, known: dict) -> SetSpec:
    if isinstance(spec, str):
        if spec in known:
            return known[spec]
        raise ConfigError(path, f"unknown set reference {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a set declaration mapping")
    kind = _need(spec, "kind", path)
    dim = len(var_names)
    if kind == "box":
        lo = _vector(_need(spec, "lo", path), dim, f"{path}.lo")
        hi = _vector(_need(spec, "hi", path), dim, f"{path}.hi")
        try:
            return Box(lo, hi)
        except ValueError as ex:
            raise ConfigError(path, str(ex)) from None
    if kind == "complement_box":
        lo = _vector(_need(spec, "lo", path), dim, f"{path}.lo")
        hi = _vector(_need(spec, "hi", path), dim, f"{path}.hi")
        try:
            return BoxComplement(Box(lo, hi))
        except ValueError as ex:
            raise ConfigError(path, str(ex)) from None
    if kind == "sublevel":
        expr = str(_need(spec, "expr", path))
        level = _num(spec.get("level", 0.0), f"{path}.level")
        try:
            g = parse_scalar_field(expr, var_names)
        except ParseError as ex:
            raise ConfigError(f"{path}.expr", str(ex)) from None
        return Sublevel(g, level)
    if kind == "union":
        members = _need(spec, "members", path)
        if not isinstance(members, list) or not members:
            raise ConfigError(f"{path}.members", "expected a non-empty list")
        return Union(
            tuple(
                _build_set(m, var_names, f"{path}.members[{i}]", known)
                for i, m in enumerate(members)
            )
        )
    raise ConfigError(
        f"{path}.kind",
        f"unknown set kind {kind!r}; expected box, complement_box, sublevel, or union",
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except yaml.YAMLError as ex:
        raise ConfigError("config", f"invalid YAML: {ex}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a mapping")
    _string_keys(raw, "")

    system = raw.get("system")
    if not isinstance(system, dict):
        raise ConfigError("system", "missing system section")
    dim = _count(_need(system, "dim", "system"), "system.dim", 1)
    var_names = system.get("state_vars")
    if var_names is None:
        var_names = ["x"] if dim == 1 else [f"x{i+1}" for i in range(dim)]
    if not isinstance(var_names, list) or len(var_names) != dim:
        raise ConfigError("system.state_vars", f"expected {dim} variable names")
    var_names = tuple(str(v) for v in var_names)
    f_specs = _need(system, "f", "system")
    if not isinstance(f_specs, list) or len(f_specs) != dim:
        raise ConfigError("system.f", f"expected {dim} component expressions")
    try:
        fvec = parse_vector_field([str(s) for s in f_specs], var_names)
    except ParseError as ex:
        raise ConfigError("system.f", str(ex)) from None
    delta = _num(_need(system, "delta", "system"), "system.delta", nonnegative=True)

    sets: dict[str, SetSpec] = {}
    for name, spec in _section(raw, "sets").items():
        s = _build_set(spec, var_names, f"sets.{name}", sets)
        if s.dim != dim:
            raise ConfigError(f"sets.{name}", f"set dimension {s.dim} != system dim {dim}")
        sets[name] = s

    grid = raw.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("grid", "missing grid section")
    domain = _need(grid, "domain", "grid")
    if not isinstance(domain, dict):
        raise ConfigError("grid.domain", "expected a mapping")
    lo = _vector(_need(domain, "lo", "grid.domain"), dim, "grid.domain.lo")
    hi = _vector(_need(domain, "hi", "grid.domain"), dim, "grid.domain.hi")
    if any(not math.isfinite(v) for v in lo + hi):
        raise ConfigError("grid.domain", "grid domain must be bounded")
    grid_domain = Box(lo, hi)
    resolution = _num(_need(grid, "resolution", "grid"), "grid.resolution", positive=True)
    size_cap = _count(grid.get("size_cap", 10_000_000), "grid.size_cap", 1)

    battery = _section(raw, "battery")
    n_random = _count(battery.get("n_random", 8), "battery.n_random", 0)
    seed = battery.get("seed")
    if n_random > 0 and seed is None:
        raise ConfigError("battery.seed", "a seed is mandatory when n_random > 0")
    seed = _count(0 if seed is None else seed, "battery.seed", 0)
    dwell = _num(battery.get("dwell", 0.1), "battery.dwell", positive=True)
    names = battery.get("extremal_sets") or []
    if not isinstance(names, list):
        raise ConfigError("battery.extremal_sets", "expected a list of declared set names")
    extremal = []
    for i, name in enumerate(names):
        s = sets.get(name) if isinstance(name, str) else None
        if s is None:
            raise ConfigError(f"battery.extremal_sets[{i}]", f"unknown set {name!r}")
        if not isinstance(s, Sublevel):
            raise ConfigError(
                f"battery.extremal_sets[{i}]",
                "extremal policies need a sublevel set with a defining function",
            )
        extremal.append(s.g)

    integ = _section(raw, "integration")
    dt = _num(integ.get("dt", 1e-3), "integration.dt", positive=True)
    horizon = _num(integ.get("horizon", 30.0), "integration.horizon", positive=True)
    if dt > horizon:
        raise ConfigError("integration.dt", f"dt={dt} exceeds horizon={horizon}")
    _whole_steps(horizon, dt, "integration.horizon")
    if n_random > 0:
        _whole_steps(dwell, dt, "battery.dwell")
    blowup = _real(integ.get("blowup_bound", 1e6), "integration.blowup_bound")
    if blowup <= 0:
        raise ConfigError("integration.blowup_bound", f"must be positive, got {blowup}")

    tol = _section(raw, "tolerances")
    strict_tol = _num(tol.get("strict_tol", 1e-9), "tolerances.strict_tol", positive=True)
    pd_coeff = _num(tol.get("pd_coeff", 1e-6), "tolerances.pd_coeff", positive=True)
    validation_tol = _num(
        tol.get("validation_tol", 0.05), "tolerances.validation_tol", positive=True
    )

    commands = {}
    for name in _COMMAND_BLOCKS:
        if name in raw:
            blk = raw[name]
            if not isinstance(blk, dict):
                raise ConfigError(name, "command block must be a mapping")
            commands[name] = blk

    return RunConfig(
        raw=raw,
        path=str(path),
        dim=dim,
        var_names=var_names,
        system=PerturbedSystem(fvec, delta, blowup),
        sets=sets,
        grid_domain=grid_domain,
        grid_resolution=resolution,
        grid_size_cap=size_cap,
        battery_n_random=n_random,
        battery_seed=seed,
        battery_dwell=dwell,
        battery_extremal=tuple(extremal),
        dt=dt,
        horizon=horizon,
        strict_tol=strict_tol,
        pd_coeff=pd_coeff,
        validation_tol=validation_tol,
        commands=commands,
    )
