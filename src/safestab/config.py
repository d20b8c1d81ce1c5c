"""Run configuration: one YAML file describes the system, the sets, the grid,
the disturbance battery, integration and tolerance settings, and per-command
blocks.  Reports echo the configuration so a run can be reproduced from its
report alone.

Every field is read through a ``Block``, whose typed reads validate the field
and record the value they resolved.  The echo is built from those records:
each top-level value as the reader resolved it, with defaults filled in,
numbers as floats, counts as integers and ``system.f`` pretty-printed; the
``sets`` and the command blocks are echoed as written.

Validation failures raise ConfigError carrying the dotted field path; the CLI
maps them to exit code 2.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import replace

import yaml

from .dynamics import PerturbedSystem, default_policy_battery, step_count
from .expr import ParseError, ScalarField, parse_scalar_field, parse_vector_field
from .geometry import Box, BoxComplement, Grid, SetSpec, Sublevel, Union, make_grid

__all__ = ["Block", "ConfigError", "RunConfig", "load_config"]

_REQUIRED = object()  # the default of a field that must be given


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _num(value, path: str, *, finite=True, positive=False, nonnegative=False,
         within=None, dt=None) -> float:
    """A number other than NaN.  Infinity is allowed only with ``finite``
    false: in a box corner and ``integration.blowup_bound``, where it has a
    meaning.  ``within`` is a closed range (lo, hi); with ``dt`` the number is
    a time span that must be a whole number of dt-steps."""
    v = math.nan
    # YAML 1.1 reads exponent literals without a sign (1e9) as strings
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            v = float(value)
        except (ValueError, OverflowError):  # not a number, or an int past the float range
            pass
    if math.isnan(v):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if finite and math.isinf(v):
        raise ConfigError(path, f"must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(path, f"must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(path, f"must be nonnegative, got {v}")
    if within is not None and not within[0] <= v <= within[1]:
        raise ConfigError(path, f"must lie in [{within[0]:g}, {within[1]:g}], got {v:g}")
    if dt is not None:
        _whole_steps(v, dt, path)
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


def _numbers(value, path: str, **bounds) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of numbers")
    return [_num(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value)]


def _strings(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    return [str(v) for v in value]


def _whole_steps(span: float, dt: float, path: str) -> None:
    try:
        step_count(span, dt, path.rsplit(".", 1)[-1])
    except ValueError as ex:
        raise ConfigError(path, str(ex)) from None


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


class Block:
    """One mapping of the config file.  Every typed read validates the field,
    names its dotted path in the ConfigError, and records the value it
    resolved in ``echo``, in the order of the reads.  An absent field reads
    as its default; a field without one is required."""

    def __init__(self, cfg: "RunConfig", path: str, raw: dict):
        self.cfg = cfg
        self.path = path
        self.raw = raw
        self.echo = {}

    def __contains__(self, key: str) -> bool:
        return key in self.raw

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _read(self, key: str, default, read, length=None):
        """Resolve ``key`` with ``read(value, path)``, a list of ``length``
        entries when that is given.  An optional field (default None) that
        is absent or null reads as None."""
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(self._at(key), "missing required field")
        if value is not None or default is not None:
            value = read(value, self._at(key))
            if length is not None and len(value) != length:
                raise ConfigError(self._at(key), f"expected {length} entries, got {len(value)}")
        self.echo[key] = value
        return value

    def get(self, key: str, default=_REQUIRED, choices=None):
        """The field as written, one of ``choices`` when they are given; only
        an absent one reads as ``default``."""
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(self._at(key), "missing required field")
        if choices is not None and value not in choices:
            raise ConfigError(self._at(key), f"expected {' or '.join(choices)}, got {value!r}")
        self.echo[key] = value
        return value

    def num(self, key: str, default=_REQUIRED, **bounds) -> float | None:
        """A number; ``bounds`` are the keywords of ``_num``."""
        return self._read(key, default, functools.partial(_num, **bounds))

    def nums(self, key: str, default=_REQUIRED, length=None, **bounds) -> list:
        """A list of numbers, of ``length`` entries when that is given; each
        entry as for ``num``."""
        return self._read(key, default, functools.partial(_numbers, **bounds), length)

    def count(self, key: str, default=_REQUIRED, minimum: int = 1) -> int:
        """A whole number >= minimum."""
        return self._read(key, default, functools.partial(_count, minimum=minimum))

    def span(self, key: str, default=_REQUIRED) -> float | None:
        """A time span that must be a whole number of integration steps."""
        return self.num(key, default, dt=self.cfg.dt)

    def spans(self, key: str, default=_REQUIRED) -> list:
        """A list of time spans, each a whole number of integration steps."""
        return self.nums(key, default, dt=self.cfg.dt)

    def box(self) -> Box:
        """The box of this mapping's ``lo`` and ``hi`` corners, one number per
        axis; -inf or inf leaves that side open."""
        lo = self.nums("lo", length=self.cfg.system.dim, finite=False)
        hi = self.nums("hi", length=self.cfg.system.dim, finite=False)
        try:
            return Box(lo, hi)
        except ValueError as ex:
            raise ConfigError(self.path, str(ex)) from None

    def set(self, key: str, default=_REQUIRED) -> SetSpec:
        """A declared set, named by the field."""
        return self._read(key, default, self.cfg.get_set)

    def expr(self, key: str, default=_REQUIRED) -> ScalarField:
        """A scalar expression over the state variables."""
        return self._read(key, default, self._parse)

    def _parse(self, value, path: str) -> ScalarField:
        try:
            return parse_scalar_field(str(value), self.cfg.system.f.var_names)
        except ParseError as ex:
            raise ConfigError(path, str(ex)) from None

    def block(self, key: str, default=_REQUIRED, *, as_written=False) -> "Block":
        """A nested mapping, read the same way; an absent or null one is
        ``default``.  Its echo nests under ``key``; ``as_written`` echoes the
        field as written instead."""
        written = self.get(key, default)
        raw = default if written is None else written
        if not isinstance(raw, dict):
            raise ConfigError(self._at(key), "expected a mapping")
        child = Block(self.cfg, self._at(key), raw)
        if not as_written:
            self.echo[key] = child.echo
        return child


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


class RunConfig:
    """A loaded config: the system, the sets, the grid, the battery factory,
    the integration and tolerance settings, and the command blocks."""

    def __init__(self, raw: dict):
        root = Block(self, "", raw)

        system = root.block("system")
        dim = system.count("dim")
        default_names = ["x"] if dim == 1 else [f"x{i+1}" for i in range(dim)]
        var_names = system._read("state_vars", default_names, _strings, dim)
        f_specs = system._read("f", _REQUIRED, _strings, dim)
        try:
            fvec = parse_vector_field(f_specs, var_names)
        except ParseError as ex:
            raise ConfigError("system.f", str(ex)) from None
        system.echo["f"] = [c.source for c in fvec.components]
        # the escape bound is read with the integration settings below
        self.system = PerturbedSystem(fvec, system.num("delta", nonnegative=True))

        declared = root.block("sets", {}, as_written=True)
        self.sets: dict[str, SetSpec] = {}
        for name, spec in declared.raw.items():
            s = _build_set(self, spec, f"sets.{name}")
            if s.dim != dim:
                raise ConfigError(f"sets.{name}", f"set dimension {s.dim} != system dim {dim}")
            self.sets[name] = s

        grid = root.block("grid")
        self.grid_domain = grid.block("domain").box()
        if not self.grid_domain.is_bounded:
            raise ConfigError("grid.domain", "grid domain must be bounded")
        self.grid_resolution = grid.num("resolution", positive=True)
        self.grid_size_cap = grid.count("size_cap", 10_000_000)

        battery = root.block("battery", {})
        n_random = battery.count("n_random", 8, minimum=0)
        if n_random > 0 and "seed" not in battery:
            raise ConfigError("battery.seed", "a seed is mandatory when n_random > 0")
        self.battery_seed = battery.count("seed", 0, minimum=0)
        dwell = battery.num("dwell", 0.1, positive=True)
        names = battery.get("extremal_sets", []) or []
        if not isinstance(names, list):
            raise ConfigError("battery.extremal_sets", "expected a list of declared set names")
        extremal = []
        for i, name in enumerate(names):
            s = self.get_set(name, f"battery.extremal_sets[{i}]")
            if not isinstance(s, Sublevel):
                raise ConfigError(
                    f"battery.extremal_sets[{i}]",
                    "extremal policies need a sublevel set with a defining function",
                )
            extremal.append(s.g)

        integ = root.block("integration", {})
        self.dt = integ.num("dt", 1e-3, positive=True)
        self.horizon = integ.num("horizon", 30.0, positive=True)
        if self.dt > self.horizon:
            raise ConfigError("integration.dt", f"dt={self.dt} exceeds horizon={self.horizon}")
        _whole_steps(self.horizon, self.dt, "integration.horizon")
        if n_random > 0:
            _whole_steps(dwell, self.dt, "battery.dwell")
        blowup = integ.num("blowup_bound", 1e6, finite=False, positive=True)
        self.system = replace(self.system, blowup_bound=blowup)
        self.make_battery = functools.partial(
            default_policy_battery, self.system, n_random=n_random, seed=self.battery_seed,
            set_fields=tuple(extremal), dwell=dwell,
        )

        tol = root.block("tolerances", {})
        self.strict_tol = tol.num("strict_tol", 1e-9, positive=True)
        self.pd_coeff = tol.num("pd_coeff", 1e-6, positive=True)
        self.validation_tol = tol.num("validation_tol", 0.05, positive=True)

        self.commands = {
            name: root.block(name, as_written=True) for name in _COMMAND_BLOCKS if name in root
        }
        self._echo = root.echo

    def make_grid(self) -> Grid:
        return make_grid(self.grid_domain, self.grid_resolution, size_cap=self.grid_size_cap)

    def get_set(self, name, path: str) -> SetSpec:
        if not isinstance(name, str) or name not in self.sets:
            raise ConfigError(path, f"unknown set {name!r}; declared sets: {sorted(self.sets)}")
        return self.sets[name]

    def command_block(self, name: str) -> Block:
        blk = self.commands.get(name)
        if blk is None:
            raise ConfigError(name, "missing command block in the config file")
        return blk

    def resolved(self) -> dict:
        """The echo: each top-level section as the reader resolved it, and the
        sets and the command blocks as written."""
        return copy.deepcopy(self._echo)

    def digest(self) -> str:
        blob = json.dumps(self._echo, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:8]


def _build_set(cfg: RunConfig, spec, path: str) -> SetSpec:
    """A set declaration, or the name of a set declared before it."""
    if isinstance(spec, str):
        if spec in cfg.sets:
            return cfg.sets[spec]
        raise ConfigError(path, f"unknown set reference {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a set declaration mapping")
    blk = Block(cfg, path, spec)
    kind = blk.get("kind")
    if kind in ("box", "complement_box"):
        return blk.box() if kind == "box" else BoxComplement(blk.box())
    if kind == "sublevel":
        return Sublevel(blk.expr("expr"), blk.num("level", 0.0))
    if kind == "union":
        members = blk.get("members")
        if not isinstance(members, list) or not members:
            raise ConfigError(f"{path}.members", "expected a non-empty list")
        return Union(
            tuple(_build_set(cfg, m, f"{path}.members[{i}]") for i, m in enumerate(members))
        )
    raise ConfigError(
        f"{path}.kind",
        f"unknown set kind {kind!r}; expected box, complement_box, sublevel, or union",
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            # libyaml's parser, with the same safe constructor and resolver
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except yaml.YAMLError as ex:
        raise ConfigError("config", f"invalid YAML: {ex}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a mapping")
    _string_keys(raw, "")
    return RunConfig(raw)
