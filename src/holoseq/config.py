"""Run configuration: YAML schema, unit handling, round-trip serialization.

Lengths in files are meters by default, numeric strings such as "820e-9"
included; string values may carry an explicit unit suffix ("17 um", "820 nm",
"4 mm").  The top level holds the sections optical, task, solver, refresh and
run.  Each section's table below lists its keys with their converters; a
task's source_layers/target_layers entries use the lattice table.  A key
outside its table, at any level, is a ConfigError, as is a number that is not
finite.  A missing key takes its default from the section's dataclass
(optical: from RunConfig()).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

import yaml

from .geometry import LatticeSpec, OpticalConfig, TaskSpec, minimal_3x3_task, paper_optical_config
from .solvers import SOLVER_KINDS, SolverSettings
from .transient import RefreshModel

__all__ = [
    "ConfigError",
    "RunOptions",
    "RunConfig",
    "parse_length",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "config_to_yaml",
]

_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_LENGTH_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([a-zµ]*)\s*$")


class ConfigError(ValueError):
    """Malformed configuration input."""


def parse_length(value) -> float:
    """Meters from a number, a unit-less numeric string or a '<number> <unit>' string.

    YAML reads an exponent without a dot ("820e-9") as a string; it is meters too.
    A length that is not finite (a YAML .inf or .nan) is an error.
    """
    # YAML reads yes/no/on/off/true/false as booleans, and bool is an int
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        meters = float(value)
    elif isinstance(value, str):
        m = _LENGTH_RE.match(value)
        if not (m and (m.group(2) or "m") in _UNITS):
            raise ConfigError(f"cannot parse length {value!r} (units: {sorted(_UNITS)})")
        meters = float(m.group(1)) * _UNITS[m.group(2) or "m"]
    else:
        raise ConfigError(f"cannot parse length from {type(value).__name__}")
    if not math.isfinite(meters):
        raise ConfigError(f"length {value!r} is not finite")
    return meters


@dataclass(frozen=True)
class RunOptions:
    """Pipeline-level knobs not owned by any single compute module."""

    solvers: tuple[str, ...] = ("wpgs", "wgs")
    max_step: float | None = None

    def __post_init__(self):
        for s in self.solvers:
            if s not in SOLVER_KINDS:
                raise ConfigError(f"unknown solver {s!r}")
        # each solver writes into its own directory, so a repeat would overwrite a run
        if not self.solvers or len(set(self.solvers)) != len(self.solvers):
            raise ConfigError(
                f"solvers must name one or more distinct solvers, not {self.solvers!r}"
            )
        if self.max_step is not None and (
            isinstance(self.max_step, bool) or not (0 < self.max_step < math.inf)
        ):
            raise ConfigError(f"max_step must be finite and > 0, not {self.max_step!r}")


@dataclass(frozen=True)
class RunConfig:
    optical: OpticalConfig = field(default_factory=lambda: paper_optical_config(grid=256))
    task: TaskSpec = field(default_factory=minimal_3x3_task)
    solver: SolverSettings = field(default_factory=SolverSettings)
    refresh: RefreshModel = field(default_factory=RefreshModel)
    run: RunOptions = field(default_factory=RunOptions)


def _int(value) -> int:
    """An integer, refusing to round (grid_x: 64.5 is an error, not 64) or a bool."""
    if isinstance(value, bool) or int(value) != value:
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite float (a YAML .nan or .inf is an error, as is a bool such as off)."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return number


def _str(value) -> str:
    """A string, refusing other types (a YAML null is an error, not 'None')."""
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


def _tuple(convert):
    """A list (or tuple) of converted entries; a string or a mapping is not iterated."""

    def convert_all(values):
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"expected a list, got {values!r}")
        return tuple(convert(v) for v in values)

    return convert_all


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _section(name: str, table: dict, make):
    """Converter for one mapping: only table keys, each converted, then make(**values)."""

    def convert(raw):
        if not isinstance(raw, dict):
            raise ConfigError(f"{name} must be a mapping, not {type(raw).__name__}")
        unknown = sorted(set(raw) - set(table), key=str)
        if unknown:
            raise ConfigError(f"unknown {name} keys {unknown}")
        values = {}
        for key, value in raw.items():
            # every converter error, a ConfigError included, names its key
            try:
                values[key] = table[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        # the caller names this section's key, so the message stands alone
        try:
            return make(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    return convert


# Each table lists its keys in the dataclass's field order (the task table puts
# seed second), which is the order config_to_dict writes them in.
_LATTICE = {
    "dims": _tuple(_int),
    "spacing": parse_length,
    "center": _tuple(parse_length),
    "z": parse_length,
    "filling": _float,
}
_layers = _tuple(_section("lattice", _LATTICE, LatticeSpec))
_points = _tuple(_tuple(parse_length))
_TASK = {
    "kind": _str,
    "seed": _int,
    "source_layers": _layers,
    "target_layers": _layers,
    "layer_intensity": _tuple(_float),
    "custom_source": _points,
    "custom_target": _points,
    "custom_intensity": _tuple(_float),
    "displacement": parse_length,
    "max_step": _optional(parse_length),
}
_OPTICAL = {
    "wavelength": parse_length,
    "focal_length": parse_length,
    "grid_x": _int,
    "grid_y": _int,
    "pixel_pitch": parse_length,
}
_SOLVER = {
    "iterations": _int,
    "wgs_iterations": _int,
    "over_relaxation": _float,
    "seed": _int,
}
_REFRESH = {"samples_per_refresh": _int, "order": _str}
_RUN = {
    "solvers": _tuple(_str),
    "max_step": _optional(parse_length),
}
_SECTIONS = {
    "optical": (_OPTICAL, lambda **values: replace(RunConfig().optical, **values)),
    "task": (_TASK, TaskSpec),
    "solver": (_SOLVER, SolverSettings),
    "refresh": (_REFRESH, RefreshModel),
    "run": (_RUN, RunOptions),
}
_config = _section(
    "config",
    {name: _section(name, table, make) for name, (table, make) in _SECTIONS.items()},
    RunConfig,
)
_TASK_DEFAULTS = {f.name: f.default for f in fields(TaskSpec)}


def _plain(value):
    """YAML-safe form of a config value: sequences become lists, lattices mappings."""
    if isinstance(value, LatticeSpec):
        return _dump(value, _LATTICE)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _dump(obj, table: dict) -> dict:
    return {key: _plain(getattr(obj, key)) for key in table}


def _task_to_dict(task: TaskSpec) -> dict:
    """kind, seed and every other field that differs from its TaskSpec default."""
    return {
        key: value
        for key, value in _dump(task, _TASK).items()
        if key in ("kind", "seed") or getattr(task, key) != _TASK_DEFAULTS[key]
    }


def config_to_dict(config: RunConfig) -> dict:
    out = {name: _dump(getattr(config, name), table) for name, (table, _) in _SECTIONS.items()}
    out["task"] = _task_to_dict(config.task)
    return out


def config_from_dict(raw: dict) -> RunConfig:
    """RunConfig from a parsed YAML document; any malformed input is a ConfigError."""
    return _config(raw)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict({} if raw is None else raw)


def config_to_yaml(config: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)
