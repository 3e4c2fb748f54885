"""Run configuration: YAML schema, unit handling, round-trip serialization.

Lengths in files are meters by default; string values may carry an explicit
unit suffix ("17 um", "820 nm", "4 mm").  Top-level keys:

    optical:  wavelength, focal_length, grid_x, grid_y, pixel_pitch
    task:     kind, seed, and kind-specific geometry (see _task_to_dict)
    solver:   iterations, wgs_iterations, over_relaxation,
              over_relaxation_last_iters, seed
    refresh:  tau, samples_per_refresh, order
    run:      solvers, output_dir, max_step, cost, tie_break,
              over_relax_tail_fraction, warmup_frames
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields

import yaml

from .geometry import LatticeSpec, OpticalConfig, TaskSpec, minimal_3x3_task, paper_optical_config
from .solvers import SolverSettings
from .transient import RefreshModel

__all__ = [
    "ConfigError",
    "RunOptions",
    "RunConfig",
    "parse_length",
    "load_config",
    "save_config",
    "config_from_dict",
    "config_to_dict",
    "default_config",
]

_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_LENGTH_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zµ]+)\s*$")


class ConfigError(ValueError):
    """Malformed configuration input."""


def parse_length(value) -> float:
    """Meters from a bare number or a '<number> <unit>' string."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _LENGTH_RE.match(value)
        if m and m.group(2) in _UNITS:
            return float(m.group(1)) * _UNITS[m.group(2)]
        raise ConfigError(f"cannot parse length {value!r} (units: {sorted(_UNITS)})")
    raise ConfigError(f"cannot parse length from {type(value).__name__}")


@dataclass(frozen=True)
class RunOptions:
    """Pipeline-level knobs not owned by any single compute module."""

    solvers: tuple[str, ...] = ("wpgs", "wgs")
    output_dir: str = "out"
    max_step: float | None = None
    cost: str = "squared"
    tie_break: str = "lex"
    over_relax_tail_fraction: float = 1.0
    warmup_frames: int = 3

    def __post_init__(self):
        for s in self.solvers:
            if s not in ("wgs", "wpgs"):
                raise ConfigError(f"unknown solver {s!r}")
        if not (0.0 <= self.over_relax_tail_fraction <= 1.0):
            raise ConfigError("over_relax_tail_fraction must lie in [0, 1]")
        if self.warmup_frames < 0:
            raise ConfigError("warmup_frames must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    optical: OpticalConfig = field(default_factory=lambda: paper_optical_config(grid=256))
    task: TaskSpec = field(default_factory=minimal_3x3_task)
    solver: SolverSettings = field(default_factory=SolverSettings)
    refresh: RefreshModel = field(default_factory=RefreshModel)
    run: RunOptions = field(default_factory=RunOptions)


def default_config() -> RunConfig:
    return RunConfig()


def _lattice_to_dict(spec: LatticeSpec) -> dict:
    return {
        "dims": list(spec.dims),
        "spacing": spec.spacing,
        "center": list(spec.center),
        "z": spec.z,
        "filling": spec.filling,
    }


def _lattice_from_dict(raw: dict) -> LatticeSpec:
    try:
        return LatticeSpec(
            dims=tuple(int(v) for v in raw["dims"]),
            spacing=parse_length(raw["spacing"]),
            center=tuple(parse_length(v) for v in raw.get("center", (0.0, 0.0))),
            z=parse_length(raw.get("z", 0.0)),
            filling=float(raw.get("filling", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice spec {raw!r}: {exc}") from exc


def _task_to_dict(task: TaskSpec) -> dict:
    out: dict = {"kind": task.kind, "seed": task.seed}
    if task.source_layers:
        out["source_layers"] = [_lattice_to_dict(s) for s in task.source_layers]
    if task.target_layers:
        out["target_layers"] = [_lattice_to_dict(s) for s in task.target_layers]
    if task.layer_intensity:
        out["layer_intensity"] = list(task.layer_intensity)
    if task.custom_source:
        out["custom_source"] = [list(p) for p in task.custom_source]
    if task.custom_target:
        out["custom_target"] = [list(p) for p in task.custom_target]
    if task.custom_intensity:
        out["custom_intensity"] = list(task.custom_intensity)
    if task.displacement:
        out["displacement"] = task.displacement
    if task.max_step is not None:
        out["max_step"] = task.max_step
    return out


def _task_from_dict(raw: dict) -> TaskSpec:
    try:
        return TaskSpec(
            kind=raw["kind"],
            source_layers=tuple(_lattice_from_dict(d) for d in raw.get("source_layers", ())),
            target_layers=tuple(_lattice_from_dict(d) for d in raw.get("target_layers", ())),
            layer_intensity=tuple(float(v) for v in raw.get("layer_intensity", ())),
            custom_source=tuple(
                tuple(parse_length(v) for v in p) for p in raw.get("custom_source", ())
            ),
            custom_target=tuple(
                tuple(parse_length(v) for v in p) for p in raw.get("custom_target", ())
            ),
            custom_intensity=tuple(float(v) for v in raw.get("custom_intensity", ())),
            displacement=parse_length(raw.get("displacement", 0.0)),
            seed=int(raw.get("seed", 0)),
            max_step=parse_length(raw["max_step"]) if "max_step" in raw else None,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad task spec: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    opt = config.optical
    return {
        "optical": {
            "wavelength": opt.wavelength,
            "focal_length": opt.focal_length,
            "grid_x": opt.grid_x,
            "grid_y": opt.grid_y,
            "pixel_pitch": opt.pixel_pitch,
        },
        "task": _task_to_dict(config.task),
        "solver": asdict(config.solver),
        "refresh": asdict(config.refresh),
        "run": {
            "solvers": list(config.run.solvers),
            "output_dir": config.run.output_dir,
            "max_step": config.run.max_step,
            "cost": config.run.cost,
            "tie_break": config.run.tie_break,
            "over_relax_tail_fraction": config.run.over_relax_tail_fraction,
            "warmup_frames": config.run.warmup_frames,
        },
    }


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    try:
        opt_raw = raw.get("optical", {})
        optical = OpticalConfig(
            wavelength=parse_length(opt_raw.get("wavelength", 820e-9)),
            focal_length=parse_length(opt_raw.get("focal_length", 4e-3)),
            grid_x=int(opt_raw.get("grid_x", 256)),
            grid_y=int(opt_raw.get("grid_y", 256)),
            pixel_pitch=parse_length(opt_raw.get("pixel_pitch", 17e-6)),
        )
        solver_raw = dict(raw.get("solver", {}))
        known = {f.name for f in fields(SolverSettings)}
        unknown = set(solver_raw) - known
        if unknown:
            raise ConfigError(f"unknown solver keys {sorted(unknown)}")
        solver = SolverSettings(**solver_raw)
        refresh_raw = dict(raw.get("refresh", {}))
        refresh = RefreshModel(
            tau=float(refresh_raw.get("tau", 1e-3)),
            samples_per_refresh=int(refresh_raw.get("samples_per_refresh", 21)),
            order=str(refresh_raw.get("order", "leading")),
        )
        run_raw = dict(raw.get("run", {}))
        run = RunOptions(
            solvers=tuple(run_raw.get("solvers", ("wpgs", "wgs"))),
            output_dir=str(run_raw.get("output_dir", "out")),
            max_step=(
                parse_length(run_raw["max_step"])
                if run_raw.get("max_step") is not None
                else None
            ),
            cost=str(run_raw.get("cost", "squared")),
            tie_break=str(run_raw.get("tie_break", "lex")),
            over_relax_tail_fraction=float(run_raw.get("over_relax_tail_fraction", 1.0)),
            warmup_frames=int(run_raw.get("warmup_frames", 3)),
        )
        task = _task_from_dict(raw["task"]) if "task" in raw else minimal_3x3_task()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(optical=optical, task=task, solver=solver, refresh=refresh, run=run)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(raw or {})


def save_config(path, config: RunConfig) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def config_to_yaml(config: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)
