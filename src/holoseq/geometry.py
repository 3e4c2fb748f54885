"""Optical configuration, trap layouts, and canonical transport task geometries.

All lengths are in meters.  Trap indices follow a fixed convention: row-major
within a layer (y-major, x fastest), layers ordered by ascending z.  The
coordinate frame is x right, y up, z along the optical axis with the origin at
the focal point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "OpticalConfig",
    "TrapSite",
    "TrapLayout",
    "LatticeSpec",
    "TaskSpec",
    "TaskInstance",
    "build_lattice",
    "instantiate_task",
    "minimal_3x3_task",
    "reconfig_2d_task",
    "reconfig_3d_task",
    "offset_bilayer_task",
    "custom_task",
    "paper_optical_config",
]

TASK_KINDS = ("minimal_3x3", "reconfig_2d", "reconfig_3d_layers", "offset_bilayer", "custom")


@dataclass(frozen=True)
class OpticalConfig:
    """Phase-only SLM geometry plus illumination optics.

    illumination is a per-pixel real amplitude map of shape (grid_x, grid_y);
    None means uniform unit amplitude.  The map participates in propagation but
    is excluded from equality comparisons (config files never carry it).
    """

    wavelength: float
    focal_length: float
    grid_x: int
    grid_y: int
    pixel_pitch: float
    illumination: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (self.wavelength > 0):
            raise ValueError("wavelength must be > 0")
        if not (self.focal_length > 0):
            raise ValueError("focal_length must be > 0")
        if not (self.pixel_pitch > 0):
            raise ValueError("pixel_pitch must be > 0")
        if self.grid_x < 1 or self.grid_y < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.illumination is not None:
            illum = np.array(self.illumination, dtype=float)
            if illum.shape != (self.grid_x, self.grid_y):
                raise ValueError(
                    f"illumination shape {illum.shape} != grid ({self.grid_x}, {self.grid_y})"
                )
            if not np.isfinite(illum).all() or (illum < 0).any():
                raise ValueError("illumination entries must be finite and >= 0")
            if not illum.any():
                raise ValueError("illumination must not be identically zero")
            illum.setflags(write=False)
            object.__setattr__(self, "illumination", illum)

    @property
    def pixel_count(self) -> int:
        return self.grid_x * self.grid_y

    def illumination_map(self) -> np.ndarray:
        """Illumination amplitude as an array (uniform ones when unset)."""
        if self.illumination is None:
            return np.ones((self.grid_x, self.grid_y))
        return self.illumination

    def pixel_coords_x(self) -> np.ndarray:
        """Centers of pixel columns, centered on the SLM: (j - (M-1)/2) * pitch."""
        m = self.grid_x
        return (np.arange(m) - (m - 1) / 2.0) * self.pixel_pitch

    def pixel_coords_y(self) -> np.ndarray:
        m = self.grid_y
        return (np.arange(m) - (m - 1) / 2.0) * self.pixel_pitch


def paper_optical_config(grid: int = 1024) -> OpticalConfig:
    """Reference SLM model: 820 nm, f = 4 mm, 17 um pitch.

    grid=1024 is the full-scale profile; grid=256 is the desk-scale default
    used throughout the test suite.
    """
    return OpticalConfig(
        wavelength=820e-9,
        focal_length=4e-3,
        grid_x=grid,
        grid_y=grid,
        pixel_pitch=17e-6,
    )


@dataclass(frozen=True)
class TrapSite:
    """A single trap center."""

    id: str
    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"trap {self.id!r} has non-finite coordinates")


@dataclass(frozen=True)
class TrapLayout:
    """Ordered collection of trap sites; ordering defines the trap index n."""

    sites: tuple[TrapSite, ...]

    def __post_init__(self):
        if len(self.sites) < 1:
            raise ValueError("layout needs at least one trap")
        ids = [s.id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise ValueError("trap ids must be unique within a layout")
        for name, arr in (
            ("x", np.array([s.x for s in self.sites])),
            ("y", np.array([s.y for s in self.sites])),
            ("z", np.array([s.z for s in self.sites])),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def count(self) -> int:
        return len(self.sites)

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def z(self) -> np.ndarray:
        return self._z

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sites)

    def positions(self) -> np.ndarray:
        """(N, 3) coordinate array."""
        return np.column_stack([self._x, self._y, self._z])


def build_lattice(
    dims: tuple[int, int],
    spacing: float,
    center: tuple[float, float] = (0.0, 0.0),
    z: float = 0.0,
    id_prefix: str = "t",
) -> TrapLayout:
    """Row-major rectangular lattice of trap sites centered at `center`.

    dims = (nx, ny); site index n = iy * nx + ix with both indices ascending,
    so consecutive ids sweep a row of constant y.
    """
    nx, ny = dims
    if nx < 1 or ny < 1:
        raise ValueError("lattice dims must be >= 1x1")
    if not (spacing > 0):
        raise ValueError("lattice spacing must be > 0")
    cx, cy = center
    sites = []
    for iy in range(ny):
        for ix in range(nx):
            sites.append(
                TrapSite(
                    id=f"{id_prefix}{iy * nx + ix}",
                    x=cx + (ix - (nx - 1) / 2.0) * spacing,
                    y=cy + (iy - (ny - 1) / 2.0) * spacing,
                    z=z,
                )
            )
    return TrapLayout(tuple(sites))


@dataclass(frozen=True)
class LatticeSpec:
    """One rectangular layer of a task: geometry plus source filling fraction."""

    dims: tuple[int, int]
    spacing: float
    center: tuple[float, float] = (0.0, 0.0)
    z: float = 0.0
    filling: float = 1.0

    def __post_init__(self):
        if self.dims[0] < 1 or self.dims[1] < 1:
            raise ValueError("lattice dims must be >= 1x1")
        if not (self.spacing > 0):
            raise ValueError("lattice spacing must be > 0")
        if not (0.0 < self.filling <= 1.0):
            raise ValueError("filling fraction must be in (0, 1]")

    @property
    def count(self) -> int:
        return self.dims[0] * self.dims[1]


@dataclass(frozen=True)
class TaskSpec:
    """Declarative description of a transport task.

    kind selects the construction rule; source/target layers must be listed in
    ascending z.  layer_intensity gives one target-intensity value per target
    layer (empty = uniform 1).  custom kinds carry explicit point lists as
    (x, y, z) tuples.  max_step, when set, is the task's preferred transport
    discretization step in meters (callers may override).
    """

    kind: str
    source_layers: tuple[LatticeSpec, ...] = ()
    target_layers: tuple[LatticeSpec, ...] = ()
    layer_intensity: tuple[float, ...] = ()
    custom_source: tuple[tuple[float, float, float], ...] = ()
    custom_target: tuple[tuple[float, float, float], ...] = ()
    custom_intensity: tuple[float, ...] = ()
    displacement: float = 0.0
    seed: int = 0
    max_step: float | None = None

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")
        for layers in (self.source_layers, self.target_layers):
            zs = [l.z for l in layers]
            if zs != sorted(zs):
                raise ValueError("layers must be listed in ascending z")
        if self.layer_intensity and len(self.layer_intensity) != len(self.target_layers):
            raise ValueError("layer_intensity length must match target_layers")
        if any(v <= 0 for v in self.layer_intensity):
            raise ValueError("target intensities must be > 0")
        if any(v <= 0 for v in self.custom_intensity):
            raise ValueError("target intensities must be > 0")
        if self.max_step is not None and not (self.max_step > 0):
            raise ValueError("max_step must be > 0")
        if self.kind == "custom":
            if not self.custom_source or not self.custom_target:
                raise ValueError("custom tasks need custom_source and custom_target points")
        elif self.kind == "minimal_3x3":
            if len(self.source_layers) != 1 or len(self.target_layers) != 1:
                raise ValueError("minimal_3x3 needs exactly one source and target layer")
            if self.displacement < 0:
                raise ValueError("displacement must be >= 0")
        elif not self.source_layers or not self.target_layers:
            raise ValueError(f"{self.kind} tasks need source and target layers")


class TaskInstance(NamedTuple):
    source: TrapLayout
    target: TrapLayout
    target_intensity: np.ndarray


def _sample_layer(spec: LatticeSpec, rng: np.random.Generator, prefix: str) -> tuple[TrapLayout, np.ndarray]:
    """Full lattice for one layer plus its occupancy mask (per-site Bernoulli)."""
    lattice = build_lattice(spec.dims, spec.spacing, spec.center, spec.z, id_prefix=prefix)
    if spec.filling >= 1.0:
        occupied = np.ones(spec.count, dtype=bool)
    else:
        occupied = rng.random(spec.count) < spec.filling
    return lattice, occupied


def _occupied_layout(lattice: TrapLayout, occupied: np.ndarray) -> list[TrapSite]:
    return [s for s, keep in zip(lattice.sites, occupied) if keep]


def instantiate_task(spec: TaskSpec) -> TaskInstance:
    """Realize a TaskSpec into source/target layouts and target intensities.

    Deterministic given (spec, seed): occupancy is drawn per site in site
    order, source layers in listed (ascending z) order.  Raises ValueError when
    a sampled source layer cannot cover its target count; the caller adjusts
    the seed.
    """
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "custom":
        src = [TrapSite(f"s{i}", *p) for i, p in enumerate(spec.custom_source)]
        tgt = [TrapSite(f"t{i}", *p) for i, p in enumerate(spec.custom_target)]
        if len(tgt) > len(src):
            raise ValueError(f"{len(tgt)} targets but only {len(src)} sources")
        if spec.custom_intensity:
            if len(spec.custom_intensity) != len(tgt):
                raise ValueError("custom_intensity length must match custom_target")
            inten = np.array(spec.custom_intensity, dtype=float)
        else:
            inten = np.ones(len(tgt))
        return TaskInstance(TrapLayout(tuple(src)), TrapLayout(tuple(tgt)), inten)

    if spec.kind == "minimal_3x3":
        layer = spec.source_layers[0]
        src = build_lattice(layer.dims, layer.spacing, layer.center, layer.z, id_prefix="s")
        # middle row translated along the lower-right diagonal by `displacement`
        step = spec.displacement / math.sqrt(2.0)
        ny = layer.dims[1]
        mid = ny // 2
        tgt_sites = []
        for i, s in enumerate(src.sites):
            iy = i // layer.dims[0]
            if iy == mid:
                tgt_sites.append(TrapSite(f"t{i}", s.x + step, s.y - step, s.z))
            else:
                tgt_sites.append(TrapSite(f"t{i}", s.x, s.y, s.z))
        inten = np.ones(len(tgt_sites))
        return TaskInstance(src, TrapLayout(tuple(tgt_sites)), inten)

    if spec.kind in ("reconfig_2d", "reconfig_3d_layers"):
        if len(spec.source_layers) != len(spec.target_layers):
            raise ValueError("source and target layer counts must match")
        src_sites: list[TrapSite] = []
        tgt_sites: list[TrapSite] = []
        inten_parts: list[np.ndarray] = []
        for li, (s_spec, t_spec) in enumerate(zip(spec.source_layers, spec.target_layers)):
            lattice, occupied = _sample_layer(s_spec, rng, prefix=f"s{li}_")
            n_occ = int(occupied.sum())
            if n_occ < t_spec.count:
                raise ValueError(
                    f"layer {li}: sampled {n_occ} occupied sources < {t_spec.count} targets"
                    " (adjust the seed or filling)"
                )
            src_sites.extend(_occupied_layout(lattice, occupied))
            tgt = build_lattice(t_spec.dims, t_spec.spacing, t_spec.center, t_spec.z, id_prefix=f"t{li}_")
            tgt_sites.extend(tgt.sites)
            value = spec.layer_intensity[li] if spec.layer_intensity else 1.0
            inten_parts.append(np.full(t_spec.count, value))
        return TaskInstance(
            TrapLayout(tuple(src_sites)),
            TrapLayout(tuple(tgt_sites)),
            np.concatenate(inten_parts),
        )

    if spec.kind == "offset_bilayer":
        if len(spec.source_layers) != 2 or len(spec.target_layers) != 2:
            raise ValueError("offset_bilayer needs exactly two source and target layers")
        lat_a, occ_a = _sample_layer(spec.source_layers[0], rng, prefix="sA_")
        lat_b, occ_b = _sample_layer(spec.source_layers[1], rng, prefix="sB_")
        tgt_a_full = build_lattice(
            spec.target_layers[0].dims, spec.target_layers[0].spacing,
            spec.target_layers[0].center, spec.target_layers[0].z, id_prefix="tA_",
        )
        tgt_b_full = build_lattice(
            spec.target_layers[1].dims, spec.target_layers[1].spacing,
            spec.target_layers[1].center, spec.target_layers[1].z, id_prefix="tB_",
        )
        if len(tgt_a_full) != len(lat_b) or len(tgt_b_full) != len(lat_a):
            raise ValueError("bilayer source and target lattices must have matching site counts")
        # target occupancy is the opposite layer's source pattern, so the count
        # imbalance forces interlayer moves while total targets == total sources
        tgt_sites = _occupied_layout(tgt_a_full, occ_b) + _occupied_layout(tgt_b_full, occ_a)
        src_sites = _occupied_layout(lat_a, occ_a) + _occupied_layout(lat_b, occ_b)
        if not tgt_sites:
            raise ValueError("bilayer task sampled zero occupied sites (adjust seed/filling)")
        i_a = spec.layer_intensity[0] if spec.layer_intensity else 1.0
        i_b = spec.layer_intensity[1] if spec.layer_intensity else 1.0
        inten = np.concatenate([
            np.full(int(occ_b.sum()), i_a),
            np.full(int(occ_a.sum()), i_b),
        ])
        return TaskInstance(TrapLayout(tuple(src_sites)), TrapLayout(tuple(tgt_sites)), inten)

    raise AssertionError(f"unhandled kind {spec.kind}")


def minimal_3x3_task(
    spacing: float = 5e-6,
    displacement: float = 2e-6,
    z: float = 0.0,
    seed: int = 0,
) -> TaskSpec:
    """3x3 array whose middle row translates 45 deg toward lower right.

    Default displacement 2.0 um with a 0.2 um step gives a 10-frame plan.
    """
    layer = LatticeSpec(dims=(3, 3), spacing=spacing, z=z)
    return TaskSpec(
        kind="minimal_3x3",
        source_layers=(layer,),
        target_layers=(layer,),
        displacement=displacement,
        seed=seed,
        max_step=0.2e-6,
    )


def reconfig_2d_task(
    source_dims: tuple[int, int] = (36, 36),
    target_dims: tuple[int, int] = (32, 32),
    spacing: float = 5e-6,
    filling: float = 0.79,
    seed: int = 0,
) -> TaskSpec:
    """Partially filled square array reconfigured to a smaller full array.

    Full-scale defaults are 36x36 at 79% filling -> 32x32; the desk-scale
    variant used in tests is (10, 10) -> (8, 8).
    """
    return TaskSpec(
        kind="reconfig_2d",
        source_layers=(LatticeSpec(dims=source_dims, spacing=spacing, filling=filling),),
        target_layers=(LatticeSpec(dims=target_dims, spacing=spacing),),
        seed=seed,
    )


def reconfig_3d_task(
    source_layers: Sequence[LatticeSpec] | None = None,
    target_dims: tuple[int, int] = (32, 32),
    target_spacing: float = 5e-6,
    seed: int = 0,
) -> TaskSpec:
    """Three stacked layers with heterogeneous sources and identical targets.

    Defaults follow the full-scale three-layer setup (z = -30, 0, +30 um with
    per-layer dims/spacing/filling (33, 6 um, 94%), (34, 5 um, 89%),
    (35, 4 um, 84%)).  Pass scaled-down source_layers plus target_dims for the
    desk-scale variant.
    """
    if source_layers is None:
        source_layers = (
            LatticeSpec(dims=(33, 33), spacing=6e-6, z=-30e-6, filling=0.94),
            LatticeSpec(dims=(34, 34), spacing=5e-6, z=0.0, filling=0.89),
            LatticeSpec(dims=(35, 35), spacing=4e-6, z=+30e-6, filling=0.84),
        )
    source_layers = tuple(source_layers)
    targets = tuple(
        LatticeSpec(dims=target_dims, spacing=target_spacing, z=layer.z)
        for layer in source_layers
    )
    return TaskSpec(
        kind="reconfig_3d_layers",
        source_layers=source_layers,
        target_layers=targets,
        seed=seed,
    )


def offset_bilayer_task(
    dims: tuple[int, int] = (10, 10),
    spacing: float = 5e-6,
    axial_separation: float = 20e-6,
    lateral_offset: float = 2.5e-6,
    fillings: tuple[float, float] = (1.0, 0.5),
    intensities: tuple[float, float] = (1.0, 1.25),
    seed: int = 0,
) -> TaskSpec:
    """Two laterally offset layers exchanging sites through z.

    Target occupancy in each layer copies the other layer's source pattern, so
    unequal fillings force interlayer transport; per-layer target intensities
    make the run non-uniform.
    """
    half = axial_separation / 2.0
    src_a = LatticeSpec(dims=dims, spacing=spacing, z=-half, filling=fillings[0])
    src_b = LatticeSpec(
        dims=dims, spacing=spacing, center=(lateral_offset, lateral_offset),
        z=+half, filling=fillings[1],
    )
    tgt_a = LatticeSpec(dims=dims, spacing=spacing, z=-half)
    tgt_b = LatticeSpec(
        dims=dims, spacing=spacing, center=(lateral_offset, lateral_offset), z=+half
    )
    return TaskSpec(
        kind="offset_bilayer",
        source_layers=(src_a, src_b),
        target_layers=(tgt_a, tgt_b),
        layer_intensity=intensities,
        seed=seed,
    )


def custom_task(
    source_points: Sequence[tuple[float, float, float]],
    target_points: Sequence[tuple[float, float, float]],
    intensities: Sequence[float] = (),
    seed: int = 0,
) -> TaskSpec:
    return TaskSpec(
        kind="custom",
        custom_source=tuple(tuple(p) for p in source_points),
        custom_target=tuple(tuple(p) for p in target_points),
        custom_intensity=tuple(intensities),
        seed=seed,
    )
