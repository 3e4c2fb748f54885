"""Optical configuration, trap layouts, and canonical transport task geometries.

All lengths are in meters.  Trap indices follow a fixed convention: row-major
within a layer (y-major, x fastest), layers ordered by ascending z.  The
coordinate frame is x right, y up, z along the optical axis with the origin at
the focal point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np
# numpy loads numpy.random on first attribute access; load it on import, not mid-run
import numpy.random

__all__ = [
    "OpticalConfig",
    "TrapLayout",
    "concat_layouts",
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

_LAYERED = ("source_layers", "target_layers", "layer_intensity")
# the TaskSpec fields each kind reads besides kind, seed and max_step; any
# other field set away from its default would be ignored, so TaskSpec refuses it
_KIND_FIELDS = {
    "minimal_3x3": ("source_layers", "target_layers", "displacement"),
    "reconfig_2d": _LAYERED,
    "reconfig_3d_layers": _LAYERED,
    "offset_bilayer": _LAYERED,
    "custom": ("custom_source", "custom_target", "custom_intensity"),
}
TASK_KINDS = tuple(_KIND_FIELDS)


def freeze_array(record, name: str, dtype=float) -> np.ndarray:
    """Set a frozen record's array field to a read-only copy of its value, and return it."""
    arr = np.array(getattr(record, name), dtype=dtype, order="C")
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True)
class OpticalConfig:
    """Phase-only SLM geometry; every pixel sees the same unit incident amplitude."""

    wavelength: float
    focal_length: float
    grid_x: int
    grid_y: int
    pixel_pitch: float

    def __post_init__(self):
        for name in ("wavelength", "focal_length", "pixel_pitch"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        if self.grid_x < 1 or self.grid_y < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def pixel_count(self) -> int:
        return self.grid_x * self.grid_y

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


@dataclass(frozen=True, eq=False)
class TrapLayout:
    """Trap centers in trap-index order: trap n is ids[n] at xyz[n] = (x, y, z)."""

    ids: tuple[str, ...]
    xyz: np.ndarray = field(repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        xyz = freeze_array(self, "xyz")
        if not ids:
            raise ValueError("layout needs at least one trap")
        if xyz.shape != (len(ids), 3):
            raise ValueError(f"xyz shape {xyz.shape} != ({len(ids)}, 3)")
        if len(set(ids)) != len(ids):
            raise ValueError("trap ids must be unique within a layout")
        bad = ~np.isfinite(xyz).all(axis=1)
        if bad.any():
            raise ValueError(f"trap {ids[int(bad.argmax())]!r} has non-finite coordinates")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def x(self) -> np.ndarray:
        return self.xyz[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.xyz[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.xyz[:, 2]

    def positions(self) -> np.ndarray:
        """(N, 3) coordinate array, the same read-only array as xyz.

        Kept for perfbench's plan-optimality check, its one caller.
        """
        return self.xyz

    def take(self, index) -> TrapLayout:
        """The traps selected by an index array or boolean mask, in that order."""
        picked = np.arange(len(self.ids))[index]
        return TrapLayout(tuple(self.ids[i] for i in picked), self.xyz[picked])


def concat_layouts(layouts: Sequence[TrapLayout]) -> TrapLayout:
    """One layout holding the traps of each layout in turn."""
    return TrapLayout(
        tuple(i for layout in layouts for i in layout.ids),
        np.concatenate([layout.xyz for layout in layouts]),
    )


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
    if not (0 < spacing < math.inf):
        raise ValueError("lattice spacing must be finite and > 0")
    cx, cy = center
    n = np.arange(nx * ny)
    ix, iy = n % nx, n // nx
    xyz = np.column_stack([
        cx + (ix - (nx - 1) / 2.0) * spacing,
        cy + (iy - (ny - 1) / 2.0) * spacing,
        np.full(n.size, float(z)),
    ])
    return TrapLayout(tuple(f"{id_prefix}{i}" for i in range(n.size)), xyz)


@dataclass(frozen=True)
class LatticeSpec:
    """One rectangular layer of a task: geometry plus source filling fraction."""

    dims: tuple[int, int]
    spacing: float
    center: tuple[float, float] = (0.0, 0.0)
    z: float = 0.0
    filling: float = 1.0

    def __post_init__(self):
        if len(self.dims) != 2 or len(self.center) != 2:
            raise ValueError("lattice dims and center must be pairs")
        if self.dims[0] < 1 or self.dims[1] < 1:
            raise ValueError("lattice dims must be >= 1x1")
        if not (0 < self.spacing < math.inf):
            raise ValueError("lattice spacing must be finite and > 0")
        if not all(math.isfinite(v) for v in (*self.center, self.z)):
            raise ValueError("lattice center and z must be finite")
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
    discretization step in meters (callers may override).  A field the kind
    does not read (_KIND_FIELDS) must keep its default, and every check that
    needs no sampling is made here, so a malformed task fails on construction.
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
        for f in fields(self):
            # every field a kind may leave unread defaults to () or 0.0
            if f.name not in ("kind", "seed", "max_step", *_KIND_FIELDS[self.kind]) and (
                getattr(self, f.name)
            ):
                raise ValueError(f"{self.kind} tasks take no {f.name}")
        for layers in (self.source_layers, self.target_layers):
            zs = [l.z for l in layers]
            if zs != sorted(zs):
                raise ValueError("layers must be listed in ascending z")
        if any(l.filling < 1.0 for l in self.target_layers):
            raise ValueError("target layers must have filling 1: every target site is filled")
        if self.layer_intensity and len(self.layer_intensity) != len(self.target_layers):
            raise ValueError("layer_intensity length must match target_layers")
        if not all(0 < v < math.inf for v in (*self.layer_intensity, *self.custom_intensity)):
            raise ValueError("target intensities must be finite and > 0")
        if not (0 <= self.displacement < math.inf):
            raise ValueError("displacement must be finite and >= 0")
        if self.max_step is not None and not (0 < self.max_step < math.inf):
            raise ValueError("max_step must be finite and > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for points in (self.custom_source, self.custom_target):
            if any(len(p) != 3 or not all(map(math.isfinite, p)) for p in points):
                raise ValueError("custom points must be finite (x, y, z) triples")
        if self.kind == "custom":
            if not self.custom_source or not self.custom_target:
                raise ValueError("custom tasks need custom_source and custom_target points")
            if self.custom_intensity and len(self.custom_intensity) != len(self.custom_target):
                raise ValueError("custom_intensity length must match custom_target")
        elif self.kind == "minimal_3x3":
            if len(self.source_layers) != 1 or len(self.target_layers) != 1:
                raise ValueError("minimal_3x3 needs exactly one source and target layer")
            if self.target_layers != self.source_layers:
                raise ValueError("minimal_3x3's target layer must equal its source layer")
        elif not self.source_layers or not self.target_layers:
            raise ValueError(f"{self.kind} tasks need source and target layers")
        elif self.kind == "offset_bilayer":
            if len(self.source_layers) != 2 or len(self.target_layers) != 2:
                raise ValueError("offset_bilayer needs exactly two source and target layers")
            # each target layer takes the opposite source layer's occupancy
            src_a, src_b = self.source_layers
            tgt_a, tgt_b = self.target_layers
            if tgt_a.count != src_b.count or tgt_b.count != src_a.count:
                raise ValueError(
                    "bilayer source and target lattices must have matching site counts"
                )
        elif len(self.source_layers) != len(self.target_layers):
            raise ValueError("source and target layer counts must match")


class TaskInstance(NamedTuple):
    source: TrapLayout
    target: TrapLayout
    target_intensity: np.ndarray


def _lattice(spec: LatticeSpec, prefix: str) -> TrapLayout:
    return build_lattice(spec.dims, spec.spacing, spec.center, spec.z, id_prefix=prefix)


def _sample_layer(spec: LatticeSpec, rng: np.random.Generator, prefix: str) -> tuple[TrapLayout, np.ndarray]:
    """Full lattice for one layer plus its occupancy mask (per-site Bernoulli)."""
    if spec.filling >= 1.0:
        occupied = np.ones(spec.count, dtype=bool)
    else:
        occupied = rng.random(spec.count) < spec.filling
    return _lattice(spec, prefix), occupied


def instantiate_task(spec: TaskSpec) -> TaskInstance:
    """Realize a TaskSpec into source/target layouts and target intensities.

    Deterministic given (spec, seed): occupancy is drawn per site in site
    order, source layers in listed (ascending z) order.  Raises ValueError when
    a sampled source layer cannot cover its target count; the caller adjusts
    the seed.
    """
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "custom":
        n_src, n_tgt = len(spec.custom_source), len(spec.custom_target)
        if n_tgt > n_src:
            raise ValueError(f"{n_tgt} targets but only {n_src} sources")
        inten = np.array(spec.custom_intensity or np.ones(n_tgt), dtype=float)
        src = TrapLayout(tuple(f"s{i}" for i in range(n_src)), spec.custom_source)
        tgt = TrapLayout(tuple(f"t{i}" for i in range(n_tgt)), spec.custom_target)
        return TaskInstance(src, tgt, inten)

    if spec.kind == "minimal_3x3":
        src = _lattice(spec.source_layers[0], "s")
        # middle row translated along the lower-right diagonal by `displacement`
        step = spec.displacement / math.sqrt(2.0)
        nx, ny = spec.source_layers[0].dims
        xyz = src.xyz.copy()
        xyz[(ny // 2) * nx:(ny // 2 + 1) * nx, :2] += (step, -step)
        tgt = TrapLayout(tuple(f"t{i}" for i in range(len(src))), xyz)
        return TaskInstance(src, tgt, np.ones(len(tgt)))

    if spec.kind in ("reconfig_2d", "reconfig_3d_layers"):
        srcs, tgts, inten_parts = [], [], []
        for li, (s_spec, t_spec) in enumerate(zip(spec.source_layers, spec.target_layers)):
            lattice, occupied = _sample_layer(s_spec, rng, prefix=f"s{li}_")
            n_occ = int(occupied.sum())
            if n_occ < t_spec.count:
                raise ValueError(
                    f"layer {li}: sampled {n_occ} occupied sources < {t_spec.count} targets"
                    " (adjust the seed or filling)"
                )
            srcs.append(lattice.take(occupied))
            tgts.append(_lattice(t_spec, f"t{li}_"))
            value = spec.layer_intensity[li] if spec.layer_intensity else 1.0
            inten_parts.append(np.full(t_spec.count, value))
        return TaskInstance(concat_layouts(srcs), concat_layouts(tgts), np.concatenate(inten_parts))

    if spec.kind == "offset_bilayer":
        lat_a, occ_a = _sample_layer(spec.source_layers[0], rng, prefix="sA_")
        lat_b, occ_b = _sample_layer(spec.source_layers[1], rng, prefix="sB_")
        tgt_a_full = _lattice(spec.target_layers[0], "tA_")
        tgt_b_full = _lattice(spec.target_layers[1], "tB_")
        # target occupancy is the opposite layer's source pattern, so the count
        # imbalance forces interlayer moves while total targets == total sources
        if not (occ_a.any() or occ_b.any()):
            raise ValueError("bilayer task sampled zero occupied sites (adjust seed/filling)")
        i_a = spec.layer_intensity[0] if spec.layer_intensity else 1.0
        i_b = spec.layer_intensity[1] if spec.layer_intensity else 1.0
        inten = np.concatenate([np.full(int(occ_b.sum()), i_a), np.full(int(occ_a.sum()), i_b)])
        return TaskInstance(
            concat_layouts([lat_a, lat_b]).take(np.concatenate([occ_a, occ_b])),
            concat_layouts([tgt_a_full, tgt_b_full]).take(np.concatenate([occ_b, occ_a])),
            inten,
        )

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
