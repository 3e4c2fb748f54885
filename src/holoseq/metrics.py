"""Evaluation quantities for hologram sequences.

Covers intensity uniformity, wrapped frame-to-frame trap-phase differences
with their aggregate statistics, transition-inclusive relative-intensity
distributions from refresh sampling, and layer-resolved splits.  A run's
metrics are folded as its frames arrive (RunMetrics), so no I/I0 array is
kept past the interval it belongs to.  Histograms are emitted as percentages
over fixed bin ranges with out-of-range samples clipped into the edge bins,
so bin mass always sums to 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .geometry import freeze_array, mean_and_max
from .propagation import wrap_phase

__all__ = [
    "Histogram",
    "AggregateStats",
    "TransitionStats",
    "MetricsReport",
    "uniformity",
    "phase_diff",
    "aggregate",
    "transition_distribution",
    "layer_split",
    "DEFAULT_RATIO_THRESHOLDS",
]

DEFAULT_DPHI_BINS = 101
DEFAULT_RATIO_BINS = 200
DEFAULT_RATIO_RANGE = (0.0, 1.2)
DEFAULT_RATIO_THRESHOLDS = (0.86, 0.91, 0.96)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Percent-valued histogram over fixed bin edges."""

    bin_edges: np.ndarray
    percent: np.ndarray

    def __post_init__(self):
        edges = freeze_array(self, "bin_edges")
        pct = freeze_array(self, "percent")
        if edges.ndim != 1 or pct.shape != (edges.size - 1,):
            raise ValueError("need len(bin_edges) == len(percent) + 1")

    def to_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), float(self.percent[i]))
            for i in range(self.percent.size)
        ]


def _clipped_counts(samples: np.ndarray, bins: int, lo: float, hi: float):
    """Counts and edges over [lo, hi], out-of-range samples clipped into the edge bins.

    nan is dropped, as np.histogram drops it.
    """
    return np.histogram(np.clip(samples, lo, hi), bins, (lo, hi))


def _clipped_histogram(samples: np.ndarray, bins: int, lo: float, hi: float) -> Histogram:
    counts, edges = _clipped_counts(samples, bins, lo, hi)
    return Histogram(bin_edges=edges, percent=100.0 * counts / samples.size)


def uniformity(intensities) -> float:
    """nu = 1 - (max I - min I) / (max I + min I); 1 iff all equal."""
    inten = np.asarray(intensities, dtype=float)
    if inten.size == 0:
        raise ValueError("uniformity needs at least one intensity")
    if (inten < 0).any():
        raise ValueError("intensities must be >= 0")
    hi = inten.max()
    lo = inten.min()
    if hi == 0.0:
        raise ValueError("uniformity undefined for all-zero intensities")
    return float(1.0 - (hi - lo) / (hi + lo))


def phase_diff(phases_l, phases_l1) -> np.ndarray:
    """Wrapped per-trap phase change between consecutive frames."""
    a = np.asarray(phases_l, dtype=float)
    b = np.asarray(phases_l1, dtype=float)
    if a.shape != b.shape:
        raise ValueError("phase vectors must have equal length")
    return wrap_phase(b - a)


@dataclass(frozen=True, eq=False)
class AggregateStats:
    """Pooled phase-difference statistics over traps and transport steps."""

    count: int
    std: float
    std_about_zero: float
    mean: float
    histogram: Histogram


def aggregate(dphi_vectors: Iterable[np.ndarray]) -> AggregateStats:
    """Pool wrapped phase differences and compute population statistics.

    std is taken about the sample mean; std_about_zero (the rms value) is
    emitted alongside since reported widths elsewhere may use either.
    """
    pooled = [np.asarray(v, dtype=float).ravel() for v in dphi_vectors]
    if not pooled:
        raise ValueError("aggregate needs at least one sample vector")
    samples = np.concatenate(pooled)
    if samples.size == 0:
        raise ValueError("aggregate needs at least one sample")
    return AggregateStats(
        count=int(samples.size),
        std=float(np.std(samples)),
        std_about_zero=float(np.sqrt(np.mean(samples * samples))),
        mean=float(samples.mean()),
        histogram=_clipped_histogram(samples, DEFAULT_DPHI_BINS, -np.pi, np.pi),
    )


@dataclass(frozen=True, eq=False)
class TransitionStats:
    """Distribution of transition-inclusive relative intensities I/I0."""

    count: int
    minimum: float
    fraction_below: dict[float, float]
    histogram: Histogram


class _RatioFold:
    """Running count, minimum, threshold counts and bin counts of I/I0 samples."""

    def __init__(self):
        self.count, self.minimum = 0, np.inf
        self.below = np.zeros(len(DEFAULT_RATIO_THRESHOLDS), dtype=np.int64)
        self.bin_counts = np.zeros(DEFAULT_RATIO_BINS, dtype=np.int64)
        self.edges = None

    def add(self, ratios) -> None:
        samples = np.asarray(ratios, dtype=float).ravel()
        if samples.size == 0:
            return
        self.count += samples.size
        self.minimum = np.minimum(self.minimum, samples.min())
        self.below += [np.count_nonzero(samples < t) for t in DEFAULT_RATIO_THRESHOLDS]
        counts, self.edges = _clipped_counts(samples, DEFAULT_RATIO_BINS, *DEFAULT_RATIO_RANGE)
        self.bin_counts += counts

    def stats(self) -> TransitionStats:
        n = self.count
        if n == 0:
            raise ValueError("transition_distribution needs samples")
        return TransitionStats(
            count=n,
            minimum=float(self.minimum),
            fraction_below={
                float(t): float(b / n) for t, b in zip(DEFAULT_RATIO_THRESHOLDS, self.below)
            },
            histogram=Histogram(bin_edges=self.edges, percent=100.0 * self.bin_counts / n),
        )


def transition_distribution(ratios: Iterable) -> TransitionStats:
    """Minimum, fractions below DEFAULT_RATIO_THRESHOLDS, and histogram of pooled I/I0 samples.

    The samples are folded in one interval at a time, never concatenated;
    the numbers are those of the concatenation.
    """
    fold = _RatioFold()
    for r in ratios:
        fold.add(r)
    return fold.stats()


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Per-run evaluation bundle; layer_reports holds per-z sub-reports."""

    frame_uniformity: tuple[float, ...]
    dphi: AggregateStats
    transition: TransitionStats | None
    displacement_mean: float
    displacement_max: float
    layer_reports: dict[float, "MetricsReport"] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "frame_uniformity": list(self.frame_uniformity),
            "uniformity_min": min(self.frame_uniformity),
            "dphi": {
                "count": self.dphi.count,
                "std": self.dphi.std,
                "std_about_zero": self.dphi.std_about_zero,
                "mean": self.dphi.mean,
                "histogram": self.dphi.histogram.to_rows(),
            },
            "displacement_mean": self.displacement_mean,
            "displacement_max": self.displacement_max,
        }
        if self.transition is not None:
            out["transition"] = {
                "count": self.transition.count,
                "min": self.transition.minimum,
                "fraction_below": {str(k): v for k, v in self.transition.fraction_below.items()},
                "histogram": self.transition.histogram.to_rows(),
            }
        if self.layer_reports:
            out["layers"] = {str(z): rep.to_dict() for z, rep in self.layer_reports.items()}
        return out


class _Pool:
    """The metric inputs of one trap group: the traps idx picks, and their displacements."""

    def __init__(self, idx, displacement: np.ndarray):
        self.idx, self.displacement = idx, displacement[idx]
        self.frame_uniformity: list[float] = []
        self.dphi: list[np.ndarray] = []
        self.transition = _RatioFold()

    def add(self, intensity: np.ndarray, ratios, dphi) -> None:
        self.frame_uniformity.append(uniformity(intensity[self.idx]))
        if dphi is not None:
            self.dphi.append(dphi[self.idx])
            self.transition.add(ratios[..., self.idx])

    def report(self, layer_reports=None) -> MetricsReport:
        displacement_mean, displacement_max = mean_and_max(self.displacement)
        return MetricsReport(
            frame_uniformity=tuple(self.frame_uniformity),
            # a run of one frame has no interval: its dphi stats are those of zeros
            dphi=aggregate(self.dphi or [np.zeros(self.displacement.size)]),
            transition=self.transition.stats() if self.dphi else None,
            displacement_mean=displacement_mean,
            displacement_max=displacement_max,
            layer_reports=layer_reports or {},
        )


class RunMetrics:
    """A run's metric inputs, folded as its frames arrive.

    Built from each trap's target z and source-to-target displacement and
    called with a run sink's arguments (l, frame, ratios, dphi), it keeps,
    for all traps and for each layer when trap_z spans more than one z, the
    group's displacements, each frame's uniformity, each interval's dphi
    vector (one float per trap) and the running I/I0 counts.  It keeps no
    I/I0 array.
    """

    def __init__(self, trap_z: np.ndarray, displacement: np.ndarray):
        z = np.asarray(trap_z, dtype=float)
        d = np.asarray(displacement, dtype=float)
        if d.shape != z.shape:
            raise ValueError("need one displacement per trap z")
        self.pool = _Pool(slice(None), d)
        levels = sorted(set(z.tolist()))
        self.layers = {zv: _Pool(np.flatnonzero(z == zv), d)
                       for zv in levels} if len(levels) > 1 else {}

    def __call__(self, l, frame, ratios, dphi) -> None:
        intensity = np.abs(frame.field) ** 2
        for pool in (self.pool, *self.layers.values()):
            pool.add(intensity, ratios, dphi)


def compute_report(run: RunMetrics) -> MetricsReport:
    """The run's MetricsReport, with per-layer reports when its traps are layered."""
    return run.pool.report(layer_split(run) if run.layers else {})


def layer_split(run: RunMetrics) -> dict[float, MetricsReport]:
    """One report per layer z of a layered run, in increasing z, each over its own traps."""
    return {zv: pool.report() for zv, pool in run.layers.items()}
