"""Evaluation quantities for hologram sequences.

Covers intensity uniformity, wrapped frame-to-frame trap-phase differences
with their aggregate statistics, transition-inclusive relative-intensity
distributions from refresh sampling, and layer-resolved splits.  Histograms
are emitted as percentages over fixed bin ranges with out-of-range samples
clipped into the edge bins, so bin mass always sums to 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class Histogram:
    """Percent-valued histogram over fixed bin edges."""

    bin_edges: np.ndarray
    percent: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        pct = np.asarray(self.percent, dtype=float)
        if edges.ndim != 1 or pct.shape != (edges.size - 1,):
            raise ValueError("need len(bin_edges) == len(percent) + 1")
        edges = edges.copy()
        pct = pct.copy()
        edges.setflags(write=False)
        pct.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "percent", pct)

    def to_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), float(self.percent[i]))
            for i in range(self.percent.size)
        ]


def _clipped_counts(samples: np.ndarray, bins: int, lo: float, hi: float):
    return np.histogram(np.clip(samples, lo, hi), bins=bins, range=(lo, hi))


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TransitionStats:
    """Distribution of transition-inclusive relative intensities I/I0."""

    count: int
    minimum: float
    fraction_below: dict[float, float]
    histogram: Histogram


def transition_distribution(
    ratios: Iterable,
    thresholds: Sequence[float] = DEFAULT_RATIO_THRESHOLDS,
) -> TransitionStats:
    """Minimum, below-threshold fractions, and histogram of pooled I/I0 samples.

    The samples are pooled one interval at a time, as a running minimum and
    summed threshold and bin counts, never as one concatenated array; the
    numbers are those of the concatenation.
    """
    count = 0
    minimum = np.inf
    below = np.zeros(len(thresholds), dtype=np.int64)
    bin_counts = np.zeros(DEFAULT_RATIO_BINS, dtype=np.int64)
    edges = None
    for r in ratios:
        samples = np.asarray(r, dtype=float).ravel()
        if samples.size == 0:
            continue
        count += samples.size
        minimum = np.minimum(minimum, samples.min())
        below += [np.count_nonzero(samples < t) for t in thresholds]
        counts, edges = _clipped_counts(samples, DEFAULT_RATIO_BINS, *DEFAULT_RATIO_RANGE)
        bin_counts += counts
    if count == 0:
        raise ValueError("transition_distribution needs samples")
    return TransitionStats(
        count=count,
        minimum=float(minimum),
        fraction_below={float(t): float(b / count) for t, b in zip(thresholds, below)},
        histogram=Histogram(bin_edges=edges, percent=100.0 * bin_counts / count),
    )


@dataclass(frozen=True)
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


def compute_report(
    frame_intensities: Sequence[np.ndarray],
    dphi_vectors: Sequence[np.ndarray],
    ratio_samples: Sequence[np.ndarray],
    displacement_mean: float,
    displacement_max: float,
    trap_z: np.ndarray | None = None,
) -> MetricsReport:
    """Assemble a MetricsReport, with per-layer splits when trap_z is layered.

    frame_intensities and dphi_vectors/ratio_samples must be indexed per trap
    along their last axis so layer grouping can slice them.
    """
    layered = trap_z is not None and len(set(np.asarray(trap_z, dtype=float).tolist())) > 1
    return MetricsReport(
        frame_uniformity=tuple(uniformity(i) for i in frame_intensities),
        dphi=aggregate(dphi_vectors),
        transition=(
            transition_distribution(ratio_samples) if len(ratio_samples) else None
        ),
        displacement_mean=displacement_mean,
        displacement_max=displacement_max,
        layer_reports=(
            layer_split(
                frame_intensities, dphi_vectors, ratio_samples, trap_z,
                displacement_mean, displacement_max,
            )
            if layered else {}
        ),
    )


def layer_split(
    frame_intensities: Sequence[np.ndarray],
    dphi_vectors: Sequence[np.ndarray],
    ratio_samples: Sequence[np.ndarray],
    trap_z: np.ndarray,
    displacement_mean: float = 0.0,
    displacement_max: float = 0.0,
) -> dict[float, MetricsReport]:
    """Group per-trap metric inputs by layer z and build one report per layer."""
    z = np.asarray(trap_z, dtype=float)
    out: dict[float, MetricsReport] = {}
    for zv in sorted(set(z.tolist())):
        idx = np.flatnonzero(z == zv)
        out[zv] = compute_report(
            [np.asarray(i)[idx] for i in frame_intensities],
            [np.asarray(v)[idx] for v in dphi_vectors],
            [np.asarray(r)[..., idx] for r in ratio_samples],
            displacement_mean,
            displacement_max,
        )
    return out
