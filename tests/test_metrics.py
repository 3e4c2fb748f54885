import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from holoseq.metrics import (
    DEFAULT_DPHI_BINS,
    DEFAULT_RATIO_BINS,
    DEFAULT_RATIO_RANGE,
    DEFAULT_RATIO_THRESHOLDS,
    Histogram,
    MetricsReport,
    RunMetrics,
    TransitionStats,
    _clipped_counts,
    aggregate,
    compute_report,
    layer_split,
    phase_diff,
    transition_distribution,
    uniformity,
)
from holoseq.geometry import custom_task
from holoseq.planner import plan_task


class TestUniformity:
    def test_examples(self):
        assert uniformity([1.0, 1.0, 1.0]) == 1.0
        assert uniformity([1.0, 3.0]) == pytest.approx(0.5)
        assert uniformity([0.0, 1.0]) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            uniformity([0.0, 0.0])
        with pytest.raises(ValueError):
            uniformity([1.0, -0.5])

    def test_scale_invariance(self, rng):
        inten = rng.uniform(0.1, 2.0, 30)
        for c in (1e-6, 1.0, 1e6):
            assert uniformity(c * inten) == pytest.approx(uniformity(inten), rel=1e-12)


class TestPhaseDiff:
    def test_examples(self):
        np.testing.assert_allclose(phase_diff([0.1, 0.2], [0.1, 0.2]), 0.0)
        assert phase_diff([0.0], [3 * np.pi / 2])[0] == pytest.approx(-np.pi / 2)
        assert phase_diff([0.0], [np.pi])[0] == pytest.approx(np.pi)  # tie -> +pi

    def test_antisymmetry(self, rng):
        a = rng.uniform(-np.pi, np.pi, 50)
        b = rng.uniform(-np.pi, np.pi, 50)
        fwd = phase_diff(a, b)
        bwd = phase_diff(b, a)
        off_tie = np.abs(np.abs(fwd) - np.pi) > 1e-12
        np.testing.assert_allclose(fwd[off_tie], -bwd[off_tie], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phase_diff([0.0], [0.0, 1.0])


class TestAggregate:
    def test_zeros(self):
        stats = aggregate([np.zeros(10)])
        assert stats.std == 0.0 and stats.std_about_zero == 0.0

    def test_symmetric_pair(self):
        stats = aggregate([np.array([0.3, -0.3])])
        assert stats.std == pytest.approx(0.3)
        assert stats.std_about_zero == pytest.approx(0.3)
        assert stats.mean == pytest.approx(0.0)

    def test_about_mean_vs_about_zero(self):
        stats = aggregate([np.array([0.5, 0.5])])
        assert stats.std == 0.0
        assert stats.std_about_zero == pytest.approx(0.5)

    def test_histogram_mass(self, rng):
        stats = aggregate([rng.uniform(-np.pi, np.pi, 1000)])
        assert abs(stats.histogram.percent.sum() - 100.0) <= 1e-9
        assert stats.histogram.percent.size == 101
        assert stats.count == 1000

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            aggregate([])


def concatenated_transition_distribution(ratios, thresholds=DEFAULT_RATIO_THRESHOLDS):
    """The pooled statistics from one concatenated sample array: the oracle."""
    samples = np.concatenate([np.asarray(r, dtype=float).ravel() for r in ratios])
    lo, hi = DEFAULT_RATIO_RANGE
    clipped = np.clip(samples, lo, hi)
    counts, edges = np.histogram(clipped, bins=DEFAULT_RATIO_BINS, range=(lo, hi))
    return TransitionStats(
        count=int(samples.size),
        minimum=float(samples.min()),
        fraction_below={float(t): float(np.mean(samples < t)) for t in thresholds},
        histogram=Histogram(bin_edges=edges, percent=100.0 * counts / samples.size),
    )


def assert_same_transition(got, want):
    assert got.count == want.count
    assert got.minimum == want.minimum
    assert got.fraction_below == want.fraction_below
    np.testing.assert_array_equal(got.histogram.bin_edges, want.histogram.bin_edges)
    np.testing.assert_array_equal(got.histogram.percent, want.histogram.percent)


class TestTransitionDistribution:
    def test_matches_concatenation(self, rng):
        # intervals of (samples, traps) ratios, some outside [0, 1.2], some
        # exactly at a threshold or a bin edge, and empty intervals between
        edges = np.linspace(*DEFAULT_RATIO_RANGE, DEFAULT_RATIO_BINS + 1)
        ratios = [
            rng.uniform(-0.3, 1.6, (21, 13)),
            np.empty((0, 13)),
            np.array([
                list(DEFAULT_RATIO_THRESHOLDS) * 3,
                edges[[0, 17, 143, 171, 199, 200, 100, 1, 2]],
            ]),
            np.array([[-0.0, 0.0, 1.2, 1.2000000000000002, 5.0, -1.0]]),
            np.empty((21, 0)),
            rng.uniform(0.85, 0.97, (21, 13)),
        ]
        assert_same_transition(
            transition_distribution(ratios), concatenated_transition_distribution(ratios)
        )
        custom = (0.0, 0.5, 1.2)
        assert_same_transition(
            transition_distribution(iter(ratios), thresholds=custom),
            concatenated_transition_distribution(ratios, thresholds=custom),
        )

    @pytest.mark.parametrize("ratios", [[], [np.empty((21, 0))], [np.empty(0), np.empty((0, 4))]])
    def test_no_samples_raise(self, ratios):
        with pytest.raises(ValueError, match="needs samples"):
            transition_distribution(ratios)

    def test_constant_sequence(self):
        stats = transition_distribution([np.ones(50)])
        assert stats.minimum == 1.0
        assert stats.fraction_below[0.86] == 0.0

    def test_fraction_below(self):
        stats = transition_distribution([np.array([0.5, 0.9, 1.0, 1.0])])
        assert stats.minimum == 0.5
        assert stats.fraction_below[0.86] == pytest.approx(0.25)
        assert stats.fraction_below[0.91] == pytest.approx(0.5)
        assert stats.fraction_below[0.96] == pytest.approx(0.5)

    def test_histogram_mass_with_clipping(self, rng):
        samples = rng.uniform(0.0, 1.5, 500)  # above the 1.2 range edge
        stats = transition_distribution([samples])
        assert abs(stats.histogram.percent.sum() - 100.0) <= 1e-9

    def test_custom_thresholds(self):
        stats = transition_distribution([np.array([0.2, 0.8])], thresholds=(0.5,))
        assert stats.fraction_below == {0.5: 0.5}


# the two fixed ranges the package bins into: I/I0 and dphi
HISTOGRAM_RANGES = [
    (DEFAULT_RATIO_BINS, *DEFAULT_RATIO_RANGE),
    (DEFAULT_DPHI_BINS, -np.pi, np.pi),
]


class TestClippedCounts:
    @staticmethod
    def assert_histogram_counts(samples, bins, lo, hi):
        counts, edges = _clipped_counts(samples, bins, lo, hi)
        want_counts, want_edges = np.histogram(np.clip(samples, lo, hi), bins=bins, range=(lo, hi))
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(edges, want_edges)
        assert counts.dtype == want_counts.dtype

    @pytest.mark.parametrize("bins, lo, hi", HISTOGRAM_RANGES)
    def test_random_samples(self, rng, bins, lo, hi):
        width = hi - lo
        for samples in (rng.uniform(lo - 0.3 * width, hi + 0.3 * width, 20_000),
                        rng.uniform(lo, hi, (21, 144)).ravel(),
                        np.empty(0)):
            self.assert_histogram_counts(samples, bins, lo, hi)

    @pytest.mark.parametrize("bins, lo, hi", HISTOGRAM_RANGES)
    def test_every_edge_and_its_neighbours(self, bins, lo, hi):
        edges = np.linspace(lo, hi, bins + 1)
        for samples in (edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)):
            self.assert_histogram_counts(samples, bins, lo, hi)

    @pytest.mark.parametrize("bins, lo, hi", HISTOGRAM_RANGES)
    def test_clip_bounds_and_non_finite(self, bins, lo, hi):
        samples = np.array([lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan,
                            np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)])
        self.assert_histogram_counts(samples, bins, lo, hi)
        counts, _ = _clipped_counts(samples, bins, lo, hi)
        assert counts.sum() == samples.size - 1  # nan is dropped, as np.histogram drops it


def concatenated_report(intensities, intervals, trap_z, displacement):
    """A run's report from every frame's intensity and interval kept to the end: the oracle.

    Slices each kept array per layer and pools the slices, as the report was
    built before the metrics were folded frame by frame; each layer's
    displacement stats are those of its own traps.
    """
    z = np.asarray(trap_z, dtype=float)

    def report(idx, layer_reports):
        ratios = [r[..., idx] for r, _ in intervals]
        return MetricsReport(
            frame_uniformity=tuple(uniformity(i[idx]) for i in intensities),
            dphi=aggregate([d[idx] for _, d in intervals] or [np.zeros(idx.size)]),
            transition=concatenated_transition_distribution(ratios) if ratios else None,
            displacement_mean=float(np.mean(displacement[idx])),
            displacement_max=float(np.max(displacement[idx])),
            layer_reports=layer_reports,
        )

    levels = sorted(set(z.tolist()))
    layers = {zv: report(np.flatnonzero(z == zv), {}) for zv in levels} if len(levels) > 1 else {}
    return report(np.arange(z.size), layers)


def fold_run(intensities, intervals, trap_z, displacement=None):
    """A RunMetrics fed one frame at a time, as run_sequence feeds it (no displacement: zeros)."""
    if displacement is None:
        displacement = np.zeros(len(trap_z))
    run = RunMetrics(trap_z, displacement)
    for l, inten in enumerate(intensities):
        frame = SimpleNamespace(field=np.sqrt(inten))
        ratios, dphi = intervals[l - 1] if l else (None, None)
        run(l, frame, ratios, dphi)
    return run


def random_run(rng, trap_z, frames, samples=5):
    """Per-frame intensities and per-interval (I/I0, dphi), as a run's sink gets them.

    The intensities are the squared moduli of the fields a frame carries, so
    the fold and the oracle see the same bits; some I/I0 samples fall outside [0, 1.2].
    """
    n = len(trap_z)
    intensities = [np.abs(np.sqrt(rng.uniform(0.5, 1.5, n))) ** 2 for _ in range(frames)]
    intervals = [
        (rng.uniform(-0.2, 1.4, (samples, n)), rng.uniform(-np.pi, np.pi, n))
        for _ in range(frames - 1)
    ]
    return intensities, intervals


class TestLayerSplit:
    @pytest.mark.parametrize("trap_z", [
        np.zeros(6),
        np.array([-1e-6, -1e-6, 1e-6, 1e-6]),
        # three layers, listed out of z order
        np.array([30e-6, -30e-6, 0.0, 30e-6, 0.0, -30e-6, -30e-6, 30e-6, 0.0]),
    ])
    @pytest.mark.parametrize("frames", [1, 2, 6])
    def test_fold_matches_concatenation(self, rng, trap_z, frames):
        # bit for bit, whole run and each layer, with and without intervals
        intensities, intervals = random_run(rng, trap_z, frames)
        displacement = rng.uniform(0.0, 5e-6, len(trap_z))
        run = fold_run(intensities, intervals, trap_z, displacement)
        want = concatenated_report(intensities, intervals, trap_z, displacement)
        got = compute_report(run)
        assert got.to_dict() == want.to_dict()
        layers = layer_split(run)
        assert list(layers) == list(want.layer_reports)
        for zv, rep in layers.items():
            assert rep.to_dict() == want.layer_reports[zv].to_dict()

    def test_single_layer_matches_global(self, rng):
        # one z: the whole-run report is the only one, equal to the global stats
        intensities, intervals = random_run(rng, np.zeros(6), 3)
        run = fold_run(intensities, intervals, np.zeros(6))
        assert layer_split(run) == {}
        report = compute_report(run)
        assert report.layer_reports == {}
        assert report.dphi.std == aggregate([d for _, d in intervals]).std
        assert report.frame_uniformity[0] == uniformity(intensities[0])

    def test_zero_intervals_layered(self):
        # a single frame: no transition, and each layer's dphi is that of zeros
        z = np.array([-1e-6, 1e-6, 1e-6])
        report = compute_report(fold_run([np.ones(3)], [], z))
        assert report.transition is None and report.dphi.count == 3
        for zv, count in ((-1e-6, 1), (1e-6, 2)):
            rep = report.layer_reports[zv]
            assert rep.transition is None
            expected = aggregate([np.zeros(count)])
            assert (rep.dphi.count, rep.dphi.std, rep.dphi.mean) == (count, 0.0, 0.0)
            np.testing.assert_array_equal(rep.dphi.histogram.percent, expected.histogram.percent)

    def test_perturbed_layer_isolated(self):
        z = np.array([-1e-6, -1e-6, 1e-6, 1e-6])
        clean = np.array([1.0, 1.0, 1.0, 1.0])
        perturbed = np.array([1.0, 1.0, 1.0, 0.5])  # only upper layer degraded
        run = fold_run([clean, perturbed], [(np.ones((3, 4)), np.zeros(4))], z)
        layers = layer_split(run)
        lower, upper = layers[-1e-6], layers[1e-6]
        assert lower.frame_uniformity == (1.0, 1.0)
        assert upper.frame_uniformity[1] == pytest.approx(uniformity([1.0, 0.5]))

    def test_report_round_trip_keys(self, rng):
        z = np.array([-1e-6, -1e-6, 1e-6, 1e-6])
        intensities, intervals = random_run(rng, z, 2, samples=1)
        report = compute_report(fold_run(intensities, intervals, z))
        doc = report.to_dict()
        assert set(doc) >= {
            "frame_uniformity", "uniformity_min", "dphi",
            "transition", "displacement_mean", "displacement_max", "layers",
        }
        assert set(doc["layers"]) == {"-1e-06", "1e-06"}
        assert doc["dphi"]["count"] == 4

    def test_keeps_no_interval_array(self, rng):
        # the fold keeps each interval's dphi but none of its I/I0 arrays
        z = np.array([-1e-6, -1e-6, 1e-6, 1e-6])
        intensities, intervals = random_run(rng, z, 4)
        refs = [weakref.ref(ratios) for ratios, _ in intervals]
        run = fold_run(intensities, intervals, z)
        del intervals
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3
        assert compute_report(run).transition.count == 3 * 5 * 4

    def test_equal_displacements_mean_is_max(self):
        # np.mean of seven equal values rounds one ulp above them; every layer
        # report comes from the same pool report as this one
        d = np.full(7, np.hypot(2.5e-6, 2.5e-6))
        assert d.mean() > d.max()
        run = RunMetrics(np.zeros(7), d)
        run(0, SimpleNamespace(field=np.ones(7)), None, None)
        report = compute_report(run)
        assert report.displacement_mean == report.displacement_max == d.max()

    def test_layer_displacement_from_own_traps(self):
        # a three-layer plan whose layers move by different distances: each
        # layer reports its own traps' norms, the whole run the plan's stats
        src = [(x, 0.0, z) for z in (-30e-6, 0.0, 30e-6) for x in (-10e-6, 10e-6)]
        moves = [(1e-6, 0.0), (2e-6, 0.0), (0.0, 0.5e-6), (0.0, 0.5e-6), (0.3e-6, 0.4e-6), (0, 0)]
        tgt = [(x + dx, y + dy, z) for (x, y, z), (dx, dy) in zip(src, moves)]
        plan = plan_task(custom_task(source_points=src, target_points=tgt), max_step=0.5e-6)
        frames = plan.frames + 1
        ones = [np.ones(plan.trap_count)] * frames
        intervals = [(np.ones((3, plan.trap_count)), np.zeros(plan.trap_count))] * (frames - 1)
        with pytest.raises(ValueError, match="one displacement per trap"):
            RunMetrics(plan.target_z, plan.displacement[:-1])
        run = RunMetrics(plan.target_z, plan.displacement)
        for l, inten in enumerate(ones):
            ratios, dphi = intervals[l - 1] if l else (None, None)
            run(l, SimpleNamespace(field=inten), ratios, dphi)
        report = compute_report(run)
        assert (report.displacement_mean, report.displacement_max) == plan.displacement_stats()
        wp = plan.waypoints
        expected = {-30e-6: (1.5e-6, 2e-6), 0.0: (0.5e-6, 0.5e-6), 30e-6: (0.25e-6, 0.5e-6)}
        assert set(report.layer_reports) == set(expected)
        for zv, (mean, top) in expected.items():
            norms = np.linalg.norm(wp[:, -1] - wp[:, 0], axis=1)[plan.target_z == zv]
            rep = report.layer_reports[zv]
            assert (rep.displacement_mean, rep.displacement_max) == (
                float(norms.mean()), float(norms.max())
            )
            assert rep.displacement_mean == pytest.approx(mean, rel=1e-9)
            assert rep.displacement_max == pytest.approx(top, rel=1e-9)
