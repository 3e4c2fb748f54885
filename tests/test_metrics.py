import numpy as np
import pytest

from holoseq.metrics import (
    DEFAULT_RATIO_BINS,
    DEFAULT_RATIO_RANGE,
    DEFAULT_RATIO_THRESHOLDS,
    Histogram,
    TransitionStats,
    aggregate,
    compute_report,
    layer_split,
    phase_diff,
    transition_distribution,
    uniformity,
)


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


class TestLayerSplit:
    def test_single_layer_matches_global(self, rng):
        inten = [rng.uniform(0.5, 1.5, 6) for _ in range(3)]
        dphi = [rng.uniform(-0.1, 0.1, 6) for _ in range(2)]
        ratios = [rng.uniform(0.9, 1.0, 6) for _ in range(4)]
        z = np.zeros(6)
        layers = layer_split(inten, dphi, ratios, z)
        assert list(layers) == [0.0]
        rep = layers[0.0]
        assert rep.dphi.std == pytest.approx(aggregate(dphi).std)
        assert rep.frame_uniformity[0] == pytest.approx(uniformity(inten[0]))

    def test_perturbed_layer_isolated(self):
        z = np.array([-1e-6, -1e-6, 1e-6, 1e-6])
        clean = np.array([1.0, 1.0, 1.0, 1.0])
        perturbed = np.array([1.0, 1.0, 1.0, 0.5])  # only upper layer degraded
        layers = layer_split([clean, perturbed], [np.zeros(4)], [], z)
        lower, upper = layers[-1e-6], layers[1e-6]
        assert lower.frame_uniformity == (1.0, 1.0)
        assert upper.frame_uniformity[1] == pytest.approx(uniformity([1.0, 0.5]))

    def test_report_round_trip_keys(self, rng):
        inten = [rng.uniform(0.5, 1.5, 4) for _ in range(2)]
        dphi = [rng.uniform(-0.1, 0.1, 4)]
        ratios = [rng.uniform(0.9, 1.0, 4)]
        z = np.array([-1e-6, -1e-6, 1e-6, 1e-6])
        report = compute_report(inten, dphi, ratios, 1e-6, 2e-6, trap_z=z)
        doc = report.to_dict()
        assert set(doc) >= {
            "frame_uniformity", "uniformity_min", "dphi",
            "transition", "displacement_mean", "displacement_max", "layers",
        }
        assert set(doc["layers"]) == {"-1e-06", "1e-06"}
        assert doc["dphi"]["count"] == 4
