import numpy as np
import pytest

from holoseq.propagation import (
    PhaseMask,
    build_dense,
    build_separable,
    forward,
    forward_field,
    wrap_phase,
)
from holoseq.transient import (
    RefreshModel,
    intensity_model,
    mean_sq_excursion,
    pixel_interpolate,
    sample_refresh,
    transient_exact,
    transient_leading,
)

# Branch cuts of the sine-ratio oracle below: under SMALL_DPHI the ratios take
# their a / (1-a) limits; within PI_MARGIN of +-pi, where sin(dphi) -> 0 would
# cancel, the relaxing phasor is evaluated directly.
SMALL_DPHI = 1e-6
PI_MARGIN = 0.1


@pytest.fixture()
def prop(small_config, grid_3x3):
    return build_separable(small_config, grid_3x3)


def random_masks(rng, shape=(64, 64)):
    m0 = PhaseMask(rng.uniform(0, 2 * np.pi, shape))
    m1 = PhaseMask(rng.uniform(0, 2 * np.pi, shape))
    return m0, m1


def branch_masks(rng, shape=(64, 64)):
    """A start phasor and the masks whose wrapped dphi puts pixels in every sine-ratio branch.

    Every 7th pixel moves by less than SMALL_DPHI (every 49th not at all),
    every 11th lands within PI_MARGIN of +-pi, and the rest move generically;
    the wrapped dphi is checked to hit each branch.  The start mask is the
    phasor's np.angle, the phases transient_exact reads from it, so the
    oracle sees the transient's wrap edges bit for bit.
    """
    pixel = np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    phi0 = np.angle(pixel)
    dphi = rng.uniform(-3.0, 3.0, shape)
    flat = dphi.reshape(-1)
    flat[::7] = rng.uniform(-0.5, 0.5, flat[::7].size) * SMALL_DPHI
    flat[::49] = 0.0
    near = flat[3::11]
    near[:] = rng.choice([-1.0, 1.0], near.size) * (
        np.pi - rng.uniform(0.0, 0.5, near.size) * PI_MARGIN
    )
    m0, m1 = PhaseMask(phi0), PhaseMask(phi0 + dphi)
    wrapped = np.abs(wrap_phase(m1.phases - m0.phases))
    small = wrapped < SMALL_DPHI
    near_pi = np.pi - wrapped < PI_MARGIN
    assert (wrapped == 0).any() and small.sum() > (wrapped == 0).sum()
    assert near_pi.any() and (~(small | near_pi)).any()
    return pixel, m0, m1


def exact_reference(prop, mask_l, mask_l1, a):
    """Sine-ratio oracle for the exact field at one a.

    Away from the branch cuts the relaxing phasor splits as
    ``e^{i phi_l} sin(a*dphi)/sin(dphi) + e^{i phi_l1} sin((1-a)*dphi)/sin(dphi)``.
    """
    phi0 = mask_l.phases
    phi1 = mask_l1.phases
    dphi = wrap_phase(phi1 - phi0)
    small = np.abs(dphi) < SMALL_DPHI
    near_pi = (np.pi - np.abs(dphi)) < PI_MARGIN
    safe = ~(small | near_pi)
    coeff_l = np.full(dphi.shape, a)
    coeff_l1 = np.full(dphi.shape, 1.0 - a)
    sd = np.sin(dphi[safe])
    coeff_l[safe] = np.sin(a * dphi[safe]) / sd
    coeff_l1[safe] = np.sin((1.0 - a) * dphi[safe]) / sd
    pixel = np.exp(1j * phi0) * coeff_l + np.exp(1j * phi1) * coeff_l1
    if near_pi.any():
        pixel[near_pi] = np.exp(1j * (phi0[near_pi] + (1.0 - a) * dphi[near_pi]))
    return forward_field(prop, pixel)


def exact_fields(prop, pixel_l, mask_l1, samples):
    """transient_exact as a run calls it: from a start phasor and both endpoint fields.

    A run passes the previous solve's phasor; pixel_l is copied here, so a
    test may pass it again.
    """
    pixel = np.array(pixel_l)
    field_l, field_l1 = forward_field(prop, pixel), forward(prop, mask_l1)
    return transient_exact(prop, pixel, mask_l1, field_l, field_l1, samples)


def per_sample_ratios(prop, pixel_l, mask_l1, field_l, field_l1, model):
    """sample_refresh one sample at a time, each divided by I0 in turn."""
    if model.order == "exact":
        fields = exact_fields(prop, pixel_l, mask_l1, model.samples_per_refresh)
    else:
        fields = [a * field_l + (1.0 - a) * field_l1 for a in model.a_grid()]
    return np.array([np.abs(f) ** 2 / np.abs(field_l) ** 2 for f in fields])


class TestRefreshModel:
    @pytest.mark.parametrize("value", [3.5, 4.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_samples_rejected(self, value):
        # refused when the model is made, not in a_grid()
        with pytest.raises(ValueError, match="must be an integer"):
            RefreshModel(samples_per_refresh=value)

    def test_validation(self):
        with pytest.raises(ValueError):
            RefreshModel(samples_per_refresh=1)
        with pytest.raises(ValueError):
            RefreshModel(order="cubic")

    def test_a_grid_endpoints(self):
        grid = RefreshModel(samples_per_refresh=5).a_grid()
        assert grid[0] == 1.0 and grid[-1] == 0.0
        np.testing.assert_allclose(np.diff(grid), -0.25)


class TestPixelInterpolate:
    def test_endpoints(self, rng):
        m0, m1 = random_masks(rng)
        np.testing.assert_array_equal(pixel_interpolate(m0, m1, 1.0).phases, m0.phases)
        end = pixel_interpolate(m0, m1, 0.0)
        np.testing.assert_allclose(
            np.exp(1j * end.phases), np.exp(1j * m1.phases), atol=1e-12
        )

    def test_half_step_quarter_advance(self):
        m0 = PhaseMask(np.zeros((2, 2)))
        phases = np.zeros((2, 2))
        phases[0, 0] = np.pi / 2
        m1 = PhaseMask(phases)
        mid = pixel_interpolate(m0, m1, 0.5)
        assert mid.phases[0, 0] == pytest.approx(np.pi / 4)
        assert mid.phases[1, 1] == 0.0

    def test_requires_matching_dims(self):
        with pytest.raises(ValueError):
            pixel_interpolate(PhaseMask(np.zeros((2, 2))), PhaseMask(np.zeros((2, 3))), 0.5)


def a_grid(samples):
    """RefreshModel(samples).a_grid()'s values, as a plain linspace."""
    return np.linspace(1.0, 0.0, samples)


class TestTransientExact:
    def test_identity_with_interpolated_forward(self, prop, rng):
        for _ in range(5):
            m0, m1 = random_masks(rng)
            fields = exact_fields(prop, np.exp(1j * m0.phases), m1, 21)
            for a, e_exact in zip(a_grid(21), fields):
                e_ref = forward(prop, pixel_interpolate(m0, m1, float(a)))
                rel = np.abs(e_exact - e_ref).max() / np.abs(e_ref).max()
                assert rel <= 1e-12

    def test_endpoint_reproduces_start_field(self, prop, rng):
        # the a = 1 and a = 0 rows are the given endpoint fields, bit for bit;
        # the phasor is the working buffer only when there are rows between
        m0, m1 = random_masks(rng)
        e1, e0 = forward(prop, m0), forward(prop, m1)
        for samples in (2, 5):
            pixel = np.exp(1j * m0.phases)
            fields = transient_exact(prop, pixel, m1, e1, e0, samples)
            np.testing.assert_array_equal(fields[0], e1)
            np.testing.assert_array_equal(fields[-1], e0)
            assert np.array_equal(pixel, np.exp(1j * m0.phases)) == (samples <= 2)

    def test_interior_rows_start_from_the_phasor(self, prop, rng):
        # the rows between the endpoints are the forwards of the recurrence
        # started from the given phasor: turning it and the end mask by theta
        # leaves dphi as it was (to rounding) and turns them
        m0, m1 = random_masks(rng)
        e1, e0 = forward(prop, m0), forward(prop, m1)
        base = transient_exact(prop, np.exp(1j * m0.phases), m1, e1, e0, 5)
        turned = transient_exact(
            prop, np.exp(1j * (m0.phases + 0.5)), PhaseMask(m1.phases + 0.5), e1, e0, 5
        )
        rel = np.abs(turned[1:-1] - base[1:-1] * np.exp(0.5j)).max() / np.abs(base).max()
        assert rel <= 1e-12
        np.testing.assert_array_equal(turned[[0, -1]], base[[0, -1]])

    def test_matches_dense_oracle(self, small_config, grid_3x3, rng):
        from holoseq.propagation import forward_dense

        dense = build_dense(small_config, grid_3x3)
        prop = build_separable(small_config, grid_3x3)
        m0, m1 = random_masks(rng)
        # three samples: a = 1, 1/2 and 0
        fields = exact_fields(prop, np.exp(1j * m0.phases), m1, 3)
        assert fields.shape == (3, 9)
        for a, e_exact in zip(a_grid(3), fields):
            e_dense = forward_dense(dense, pixel_interpolate(m0, m1, float(a)))
            rel = np.abs(e_exact - e_dense).max() / np.abs(e_dense).max()
            assert rel <= 1e-10

    @pytest.mark.parametrize("samples", [2, 3, 21, 201])
    def test_rows_match_sine_ratio_oracle(self, prop, rng, samples):
        pixel, m0, m1 = branch_masks(rng)
        np.testing.assert_array_equal(a_grid(samples), RefreshModel(samples).a_grid())
        fields = exact_fields(prop, pixel, m1, samples)
        assert fields.shape == (samples, 9) and fields.dtype == complex
        for a, field in zip(a_grid(samples), fields):
            e_ref = exact_reference(prop, m0, m1, a)
            assert np.abs(field - e_ref).max() <= 1e-12 * np.abs(e_ref).max()

    @pytest.mark.parametrize("samples", [2, 3, 21, 201])
    def test_evenly_spaced_a_matches_scalar_calls(self, prop, rng, samples):
        # the scalar route: one forward of the interpolated mask per a.  The
        # recurrence multiplies by one step phasor per sample; at 201 samples
        # this bounds the rounding drift it accumulates along the grid
        pixel, m0, m1 = branch_masks(rng)
        fields = exact_fields(prop, pixel, m1, samples)
        scalar = np.array([
            forward(prop, pixel_interpolate(m0, m1, float(a)))
            for a in a_grid(samples)
        ])
        for field, expected in zip(fields, scalar):
            assert np.abs(field - expected).max() <= 1e-12 * np.abs(expected).max()
        # the a = 1 row is the given forward of the start phasor; the scalar
        # route takes mask_l's exp, which rebuilds that phasor to rounding; the
        # rows between come from the recurrence, so they are not the scalar
        # route's bits either
        np.testing.assert_array_equal(fields[0], forward_field(prop, pixel))
        assert np.abs(fields[0] - scalar[0]).max() <= 1e-12 * np.abs(scalar[0]).max()
        if samples > 2:
            assert not np.array_equal(fields[1:-1], scalar[1:-1])

    def test_array_of_a_identity_with_interpolated_forward(self, prop, rng):
        pixel, m0, m1 = branch_masks(rng)
        for a, field in zip(a_grid(11), exact_fields(prop, pixel, m1, 11)):
            e_ref = forward(prop, pixel_interpolate(m0, m1, float(a)))
            assert np.abs(field - e_ref).max() <= 1e-12 * np.abs(e_ref).max()

    def test_samples_validation(self, prop, rng):
        m0, m1 = random_masks(rng)
        pixel = np.exp(1j * m0.phases)
        # fewer than two samples has no a = 0 row: RefreshModel's bound
        for samples in (1, 0, -1, 2.5, 21.0, np.array(21), True):
            with pytest.raises(ValueError, match="samples"):
                exact_fields(prop, pixel, m1, samples)
        assert exact_fields(prop, pixel, m1, np.int64(3)).shape == (3, 9)
        e0 = forward(prop, m0)
        with pytest.raises(ValueError, match="pixel_l shape"):
            transient_exact(prop, pixel, PhaseMask(np.zeros((64, 32))), e0, e0, 21)
        with pytest.raises(ValueError, match="pixel_l shape"):
            transient_exact(prop, pixel[:, :32], m1, e0, e0, 21)

    def test_real_start_refused(self, prop, rng):
        # the start phases, as a real array of the grid's shape, are not a phasor
        m0, m1 = random_masks(rng)
        e0 = forward(prop, m0)
        for start in (m0.phases.copy(), np.ones((64, 64))):
            with pytest.raises(ValueError, match="pixel_l must be a complex"):
                transient_exact(prop, start, m1, e0, e0, 5)

    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize(
        "bad", [1.0 + 0j, np.ones(8, dtype=complex), np.ones((1, 9), dtype=complex)],
        ids=["scalar", "short", "2d"],
    )
    def test_endpoint_field_shape_refused(self, prop, rng, end, bad):
        # a scalar or a (1, N) row would broadcast into its row without complaint
        m0, m1 = random_masks(rng)
        pixel = np.exp(1j * m0.phases)
        ends = [forward(prop, m0), forward(prop, m1)]
        ends[end] = bad
        name = ("field_l", "field_l1")[end]
        with pytest.raises(ValueError, match=rf"{name} must have shape \(9,\)"):
            transient_exact(prop, pixel, m1, *ends, 5)
        np.testing.assert_array_equal(pixel, np.exp(1j * m0.phases))

    def test_dphi_wrap_is_wrap_phase_bits(self, prop):
        # the recurrence's step is exp(1j * wrap(phi_l1 - phi_l) / (samples - 1)),
        # the wrap bit for bit the np.mod form, on its edge cases too
        edges = [np.pi, -np.pi, 2 * np.pi, -2 * np.pi, -0.0, 0.0, 1e-300, -1e-300]
        phi_l = np.zeros((64, 64))
        phi_l1 = np.random.default_rng(3).uniform(-2 * np.pi, 2 * np.pi, (64, 64))
        phi_l1.flat[:len(edges)] = edges
        # the phasor 1 has the angle 0 exactly, so phi_l is phi_l's bits
        pixel = np.ones((64, 64), dtype=complex)
        e0 = forward_field(prop, pixel)
        transient_exact(prop, pixel, PhaseMask(phi_l1), e0, e0, 3)
        dphi = np.pi - np.mod(np.pi - (phi_l1 - phi_l), 2 * np.pi)
        np.testing.assert_array_equal(pixel, np.exp(1j * (dphi * 0.5)))


class TestTransientApproximations:
    def test_leading_endpoints_and_static_case(self, prop, rng):
        m0, m1 = random_masks(rng)
        e0 = forward(prop, m0)
        e1 = forward(prop, m1)
        np.testing.assert_array_equal(transient_leading(e0, e1, np.array([0.0]))[0], e1)
        static = transient_leading(e0, e0, np.array([0.0, 0.3, 1.0]))
        np.testing.assert_allclose(static, np.tile(e0, (3, 1)), rtol=1e-15)

    def test_leading_rows_are_per_sample_interpolations(self, prop, rng):
        m0, m1 = random_masks(rng)
        e0, e1 = forward(prop, m0), forward(prop, m1)
        grid = a_grid(21)
        rows = transient_leading(e0, e1, grid)
        assert rows.shape == (21, 9)
        for a, row in zip(grid, rows):
            np.testing.assert_array_equal(row, a * e0 + (1.0 - a) * e1)

    def test_leading_error_scales_with_msq(self, prop, rng):
        m0 = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        pattern = rng.uniform(-1, 1, (64, 64))
        errs = []
        msqs = []
        for s in np.geomspace(0.02, 0.3, 5):
            m1 = PhaseMask(m0.phases + s * pattern)
            e0, e1 = forward(prop, m0), forward(prop, m1)
            ex = exact_fields(prop, np.exp(1j * m0.phases), m1, 3)[1]  # a = 1/2
            lead = transient_leading(e0, e1, np.array([0.5]))[0]
            errs.append(np.linalg.norm(ex - lead) / np.linalg.norm(ex))
            msqs.append(mean_sq_excursion(m0, m1))
        slope = np.polyfit(np.log(msqs), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)


class TestIntensityModel:
    def test_zero_mismatch_is_flat(self):
        for a in np.linspace(0, 1, 11):
            assert intensity_model(a, 0.0) == pytest.approx(1.0)

    def test_destructive_point(self):
        assert intensity_model(0.5, np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn(self):
        assert intensity_model(0.5, np.pi / 2) == pytest.approx(0.5)

    def test_monotone_dip_at_half(self):
        values = intensity_model(0.5, np.linspace(0, np.pi, 50))
        assert (np.diff(values) < 0).all()


class TestSampleRefresh:
    def test_identical_masks_all_unity(self, prop, rng):
        m0 = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        e0 = forward(prop, m0)
        ratios = sample_refresh(prop, m0, e0, e0, RefreshModel(samples_per_refresh=7))
        assert ratios.shape == (7, 9)
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-12)

    def test_sample_count_and_shape(self, prop, rng):
        m0, m1 = random_masks(rng)
        model = RefreshModel(samples_per_refresh=9)
        ratios = sample_refresh(prop, m1, forward(prop, m0), forward(prop, m1), model)
        assert ratios.shape == (9, 9)  # samples x traps
        np.testing.assert_allclose(ratios[0], 1.0, rtol=1e-12)

    def test_exact_matches_scalar_calls(self, prop, rng):
        pixel, m0, m1 = branch_masks(rng)
        e0, e1 = forward_field(prop, pixel), forward(prop, m1)
        model = RefreshModel(samples_per_refresh=9, order="exact")
        ratios = sample_refresh(prop, m1, e0, e1, model, pixel)
        # the recurrence agrees with one sine-ratio oracle call per a to
        # rounding, not bit for bit
        expected = np.array(
            [np.abs(exact_reference(prop, m0, m1, a)) ** 2 / np.abs(e0) ** 2
             for a in model.a_grid()]
        )
        np.testing.assert_allclose(ratios, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", ["exact", "leading"])
    def test_matches_per_sample_formula(self, prop, rng, order):
        pixel, m0, m1 = branch_masks(rng)
        e0, e1 = forward_field(prop, pixel), forward(prop, m1)
        model = RefreshModel(order=order)
        expected = per_sample_ratios(prop, pixel, m1, e0, e1, model)
        ratios = sample_refresh(prop, m1, e0, e1, model, pixel)
        np.testing.assert_array_equal(ratios, expected)

    def test_exact_start_row_is_one(self, prop, rng):
        # the a = 1 sample is the given start field, so its ratio is exactly 1
        pixel, m0, m1 = branch_masks(rng)
        e0, e1 = forward(prop, m0), forward(prop, m1)
        model = RefreshModel(order="exact")
        ratios = sample_refresh(prop, m1, e0, e1, model, pixel)
        assert ratios.shape == (model.samples_per_refresh, 9)
        np.testing.assert_array_equal(ratios[0], 1.0)

    def test_exact_needs_the_start_phasor(self, prop, rng):
        m0, m1 = random_masks(rng)
        e0, e1 = forward(prop, m0), forward(prop, m1)
        with pytest.raises(ValueError, match="pixel_l"):
            sample_refresh(prop, m1, e0, e1, RefreshModel(order="exact"))

    def test_orders_agree_at_endpoints(self, prop, rng):
        m0, m1 = random_masks(rng)
        e0, e1 = forward(prop, m0), forward(prop, m1)
        by_order = {}
        for order in ("exact", "leading"):
            model = RefreshModel(samples_per_refresh=5, order=order)
            pixel = np.exp(1j * m0.phases)
            by_order[order] = sample_refresh(prop, m1, e0, e1, model, pixel)
        # both models take the endpoint rows from the given fields
        for idx in (0, -1):
            np.testing.assert_array_equal(by_order["leading"][idx], by_order["exact"][idx])
