import numpy as np
import pytest

from holoseq.geometry import OpticalConfig, TrapLayout, TrapSite, build_lattice
from holoseq.propagation import (
    DENSE_ENTRY_LIMIT,
    PhaseMask,
    TrapField,
    adjoint_phase,
    build_dense,
    build_separable,
    forward,
    forward_dense,
    forward_field,
    wrap_phase,
)


def random_layout(rng, n, z_choices=(-30e-6, 0.0, 30e-6)):
    return TrapLayout(
        tuple(
            TrapSite(
                f"r{i}",
                float(rng.uniform(-40e-6, 40e-6)),
                float(rng.uniform(-40e-6, 40e-6)),
                float(rng.choice(z_choices)),
            )
            for i in range(n)
        )
    )


class TestWrapPhase:
    def test_examples(self):
        assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)  # tie maps to +pi
        assert wrap_phase(0.25) == pytest.approx(0.25)

    def test_antisymmetry_off_tie(self, rng):
        x = rng.uniform(-3, 3, 100)
        np.testing.assert_allclose(wrap_phase(x), -wrap_phase(-x), atol=1e-12)


class TestPhaseMask:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            PhaseMask(np.array([[np.inf, 0.0]]))

    def test_canonical_range(self):
        m = PhaseMask(np.array([[-0.5, 7.0], [2.0, -9.0]]))
        c = m.canonical()
        assert (c >= 0).all() and (c < 2 * np.pi).all()
        np.testing.assert_allclose(np.exp(1j * c), np.exp(1j * m.phases), atol=1e-12)


class TestTrapField:
    def test_derived_quantities(self):
        f = TrapField(np.array([3.0 + 4.0j, 1.0]))
        np.testing.assert_allclose(f.intensity, [25.0, 1.0])
        assert f.phase[0] == pytest.approx(np.arctan2(4, 3))


class TestSeparable:
    def test_unit_modulus_kernels(self, small_config, rng):
        layout = random_layout(rng, 12)
        prop = build_separable(small_config, layout)
        assert np.abs(np.abs(prop.kernel_x) - 1).max() <= 1e-14
        assert np.abs(np.abs(prop.kernel_y) - 1).max() <= 1e-14
        assert np.abs(np.abs(prop.axial_phase) - 1).max() <= 1e-14
        assert (prop.trap_scale > 0).all()

    def test_z_zero_drops_quadratic_term(self, small_config):
        layout = build_lattice((2, 1), 7e-6)
        prop = build_separable(small_config, layout)
        u = small_config.pixel_coords_x()
        lam, f = small_config.wavelength, small_config.focal_length
        expected = np.exp(-1j * 2 * np.pi * layout.x[:, None] * u[None, :] / (lam * f))
        np.testing.assert_allclose(prop.kernel_x, expected, atol=1e-12)

    def test_single_origin_trap_all_ones(self, small_config):
        layout = TrapLayout((TrapSite("o", 0.0, 0.0, 0.0),))
        prop = build_separable(small_config, layout)
        np.testing.assert_allclose(prop.kernel_x, 1.0)
        np.testing.assert_allclose(prop.kernel_y, 1.0)
        field = forward(prop, PhaseMask(np.zeros((64, 64))))
        total = small_config.illumination_map().sum()
        expected = prop.trap_scale[0] * prop.axial_phase[0] * total
        np.testing.assert_allclose(field.amplitudes[0], expected, rtol=1e-12)

    def test_factorization_matches_dense(self, small_config, grid_3x3):
        # A_nj proportional to c_n * U_{n,jx} * V_{n,jy}: compare per-row
        # ratios so the huge-argument axial prefactor (whose last-digit
        # rounding differs between the two construction routes) drops out
        prop = build_separable(small_config, grid_3x3)
        dense = build_dense(small_config, grid_3x3)
        kron = (prop.kernel_x[:, :, None] * prop.kernel_y[:, None, :]).reshape(9, -1)
        rel = np.abs(
            dense.matrix / dense.matrix[:, :1] - kron / kron[:, :1]
        ).max()
        assert rel <= 1e-12
        # and the full entries agree to the forward-equivalence tolerance
        rebuilt = (prop.trap_scale * prop.axial_phase)[:, None] * kron
        full = np.abs(rebuilt - dense.matrix).max() / np.abs(dense.matrix).max()
        assert full <= 1e-10


class TestForward:
    def test_matches_dense_oracle(self, small_config, rng):
        for _ in range(5):
            layout = random_layout(rng, int(rng.integers(1, 10)))
            mask = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
            e_sep = forward(build_separable(small_config, layout), mask).amplitudes
            e_dense = forward_dense(build_dense(small_config, layout), mask).amplitudes
            rel = np.abs(e_sep - e_dense).max() / np.abs(e_dense).max()
            assert rel <= 1e-10

    def test_mirror_symmetric_mask_gives_equal_intensities(self, small_config, rng):
        layout = TrapLayout(
            (TrapSite("l", -8e-6, 0.0, 0.0), TrapSite("r", 8e-6, 0.0, 0.0))
        )
        prop = build_separable(small_config, layout)
        half = rng.uniform(0, 2 * np.pi, (32, 64))
        mask = PhaseMask(np.vstack([half, half[::-1]]))
        field = forward(prop, mask)
        # x-mirror mask cannot distinguish +x from -x traps
        assert field.intensity[0] == pytest.approx(field.intensity[1], rel=1e-9)

    def test_global_phase_covariance(self, small_config, rng):
        layout = random_layout(rng, 6)
        prop = build_separable(small_config, layout)
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        theta = 1.234
        e0 = forward(prop, mask).amplitudes
        e1 = forward(prop, mask.shifted(theta)).amplitudes
        np.testing.assert_allclose(e1, e0 * np.exp(1j * theta), rtol=1e-12)
        np.testing.assert_allclose(np.abs(e1) ** 2, np.abs(e0) ** 2, rtol=1e-12)

    def test_linearity_in_pixel_field(self, small_config, rng):
        layout = random_layout(rng, 4)
        prop = build_separable(small_config, layout)
        f1 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f2 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        lhs = forward_field(prop, a * f1 + b * f2).amplitudes
        rhs = a * forward_field(prop, f1).amplitudes + b * forward_field(prop, f2).amplitudes
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_dimension_mismatch(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            forward(prop, PhaseMask(np.zeros((32, 64))))


class TestDense:
    def test_single_trap_constant_modulus(self):
        cfg = OpticalConfig(820e-9, 4e-3, 2, 2, 17e-6)
        layout = TrapLayout((TrapSite("t", 3e-6, -2e-6, 5e-6),))
        dense = build_dense(cfg, layout)
        assert dense.matrix.shape == (1, 4)
        mags = np.abs(dense.matrix)
        np.testing.assert_allclose(mags, mags[0, 0], rtol=1e-12)

    def test_z_zero_row_is_linear_ramp(self, small_config):
        layout = TrapLayout((TrapSite("t", 6e-6, -9e-6, 0.0),))
        dense = build_dense(small_config, layout)
        lam, f = small_config.wavelength, small_config.focal_length
        uu, vv = np.meshgrid(
            small_config.pixel_coords_x(), small_config.pixel_coords_y(), indexing="ij"
        )
        ramp = np.exp(-1j * 2 * np.pi * (6e-6 * uu - 9e-6 * vv).ravel() / (lam * f))
        row = dense.matrix[0] / (dense.matrix[0][0] / ramp[0])
        np.testing.assert_allclose(row, ramp, rtol=1e-10)

    def test_zero_mask_equals_row_sums(self, small_config, grid_3x3):
        dense = build_dense(small_config, grid_3x3)
        field = forward_dense(dense, PhaseMask(np.zeros((64, 64))))
        np.testing.assert_allclose(field.amplitudes, dense.matrix.sum(axis=1), rtol=1e-12)

    def test_size_guard(self):
        cfg = OpticalConfig(820e-9, 4e-3, 1024, 1024, 17e-6)
        layout = build_lattice((4, 4), 5e-6)
        assert 16 * cfg.pixel_count > DENSE_ENTRY_LIMIT
        with pytest.raises(ValueError, match="refused"):
            build_dense(cfg, layout)


class TestAdjoint:
    def test_zero_vector_gives_zero_mask_and_full_count(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        mask, n_zero = adjoint_phase(prop, np.zeros(9, dtype=complex))
        assert n_zero == small_config.pixel_count
        np.testing.assert_array_equal(mask.phases, 0.0)

    def test_single_trap_recovers_steering_grating(self, small_config):
        layout = TrapLayout((TrapSite("t", 11e-6, 4e-6, 0.0),))
        prop = build_separable(small_config, layout)
        b = prop.axial_phase * np.array([2.0 + 0.5j])
        mask, _ = adjoint_phase(prop, b)
        # steering grating: the conjugate of the trap kernel, offset by arg(b)
        expected = -(
            np.angle(prop.kernel_x[0])[:, None] + np.angle(prop.kernel_y[0])[None, :]
        ) + np.angle(b[0])
        diff = wrap_phase(mask.phases - expected)
        np.testing.assert_allclose(diff, 0.0, atol=1e-10)

    def test_round_trip_well_separated(self, desk_config, rng):
        # measured max deviation 3e-4 rad over 20 draws for this geometry
        layout = TrapLayout(
            (
                TrapSite("a", -40e-6, -40e-6, 0.0),
                TrapSite("b", 45e-6, -35e-6, 0.0),
                TrapSite("c", 0.0, 50e-6, 0.0),
            )
        )
        prop = build_separable(desk_config, layout)
        for _ in range(5):
            b = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            field = forward(prop, adjoint_phase(prop, b)[0])
            want = np.angle(b / np.conj(prop.axial_phase))
            dev = wrap_phase(field.phase - want)
            dev -= dev.mean()
            assert np.abs(dev).max() <= 1e-3

    def test_round_trip_lattice_recorded_bound(self, desk_config, rng):
        # at 5 um lattice spacing a single phase-only projection leaves
        # crosstalk; recorded worst case 0.61 rad over 20 draws (seed 42)
        layout = build_lattice((3, 3), 5e-6)
        prop = build_separable(desk_config, layout)
        for _ in range(5):
            b = np.exp(1j * rng.uniform(-np.pi, np.pi, 9))
            field = forward(prop, adjoint_phase(prop, b)[0])
            want = np.angle(b / np.conj(prop.axial_phase))
            dev = wrap_phase(field.phase - want)
            dev -= dev.mean()
            assert np.abs(dev).max() <= 0.8

    def test_length_check(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            adjoint_phase(prop, np.zeros(4, dtype=complex))

