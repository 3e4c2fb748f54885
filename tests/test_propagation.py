import dataclasses

import numpy as np
import pytest

from holoseq import propagation
from holoseq.geometry import (
    OpticalConfig,
    TrapLayout,
    build_lattice,
    concat_layouts,
    reconfig_2d_task,
)
from holoseq.planner import plan_task
from holoseq.propagation import (
    DENSE_ENTRY_LIMIT,
    PhaseMask,
    adjoint_phase,
    build_dense,
    build_separable,
    forward,
    forward_dense,
    forward_field,
    wrap_phase,
)


def random_layout(rng, n, z_choices=(-30e-6, 0.0, 30e-6)):
    xyz = [
        (rng.uniform(-40e-6, 40e-6), rng.uniform(-40e-6, 40e-6), rng.choice(z_choices))
        for _ in range(n)
    ]
    return TrapLayout(tuple(f"r{i}" for i in range(n)), xyz)


def two_layer_lattice():
    """The same 3x3 lattice on two z layers: equal x values, different kernel rows."""
    return concat_layouts([
        build_lattice((3, 3), 5e-6, z=z, id_prefix=f"z{k}_")
        for k, z in enumerate((-30e-6, 30e-6))
    ])


def desk_2d_plan():
    """The acceptance 2D task (10x10 at 79% -> 8x8, seed 7) at a 0.5 um step."""
    spec = reconfig_2d_task(source_dims=(10, 10), target_dims=(8, 8), filling=0.79, seed=7)
    return plan_task(spec, max_step=0.5e-6)


def layout_of_kind(kind, rng):
    """A layout with distinct x (random), equal x on two layers, or lattice transport."""
    if kind == "random":
        return random_layout(rng, 12)
    if kind == "two_layer_lattice":
        return two_layer_lattice()
    plan = desk_2d_plan()
    return plan.layout(plan.frames // 2)


LAYOUT_KINDS = ["random", "two_layer_lattice", "mid_transport"]


def per_trap_forward(prop, pixel_field):
    """Forward contraction over one kernel_x row per trap: the oracle for the row map."""
    contracted = (
        (prop.kernel_x[prop.x_rows] @ pixel_field) * prop.kernel_y[prop.y_rows]
    ).sum(axis=1)
    return prop.trap_scale * prop.axial_phase * contracted


def per_trap_adjoint(prop, b):
    """Back-propagated pixel field summed trap by trap: the oracle for the row map."""
    kernel_x = prop.kernel_x[prop.x_rows]
    return (np.conj(kernel_x) * b[:, None]).T @ np.conj(prop.kernel_y[prop.y_rows])


def phasor_deviation(pixel, raw):
    """Largest |pixel*|raw| - raw| relative to max|raw|: a unit phasor against a field."""
    return np.abs(pixel * np.abs(raw) - raw).max() / np.abs(raw).max()


class TestWrapPhase:
    def test_examples(self):
        assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)  # tie maps to +pi
        assert wrap_phase(0.25) == pytest.approx(0.25)

    def test_antisymmetry_off_tie(self, rng):
        x = rng.uniform(-3, 3, 100)
        np.testing.assert_allclose(wrap_phase(x), -wrap_phase(-x), atol=1e-12)

    def test_out_matches_new_array(self, rng):
        # ties, multiples of 2*pi and large angles, written in place of x
        x = np.concatenate([rng.uniform(-40, 40, 200), np.pi * np.arange(-6.0, 7.0)])
        want = wrap_phase(x)
        buf = x.copy()
        assert wrap_phase(buf, out=buf) is buf
        np.testing.assert_array_equal(buf.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("outside", [[], [2 * np.pi + 1e-9], [-7.0, 40.0]],
                             ids=["inside", "just-outside", "far"])
    def test_bits_of_np_mod_form(self, rng, outside):
        # within [-2pi, 2pi] (a difference of two angles) the wrap takes masked
        # steps in place of np.mod, outside it np.mod itself: both give the
        # bits of pi - np.mod(pi - x, 2pi)
        two_pi = 2 * np.pi
        special = [np.pi, -np.pi, two_pi, -two_pi, 0.0, -0.0, 1e-300, -1e-300,
                   np.nextafter(np.pi, 0), np.nextafter(np.pi, 4), np.nextafter(-np.pi, 0),
                   np.nextafter(-np.pi, -4), np.nextafter(two_pi, 0), np.nextafter(-two_pi, 0)]
        uniform = rng.uniform(-two_pi, two_pi, 4000 - len(special) - len(outside))
        x = np.concatenate([special, outside, uniform]).reshape(40, 100)
        want = np.pi - np.mod(np.pi - x, two_pi)
        np.testing.assert_array_equal(wrap_phase(x).view(np.uint64), want.view(np.uint64))


class TestPhaseMask:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            PhaseMask(np.array([[np.inf, 0.0]]))

    def test_canonical_range(self):
        m = PhaseMask(np.array([[-0.5, 7.0], [2.0, -9.0]]))
        c = m.canonical()
        assert (c >= 0).all() and (c < 2 * np.pi).all()
        np.testing.assert_allclose(np.exp(1j * c), np.exp(1j * m.phases), atol=1e-12)

    @pytest.mark.parametrize(
        "outside", [[], [2 * np.pi], [-2 * np.pi], [3 * np.pi, 4 * np.pi - 1e-15], [7.0, -100.0]],
        ids=["inside", "2pi", "-2pi", "below-4pi", "far"],
    )
    def test_canonical_is_np_mod_bit_for_bit(self, rng, outside):
        # inside [-2pi, 4pi) canonical() adds 2pi where negative and takes it
        # where >= 2pi; any value outside takes np.mod itself.  Both give
        # np.mod's bits, -0.0 -> +0.0
        two_pi = 2 * np.pi
        tiny = np.finfo(float).smallest_subnormal
        special = [0.0, -0.0, np.pi, -np.pi, tiny, -tiny, 1e-310, -1e-310,
                   np.finfo(float).tiny, -np.finfo(float).tiny, -1e-17, 1e-17,
                   np.nextafter(two_pi, 0), np.nextafter(-two_pi, 0),
                   np.nextafter(np.nextafter(-two_pi, 0), 0), two_pi - 1e-15, -two_pi + 1e-15]
        uniform = rng.uniform(-two_pi, two_pi, 4000 - len(special) - len(outside))
        values = np.concatenate([special, outside, uniform])
        phases = values.reshape(40, 100)
        got = PhaseMask(phases).canonical()
        want = np.mod(phases, two_pi)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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
        layout = TrapLayout(("o",), [(0.0, 0.0, 0.0)])
        prop = build_separable(small_config, layout)
        np.testing.assert_allclose(prop.kernel_x, 1.0)
        np.testing.assert_allclose(prop.kernel_y, 1.0)
        field = forward(prop, PhaseMask(np.zeros((64, 64))))
        expected = prop.trap_scale[0] * prop.axial_phase[0] * small_config.pixel_count
        np.testing.assert_allclose(field[0], expected, rtol=1e-12)

    @staticmethod
    def per_trap_kernel_y(config, layout):
        return np.exp(-1j * propagation._kernel_phase(
            layout.y, layout.z, config.pixel_coords_y(), config
        ))

    @pytest.mark.parametrize("kind", LAYOUT_KINDS + ["three_layer_lattice"])
    def test_kernel_y_matches_per_trap_build(self, small_config, rng, kind):
        # one exp row per distinct (y, z) pair, gathered per trap through
        # y_rows: the same bits as one exp row per trap
        if kind == "three_layer_lattice":
            layout = concat_layouts([
                build_lattice((3, 3), 5e-6, z=z, id_prefix=f"z{k}_")
                for k, z in enumerate((-30e-6, 0.0, 30e-6))
            ])
        else:
            layout = layout_of_kind(kind, rng)
        prop = build_separable(small_config, layout)
        pairs = {(float(y), float(z)) for y, z in zip(layout.y, layout.z)}
        assert prop.kernel_y.shape == (len(pairs), small_config.grid_y)
        gathered = prop.kernel_y[prop.y_rows]
        per_trap = self.per_trap_kernel_y(small_config, layout)
        np.testing.assert_array_equal(gathered.view(np.uint64), per_trap.view(np.uint64))

    def test_signed_zero_y_shares_a_kernel_y_row(self, small_config):
        # (y, z) = (-0.0, -0.0) shares the (0.0, 0.0) row: equal values, though
        # an exactly zero imaginary part may carry the other sign
        layout = TrapLayout(("p", "m"), [(3e-6, 0.0, 0.0), (-3e-6, -0.0, -0.0)])
        prop = build_separable(small_config, layout)
        np.testing.assert_array_equal(prop.y_rows, [0, 0])
        np.testing.assert_array_equal(
            prop.kernel_y[prop.y_rows], self.per_trap_kernel_y(small_config, layout)
        )

    def test_factorization_matches_dense(self, small_config, grid_3x3):
        # A_nj proportional to c_n * U_{n,jx} * V_{n,jy}: compare per-row
        # ratios so the huge-argument axial prefactor (whose last-digit
        # rounding differs between the two construction routes) drops out
        prop = build_separable(small_config, grid_3x3)
        dense = build_dense(small_config, grid_3x3)
        kernel_x = prop.kernel_x[prop.x_rows]
        kernel_y = prop.kernel_y[prop.y_rows]
        kron = (kernel_x[:, :, None] * kernel_y[:, None, :]).reshape(9, -1)
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
            e_sep = forward(build_separable(small_config, layout), mask)
            e_dense = forward_dense(build_dense(small_config, layout), mask)
            for e in (e_sep, e_dense):
                assert type(e) is np.ndarray and e.dtype == complex and e.shape == (len(layout),)
            rel = np.abs(e_sep - e_dense).max() / np.abs(e_dense).max()
            assert rel <= 1e-10

    def test_mirror_symmetric_mask_gives_equal_intensities(self, small_config, rng):
        layout = TrapLayout(("l", "r"), [(-8e-6, 0.0, 0.0), (8e-6, 0.0, 0.0)])
        prop = build_separable(small_config, layout)
        half = rng.uniform(0, 2 * np.pi, (32, 64))
        mask = PhaseMask(np.vstack([half, half[::-1]]))
        field = forward(prop, mask)
        # x-mirror mask cannot distinguish +x from -x traps
        intensity = np.abs(field) ** 2
        assert intensity[0] == pytest.approx(intensity[1], rel=1e-9)

    def test_global_phase_covariance(self, small_config, rng):
        layout = random_layout(rng, 6)
        prop = build_separable(small_config, layout)
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        theta = 1.234
        e0 = forward(prop, mask)
        e1 = forward(prop, PhaseMask(mask.phases + theta))
        np.testing.assert_allclose(e1, e0 * np.exp(1j * theta), rtol=1e-12)
        np.testing.assert_allclose(np.abs(e1) ** 2, np.abs(e0) ** 2, rtol=1e-12)

    def test_linearity_in_pixel_field(self, small_config, rng):
        layout = random_layout(rng, 4)
        prop = build_separable(small_config, layout)
        f1 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f2 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        lhs = forward_field(prop, a * f1 + b * f2)
        rhs = a * forward_field(prop, f1) + b * forward_field(prop, f2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("block_traps", [None, 1, 5])
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_blocked_row_product_bits(self, small_config, rng, kind, block_traps, monkeypatch):
        # on the row-sum route forward_field gathers, multiplies and sums the
        # rows a block of traps at a time, in place: the bits of the one-shot
        # expression
        monkeypatch.setattr(propagation, "TWO_SIDED_RATIO", 0)
        if block_traps is not None:
            monkeypatch.setattr(propagation, "ROW_BLOCK_ENTRIES", block_traps * small_config.grid_y)
        prop = build_separable(small_config, layout_of_kind(kind, rng))
        f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        rows = (prop.kernel_x @ f)[prop.x_rows] * prop.kernel_y[prop.y_rows]
        contracted = rows.sum(axis=1)
        want = prop.trap_scale * prop.axial_phase * contracted
        np.testing.assert_array_equal(
            forward_field(prop, f).view(np.uint64), want.view(np.uint64)
        )

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_two_sided_product_bits(self, small_config, rng, kind, monkeypatch):
        # the two-sided route: every (x row, y row) pair's sum by two GEMMs,
        # then each trap's pair
        monkeypatch.setattr(propagation, "TWO_SIDED_RATIO", np.inf)
        prop = build_separable(small_config, layout_of_kind(kind, rng))
        f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        pairs = (prop.kernel_x @ f) @ prop.kernel_y.T
        want = prop.trap_scale * prop.axial_phase * pairs[prop.x_rows, prop.y_rows]
        np.testing.assert_array_equal(
            forward_field(prop, f).view(np.uint64), want.view(np.uint64)
        )

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_routes_agree(self, small_config, rng, kind, monkeypatch):
        # each route forced on each layout: they agree with each other to
        # rounding and with the dense oracle to its 1e-10 floor
        layout = layout_of_kind(kind, rng)
        prop = build_separable(small_config, layout)
        dense = build_dense(small_config, layout)
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        e_dense = forward_dense(dense, mask)
        by_route = {}
        for route, ratio in (("row sums", 0), ("two-sided", np.inf)):
            monkeypatch.setattr(propagation, "TWO_SIDED_RATIO", ratio)
            by_route[route] = forward(prop, mask)
            rel = np.abs(by_route[route] - e_dense).max() / np.abs(e_dense).max()
            assert rel <= 1e-10, route
        rows, two = by_route["row sums"], by_route["two-sided"]
        assert np.abs(rows - two).max() <= 1e-13 * np.abs(rows).max()

    def test_route_follows_pair_count(self, small_config, rng, monkeypatch):
        # R_x * R_y <= TWO_SIDED_RATIO * N takes the two-sided route: an 8 x 8
        # lattice (64 pairs for 64 traps) does, 40 scattered traps (1600 pairs)
        # do not; each gives the bits of the route it takes
        f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        for layout, route in ((build_lattice((8, 8), 2e-6), np.inf), (random_layout(rng, 40), 0)):
            prop = build_separable(small_config, layout)
            assert prop.two_sided == (route == np.inf)
            got = forward_field(prop, f)
            with monkeypatch.context() as patch:
                patch.setattr(propagation, "TWO_SIDED_RATIO", route)
                want = forward_field(prop, f)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_dimension_mismatch(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            forward(prop, PhaseMask(np.zeros((32, 64))))


class TestDense:
    def test_single_trap_constant_modulus(self):
        cfg = OpticalConfig(820e-9, 4e-3, 2, 2, 17e-6)
        layout = TrapLayout(("t",), [(3e-6, -2e-6, 5e-6)])
        dense = build_dense(cfg, layout)
        assert dense.matrix.shape == (1, 4)
        mags = np.abs(dense.matrix)
        np.testing.assert_allclose(mags, mags[0, 0], rtol=1e-12)

    def test_z_zero_row_is_linear_ramp(self, small_config):
        layout = TrapLayout(("t",), [(6e-6, -9e-6, 0.0)])
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
        np.testing.assert_allclose(field, dense.matrix.sum(axis=1), rtol=1e-12)

    def test_size_guard(self):
        cfg = OpticalConfig(820e-9, 4e-3, 1024, 1024, 17e-6)
        layout = build_lattice((4, 4), 5e-6)
        assert 16 * cfg.pixel_count > DENSE_ENTRY_LIMIT
        with pytest.raises(ValueError, match="refused"):
            build_dense(cfg, layout)


class TestAdjoint:
    def test_zero_vector_gives_zero_mask_and_full_count(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        pixel, n_zero = adjoint_phase(prop, np.zeros(9, dtype=complex))
        assert n_zero == small_config.pixel_count
        np.testing.assert_array_equal(np.angle(pixel), 0.0)

    def test_unit_phasor_with_raw_field_angle(self, small_config, grid_3x3, rng):
        prop = build_separable(small_config, grid_3x3)
        for _ in range(5):
            b = rng.uniform(0.5, 2.0, 9) * np.exp(1j * rng.uniform(-np.pi, np.pi, 9))
            pixel, n_zero = adjoint_phase(prop, b)
            # the raw field summed in adjoint_phase's order: traps sharing a
            # kernel_x row first.  The per-trap order differs by up to 3.2e-14
            # rad in angle where |raw| is small; TestRowMap checks that order.
            by_row = np.zeros((len(prop.kernel_x), 9), dtype=complex)
            by_row[prop.x_rows, np.arange(9)] = b
            raw = np.conj(prop.kernel_x).T @ (by_row @ np.conj(prop.kernel_y)[prop.y_rows])
            assert n_zero == 0
            # measured max deviation 4.44e-16, two ulps of 1 (np.abs rounds too)
            np.testing.assert_allclose(np.abs(pixel), 1.0, rtol=0, atol=2 * np.finfo(float).eps)
            np.testing.assert_allclose(
                wrap_phase(np.angle(pixel) - np.angle(raw)), 0.0, rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_normalization_matches_division(self, desk_config, rng, kind):
        # adjoint_phase multiplies by the reciprocal magnitude; the division
        # it replaced is kept here as the reference, bit for bit
        prop = build_separable(desk_config, layout_of_kind(kind, rng))
        n = prop.trap_count
        b = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        by_row = np.zeros((len(prop.kernel_x), n), dtype=complex)
        by_row[prop.x_rows, np.arange(n)] = b
        raw = np.conj(prop.kernel_x).T @ (by_row @ np.conj(prop.kernel_y)[prop.y_rows])
        assert (raw != 0).all()
        pixel, _ = adjoint_phase(prop, b)
        np.testing.assert_array_equal(pixel.view(np.uint64), (raw / np.abs(raw)).view(np.uint64))

    def test_zero_pixel_is_unit_phasor_and_counted(self, small_config, grid_3x3, rng):
        # a zero column of kernel_x makes one pixel row back-propagate to exactly 0
        prop = build_separable(small_config, grid_3x3)
        kernel_x = prop.kernel_x.copy()
        kernel_x[:, 5] = 0.0
        prop = dataclasses.replace(prop, kernel_x=kernel_x)
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, 9))
        pixel, n_zero = adjoint_phase(prop, b)
        assert n_zero == small_config.grid_y
        np.testing.assert_array_equal(pixel[5], 1.0 + 0j)
        assert (np.abs(np.delete(pixel, 5, axis=0)) > 0.5).all()

    def test_out_buffer_gets_the_allocating_calls_bits(self, rng):
        # 96 x 90 pixels: one full normalization block and a partial one, and
        # pixel row 91, zero here, straddles the boundary between them
        config = OpticalConfig(820e-9, 4e-3, 96, 90, 17e-6)
        prop = build_separable(config, layout_of_kind("mid_transport", rng))
        kernel_x = prop.kernel_x.copy()
        kernel_x[:, [5, 91]] = 0.0
        prop = dataclasses.replace(prop, kernel_x=kernel_x)
        n = prop.trap_count
        b = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        pixel, n_zero = adjoint_phase(prop, b)
        out = np.full((96, 90), np.nan, dtype=complex)
        got, n_out = adjoint_phase(prop, b, out=out)
        assert got is out
        assert n_out == n_zero == 2 * 90
        np.testing.assert_array_equal(out.view(np.uint64), pixel.view(np.uint64))
        # the whole-array division, with the phasor 1 at the zero pixels
        pairs = np.zeros((len(prop.kernel_x), len(prop.kernel_y)), dtype=complex)
        np.add.at(pairs, (prop.x_rows, prop.y_rows), b)
        raw = np.conj(prop.kernel_x).T @ (pairs @ np.conj(prop.kernel_y))
        want = np.ones_like(raw)
        np.divide(raw, np.abs(raw), out=want, where=raw != 0)
        np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("out", [
        np.empty((64, 63), dtype=complex),
        np.empty((64, 64)),
        np.empty((64, 64), dtype=complex, order="F"),
        np.empty((64, 128), dtype=complex)[:, ::2],
        np.empty((64, 64), dtype=np.complex64),
    ], ids=["shape", "real", "fortran", "strided", "complex64"])
    def test_unusable_out_buffer_raises(self, small_config, grid_3x3, out):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError, match="out must be"):
            adjoint_phase(prop, np.ones(9, dtype=complex), out=out)

    def test_read_only_out_buffer_raises(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        out = np.empty((64, 64), dtype=complex)
        out.setflags(write=False)
        with pytest.raises(ValueError, match="out must be"):
            adjoint_phase(prop, np.ones(9, dtype=complex), out=out)

    def test_single_trap_recovers_steering_grating(self, small_config):
        layout = TrapLayout(("t",), [(11e-6, 4e-6, 0.0)])
        prop = build_separable(small_config, layout)
        b = prop.axial_phase * np.array([2.0 + 0.5j])
        pixel, _ = adjoint_phase(prop, b)
        # steering grating: the conjugate of the trap kernel, offset by arg(b)
        expected = -(
            np.angle(prop.kernel_x[0])[:, None] + np.angle(prop.kernel_y[0])[None, :]
        ) + np.angle(b[0])
        diff = wrap_phase(np.angle(pixel) - expected)
        np.testing.assert_allclose(diff, 0.0, atol=1e-10)

    def test_round_trip_well_separated(self, desk_config, rng):
        # measured max deviation 3e-4 rad over 20 draws for this geometry
        layout = TrapLayout(
            ("a", "b", "c"), [(-40e-6, -40e-6, 0.0), (45e-6, -35e-6, 0.0), (0.0, 50e-6, 0.0)]
        )
        prop = build_separable(desk_config, layout)
        for _ in range(5):
            b = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            field = forward_field(prop, adjoint_phase(prop, b)[0])
            want = np.angle(b / np.conj(prop.axial_phase))
            dev = wrap_phase(np.angle(field) - want)
            dev -= dev.mean()
            assert np.abs(dev).max() <= 1e-3

    def test_round_trip_lattice_recorded_bound(self, desk_config, rng):
        # at 5 um lattice spacing a single phase-only projection leaves
        # crosstalk; recorded worst case 0.61 rad over 20 draws (seed 42)
        layout = build_lattice((3, 3), 5e-6)
        prop = build_separable(desk_config, layout)
        for _ in range(5):
            b = np.exp(1j * rng.uniform(-np.pi, np.pi, 9))
            field = forward_field(prop, adjoint_phase(prop, b)[0])
            want = np.angle(b / np.conj(prop.axial_phase))
            dev = wrap_phase(np.angle(field) - want)
            dev -= dev.mean()
            assert np.abs(dev).max() <= 0.8

    def test_length_check(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            adjoint_phase(prop, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_matches_dense_oracle(self, small_config, rng, kind):
        # conj(A).T @ b with the per-trap prefactor c_n * scale_n divided out of
        # b leaves U^H diag(b) V^*; measured max 9.8e-12 over 20 draws of each
        # layout kind
        layout = layout_of_kind(kind, rng)
        prop = build_separable(small_config, layout)
        dense = build_dense(small_config, layout)
        n = len(layout)
        for _ in range(3):
            b = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            raw = np.conj(dense.matrix).T @ (b / np.conj(prop.trap_scale * prop.axial_phase))
            pixel, _ = adjoint_phase(prop, b)
            assert phasor_deviation(pixel, raw.reshape(64, 64)) <= 1e-10


class TestRowMap:
    def test_same_x_on_other_layer_is_its_own_row(self, small_config):
        layout = two_layer_lattice()
        prop = build_separable(small_config, layout)
        assert len(prop.kernel_x) == 6
        # traps 0 and 9 share x but not z
        assert prop.x_rows[0] != prop.x_rows[9]
        assert np.abs(prop.kernel_x[prop.x_rows[0]] - prop.kernel_x[prop.x_rows[9]]).max() > 0.1

    def test_signed_zero_x_is_one_row(self, small_config):
        layout = TrapLayout(("p", "m"), [(0.0, 3e-6, 0.0), (-0.0, -3e-6, 0.0)])
        prop = build_separable(small_config, layout)
        assert len(prop.kernel_x) == 1
        np.testing.assert_array_equal(prop.x_rows, [0, 0])

    def test_coincident_traps_keep_own_adjoint_columns(self, small_config):
        # both sources reach the pixels: the adjoint of b = (1, i) is that of
        # one trap driven by 1 + i, not of either alone
        xyz = (7e-6, -4e-6, 0.0)
        pair = build_separable(small_config, TrapLayout(("a", "b"), [xyz, xyz]))
        single = build_separable(small_config, TrapLayout(("a",), [xyz]))
        assert len(pair.kernel_x) == 1
        pixel, _ = adjoint_phase(pair, np.array([1.0, 1j]))
        expected, _ = adjoint_phase(single, np.array([1.0 + 1j]))
        np.testing.assert_allclose(pixel, expected, rtol=0, atol=1e-12)

    def test_coincident_traps_add_in_the_pair_matrix(self, small_config, rng):
        # two coincident traps among others scatter into one (x row, y row)
        # pair, where their sources add: the bits of one trap driven by the sum
        others = [(-6e-6, 2e-6, 0.0), (4e-6, 2e-6, 30e-6), (4e-6, -8e-6, 0.0)]
        xyz = (4e-6, -8e-6, 0.0)
        pair = build_separable(small_config, TrapLayout(("a", "b", "c", "d"), others + [xyz]))
        merged = build_separable(small_config, TrapLayout(("a", "b", "c"), others))
        assert (len(pair.kernel_x), len(pair.kernel_y)) == (len(merged.kernel_x), len(merged.kernel_y))
        b = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
        pixel, _ = adjoint_phase(pair, b)
        expected, _ = adjoint_phase(merged, np.array([b[0], b[1], b[2] + b[3]]))
        np.testing.assert_array_equal(pixel, expected)
        # and not the bits of either trap alone
        alone, _ = adjoint_phase(merged, b[:3])
        assert np.abs(pixel - alone).max() > 0.1

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_matches_per_trap_contraction(self, small_config, rng, kind):
        # measured max over 20 draws of each kind: forward 0, adjoint 5.4e-16
        layout = layout_of_kind(kind, rng)
        prop = build_separable(small_config, layout)
        n = len(layout)
        for _ in range(3):
            f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            want = per_trap_forward(prop, f)
            got = forward_field(prop, f)
            assert np.abs(got - want).max() / np.abs(want).max() <= 1e-12
            b = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            pixel, _ = adjoint_phase(prop, b)
            assert phasor_deviation(pixel, per_trap_adjoint(prop, b)) <= 1e-12

    def test_desk_2d_mid_transport_row_count(self, desk_config):
        # the traps of a lattice transport share x values: frame 7 of the
        # desk-2d plan has 13 distinct (x, z) pairs for 64 traps
        plan = desk_2d_plan()
        prop = build_separable(desk_config, plan.layout(7))
        assert prop.trap_count == 64
        assert len(prop.kernel_x) == 13

