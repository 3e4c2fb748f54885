import numpy as np
import pytest

from holoseq import solvers
from holoseq.geometry import TrapLayout
from holoseq.metrics import uniformity
from holoseq.propagation import build_separable, forward, forward_field, wrap_phase
from holoseq.solvers import (
    SOLVER_KINDS,
    DarkTrapError,
    SolverSettings,
    objective,
    over_relax,
    phase_step,
    random_mask,
    scale_update,
    weight_update,
    wgs_solve,
    wpgs_solve,
)


def uniform_target(n, phase=0.0):
    """Unit target intensities and a common target phase, wpgs_solve's two arrays."""
    return np.ones(n), np.full(n, phase)


def target_field(intensity, phase):
    return np.sqrt(intensity) * np.exp(1j * phase)


# fixed-seed traces of the 3x3 lattice on the 64x64 grid (see TestPinnedTraces),
# recorded before wpgs_solve and wgs_solve shared one loop
PINNED_INTENSITY = np.array([1.0, 1.2, 0.8, 1.0, 1.5, 0.7, 1.1, 0.9, 1.3])
WGS_OBJECTIVE = [
    153.44932962330964, 48054.67591608013, 29131.862002227906,
    23193.51552383767, 246446.4113854086, 140210.5220499331,
    129280.33440926831, 134311.4054005328, 136807.77327160054,
    139075.49412445517, 140408.00391174265, 141764.54193375673,
    142107.6853704846, 141823.73421281693, 141291.3225423819,
    140788.15945491393, 140441.7547729632, 140261.49425033818,
    140197.9341115838, 140198.23290789494, 140225.93278330093,
    140257.45421457093, 140282.23515989666, 140298.24512564862,
    140307.36042225413, 140311.9577187359,
]
WGS_WEIGHTS = [
    1.0093200158559357, 0.9536027313895967, 1.1284029042392578,
    1.04850871214504, 0.6584769286664797, 1.247237091974479,
    0.9638435263341806, 1.1039420404117426, 0.8866660489832863,
]
WPGS_OBJECTIVE = [
    3875.757451437824, 1059.5186116001375, 845.3325068060664,
    947.2758736661489, 1034.8191867410287,
]
WPGS_WEIGHTS = [
    1.0325914206186757, 1.0481729684423393, 0.9490515627813636,
    1.1061538453933075, 0.8862808526422078, 0.8979837427502941,
    1.0633768045266934, 0.9471577539502791, 1.0692310488948384,
]


class TestSolverSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(iterations=0)
        with pytest.raises(ValueError):
            SolverSettings(over_relaxation=1.0)
        # numpy's generators take no negative seed: refused when the settings are made
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SolverSettings(seed=-1)


class TestWeightUpdate:
    def test_fixed_point(self):
        e_tar = target_field(*uniform_target(3))
        field = np.exp(1j * np.array([0.1, 0.2, 0.3]))
        w = weight_update(np.ones(3), np.abs(field), np.abs(e_tar))
        np.testing.assert_allclose(w, 1.0, atol=1e-15)

    def test_two_trap_example(self):
        # amplitudes (1, 2) against unit targets: raw (1, 0.5) -> (4/3, 2/3)
        e_tar = target_field(*uniform_target(2))
        field = np.array([1.0 + 0j, 2.0 + 0j])
        w = weight_update(np.ones(2), np.abs(field), np.abs(e_tar))
        np.testing.assert_allclose(w, [4.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_unit_mean_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            field = rng.normal(size=n) + 1j * rng.normal(size=n) + 3.0
            e_tar = target_field(rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n))
            w = weight_update(
                rng.uniform(0.5, 1.5, n), np.abs(field), np.abs(e_tar)
            )
            assert abs(w.mean() - 1.0) <= 1e-12
            assert (w > 0).all()

    def test_dark_trap_raises(self):
        e_tar = target_field(*uniform_target(2))
        field = np.array([1.0 + 0j, 0.0 + 0j])
        with pytest.raises(DarkTrapError) as err:
            weight_update(np.ones(2), np.abs(field), np.abs(e_tar))
        assert 1 in err.value.indices


class TestOverRelax:
    def test_beta_zero_returns_previous_tilde(self):
        w_prev = np.array([1.0, 1.0])
        w_tilde_prev = np.array([1.05, 0.95])
        w_tilde_new = np.array([1.2, 0.8])
        np.testing.assert_allclose(
            over_relax(w_prev, w_tilde_prev, w_tilde_new, 0.0), w_tilde_prev
        )

    def test_fixed_point(self):
        w = np.array([1.1, 0.9])
        np.testing.assert_allclose(over_relax(w, w, w, 0.85), w)

    def test_direct_substitution(self):
        got = over_relax(
            np.array([1.0, 1.0]), np.array([1.1, 0.9]), np.array([1.2, 0.8]), 0.85
        )
        np.testing.assert_allclose(got, [1.27, 0.73], rtol=1e-15)


class TestScaleUpdate:
    def test_exact_alignment(self):
        e_tar = target_field(np.array([1.0, 2.0]), np.array([0.3, -0.7]))
        s_true = 2.0 * np.exp(1j * np.pi / 3)
        field = s_true * e_tar
        s = scale_update(e_tar, np.ones(2) * field)
        assert s == pytest.approx(s_true)
        assert objective(np.ones(2) * field, s, e_tar) == pytest.approx(
            0.0, abs=1e-24
        )

    def test_orthogonal_field_gives_zero(self):
        e_tar = target_field(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        field = np.array([1.0, -1.0])  # orthogonal to (1, 1)
        assert scale_update(e_tar, np.ones(2) * field) == pytest.approx(0.0)

    def test_beats_random_perturbations(self, rng):
        for _ in range(20):
            n = 8
            field = rng.normal(size=n) + 1j * rng.normal(size=n)
            e_tar = target_field(rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n))
            w = rng.uniform(0.5, 1.5, n)
            we = w * field
            s = scale_update(e_tar, we)
            base = objective(we, s, e_tar)
            for _ in range(100):
                delta = 0.3 * (rng.normal() + 1j * rng.normal())
                assert objective(we, s + delta, e_tar) >= base - 1e-12

    def test_projective_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            field = rng.normal(size=n) + 1j * rng.normal(size=n)
            e_tar = target_field(rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n))
            w = rng.uniform(0.5, 1.5, n)
            we = w * field
            s = scale_update(e_tar, we)
            j = objective(we, s, e_tar)
            p = np.outer(e_tar, np.conj(e_tar)) / np.vdot(e_tar, e_tar).real
            j_proj = np.linalg.norm(we - p @ we) ** 2
            assert j == pytest.approx(j_proj, rel=1e-10)


class TestPhaseStep:
    def test_single_trap_steering(self, small_config):
        layout = TrapLayout(("t",), [(9e-6, -6e-6, 0.0)])
        prop = build_separable(small_config, layout)
        e_tar = target_field(np.array([1.0]), np.array([0.4]))
        pixel, _ = phase_step(prop, np.ones(1), 1.0 + 0j, e_tar)
        expected = -(
            np.angle(prop.kernel_x[0])[:, None] + np.angle(prop.kernel_y[0])[None, :]
        ) + np.angle(np.conj(prop.axial_phase[0]) * np.exp(0.4j))
        np.testing.assert_allclose(wrap_phase(np.angle(pixel) - expected), 0.0, atol=1e-10)

    def test_positive_scaling_invariance(self, small_config, grid_3x3, rng):
        prop = build_separable(small_config, grid_3x3)
        e_tar = target_field(rng.uniform(0.5, 2, 9), rng.uniform(-np.pi, np.pi, 9))
        w = rng.uniform(0.5, 1.5, 9)
        m1, _ = phase_step(prop, w, 0.8 + 0j, e_tar)
        m2, _ = phase_step(prop, 3.0 * w, 0.8 + 0j, e_tar)
        np.testing.assert_allclose(np.angle(m1), np.angle(m2), atol=1e-12)

    def test_unit_phase_scaling_shifts_mask(self, small_config, grid_3x3, rng):
        prop = build_separable(small_config, grid_3x3)
        e_tar = target_field(rng.uniform(0.5, 2, 9), rng.uniform(-np.pi, np.pi, 9))
        w = rng.uniform(0.5, 1.5, 9)
        theta = 0.9
        m1, _ = phase_step(prop, w, 1.0 + 0j, e_tar)
        m2, _ = phase_step(prop, w, np.exp(1j * theta), e_tar)
        np.testing.assert_allclose(
            wrap_phase(np.angle(m2) - np.angle(m1) - theta), 0.0, atol=1e-10
        )


class TestWpgsSolve:
    def test_single_trap_one_iteration(self, desk_config):
        layout = TrapLayout(("t",), [(12e-6, -7e-6, 0.0)])
        prop = build_separable(desk_config, layout)
        res = wpgs_solve(
            prop, np.array([1.0]), np.array([0.7]), SolverSettings(iterations=1, seed=3)
        )
        assert uniformity(np.abs(res.field) ** 2) == 1.0
        predicted = 0.7 + np.angle(res.scale)
        assert abs(wrap_phase(np.angle(res.field)[0] - predicted)) <= 1e-6

    def test_3x3_uniform_converges(self, desk_config, grid_3x3):
        prop = build_separable(desk_config, grid_3x3)
        settings = SolverSettings(seed=0)
        warm = wgs_solve(prop, np.ones(9), settings)
        res = wpgs_solve(
            prop, np.ones(9), np.angle(warm.field), settings,
            init_mask=warm.mask, init_weights=warm.weights,
        )
        assert uniformity(np.abs(res.field) ** 2) >= 0.99
        assert len(res.objective) == settings.iterations
        # J trend is recorded but not asserted: the warm-started solve sits at
        # the noise floor where monotone descent is not guaranteed
        print("wpgs 3x3 objective trace:", [f"{v:.4e}" for v in res.objective])

    def test_weights_stay_unit_mean(self, desk_config, grid_3x3):
        prop = build_separable(desk_config, grid_3x3)
        res = wpgs_solve(prop, *uniform_target(9), SolverSettings(seed=1))
        assert abs(res.weights.mean() - 1.0) <= 1e-12

    def test_field_matches_mask(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        res = wpgs_solve(prop, *uniform_target(9), SolverSettings(seed=2))
        re_run = forward(prop, res.mask)
        np.testing.assert_allclose(res.field, re_run, rtol=1e-12)

    def test_init_field_matches_init_mask(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        init = random_mask(small_config, 4)
        for res in (
            wpgs_solve(prop, *uniform_target(9), SolverSettings(), init_mask=init),
            wgs_solve(prop, np.ones(9), SolverSettings(), init_mask=init),
        ):
            np.testing.assert_array_equal(res.init_field, forward(prop, init))

    def test_nonuniform_target_fixed_point(self, desk_config, grid_3x3, rng):
        # converged solve: |E_n| proportional to |E_tar,n| within 2 percent
        prop = build_separable(desk_config, grid_3x3)
        inten = rng.uniform(0.5, 2.0, 9)
        settings = SolverSettings(seed=0)
        warm = wgs_solve(prop, inten, settings)
        res = wpgs_solve(
            prop, inten, np.angle(warm.field), SolverSettings(iterations=20),
            init_mask=warm.mask, init_weights=warm.weights,
        )
        ratio = np.abs(res.field) / np.sqrt(inten)
        assert np.abs(ratio / ratio.mean() - 1.0).max() <= 0.02

    @pytest.mark.parametrize("intensity, phase", [
        (np.array([1.0] * 8 + [0.0]), np.zeros(9)),
        (np.ones(9), np.array([0.0] * 8 + [np.nan])),
        (np.ones(8), np.zeros(8)),
        (np.ones(9), np.zeros(8)),
    ], ids=["zero-intensity", "nan-phase", "short", "short-phase"])
    def test_rejects_bad_target(self, small_config, grid_3x3, intensity, phase):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError, match="target"):
            wpgs_solve(prop, intensity, phase, SolverSettings())

    def test_result_arrays_are_read_only(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        res = wpgs_solve(prop, *uniform_target(9), SolverSettings(iterations=2))
        for name in ("weights", "field", "init_field"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(res, name)[:] = 1
        res.pixel[0, 0] = 1  # grid-sized, kept as the solve left it

    def test_rejects_bad_weights(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            wpgs_solve(
                prop, *uniform_target(9), SolverSettings(), init_weights=np.zeros(9)
            )


class TestWgsSolve:
    def test_3x3_converges(self, desk_config, grid_3x3):
        prop = build_separable(desk_config, grid_3x3)
        res = wgs_solve(prop, np.ones(9), SolverSettings(seed=0))
        assert uniformity(np.abs(res.field) ** 2) >= 0.99
        assert len(res.objective) == 26
        assert res.scale == 1.0 + 0j

    def test_single_trap_parity_with_wpgs(self, small_config):
        layout = TrapLayout(("t",), [(-10e-6, 3e-6, 0.0)])
        prop = build_separable(small_config, layout)
        settings = SolverSettings(seed=5)
        res_wgs = wgs_solve(prop, np.ones(1), settings)
        res_wpgs = wpgs_solve(prop, *uniform_target(1), settings)
        for res in (res_wgs, res_wpgs):
            assert uniformity(np.abs(res.field) ** 2) == 1.0

    def test_intensity_length_check(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        with pytest.raises(ValueError):
            wgs_solve(prop, np.ones(4), SolverSettings())


class TestLoopStructure:
    """The loop carries a pixel phasor; only a PhaseMask start takes an exp."""

    @pytest.fixture()
    def solves(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        settings = SolverSettings(iterations=4, wgs_iterations=7, seed=3)
        return prop, settings, {
            "wpgs": lambda **start: wpgs_solve(prop, *uniform_target(9), settings, **start),
            "wgs": lambda **start: wgs_solve(prop, np.ones(9), settings, **start),
        }

    @pytest.fixture()
    def counted_calls(self, monkeypatch):
        calls = {"forward": 0, "forward_field": 0}

        def counted(name):
            fn = getattr(solvers, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(solvers, name, counted(name))
        return calls

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_field_is_forward_of_pixel(self, solves, kind):
        prop, _, solve = solves
        res = solve[kind]()
        remade = forward_field(prop, res.pixel)
        np.testing.assert_array_equal(res.field, remade)
        np.testing.assert_array_equal(res.mask.phases, np.angle(res.pixel))

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_field_is_forward_of_mask(self, solves, kind):
        # the mask's exp rebuilds the phasor to rounding, not bit for bit
        prop, _, solve = solves
        res = solve[kind]()
        remade = forward(prop, res.mask)
        rel = np.abs(remade - res.field).max() / np.abs(res.field).max()
        assert rel <= 1e-12

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_contraction_counts(self, solves, kind, counted_calls):
        # a random start takes the solve's one exp, in forward
        _, settings, solve = solves
        res = solve[kind]()
        iterations = settings.iterations if kind == "wpgs" else settings.wgs_iterations
        assert len(res.objective) == iterations
        assert counted_calls == {"forward": 1, "forward_field": iterations}

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_phasor_start_takes_no_exp(self, solves, kind, counted_calls):
        _, settings, solve = solves
        first = solve[kind]()
        counted_calls.update(forward=0, forward_field=0)
        res = solve[kind](init_mask=first.pixel)
        iterations = settings.iterations if kind == "wpgs" else settings.wgs_iterations
        assert counted_calls == {"forward": 0, "forward_field": iterations + 1}
        # the phasor start's field is the previous result's field as it is
        np.testing.assert_array_equal(res.init_field, first.field)

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_mask_start_equals_its_phasor_start(self, solves, kind):
        prop, _, solve = solves
        mask = random_mask(prop.config, 11)
        a = solve[kind](init_mask=mask)
        b = solve[kind](init_mask=np.exp(1j * mask.phases))
        np.testing.assert_array_equal(a.init_field, b.init_field)
        np.testing.assert_array_equal(a.pixel, b.pixel)
        np.testing.assert_array_equal(a.field, b.field)

    @pytest.mark.parametrize("shape", [(64, 63), (63, 64), (64 * 64,)])
    def test_phasor_start_of_wrong_shape_raises(self, solves, shape):
        _, _, solve = solves
        for kind in SOLVER_KINDS:
            with pytest.raises(ValueError, match="shape"):
                solve[kind](init_mask=np.ones(shape, dtype=complex))

    def test_phase_array_start_raises(self, solves):
        # a real array of the grid's shape (a mask's phases) is not a phasor
        prop, _, solve = solves
        phases = random_mask(prop.config, 11).phases
        for kind in SOLVER_KINDS:
            with pytest.raises(ValueError, match="phasor"):
                solve[kind](init_mask=phases)


class TestPinnedTraces:
    """Both rule sets reproduce their recorded objective traces and weights."""

    @pytest.fixture(scope="class")
    def solves(self, small_config, grid_3x3):
        prop = build_separable(small_config, grid_3x3)
        settings = SolverSettings(seed=0)
        warm = wgs_solve(prop, PINNED_INTENSITY, settings)
        res = wpgs_solve(
            prop, PINNED_INTENSITY, np.angle(warm.field), settings,
            init_mask=warm.mask, init_weights=warm.weights,
        )
        return warm, res

    def test_wgs(self, solves):
        warm, _ = solves
        np.testing.assert_allclose(warm.objective, WGS_OBJECTIVE, rtol=1e-9)
        np.testing.assert_allclose(warm.weights, WGS_WEIGHTS, rtol=1e-9)
        assert warm.solver == "wgs" and warm.scale == 1.0 + 0j

    def test_wpgs(self, solves):
        _, res = solves
        np.testing.assert_allclose(res.objective, WPGS_OBJECTIVE, rtol=1e-9)
        np.testing.assert_allclose(res.weights, WPGS_WEIGHTS, rtol=1e-9)
        assert res.solver == "wpgs"


def metamorphic_layout(kind, rng):
    """12 traps on three z planes: a 2x2 lattice per plane, or random positions.

    The lattice shares x and y values within a plane, so the solve runs
    through the x_rows / y_rows row maps with fewer rows than traps.
    """
    planes = (-30e-6, 0.0, 30e-6)
    if kind == "lattice":
        xyz = [
            (6e-6 * i + 2e-6 * k, 6e-6 * j - 3e-6 * k, z)
            for k, z in enumerate(planes) for i in (-1, 1) for j in (-1, 1)
        ]
    else:
        xyz = [
            (rng.uniform(-20e-6, 20e-6), rng.uniform(-20e-6, 20e-6), z)
            for z in planes for _ in range(4)
        ]
    return TrapLayout(tuple(f"m{i}" for i in range(12)), xyz)


class TestMetamorphic:
    """Relations that hold for whole solves, independent of pinned values.

    At 64x64, with 12 traps on three z planes and 5 WPGS / 8 WGS iterations,
    weights and fields agree to 1e-13 relative.  The pixel phasors are
    compared by their RMS deviation, at most 1.6e-13 over these cases: a
    pixel whose back-propagated field nearly cancels divides rounding by
    that small magnitude, and the largest single deviation reached 1.1e-11
    (lattice, WGS shift, 5 iterations) where the 99th percentile was 2.6e-13.
    """

    TOL = 1e-11
    SETTINGS = SolverSettings(iterations=5, wgs_iterations=8, seed=0)

    @pytest.fixture(params=["lattice", "random"])
    def case(self, request, small_config, rng):
        layout = metamorphic_layout(request.param, rng)
        intensity = rng.uniform(0.7, 1.3, 12)
        phase = rng.uniform(-np.pi, np.pi, 12)
        start = np.exp(1j * random_mask(small_config, 5).phases)
        return small_config, layout, intensity, phase, start

    def solve(self, kind, config, layout, intensity, phase, start):
        prop = build_separable(config, layout)
        if kind == "wpgs":
            return wpgs_solve(prop, intensity, phase, self.SETTINGS, init_mask=start)
        return wgs_solve(prop, intensity, self.SETTINGS, init_mask=start)

    def assert_same(self, got, pixel, weights, field):
        """got's pixel phasor, weights and trap field equal the given ones."""
        assert np.sqrt(np.mean(np.abs(got.pixel - pixel) ** 2)) <= self.TOL
        np.testing.assert_allclose(got.weights, weights, rtol=self.TOL, atol=0)
        assert np.abs(got.field - field).max() <= self.TOL * np.abs(field).max()

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_lateral_shift(self, case, kind):
        # moving every trap by (dx, dy) multiplies each kernel by the conjugate
        # of the ramp exp(i*2*pi*(dx*u + dy*v)/(lambda*f)): a start phasor
        # times the ramp gives the same trap fields, and the solve the ramped pixel
        config, layout, intensity, phase, start = case
        dx, dy = 0.7e-6, -1.3e-6
        u, v = config.pixel_coords_x(), config.pixel_coords_y()
        lam_f = config.wavelength * config.focal_length
        ramp = np.exp(1j * 2 * np.pi * (dx * u[:, None] + dy * v[None, :]) / lam_f)
        moved = TrapLayout(layout.ids, layout.xyz + [dx, dy, 0.0])
        base = self.solve(kind, config, layout, intensity, phase, start)
        shifted = self.solve(kind, config, moved, intensity, phase, start * ramp)
        self.assert_same(shifted, base.pixel * ramp, base.weights, base.field)

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_global_phase(self, case, kind):
        # WPGS: theta on every pinned phase and on the start phasor; WGS, with
        # free trap phases, takes it on the start phasor only
        config, layout, intensity, phase, start = case
        theta = 0.9
        turn = np.exp(1j * theta)
        base = self.solve(kind, config, layout, intensity, phase, start)
        turned = self.solve(kind, config, layout, intensity, phase + theta, start * turn)
        self.assert_same(turned, base.pixel * turn, base.weights, base.field * turn)

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_trap_permutation(self, case, kind, rng):
        config, layout, intensity, phase, start = case
        order = rng.permutation(12)
        base = self.solve(kind, config, layout, intensity, phase, start)
        permuted = self.solve(
            kind, config, layout.take(order), intensity[order], phase[order], start
        )
        self.assert_same(permuted, base.pixel, base.weights[order], base.field[order])
