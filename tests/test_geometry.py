from dataclasses import replace

import numpy as np
import pytest

from holoseq.geometry import (
    LatticeSpec,
    OpticalConfig,
    TaskSpec,
    TrapLayout,
    build_lattice,
    concat_layouts,
    custom_task,
    instantiate_task,
    minimal_3x3_task,
    offset_bilayer_task,
    reconfig_2d_task,
    reconfig_3d_task,
)


class TestOpticalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpticalConfig(-1e-6, 4e-3, 8, 8, 17e-6)
        with pytest.raises(ValueError):
            OpticalConfig(820e-9, 0.0, 8, 8, 17e-6)
        with pytest.raises(ValueError):
            OpticalConfig(820e-9, 4e-3, 0, 8, 17e-6)
        with pytest.raises(ValueError):
            OpticalConfig(820e-9, 4e-3, 8, 8, -17e-6)

    def test_pixel_coords_centered(self):
        cfg = OpticalConfig(820e-9, 4e-3, 4, 5, 2e-6)
        np.testing.assert_allclose(cfg.pixel_coords_x(), [-3e-6, -1e-6, 1e-6, 3e-6])
        assert cfg.pixel_coords_y()[2] == 0.0


class TestBuildLattice:
    def test_degenerate_single_site(self):
        layout = build_lattice((1, 1), 5e-6)
        assert len(layout) == 1
        assert layout.x[0] == 0.0 and layout.y[0] == 0.0

    def test_3x3_extremes(self):
        layout = build_lattice((3, 3), 5e-6)
        assert len(layout) == 9
        assert layout.x.max() == pytest.approx(5e-6)
        assert layout.x.min() == pytest.approx(-5e-6)
        assert layout.y.max() == pytest.approx(5e-6)

    def test_32x32_span(self):
        layout = build_lattice((32, 32), 5e-6)
        assert len(layout) == 1024
        assert layout.x.max() - layout.x.min() == pytest.approx(155e-6)
        assert layout.y.max() - layout.y.min() == pytest.approx(155e-6)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            build_lattice((2, 2), 0.0)

    def test_row_major_order(self):
        layout = build_lattice((2, 2), 1e-6)
        # index 1 advances x before y
        assert layout.x[1] > layout.x[0]
        assert layout.y[1] == layout.y[0]
        assert layout.y[2] > layout.y[0]


class TestTrapTypes:
    def test_unique_ids(self):
        with pytest.raises(ValueError, match="unique"):
            TrapLayout(("a", "a"), [(0, 0, 0), (1e-6, 0, 0)])

    def test_finite_coordinates(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="'b' has non-finite"):
                TrapLayout(("a", "b"), [(0, 0, 0), (0, bad, 0)])

    def test_xyz_shape(self):
        for xyz in ([(0, 0)], [(0, 0, 0), (1, 0, 0)], [0, 0, 0], [[(0, 0, 0)]]):
            with pytest.raises(ValueError, match="shape"):
                TrapLayout(("a",), xyz)

    def test_empty_layout(self):
        with pytest.raises(ValueError, match="at least one"):
            TrapLayout((), np.zeros((0, 3)))

    def test_read_only_copy(self):
        xyz = np.zeros((1, 3))
        layout = TrapLayout(["a"], xyz)
        xyz[0, 0] = 1.0
        assert layout.ids == ("a",) and layout.x[0] == 0.0
        with pytest.raises(ValueError):
            layout.xyz[0, 0] = 1.0

    def test_take_and_concat(self):
        layout = build_lattice((3, 1), 1e-6)
        picked = layout.take(np.array([2, 0]))
        assert picked.ids == ("t2", "t0")
        np.testing.assert_array_equal(picked.xyz, layout.xyz[[2, 0]])
        masked = layout.take(np.array([True, False, True]))
        assert masked.ids == ("t0", "t2")
        joined = concat_layouts([picked, build_lattice((1, 1), 1e-6, z=2e-6, id_prefix="u")])
        assert joined.ids == ("t2", "t0", "u0")
        np.testing.assert_array_equal(joined.z, [0.0, 0.0, 2e-6])
        with pytest.raises(ValueError, match="unique"):
            concat_layouts([layout, picked])

    def test_positions_array(self):
        layout = build_lattice((2, 1), 1e-6, z=3e-6)
        assert layout.positions().shape == (2, 3)
        np.testing.assert_allclose(layout.z, 3e-6)


class TestTaskSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="nope")

    def test_dims_and_center_are_pairs(self):
        for kwargs in (dict(dims=(2,)), dict(dims=(2, 2, 2)), dict(dims=(2, 2), center=(0.0,))):
            with pytest.raises(ValueError, match="pairs"):
                LatticeSpec(spacing=1e-6, **kwargs)

    def test_filling_range(self):
        with pytest.raises(ValueError):
            LatticeSpec(dims=(2, 2), spacing=1e-6, filling=0.0)
        with pytest.raises(ValueError):
            LatticeSpec(dims=(2, 2), spacing=1e-6, filling=1.5)

    def test_layers_must_ascend_in_z(self):
        a = LatticeSpec(dims=(2, 2), spacing=1e-6, z=+10e-6)
        b = LatticeSpec(dims=(2, 2), spacing=1e-6, z=-10e-6)
        with pytest.raises(ValueError):
            TaskSpec(kind="reconfig_3d_layers", source_layers=(a, b), target_layers=(a, b))

    def test_custom_needs_points(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="custom")


_SITES_3 = LatticeSpec(dims=(3, 1), spacing=5e-6)
_SITES_4 = LatticeSpec(dims=(2, 2), spacing=5e-6)
_HALF_FILLED = LatticeSpec(dims=(2, 2), spacing=5e-6, filling=0.5)
_POINTS = {"custom_source": ((0, 0, 0),), "custom_target": ((0, 0, 0),)}
# every check that needs no sampling fails when the TaskSpec is built, so a
# config file holding such a task is a config error, not a planning failure
_MALFORMED_TASKS = {
    "reconfig layer counts": (
        "layer counts must match",
        dict(kind="reconfig_3d_layers", source_layers=(_SITES_4, replace(_SITES_4, z=1e-6)),
             target_layers=(_SITES_4,)),
    ),
    "bilayer layer count": (
        "exactly two",
        dict(kind="offset_bilayer", source_layers=(_SITES_4,), target_layers=(_SITES_4,)),
    ),
    "bilayer site counts": (
        "matching site counts",
        dict(kind="offset_bilayer", source_layers=(_SITES_4, replace(_SITES_4, z=1e-6)),
             target_layers=(_SITES_3, replace(_SITES_4, z=1e-6))),
    ),
    "custom intensity count": (
        "custom_intensity length",
        dict(kind="custom", custom_intensity=(1.0, 2.0), **_POINTS),
    ),
    "displacement off minimal_3x3": (
        "take no displacement",
        dict(kind="reconfig_2d", source_layers=(_SITES_4,), target_layers=(_SITES_4,),
             displacement=1e-6),
    ),
    "custom points off custom": (
        "take no custom_source",
        dict(kind="reconfig_2d", source_layers=(_SITES_4,), target_layers=(_SITES_4,),
             custom_source=((0, 0, 0),)),
    ),
    "layers on custom": (
        "take no source_layers",
        dict(kind="custom", source_layers=(_SITES_4,), **_POINTS),
    ),
    "layer_intensity on minimal_3x3": (
        "take no layer_intensity",
        dict(kind="minimal_3x3", source_layers=(_SITES_4,), target_layers=(_SITES_4,),
             layer_intensity=(2.0,)),
    ),
    "partly filled target": (
        "filling 1",
        dict(kind="reconfig_2d", source_layers=(_SITES_4,), target_layers=(_HALF_FILLED,)),
    ),
    "minimal_3x3 target differs": (
        "must equal its source layer",
        dict(kind="minimal_3x3", source_layers=(_SITES_4,), target_layers=(_SITES_3,)),
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_TASKS))
def test_malformed_task_refused_on_construction(case):
    match, kwargs = _MALFORMED_TASKS[case]
    with pytest.raises(ValueError, match=match):
        TaskSpec(**kwargs)


@pytest.mark.parametrize("kind", ["minimal_3x3", "reconfig_2d", "offset_bilayer", "custom"])
def test_seed_and_max_step_legal_for_every_kind(kind):
    layers = (_SITES_4, replace(_SITES_4, z=1e-6)) if kind == "offset_bilayer" else (_SITES_4,)
    kwargs = _POINTS if kind == "custom" else dict(source_layers=layers, target_layers=layers)
    TaskSpec(kind=kind, seed=3, max_step=0.2e-6, **kwargs)


_LAYER = LatticeSpec(dims=(2, 2), spacing=1e-6)
_NON_FINITE_FIELDS = {
    "wavelength": lambda v: OpticalConfig(v, 4e-3, 8, 8, 17e-6),
    "focal_length": lambda v: OpticalConfig(820e-9, v, 8, 8, 17e-6),
    "pixel_pitch": lambda v: OpticalConfig(820e-9, 4e-3, 8, 8, v),
    "spacing": lambda v: LatticeSpec(dims=(2, 2), spacing=v),
    "center": lambda v: LatticeSpec(dims=(2, 2), spacing=1e-6, center=(0.0, v)),
    "z": lambda v: LatticeSpec(dims=(2, 2), spacing=1e-6, z=v),
    "layer_intensity": lambda v: TaskSpec(
        kind="reconfig_2d", source_layers=(_LAYER,), target_layers=(_LAYER,),
        layer_intensity=(v,),
    ),
    "custom_intensity": lambda v: custom_task([(0, 0, 0)], [(0, 0, 0)], intensities=[v]),
    "custom_source": lambda v: custom_task([(0, v, 0)], [(0, 0, 0)]),
    "displacement": lambda v: minimal_3x3_task(displacement=v),
    "max_step": lambda v: replace(minimal_3x3_task(), max_step=v),
}


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("name", list(_NON_FINITE_FIELDS))
def test_non_finite_field_rejected(name, value):
    # built from Python, not only from a config file
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_FIELDS[name](value)


_INTEGER_FIELDS = {
    "grid_x": lambda v: OpticalConfig(820e-9, 4e-3, v, 8, 17e-6),
    "grid_y": lambda v: OpticalConfig(820e-9, 4e-3, 8, v, 17e-6),
    "dims": lambda v: LatticeSpec(dims=(v, 3), spacing=5e-6),
    "seed": lambda v: replace(reconfig_2d_task(), seed=v),
}


@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["fraction", "float", "bool"])
@pytest.mark.parametrize("name", list(_INTEGER_FIELDS))
def test_non_integer_count_rejected(name, value):
    # built from Python, as the config loader refuses them: a 64.5-wide grid
    # would build 65 pixel columns, and a 2.5 seed fail inside numpy later
    with pytest.raises(ValueError, match="must be an integer"):
        _INTEGER_FIELDS[name](value)


def test_numpy_integer_counts_accepted():
    cfg = OpticalConfig(820e-9, 4e-3, np.int64(4), np.int32(5), 2e-6)
    assert cfg.pixel_count == 20
    assert LatticeSpec(dims=(np.int64(2), 3), spacing=5e-6).count == 6


def test_negative_seed_rejected():
    # refused when the task is made, not when instantiate_task samples it
    with pytest.raises(ValueError, match="seed must be >= 0"):
        replace(reconfig_2d_task(), seed=-1)


class TestInstantiate:
    def test_minimal_3x3(self):
        src, tgt, inten = instantiate_task(minimal_3x3_task())
        assert len(src) == 9 and len(tgt) == 9
        np.testing.assert_allclose(inten, 1.0)
        moved = np.linalg.norm(tgt.xyz - src.xyz, axis=1)
        # middle row (indices 3..5) moves 2 um along the diagonal, rest static
        np.testing.assert_allclose(moved[3:6], 2e-6, rtol=1e-12)
        np.testing.assert_allclose(moved[[0, 1, 2, 6, 7, 8]], 0.0)
        d = tgt.xyz[4] - src.xyz[4]
        assert d[0] == pytest.approx(2e-6 / np.sqrt(2))
        assert d[1] == pytest.approx(-2e-6 / np.sqrt(2))

    def test_full_occupancy_when_filling_one(self):
        spec = reconfig_2d_task(source_dims=(5, 5), target_dims=(5, 5), filling=1.0)
        src, tgt, _ = instantiate_task(spec)
        assert len(src) == 25 and len(tgt) == 25

    def test_deterministic_given_seed(self):
        spec = reconfig_2d_task(source_dims=(10, 10), target_dims=(8, 8), filling=0.79, seed=7)
        a = instantiate_task(spec)
        b = instantiate_task(spec)
        np.testing.assert_array_equal(a.source.xyz, b.source.xyz)
        np.testing.assert_array_equal(a.target.xyz, b.target.xyz)

    def test_occupancy_expectation_matches_filling(self):
        counts = []
        for seed in range(300):
            spec = reconfig_2d_task(
                source_dims=(10, 10), target_dims=(1, 1), filling=0.79, seed=seed
            )
            src, _, _ = instantiate_task(spec)
            counts.append(len(src))
        mean = np.mean(counts)
        sigma = np.sqrt(100 * 0.79 * 0.21 / 300)
        assert abs(mean - 79.0) < 4 * sigma

    def test_undersampled_source_errors(self):
        spec = TaskSpec(
            kind="reconfig_2d",
            source_layers=(LatticeSpec(dims=(3, 3), spacing=5e-6, filling=0.2),),
            target_layers=(LatticeSpec(dims=(3, 3), spacing=5e-6),),
            seed=0,
        )
        with pytest.raises(ValueError, match="occupied"):
            instantiate_task(spec)

    def test_layered_z_exact(self):
        spec = reconfig_3d_task(
            source_layers=(
                LatticeSpec(dims=(4, 4), spacing=5e-6, z=-30e-6, filling=1.0),
                LatticeSpec(dims=(4, 4), spacing=5e-6, z=0.0, filling=1.0),
                LatticeSpec(dims=(4, 4), spacing=5e-6, z=30e-6, filling=1.0),
            ),
            target_dims=(3, 3),
        )
        src, tgt, _ = instantiate_task(spec)
        assert set(src.z.tolist()) == {-30e-6, 0.0, 30e-6}
        assert set(tgt.z.tolist()) == {-30e-6, 0.0, 30e-6}
        assert len(tgt) == 27

    def test_bilayer_counts_and_intensities(self):
        spec = offset_bilayer_task(dims=(4, 4), fillings=(1.0, 0.5), seed=2)
        src, tgt, inten = instantiate_task(spec)
        assert len(src) == len(tgt) == len(inten)
        # layer A targets copy layer B's occupancy count and vice versa
        z = tgt.z
        n_a = int((z < 0).sum())
        n_b = int((z > 0).sum())
        assert n_b == 16  # layer A fully occupied -> 16 targets up top
        assert n_a == len(src) - 16
        assert set(np.round(inten, 6).tolist()) <= {1.0, 1.25}

    def test_custom_task(self):
        spec = custom_task([(0, 0, 0), (1e-6, 0, 0)], [(0, 1e-6, 0)], intensities=[2.0])
        src, tgt, inten = instantiate_task(spec)
        assert len(src) == 2 and len(tgt) == 1
        assert inten[0] == 2.0

    def test_custom_infeasible(self):
        spec = custom_task([(0, 0, 0)], [(0, 1e-6, 0), (1e-6, 0, 0)])
        with pytest.raises(ValueError):
            instantiate_task(spec)

    def test_full_scale_2d_task(self):
        # 36x36 at 79% filling straddles the 1024-trap requirement; the
        # resample policy is to error so the caller picks another seed
        with pytest.raises(ValueError, match="occupied"):
            instantiate_task(reconfig_2d_task(seed=0))
        src, tgt, _ = instantiate_task(reconfig_2d_task(seed=3))
        assert len(src) >= 1024
        assert len(tgt) == 1024
