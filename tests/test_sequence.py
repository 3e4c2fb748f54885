import numpy as np
import pytest

import holoseq.sequence as sequence_mod
from holoseq.geometry import custom_task
from holoseq.planner import plan_task
from holoseq.propagation import build_separable, forward
from holoseq.sequence import bench, run_sequence
from holoseq.solvers import DarkTrapError, SolverSettings
from holoseq.transient import RefreshModel


@pytest.fixture(scope="module")
def fast_settings():
    return SolverSettings(iterations=3, wgs_iterations=8, seed=0)


@pytest.fixture(scope="module")
def tiny_plan():
    # one moving and one stationary trap, few frames
    spec = custom_task(
        source_points=[(-10e-6, 0, 0), (10e-6, 0, 0)],
        target_points=[(-10e-6, 0, 0), (10e-6, 1.0e-6, 0)],
    )
    return plan_task(spec, max_step=0.25e-6)


@pytest.fixture(scope="module")
def tiny_run(small_config, tiny_plan, fast_settings):
    return run_sequence(
        small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
    )


class TestRunSequence:
    def test_frame_count(self, tiny_plan, tiny_run):
        assert len(tiny_run.sequence) == tiny_plan.frames + 1
        assert len(tiny_run.samples) == tiny_plan.frames

    def test_static_plan_single_frame(self, small_config, fast_settings):
        spec = custom_task(
            source_points=[(0, 0, 0), (8e-6, 0, 0)],
            target_points=[(0, 0, 0), (8e-6, 0, 0)],
        )
        plan = plan_task(spec, max_step=0.1e-6)
        record = run_sequence(small_config, plan, "wgs", fast_settings, RefreshModel())
        assert plan.frames == 0
        assert len(record.sequence) == 1
        assert record.samples == ()
        assert record.metrics.transition is None

    def test_frame_field_consistency(self, small_config, tiny_run):
        for frame in tiny_run.sequence.frames:
            prop = build_separable(small_config, frame.layout)
            re_run = forward(prop, frame.mask).amplitudes
            rel = np.abs(re_run - frame.field.amplitudes).max() / np.abs(re_run).max()
            assert rel <= 1e-12

    def test_replay_bit_identical(self, small_config, tiny_plan, fast_settings, tiny_run):
        again = run_sequence(
            small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
        )
        for f1, f2 in zip(tiny_run.sequence.frames, again.sequence.frames):
            np.testing.assert_array_equal(f1.mask.phases, f2.mask.phases)
            np.testing.assert_array_equal(f1.field.amplitudes, f2.field.amplitudes)

    def test_target_attainment(self, tiny_plan, tiny_run):
        final = tiny_run.sequence.frames[-1].layout
        np.testing.assert_array_equal(final.positions(), tiny_plan.waypoints[:, -1, :])
        nus = tiny_run.metrics.frame_uniformity
        assert nus[-1] >= min(nus)

    def test_transition_min_dominated_by_endpoints(self, tiny_run):
        sample_min = tiny_run.metrics.transition.minimum
        endpoint_min = min(
            min(interval[0].ratio.min(), interval[-1].ratio.min())
            for interval in tiny_run.samples
        )
        assert sample_min <= endpoint_min + 1e-15

    def test_solver_kind_validated(self, small_config, tiny_plan, fast_settings):
        with pytest.raises(ValueError):
            run_sequence(small_config, tiny_plan, "gs", fast_settings, RefreshModel())

    def test_dark_trap_annotated_with_frame(
        self, small_config, tiny_plan, fast_settings, monkeypatch
    ):
        calls = {"n": 0}
        real = sequence_mod.wpgs_solve

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise DarkTrapError([0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sequence_mod, "wpgs_solve", failing)
        with pytest.raises(DarkTrapError, match="frame 1"):
            run_sequence(small_config, tiny_plan, "wpgs", fast_settings, RefreshModel())


class TestBench:
    def test_empty_matrix(self, small_config, tiny_plan):
        assert bench(small_config, tiny_plan, []) == []

    def test_rows_and_iteration_counts(self, small_config, tiny_plan, fast_settings):
        rows = bench(
            small_config,
            tiny_plan,
            [("wpgs", fast_settings), ("wgs", fast_settings)],
            warmup_frames=1,
            task_label="tiny",
        )
        assert [r.solver for r in rows] == ["wpgs", "wgs"]
        assert rows[0].iterations == fast_settings.iterations
        assert rows[1].iterations == fast_settings.wgs_iterations
        assert all(r.task == "tiny" and r.mean_ms > 0 for r in rows)

    def test_time_scales_with_iterations(self, small_config, fast_settings):
        # per-frame solve time is dominated by the iteration loop, so doubling
        # the budget roughly doubles the time (generous 30 percent slack); the
        # host's speed can swing by 2x within a second, so the ratio is taken
        # within each of nine back-to-back pairs, run in alternating order,
        # and the median kept
        spec = custom_task(
            source_points=[(-10e-6, 0, 0), (10e-6, 0, 0)],
            target_points=[(-10e-6, 0, 0), (10e-6, 2.0e-6, 0)],
        )
        plan = plan_task(spec, max_step=0.25e-6)
        base = SolverSettings(iterations=3, wgs_iterations=20, seed=0)
        double = SolverSettings(iterations=3, wgs_iterations=40, seed=0)
        entries = [("wgs", base), ("wgs", double)]
        ratios = []
        for _ in range(9):
            rows = bench(small_config, plan, entries, warmup_frames=2)
            ms = {r.iterations: r.median_ms for r in rows}
            ratios.append(ms[40] / ms[20])
            entries.reverse()
        ratio = np.median(ratios)
        assert ratio == pytest.approx(2.0, rel=0.3)
