import weakref

import numpy as np
import pytest

import holoseq.sequence as sequence_mod
from holoseq.geometry import custom_task
from holoseq.planner import plan_task
from holoseq.propagation import build_separable, forward
from holoseq.sequence import bench, run_sequence
from holoseq.solvers import DarkTrapError, SolverSettings, TargetSpec, wgs_solve, wpgs_solve
from holoseq.transient import RefreshModel, sample_refresh


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
def six_trap_plan():
    # two rows of three traps moving 0.5 um in two steps: enough traps that
    # a mask's exp and the phasor it is the angle of propagate to other bits
    src = [(x, y, 0.0) for y in (-8e-6, 6e-6) for x in (-10e-6, 0.0, 10e-6)]
    tgt = [(x + 0.5e-6, y, z) for x, y, z in src]
    return plan_task(custom_task(source_points=src, target_points=tgt), max_step=0.25e-6)


@pytest.fixture(scope="module")
def tiny_run(small_config, tiny_plan, fast_settings):
    return run_sequence(
        small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
    )


class TestRunSequence:
    def test_frame_count(self, tiny_plan, tiny_run):
        assert len(tiny_run.frames) == tiny_plan.frames + 1
        assert len(tiny_run.ratios) == tiny_plan.frames
        assert len(tiny_run.solve_times) == tiny_plan.frames + 1

    def test_static_plan_single_frame(self, small_config, fast_settings):
        spec = custom_task(
            source_points=[(0, 0, 0), (8e-6, 0, 0)],
            target_points=[(0, 0, 0), (8e-6, 0, 0)],
        )
        plan = plan_task(spec, max_step=0.1e-6)
        record = run_sequence(small_config, plan, "wgs", fast_settings, RefreshModel())
        assert plan.frames == 0
        assert len(record.frames) == 1
        assert record.ratios == ()
        assert record.metrics.transition is None

    def test_frame_field_consistency(self, small_config, tiny_plan, tiny_run):
        for l, frame in enumerate(tiny_run.frames):
            prop = build_separable(small_config, tiny_plan.layout(l))
            re_run = forward(prop, frame.mask).amplitudes
            rel = np.abs(re_run - frame.field.amplitudes).max() / np.abs(re_run).max()
            assert rel <= 1e-12

    def test_replay_bit_identical(self, small_config, tiny_plan, fast_settings, tiny_run):
        again = run_sequence(
            small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
        )
        for f1, f2 in zip(tiny_run.frames, again.frames):
            np.testing.assert_array_equal(f1.mask.phases, f2.mask.phases)
            np.testing.assert_array_equal(f1.field.amplitudes, f2.field.amplitudes)

    def test_target_attainment(self, tiny_plan, tiny_run):
        final = tiny_plan.layout(len(tiny_run.frames) - 1)
        np.testing.assert_array_equal(final.positions(), tiny_plan.waypoints[:, -1, :])
        nus = tiny_run.metrics.frame_uniformity
        assert nus[-1] >= min(nus)

    def test_transition_min_dominated_by_endpoints(self, tiny_run):
        sample_min = tiny_run.metrics.transition.minimum
        endpoint_min = min(
            min(interval[0].min(), interval[-1].min()) for interval in tiny_run.ratios
        )
        assert sample_min <= endpoint_min + 1e-15

    @pytest.mark.parametrize("order", ["leading", "exact"])
    def test_refresh_from_solve_fields(self, small_config, tiny_plan, fast_settings, order):
        # each interval's ratios equal sampling from freshly propagated endpoint
        # fields: the previous mask and the new mask at the new frame's traps.
        # The run propagates the phasors those masks are the angles of, so
        # leading-order ratios, which read both endpoint fields, agree to
        # rounding.  Exact ratios read the masks and take only I0 from a
        # field, and on this plan they agree bit for bit.
        refresh = RefreshModel(samples_per_refresh=5, order=order)
        record = run_sequence(small_config, tiny_plan, "wpgs", fast_settings, refresh)
        for l, ratios in enumerate(record.ratios, start=1):
            prev, frame = record.frames[l - 1], record.frames[l]
            prop = build_separable(small_config, tiny_plan.layout(l))
            expected = sample_refresh(
                prop, prev.mask, frame.mask,
                forward(prop, prev.mask), forward(prop, frame.mask), refresh,
            )
            if order == "leading":
                np.testing.assert_allclose(ratios, expected, rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(ratios, expected)

    def test_record_holds_no_phasor(self, tiny_run):
        assert all(frame.pixel is None for frame in tiny_run.frames)

    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_only_the_newest_phasor_stays_alive(
        self, small_config, tiny_plan, fast_settings, kind, monkeypatch
    ):
        # each solve's phasor is freed once the next frame is solved, before
        # that frame's refresh sampling, and the last one before the metrics
        phasors = []
        alive = []

        def record_phasor(solve):
            def solved(*args, **kwargs):
                result = solve(*args, **kwargs)
                phasors.append(weakref.ref(result.pixel))
                return result
            return solved

        def count_alive(fn):
            def counted(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in phasors))
                return fn(*args, **kwargs)
            return counted

        for name in ("wpgs_solve", "wgs_solve"):
            monkeypatch.setattr(sequence_mod, name, record_phasor(getattr(sequence_mod, name)))
        for name in ("sample_refresh", "compute_report"):
            monkeypatch.setattr(sequence_mod, name, count_alive(getattr(sequence_mod, name)))
        run_sequence(small_config, tiny_plan, kind, fast_settings, RefreshModel())
        assert alive == [1] * tiny_plan.frames + [0]

    @pytest.mark.parametrize("order", ["leading", "exact"])
    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_frames_equal_hand_threaded_solves(
        self, small_config, six_trap_plan, fast_settings, kind, order
    ):
        # each frame starts from the previous result's phasor, frame 0's WPGS
        # polish from the warm-up's, and samples from the two masks it joins
        plan = six_trap_plan
        refresh = RefreshModel(samples_per_refresh=5, order=order)
        record = run_sequence(small_config, plan, kind, fast_settings, refresh)
        inten = plan.target_intensity
        prev = None
        for l in range(plan.frames + 1):
            prop = build_separable(small_config, plan.layout(l))
            if prev is None:
                res = wgs_solve(prop, inten, fast_settings)
                if kind == "wpgs":
                    res = wpgs_solve(
                        prop, TargetSpec(inten, res.field.phase), fast_settings,
                        init_mask=res.pixel, init_weights=res.weights,
                    )
            elif kind == "wpgs":
                res = wpgs_solve(
                    prop, TargetSpec(inten, prev.field.phase), fast_settings,
                    init_mask=prev.pixel, init_weights=prev.weights,
                )
            else:
                res = wgs_solve(
                    prop, inten, fast_settings, init_mask=prev.pixel, init_weights=prev.weights
                )
            frame = record.frames[l]
            np.testing.assert_array_equal(frame.mask.phases, res.mask.phases)
            np.testing.assert_array_equal(frame.field.amplitudes, res.field.amplitudes)
            np.testing.assert_array_equal(frame.init_field.amplitudes, res.init_field.amplitudes)
            np.testing.assert_array_equal(frame.weights, res.weights)
            assert frame.objective == res.objective and frame.scale == res.scale
            if prev is not None:
                expected = sample_refresh(
                    prop, prev.mask, res.mask, res.init_field, res.field, refresh
                )
                np.testing.assert_array_equal(record.ratios[l - 1], expected)
            prev = res

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

    def test_warmup_must_leave_a_frame(self, small_config, tiny_plan, fast_settings, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("bench solved before checking warmup_frames")

        monkeypatch.setattr(sequence_mod, "run_sequence", no_solve)
        entries = [("wgs", fast_settings)]
        for warmup in (tiny_plan.frames + 1, 100, -1):
            with pytest.raises(ValueError, match="warmup_frames"):
                bench(small_config, tiny_plan, entries, warmup_frames=warmup)
        monkeypatch.undo()
        # the largest warm-up leaves the last frame alone
        rows = bench(small_config, tiny_plan, entries, warmup_frames=tiny_plan.frames)
        assert rows[0].frames == 1

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
