import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import holoseq.sequence as sequence_mod
from holoseq.geometry import custom_task
from holoseq.planner import plan_task
from holoseq.propagation import build_separable, forward
from holoseq.sequence import run_sequence
from holoseq.serial import RunWriter
from holoseq.solvers import DarkTrapError, SolverSettings, wgs_solve, wpgs_solve
from holoseq.transient import RefreshModel, sample_refresh


# a 7x7 grid at 5 um pitch, centred on the axis
GRID_7 = [(5e-6 * (i - 3), 5e-6 * (j - 3)) for i in range(7) for j in range(7)]


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


def run_frames(*args):
    """run_sequence with a sink that keeps every frame and interval.

    Returns (record, frames, intervals), with one (ratios, dphi) pair per
    interval, the interval that ends at frame l at index l - 1.
    """
    frames, intervals = [], []

    def sink(l, frame, ratios, dphi):
        frames.append(frame)
        if l:
            intervals.append((ratios, dphi))

    record = run_sequence(*args, sink=sink)
    return record, frames, intervals


@pytest.fixture(scope="module")
def tiny_run(small_config, tiny_plan, fast_settings):
    return run_frames(
        small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
    )


class TestRunSequence:
    def test_frame_count(self, tiny_plan, tiny_run):
        record, frames, intervals = tiny_run
        assert len(frames) == tiny_plan.frames + 1
        assert len(intervals) == tiny_plan.frames
        assert len(record.solve_times) == tiny_plan.frames + 1

    def test_sink_gets_each_frame_and_interval(self, small_config, tiny_plan, fast_settings):
        # in frame order, with the interval that ends at the frame from frame 1 on
        calls = []
        record = run_sequence(
            small_config, tiny_plan, "wgs", fast_settings, RefreshModel(samples_per_refresh=5),
            sink=lambda *args: calls.append(args),
        )
        assert [c[0] for c in calls] == list(range(tiny_plan.frames + 1))
        assert calls[0][2:] == (None, None)
        n = tiny_plan.trap_count
        for _, _, ratios, dphi in calls[1:]:
            assert ratios.shape == (5, n) and dphi.shape == (n,)
        # the record's metrics are those of the intervals the sink was given
        m = record.metrics
        assert m.transition.count == tiny_plan.frames * 5 * n
        assert m.transition.minimum == min(c[2].min() for c in calls[1:])
        assert m.dphi.std == float(np.std(np.concatenate([c[3] for c in calls[1:]])))

    def test_static_plan_single_frame(self, small_config, fast_settings):
        spec = custom_task(
            source_points=[(0, 0, 0), (8e-6, 0, 0)],
            target_points=[(0, 0, 0), (8e-6, 0, 0)],
        )
        plan = plan_task(spec, max_step=0.1e-6)
        record, frames, intervals = run_frames(
            small_config, plan, "wgs", fast_settings, RefreshModel()
        )
        assert plan.frames == 0
        assert len(frames) == 1
        assert intervals == []
        assert record.metrics.transition is None

    def test_frame_field_consistency(self, small_config, tiny_plan, tiny_run):
        for l, frame in enumerate(tiny_run[1]):
            prop = build_separable(small_config, tiny_plan.layout(l))
            re_run = forward(prop, frame.mask)
            rel = np.abs(re_run - frame.field).max() / np.abs(re_run).max()
            assert rel <= 1e-12

    def test_replay_bit_identical(self, small_config, tiny_plan, fast_settings, tiny_run):
        _, again, _ = run_frames(
            small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5)
        )
        for f1, f2 in zip(tiny_run[1], again):
            np.testing.assert_array_equal(f1.mask.phases, f2.mask.phases)
            np.testing.assert_array_equal(f1.field, f2.field)

    def test_sink_cannot_write_frame_arrays(self, small_config, tiny_plan, fast_settings,
                                            tiny_run):
        # the run hands a frame's weights to the next solve: a sink that could
        # write into them would change the frames after it
        frames = []

        def sink(l, frame, ratios, dphi):
            for name in ("weights", "field", "init_field"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(frame, name)[:] = 1
            frames.append(frame)

        run_sequence(
            small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(samples_per_refresh=5),
            sink=sink,
        )
        np.testing.assert_array_equal(frames[-1].field, tiny_run[1][-1].field)

    def test_target_attainment(self, tiny_plan, tiny_run):
        record, frames, _ = tiny_run
        final = tiny_plan.layout(len(frames) - 1)
        np.testing.assert_array_equal(final.xyz, tiny_plan.waypoints[:, -1, :])
        nus = record.metrics.frame_uniformity
        assert nus[-1] >= min(nus)

    def test_transition_min_dominated_by_endpoints(self, tiny_run):
        record, _, intervals = tiny_run
        sample_min = record.metrics.transition.minimum
        endpoint_min = min(
            min(interval[0].min(), interval[-1].min()) for interval, _ in intervals
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
        _, frames, intervals = run_frames(small_config, tiny_plan, "wpgs", fast_settings, refresh)
        for l, (ratios, _) in enumerate(intervals, start=1):
            prev, frame = frames[l - 1], frames[l]
            prop = build_separable(small_config, tiny_plan.layout(l))
            expected = sample_refresh(
                prop, prev.mask, frame.mask,
                forward(prop, prev.mask), forward(prop, frame.mask), refresh,
            )
            if order == "leading":
                np.testing.assert_allclose(ratios, expected, rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(ratios, expected)

    def test_sink_gets_no_phasor(self, tiny_run):
        assert all(frame.pixel is None for frame in tiny_run[1])

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
    def test_no_mask_outlives_the_next_interval(
        self, small_config, tiny_plan, fast_settings, order, monkeypatch
    ):
        # interval l samples from frame l - 1's mask before the sink gets
        # frame l; every older mask is freed by then, and the last one before
        # the metrics
        refs = []
        alive = []

        def count_alive(fn):
            def counted(*args, **kwargs):
                alive.append([l for l, ref in enumerate(refs) if ref() is not None])
                return fn(*args, **kwargs)
            return counted

        for name in ("sample_refresh", "compute_report"):
            monkeypatch.setattr(sequence_mod, name, count_alive(getattr(sequence_mod, name)))
        run_sequence(
            small_config, tiny_plan, "wpgs", fast_settings, RefreshModel(order=order),
            sink=lambda l, frame, ratios, dphi: refs.append(weakref.ref(frame.mask)),
        )
        assert alive == [[l - 1] for l in range(1, tiny_plan.frames + 1)] + [[]]

    def test_memory_does_not_grow_with_frame_count(self, small_config, fast_settings, tmp_path):
        # a run streamed to disk holds no frame past the next interval and no
        # interval's I/I0 array past its metrics and sink calls, so twice the
        # frames peak within one mask's bytes of the shorter run
        inputs = {
            # one of two traps moves
            "two": (lambda dy: ([(-10e-6, 0, 0), (10e-6, 0, 0)],
                                [(-10e-6, 0, 0), (10e-6, dy, 0)]), 5),
            # a 7x7 grid moves: each interval's I/I0 array (21 x 49 floats) is
            # a quarter of a mask, so keeping them would outgrow the bound
            "7x7": (lambda dy: ([(x, y, 0) for x, y in GRID_7],
                                [(x, y + dy, 0) for x, y in GRID_7]), 21),
        }
        mask_bytes = small_config.grid_x * small_config.grid_y * 8
        for name, (moves, samples) in inputs.items():
            refresh = RefreshModel(samples_per_refresh=samples)

            def plan_of(dy):
                sources, targets = moves(dy)
                spec = custom_task(source_points=sources, target_points=targets)
                return plan_task(spec, max_step=0.1e-6)

            def streamed(plan, out):
                with RunWriter(out, plan, refresh) as sink:
                    run_sequence(small_config, plan, "wpgs", fast_settings, refresh, sink=sink)

            short, long = plan_of(1.0e-6), plan_of(2.0e-6)
            assert (short.frames, long.frames) == (10, 20)
            # one-time allocations outside the trace
            streamed(short, tmp_path / name / "warm-up")
            peaks = []
            for plan in (short, long):
                gc.collect()
                tracemalloc.start()
                try:
                    streamed(plan, tmp_path / name / str(plan.frames))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < mask_bytes, (name, peaks)

    @pytest.mark.parametrize("order", ["leading", "exact"])
    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_frames_equal_hand_threaded_solves(
        self, small_config, six_trap_plan, fast_settings, kind, order
    ):
        # each frame starts from the previous result's phasor, frame 0's WPGS
        # polish from the warm-up's, and samples from the two masks it joins
        plan = six_trap_plan
        refresh = RefreshModel(samples_per_refresh=5, order=order)
        _, frames, intervals = run_frames(small_config, plan, kind, fast_settings, refresh)
        inten = plan.target_intensity
        prev = None
        for l in range(plan.frames + 1):
            prop = build_separable(small_config, plan.layout(l))
            if prev is None:
                res = wgs_solve(prop, inten, fast_settings)
                if kind == "wpgs":
                    res = wpgs_solve(
                        prop, inten, np.angle(res.field), fast_settings,
                        init_mask=res.pixel, init_weights=res.weights,
                    )
            elif kind == "wpgs":
                res = wpgs_solve(
                    prop, inten, np.angle(prev.field), fast_settings,
                    init_mask=prev.pixel, init_weights=prev.weights,
                )
            else:
                res = wgs_solve(
                    prop, inten, fast_settings, init_mask=prev.pixel, init_weights=prev.weights
                )
            frame = frames[l]
            np.testing.assert_array_equal(frame.mask.phases, res.mask.phases)
            np.testing.assert_array_equal(frame.field, res.field)
            np.testing.assert_array_equal(frame.init_field, res.init_field)
            np.testing.assert_array_equal(frame.weights, res.weights)
            assert frame.objective == res.objective and frame.scale == res.scale
            if prev is not None:
                expected = sample_refresh(
                    prop, prev.mask, res.mask, res.init_field, res.field, refresh
                )
                np.testing.assert_array_equal(intervals[l - 1][0], expected)
            prev = res

    def test_frame_time_scales_with_iterations(self, small_config):
        # per-frame solve time is dominated by the iteration loop, so doubling
        # the budget roughly doubles the time (generous 30 percent slack); the
        # host's speed can swing by 2x within a second, so the ratio is taken
        # within each of nine back-to-back pairs, run in alternating order,
        # and the median kept; the first two frames pay one-time costs
        spec = custom_task(
            source_points=[(-10e-6, 0, 0), (10e-6, 0, 0)],
            target_points=[(-10e-6, 0, 0), (10e-6, 2.0e-6, 0)],
        )
        plan = plan_task(spec, max_step=0.25e-6)
        budgets = [20, 40]
        ratios = []
        for _ in range(9):
            ms = {}
            for k in budgets:
                settings = SolverSettings(iterations=3, wgs_iterations=k, seed=0)
                record = run_sequence(small_config, plan, "wgs", settings, RefreshModel())
                ms[k] = np.median(record.solve_times[2:])
            ratios.append(ms[40] / ms[20])
            budgets.reverse()
        assert np.median(ratios) == pytest.approx(2.0, rel=0.3)

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
