import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import holoseq.sequence as sequence_mod
import holoseq.transient as transient_mod
from holoseq.geometry import custom_task
from holoseq.planner import TransportPlan, plan_task
from holoseq.propagation import build_dense, build_separable, forward, forward_dense
from holoseq.sequence import run_sequence
from holoseq.serial import RunWriter
from holoseq.solvers import DarkTrapError, SolverSettings, wgs_solve, wpgs_solve
from holoseq.transient import RefreshModel, pixel_interpolate, sample_refresh


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

    def test_scattered_frames_match_dense_oracle(self, small_config, fast_settings):
        # 24 scattered traps, a 5x5 grid at 12 um jittered by up to 3 um: no
        # two share an x or y, so each frame's pair grid has N^2 entries
        rng = np.random.default_rng(11)
        src = [(12e-6 * (i - 2) + rng.uniform(-3e-6, 3e-6),
                12e-6 * (j - 2) + rng.uniform(-3e-6, 3e-6), 0.0)
               for i in range(5) for j in range(5)][:24]
        tgt = [(x + 0.6e-6, y - 0.4e-6, z) for x, y, z in src]
        plan = plan_task(custom_task(source_points=src, target_points=tgt), max_step=0.25e-6)
        _, frames, _ = run_frames(
            small_config, plan, "wpgs", fast_settings,
            RefreshModel(samples_per_refresh=5, order="exact"),
        )
        assert plan.frames >= 2 and len(frames) == plan.frames + 1
        for l, frame in enumerate(frames):
            layout = plan.layout(l)
            prop = build_separable(small_config, layout)
            assert (len(prop.kernel_x), len(prop.kernel_y)) == (24, 24)
            want = forward_dense(build_dense(small_config, layout), frame.mask)
            assert np.abs(frame.field - want).max() / np.abs(want).max() <= 1e-10

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
        # each interval's ratios equal sampling from the previous mask's exp
        # and freshly propagated endpoint fields: the previous mask and the
        # new mask at the new frame's traps.  The run starts from the phasors
        # those masks are the angles of, so both orders agree to rounding; the
        # a = 1 row is the new solve's init_field, so its ratios are exactly 1
        refresh = RefreshModel(samples_per_refresh=5, order=order)
        _, frames, intervals = run_frames(small_config, tiny_plan, "wpgs", fast_settings, refresh)
        for l, (ratios, _) in enumerate(intervals, start=1):
            prev, frame = frames[l - 1], frames[l]
            prop = build_separable(small_config, tiny_plan.layout(l))
            expected = sample_refresh(
                prop, frame.mask,
                forward(prop, prev.mask), forward(prop, frame.mask), refresh,
                np.exp(1j * prev.mask.phases),
            )
            np.testing.assert_allclose(ratios, expected, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(ratios[0], 1.0)

    def test_exact_interval_rows_from_the_solve(
        self, small_config, six_trap_plan, fast_settings, monkeypatch
    ):
        # the exact interval's a = 1 row is the new frame's init_field and its
        # a = 0 row the new frame's field, bit for bit; the rows between are
        # the forwards of the relaxing mask to rounding
        plan = six_trap_plan
        refresh = RefreshModel(samples_per_refresh=7, order="exact")
        sampled = []

        def kept(*args):
            fields = real(*args)
            sampled.append(fields)
            return fields

        real = transient_mod.transient_exact
        monkeypatch.setattr(transient_mod, "transient_exact", kept)
        _, frames, _ = run_frames(small_config, plan, "wpgs", fast_settings, refresh)
        assert len(sampled) == plan.frames
        for l, fields in enumerate(sampled, start=1):
            prev, frame = frames[l - 1], frames[l]
            np.testing.assert_array_equal(fields[0], frame.init_field)
            np.testing.assert_array_equal(fields[-1], frame.field)
            prop = build_separable(small_config, plan.layout(l))
            for a, row in zip(refresh.a_grid()[1:-1], fields[1:-1]):
                want = forward(prop, pixel_interpolate(prev.mask, frame.mask, float(a)))
                assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()

    def test_sink_gets_no_phasor(self, tiny_run):
        assert all(frame.pixel is None for frame in tiny_run[1])

    @staticmethod
    def phasors_alive(config, plan, settings, kind, refresh, monkeypatch):
        """Distinct solve phasors alive at each sample_refresh call and at compute_report."""
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
                live = (ref() for ref in phasors)
                alive.append(len({id(p) for p in live if p is not None}))
                return fn(*args, **kwargs)
            return counted

        for name in ("wpgs_solve", "wgs_solve"):
            monkeypatch.setattr(sequence_mod, name, record_phasor(getattr(sequence_mod, name)))
        for name in ("sample_refresh", "compute_report"):
            monkeypatch.setattr(sequence_mod, name, count_alive(getattr(sequence_mod, name)))
        run_sequence(config, plan, kind, settings, refresh)
        return alive

    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_only_the_newest_phasor_stays_alive(
        self, small_config, tiny_plan, fast_settings, kind, monkeypatch
    ):
        # under the leading model every solve writes into the previous one's
        # phasor, so one buffer serves the whole run, and it is freed before
        # the metrics
        alive = self.phasors_alive(
            small_config, tiny_plan, fast_settings, kind, RefreshModel(), monkeypatch
        )
        assert alive == [1] * tiny_plan.frames + [0]

    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_exact_model_keeps_the_start_phasor_until_sampled(
        self, small_config, tiny_plan, fast_settings, kind, monkeypatch
    ):
        # the exact transient starts from the previous solve's phasor, so it
        # lives beside the newest one until its interval is sampled
        refresh = RefreshModel(order="exact")
        alive = self.phasors_alive(
            small_config, tiny_plan, fast_settings, kind, refresh, monkeypatch
        )
        assert alive == [2] * tiny_plan.frames + [0]

    @pytest.mark.parametrize("order", ["leading", "exact"])
    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_solves_share_one_phasor_buffer(
        self, small_config, tiny_plan, fast_settings, kind, order, monkeypatch
    ):
        # every result's phasor is held here, so a solve that allocated its
        # own would show as a new buffer.  Frame 0's polish writes into the
        # warm-up's phasor; under the leading model every later solve writes
        # into its start phasor, under the exact model into a new one, since
        # the interval's transient starts from the old phasor after the solve
        pixels = []

        def record_pixel(solve):
            def solved(*args, **kwargs):
                result = solve(*args, **kwargs)
                pixels.append(result.pixel)
                return result
            return solved

        for name in ("wpgs_solve", "wgs_solve"):
            monkeypatch.setattr(sequence_mod, name, record_pixel(getattr(sequence_mod, name)))
        run_sequence(small_config, tiny_plan, kind, fast_settings, RefreshModel(order=order))
        assert len(pixels) == tiny_plan.frames + 1 + (kind == "wpgs")
        buffers = len({id(p) for p in pixels})
        assert buffers == (1 if order == "leading" else tiny_plan.frames + 1)

    @pytest.mark.parametrize("order", ["leading", "exact"])
    def test_no_mask_outlives_the_next_interval(
        self, small_config, tiny_plan, fast_settings, order, monkeypatch
    ):
        # the run drops each frame's mask once the sink returns: the leading
        # model reads no mask, and the exact one reads the interval's start
        # phases from the previous phasor, so no mask is alive when an
        # interval is sampled or the metrics are computed
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
        assert alive == [[]] * (tiny_plan.frames + 1)
        assert len(refs) == tiny_plan.frames + 1

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

    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_memory_does_not_grow_with_iterations(self, small_config, tmp_path, kind):
        # a solve writes every phase step into one phasor buffer, so four
        # times the iterations peak within one phasor's bytes of the shorter
        # run (a wgs run iterates wgs_iterations on every frame, a wpgs run
        # on frame 0's warm-up)
        spec = custom_task([(x, y, 0) for x, y in GRID_7], [(x, y + 1e-6, 0) for x, y in GRID_7])
        plan = plan_task(spec, max_step=0.25e-6)
        refresh = RefreshModel()
        phasor_bytes = small_config.grid_x * small_config.grid_y * 16

        def streamed(iterations, out):
            settings = SolverSettings(iterations=3, wgs_iterations=iterations, seed=0)
            with RunWriter(out, plan, refresh) as sink:
                run_sequence(small_config, plan, kind, settings, refresh, sink=sink)

        # one-time allocations outside the trace
        streamed(4, tmp_path / "warm-up")
        peaks = []
        for iterations in (4, 16):
            gc.collect()
            tracemalloc.start()
            try:
                streamed(iterations, tmp_path / str(iterations))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < phasor_bytes, peaks

    @pytest.mark.parametrize("order", ["leading", "exact"])
    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_frames_equal_hand_threaded_solves(
        self, small_config, six_trap_plan, fast_settings, kind, order
    ):
        # each frame starts from the previous result's phasor, frame 0's WPGS
        # polish from the warm-up's, and samples its interval from the
        # previous phasor to the new mask
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
                        init_pixel=res.pixel, init_weights=res.weights,
                    )
            elif kind == "wpgs":
                res = wpgs_solve(
                    prop, inten, np.angle(prev.field), fast_settings,
                    init_pixel=prev.pixel, init_weights=prev.weights,
                )
            else:
                res = wgs_solve(
                    prop, inten, fast_settings, init_pixel=prev.pixel, init_weights=prev.weights
                )
            frame = frames[l]
            np.testing.assert_array_equal(frame.mask.phases, res.mask.phases)
            np.testing.assert_array_equal(frame.field, res.field)
            np.testing.assert_array_equal(frame.init_field, res.init_field)
            np.testing.assert_array_equal(frame.weights, res.weights)
            assert frame.objective == res.objective and frame.scale == res.scale
            if prev is not None:
                # the exact model starts from the previous phasor, as the run does
                expected = sample_refresh(
                    prop, res.mask, res.init_field, res.field, refresh, prev.pixel
                )
                np.testing.assert_array_equal(intervals[l - 1][0], expected)
            prev = res

    @pytest.mark.parametrize("order", ["leading", "exact"])
    @pytest.mark.parametrize("kind", ["wpgs", "wgs"])
    def test_permuted_plan_permutes_per_trap_results(
        self, small_config, six_trap_plan, fast_settings, kind, order
    ):
        # listing the traps in another order changes no trap's result: every
        # per-trap array of every frame and interval is permuted with them, to
        # rounding (the contractions sum the traps in another order)
        plan = six_trap_plan
        perm = np.array([4, 0, 5, 2, 1, 3])
        permuted = TransportPlan(
            frames=plan.frames,
            waypoints=plan.waypoints[perm],
            trap_ids=tuple(plan.trap_ids[i] for i in perm),
            source_ids=tuple(plan.source_ids[i] for i in perm),
            max_step=plan.max_step,
            target_intensity=plan.target_intensity[perm],
        )
        refresh = RefreshModel(samples_per_refresh=5, order=order)
        _, frames, intervals = run_frames(small_config, plan, kind, fast_settings, refresh)
        _, frames_p, intervals_p = run_frames(small_config, permuted, kind, fast_settings, refresh)
        tol = 1e-11
        for frame, frame_p in zip(frames, frames_p, strict=True):
            for name in ("field", "init_field"):
                want = getattr(frame, name)[perm]
                assert np.abs(getattr(frame_p, name) - want).max() <= tol * np.abs(want).max()
            np.testing.assert_allclose(frame_p.weights, frame.weights[perm], rtol=tol, atol=0)
        for (ratios, dphi), (ratios_p, dphi_p) in zip(intervals, intervals_p, strict=True):
            np.testing.assert_allclose(ratios_p, ratios[:, perm], rtol=0, atol=tol)
            np.testing.assert_allclose(dphi_p, dphi[perm], rtol=0, atol=tol)

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
