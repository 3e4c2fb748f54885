import csv
import dataclasses
import importlib.util
import json
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holoseq.config import load_config
from holoseq.geometry import custom_task
from holoseq.planner import TransportPlan, plan_task
from holoseq.propagation import TWO_PI, PhaseMask
from holoseq.sequence import run_sequence
from holoseq.serial import (
    FIELDS_HEADER,
    TRANSIENTS_HEADER,
    RunWriter,
    _float_reprs,
    quantize_mask,
    read_mask,
    read_plan_json,
    save_run_record,
    write_fields_csv,
    write_mask,
    write_plan_json,
    write_transients_csv,
)
from holoseq.solvers import SolverSettings
from holoseq.transient import RefreshModel


SMALL_SETTINGS = SolverSettings(iterations=2, wgs_iterations=4, seed=0)
SMALL_REFRESH = RefreshModel(samples_per_refresh=3)


def stream_run(outdir, config, plan, settings, refresh, config_text=None):
    """A WPGS run that a RunWriter streams into outdir and save_run_record finishes.

    Returns the record, every frame the sink was given and every interval's
    (ratios, dphi) pair.
    """
    frames, intervals = [], []
    with RunWriter(outdir, plan, refresh) as writer:
        def sink(l, frame, ratios, dphi):
            frames.append(frame)
            if l:
                intervals.append((ratios, dphi))
            writer(l, frame, ratios, dphi)

        record = run_sequence(config, plan, "wpgs", settings, refresh, sink=sink)
    save_run_record(outdir, record, config_text=config_text)
    return record, frames, intervals


@pytest.fixture(scope="module")
def small_plan():
    spec = custom_task(
        source_points=[(-10e-6, 0, 0), (10e-6, 0, 0)],
        target_points=[(-10e-6, 0, 0), (10e-6, 0.5e-6, 0)],
    )
    return plan_task(spec, max_step=0.25e-6)


@pytest.fixture(scope="module")
def small_run(small_config, small_plan, tmp_path_factory):
    """(run directory, record, frames, intervals) of one streamed run."""
    out = tmp_path_factory.mktemp("small") / "run"
    record, frames, intervals = stream_run(
        out, small_config, small_plan, SMALL_SETTINGS, SMALL_REFRESH, config_text="solver: {}\n"
    )
    return out, record, frames, intervals


# Reference writers: fields.csv, transients.csv and plan.json as csv.writer and
# json.dumps(indent=1) write them.  The package assembles the same bytes by hand.
def oracle_fields_csv(path, frames, ids):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "trap_id", "re", "im", "intensity", "phase"])
        for l, frame in enumerate(frames):
            field = frame.field
            columns = (field.real, field.imag, np.abs(field) ** 2, np.angle(field))
            w.writerows(
                [l, tid, *map(repr, values)]
                for tid, *values in zip(ids, *(c.tolist() for c in columns))
            )


def oracle_transients_csv(path, intervals, a_values, ids):
    a_text = [repr(float(a)) for a in a_values]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "trap_id", "a", "I_over_I0", "dphi"])
        for l, (interval, dphi) in enumerate(intervals):
            dphi_text = [repr(d) for d in dphi.tolist()]
            for a, row in zip(a_text, interval.tolist()):
                w.writerows(
                    [l, tid, a, repr(ratio), d] for tid, ratio, d in zip(ids, row, dphi_text)
                )


def oracle_plan_json(path, plan):
    doc = {
        "frames": plan.frames,
        "max_step": plan.max_step,
        "traps": [
            {
                "id": tid,
                "source_id": sid,
                "target_intensity": float(iv),
                "waypoints": plan.waypoints[i].tolist(),
            }
            for i, (tid, sid, iv) in enumerate(
                zip(plan.trap_ids, plan.source_ids, plan.target_intensity)
            )
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def assert_writers_match_oracle(tmp_path, config, plan, settings, refresh):
    """Each hand-assembled artifact has the reference writer's bytes.

    fields.csv and transients.csv come from a run streamed one frame at a
    time, plan.json from write_plan_json on its own as well as from the run.
    Returns the record, the frames and the intervals.
    """
    out = tmp_path / "run"
    record, frames, intervals = stream_run(out, config, plan, settings, refresh)
    write_plan_json(tmp_path / "plan.json", plan)
    ids = plan.trap_ids
    pairs = (
        (out / "fields.csv", oracle_fields_csv, (frames, ids)),
        (out / "transients.csv", oracle_transients_csv,
         (intervals, refresh.a_grid(), ids)),
        (out / "plan.json", oracle_plan_json, (plan,)),
        (tmp_path / "plan.json", oracle_plan_json, (plan,)),
    )
    for path, oracle, args in pairs:
        expected = tmp_path / f"oracle-{path.name}"
        oracle(expected, *args)
        assert path.read_bytes() == expected.read_bytes(), path
    return record, frames, intervals


def _perfbench_workload(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS[name]


class TestWriterOracle:
    def test_small_run(self, tmp_path, small_config, small_plan):
        assert_writers_match_oracle(tmp_path, small_config, small_plan, SMALL_SETTINGS,
                                    SMALL_REFRESH)

    def test_perfbench_run(self, tmp_path):
        # plan-144: 144 traps, many refresh intervals of 21 samples
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(_perfbench_workload("plan-144").config_for(0)))
        cfg = load_config(config)
        plan = plan_task(cfg.task, max_step=cfg.run.max_step)
        _, _, intervals = assert_writers_match_oracle(tmp_path, cfg.optical, plan, cfg.solver,
                                                      cfg.refresh)
        assert len(intervals) > 1

    def test_ids_that_need_quoting(self, tmp_path, small_config):
        spec = custom_task(
            source_points=[(-10e-6, 0, 0), (0, 0, 0), (10e-6, 0, 0)],
            target_points=[(-10e-6, 0, 0), (0, 0.5e-6, 0), (10e-6, 0, 0)],
            intensities=[1.0, 1.5, 1.0],
        )
        plan = dataclasses.replace(
            plan_task(spec, max_step=0.25e-6),
            trap_ids=("a,b", 'q"x', "t\u00b5"),
            source_ids=("s,0", 's"1', "s\u00b5"),
        )
        _, frames, _ = assert_writers_match_oracle(tmp_path, small_config, plan, SMALL_SETTINGS,
                                                   SMALL_REFRESH)
        # the contract the oracle pins: csv quoting, "\r\n" rows, json escapes
        fields = (tmp_path / "run" / "fields.csv").read_bytes()
        assert fields.startswith(b"frame,trap_id,re,im,intensity,phase\r\n")
        assert b'\r\n0,"a,b",' in fields and b'\r\n0,"q""x",' in fields
        assert fields.count(b"\r\n") == fields.count(b"\n") == 1 + 3 * len(frames)
        text = (tmp_path / "plan.json").read_text()
        assert '"id": "q\\"x"' in text and '"id": "t\\u00b5"' in text
        assert read_plan_json(tmp_path / "plan.json").trap_ids == plan.trap_ids


# where orjson's spelling of a float starts or stops agreeing with repr's
FLOAT_BOUNDARIES = [
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
    5e-324, np.finfo(float).tiny, np.finfo(float).max, 0.0, np.nan, np.inf,
]


class TestFloatReprs:
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(0, 5), st.integers(0, 40)),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
    def test_matches_repr(self, x):
        assert _float_reprs(x) == [repr(v) for v in x.ravel().tolist()]

    def test_boundaries(self):
        x = np.array(FLOAT_BOUNDARIES)
        for values in (x, -x, np.empty(0)):
            assert _float_reprs(values) == [repr(v) for v in values.tolist()]
        assert _float_reprs(np.array([-0.0, 0.0])) == ["-0.0", "0.0"]

    def test_strided_and_float32_input(self):
        # a view is spelled in C order, a float32 value as the float64 it widens to
        x = np.arange(12.0).reshape(3, 4) / 7
        assert _float_reprs(x.T) == [repr(v) for v in x.T.ravel().tolist()]
        y = np.array([0.1, 1e-6, 3e20], dtype=np.float32)
        assert _float_reprs(y) == [repr(float(v)) for v in y]


class TestWritersOutOfRangeValues:
    """Values that orjson spells otherwise than repr reach the files as repr."""

    ids = ("t0", "t,1", "t2")
    a_values = np.array([0.0, 1e-5, 0.5])

    def test_transients(self, tmp_path):
        intervals = [
            (np.array([[1e-5, 0.0, 1.0], [np.nan, np.inf, -np.inf], [2e-300, 1e16, 0.9]]),
             np.array([3e-7, -0.0, np.nan])),
            (np.array([[0.0, -1e-5, 5e-324], [1.0, 1e-4, 1e20], [np.nan, 0.0, 0.5]]),
             np.array([-0.0, np.inf, -3e-7])),
        ]
        got = tmp_path / "transients.csv"
        with open(got, "w", newline="") as fh:
            fh.write(TRANSIENTS_HEADER)
            for l, (ratios, dphi) in enumerate(intervals):
                write_transients_csv(fh, l, ratios, self.a_values, self.ids, dphi)
        want = tmp_path / "oracle-transients.csv"
        oracle_transients_csv(want, intervals, self.a_values, self.ids)
        assert got.read_bytes() == want.read_bytes()
        assert b",1e-05," in got.read_bytes() and b",nan\r\n" in got.read_bytes()

    def test_fields(self, tmp_path):
        frames = [
            SimpleNamespace(field=np.array([1e-5 + 3e-7j, -0.0 + 0.0j, np.nan + 1j])),
            SimpleNamespace(field=np.array([np.inf + 0j, 1e9 - 2e-5j, 0.5 - 0.0j])),
        ]
        got = tmp_path / "fields.csv"
        with open(got, "w", newline="") as fh:
            fh.write(FIELDS_HEADER)
            for l, frame in enumerate(frames):
                write_fields_csv(fh, l, frame.field, self.ids)
        want = tmp_path / "oracle-fields.csv"
        oracle_fields_csv(want, frames, self.ids)
        assert got.read_bytes() == want.read_bytes()
        assert b",1e-05,3e-07," in got.read_bytes() and b",inf," in got.read_bytes()


class TestMaskFiles:
    def test_float_round_trip(self, tmp_path, rng):
        mask = PhaseMask(rng.uniform(-5, 15, (8, 6)))
        path = tmp_path / "m.mask"
        write_mask(path, mask)
        back = read_mask(path)
        np.testing.assert_array_equal(back.phases, mask.canonical())

    def test_quantized_round_trip(self, tmp_path, rng):
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (5, 7)))
        path = tmp_path / "m.u8"
        write_mask(path, mask, quantized=True)
        back = read_mask(path)
        err = np.abs(np.exp(1j * back.phases) - np.exp(1j * mask.phases))
        assert err.max() <= 2 * np.pi / 256

    def test_float_write_copies_no_payload(self, tmp_path, rng):
        # the canonical array's own buffer is written: the peak stays under one
        # mask's bytes, where a copy for the file would add one or two of them
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (256, 256)))
        canonical = mask.canonical()
        path = tmp_path / "m.mask"
        tracemalloc.start()
        try:
            write_mask(path, mask, canonical=canonical)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < canonical.nbytes
        assert path.read_bytes()[16:] == canonical.astype("<f8").tobytes()

    def test_quantize_range(self, rng):
        q = quantize_mask(PhaseMask(rng.uniform(-10, 10, (16, 16))))
        assert q.dtype == np.uint8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="not a phase-mask"):
            read_mask(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        phases=arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        ),
        quantized=st.booleans(),
    )
    def test_round_trip_fuzz(self, tmp_path, phases, quantized):
        mask = PhaseMask(phases)
        path = tmp_path / ("m.u8" if quantized else "m.mask")
        write_mask(path, mask, quantized=quantized)
        back = read_mask(path)
        expected = quantize_mask(mask) / 256.0 * TWO_PI if quantized else mask.canonical()
        np.testing.assert_array_equal(back.phases, expected)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:10],  # shorter than the 16-byte header
            lambda raw: raw[:6] + b"\x01\x00" + raw[8:],  # nonzero reserved bytes
            lambda raw: raw + b"\x00",  # trailing payload byte
            lambda raw: raw[:-1],  # truncated payload
        ],
        ids=["short-header", "reserved", "trailing", "truncated"],
    )
    @pytest.mark.parametrize("quantized", [False, True], ids=["f8", "u8"])
    def test_corrupt_file_rejected(self, tmp_path, rng, corrupt, quantized):
        path = tmp_path / "m.mask"
        write_mask(path, PhaseMask(rng.uniform(0, 2 * np.pi, (3, 4))), quantized=quantized)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_mask(path)


class TestPlanJson:
    def test_round_trip(self, tmp_path):
        spec = custom_task(
            source_points=[(0, 0, 0), (5e-6, 0, 0)],
            target_points=[(1e-6, 0, 0), (5e-6, 2e-6, 0)],
            intensities=[1.0, 1.5],
        )
        plan = plan_task(spec, max_step=0.5e-6)
        path = tmp_path / "plan.json"
        write_plan_json(path, plan)
        back = read_plan_json(path)
        assert back.frames == plan.frames
        assert back.trap_ids == plan.trap_ids
        np.testing.assert_allclose(back.waypoints, plan.waypoints)
        np.testing.assert_allclose(back.target_intensity, plan.target_intensity)

    def test_non_finite_number_rejected(self, tmp_path):
        plan = plan_task(
            custom_task(source_points=[(0, 0, 0)], target_points=[(1e-6, 0, 0)]),
            max_step=0.5e-6,
        )
        path = tmp_path / "plan.json"
        write_plan_json(path, plan)
        text = path.read_text()
        for old, new in (('"max_step": 5e-07', '"max_step": NaN'),
                         ('"target_intensity": 1.0', '"target_intensity": Infinity'),
                         ("     1e-06,", "     NaN,")):
            assert old in text
            path.write_text(text.replace(old, new, 1))
            with pytest.raises(ValueError, match="finite"):
                read_plan_json(path)


class TestRunDirectory:
    def test_artifact_tree(self, small_run):
        out, _, frames, _ = small_run
        assert (out / "metrics.json").exists()
        assert (out / "fields.csv").exists()
        assert (out / "transients.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "plan.json").exists()
        assert (out / "settings.yaml").read_text() == "solver: {}\n"
        masks = sorted((out / "masks").glob("*.mask"))
        assert len(masks) == len(frames)

    def test_saved_masks_match_frames(self, small_run):
        out, _, frames, _ = small_run
        for l, frame in enumerate(frames):
            back = read_mask(out / "masks" / f"frame_{l:04d}.mask")
            np.testing.assert_array_equal(back.phases, frame.mask.canonical())

    def test_one_canonical_fold_per_frame(self, tmp_path, small_config, small_plan,
                                          monkeypatch):
        # both mask files of a frame share one canonical(); their bytes are
        # those write_mask produces on its own
        calls = []
        canonical = PhaseMask.canonical

        def counted(mask):
            calls.append(mask)
            return canonical(mask)

        monkeypatch.setattr(PhaseMask, "canonical", counted)
        out = tmp_path / "run"
        _, frames, _ = stream_run(out, small_config, small_plan, SMALL_SETTINGS, SMALL_REFRESH)
        assert len(calls) == len(frames)
        for l, frame in enumerate(frames):
            for suffix, quantized in ((".mask", False), (".u8", True)):
                alone = tmp_path / f"alone{suffix}"
                write_mask(alone, frame.mask, quantized=quantized)
                saved = out / "masks" / f"frame_{l:04d}{suffix}"
                assert saved.read_bytes() == alone.read_bytes()

    def test_metrics_json_keys(self, small_run):
        doc = json.loads((small_run[0] / "metrics.json").read_text())
        assert "frame_uniformity" in doc and "dphi" in doc and "transition" in doc
        hist = doc["dphi"]["histogram"]
        assert abs(sum(row[2] for row in hist) - 100.0) <= 1e-9

    def test_csv_schemas(self, small_run):
        out, record, frames, intervals = small_run
        n_traps = record.plan.trap_count
        schemas = {
            "fields.csv": (["frame", "trap_id", "re", "im", "intensity", "phase"],
                           len(frames) * n_traps),
            # 3 samples per refresh
            "transients.csv": (["frame", "trap_id", "a", "I_over_I0", "dphi"],
                               len(intervals) * 3 * n_traps),
            "objectives.csv": (["frame", "iteration", "objective"],
                               sum(len(r.objective) for r in frames)),
            "timing.csv": (["frame", "solve_ms"], len(frames)),
        }
        for name, (columns, count) in schemas.items():
            with open(out / name) as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = list(reader)
            assert header == columns, name
            assert len(rows) == count, name
            # every cell but the trap id reads back as a number
            numeric = [i for i, column in enumerate(columns) if column != "trap_id"]
            for row in rows:
                for i in numeric:
                    float(row[i])

    def test_objective_trace(self, small_run):
        with open(small_run[0] / "objectives.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["frame", "iteration", "objective"]
        # frame 0 ran the warm-up plus polish; later frames the polish only
        per_frame = {}
        for frame, it, j in rows:
            per_frame.setdefault(int(frame), []).append(float(j))
        assert len(per_frame[1]) == 2  # iterations=2 in the fixture
        assert all(j >= 0 for js in per_frame.values() for j in js)

    def test_reopen_removes_only_an_earlier_runs_files(self, tmp_path, small_config,
                                                       small_plan):
        # a writer that opens over a longer run's directory removes its frame
        # masks and end-of-run files, and leaves other files in masks/ alone
        out = tmp_path / "run"
        stream_run(out, small_config, small_plan, SMALL_SETTINGS, SMALL_REFRESH, "a: 1\n")
        (out / "masks" / "frame_0099.mask").write_bytes(b"stale")
        (out / "masks" / "frame_0099.u8").write_bytes(b"stale")
        (out / "masks" / "notes.txt").write_text("kept")
        (out / "masks" / "frame_0099.png").write_bytes(b"kept")
        with RunWriter(out, small_plan, SMALL_REFRESH):
            assert sorted(p.name for p in (out / "masks").iterdir()) == [
                "frame_0099.png", "notes.txt"]
            assert not any((out / name).exists() for name in
                           ("metrics.json", "timing.csv", "plan.json", "settings.yaml"))
        assert (out / "fields.csv").read_text() == "frame,trap_id,re,im,intensity,phase\n"
