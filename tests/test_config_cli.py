import copy
import csv
import gc
import json
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest
import yaml

from holoseq import sequence
from holoseq.cli import main
from holoseq.config import (
    ConfigError,
    RunConfig,
    RunOptions,
    config_from_dict,
    config_to_dict,
    config_to_yaml,
    load_config,
    parse_length,
    save_config,
)
from holoseq.geometry import TaskSpec, offset_bilayer_task, reconfig_2d_task
from holoseq.solvers import DarkTrapError, SolverSettings
from holoseq.transient import RefreshModel


def non_finite_docs(base):
    """Copies of a valid config document, each with one number made inf or nan."""
    inf, nan = float("inf"), float("nan")
    for section, key, value in (
        ("task", "displacement", inf),
        ("task", "layer_intensity", [inf]),
        ("task", "max_step", inf),
        ("optical", "pixel_pitch", inf),
        ("optical", "wavelength", inf),
        ("solver", "over_relaxation", nan),
        ("run", "max_step", inf),
    ):
        doc = copy.deepcopy(base)
        doc[section][key] = value
        yield doc
    doc = copy.deepcopy(base)
    doc["task"]["source_layers"][0]["filling"] = nan
    yield doc
    doc = copy.deepcopy(base)
    doc["task"] = {
        "kind": "custom",
        "custom_source": [[0.0, 0.0, 0.0], [1e-5, 0.0, 0.0]],
        "custom_target": [[0.0, 0.0, 0.0], [1e-5, 1e-6, 0.0]],
        "custom_intensity": [nan, 1.0],
    }
    yield doc


class TestParseLength:
    def test_bare_numbers_are_meters(self):
        assert parse_length(5e-6) == 5e-6
        assert parse_length(3) == 3.0

    def test_unit_suffixes(self):
        assert parse_length("5 um") == pytest.approx(5e-6)
        assert parse_length("5um") == pytest.approx(5e-6)
        assert parse_length("2.5 µm") == pytest.approx(2.5e-6)
        assert parse_length("820 nm") == pytest.approx(820e-9)
        assert parse_length("4 mm") == pytest.approx(4e-3)
        assert parse_length("0.1 m") == pytest.approx(0.1)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_length("5 parsec")
        with pytest.raises(ConfigError):
            parse_length(None)
        for text in ("1.2.3", "5e", "e-6 m", "abc"):
            with pytest.raises(ConfigError):
                parse_length(text)
        for value in (float("inf"), float("-inf"), float("nan"), "1e999 m"):
            with pytest.raises(ConfigError, match="finite"):
                parse_length(value)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            task=offset_bilayer_task(dims=(4, 4), seed=9),
            solver=SolverSettings(iterations=7, seed=3),
            refresh=RefreshModel(samples_per_refresh=11, order="second"),
            run=RunOptions(solvers=("wpgs",), max_step=0.2e-6, cost="euclidean"),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = RunConfig(task=reconfig_2d_task(source_dims=(5, 5), target_dims=(4, 4), seed=1))
        path = tmp_path / "cfg.yaml"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_unit_suffixes_in_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            """
optical: {wavelength: 820 nm, focal_length: 4 mm, grid_x: 64, grid_y: 64, pixel_pitch: 17 um}
task:
  kind: custom
  custom_source: [[0.0, 0.0, 0.0]]
  custom_target: [[0.0, 0.0, 0.0]]
run: {max_step: 0.1 um}
"""
        )
        cfg = load_config(path)
        assert cfg.optical.wavelength == pytest.approx(820e-9)
        assert cfg.optical.pixel_pitch == pytest.approx(17e-6)
        assert cfg.run.max_step == pytest.approx(0.1e-6)

    def test_bare_exponent_lengths_in_file(self, tmp_path):
        # YAML reads 820e-9 and 1e-6 (no dot) as strings; they are meters
        path = tmp_path / "cfg.yaml"
        path.write_text(
            """
optical: {wavelength: 820e-9, focal_length: 4e-3, pixel_pitch: 17e-6}
task:
  kind: custom
  custom_source: [[0, 0, 0]]
  custom_target: [[1e-6, 0, 0]]
run: {max_step: 1e-7}
"""
        )
        assert yaml.safe_load(path.read_text())["optical"]["wavelength"] == "820e-9"
        cfg = load_config(path)
        assert cfg.optical.wavelength == 820e-9
        assert cfg.optical.focal_length == 4e-3
        assert cfg.optical.pixel_pitch == 17e-6
        assert cfg.task.custom_target == ((1e-6, 0.0, 0.0),)
        assert cfg.run.max_step == 1e-7
        for bad in ("820e-9 parsec", "8x20e-9", "wide"):
            path.write_text(f"optical: {{wavelength: {bad}}}")
            with pytest.raises(ConfigError, match="length"):
                load_config(path)

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"solver": {"bogus_key": 1}})
        with pytest.raises(ConfigError):
            config_from_dict({"run": {"solvers": ["gs"]}})
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict({"optical": {"grid_x": 64.5}})
        with pytest.raises(ConfigError, match="cost"):
            config_from_dict({"run": {"cost": "manhattan"}})
        for step in (0, -0.5e-6, "0 um", float("nan")):
            with pytest.raises(ConfigError, match="max_step"):
                config_from_dict({"run": {"max_step": step}})
        # string-valued keys take strings only: a YAML null or a number is not 'None'/'3'
        for doc in (
            {"run": {"output_dir": None}},
            {"run": {"cost": None}},
            {"run": {"cost": 1}},
            {"run": {"solvers": ["wpgs", None]}},
            {"refresh": {"order": None}},
            {"task": {"kind": None}},
        ):
            with pytest.raises(ConfigError, match="string"):
                config_from_dict(doc)
        # a non-finite number stops at load, not in planning or in the solver
        inf = float("inf")
        for doc in non_finite_docs(config_to_dict(RunConfig())):
            with pytest.raises(ConfigError, match="finite"):
                config_from_dict(doc)
        for section, key in (("optical", "grid_x"), ("solver", "seed")):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({section: {key: inf}})
        with pytest.raises(ConfigError, match="max_step"):
            RunOptions(max_step=inf)
        path = tmp_path / "bad.yaml"
        path.write_text("task: {kind: nope}")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_yaml_stable_with_every_task_field(self):
        doc = {
            "task": {
                "kind": "custom",
                "seed": 5,
                "source_layers": [{"dims": [2, 2], "spacing": "5 um", "z": "-1 um"}],
                "target_layers": [{"dims": [1, 2], "spacing": "4 um", "center": [1e-6, 0.0]}],
                "layer_intensity": [1.5],
                "custom_source": [[0.0, 0.0, 0.0], ["1 um", 0.0, 0.0]],
                "custom_target": [[0.0, "2 um", 0.0], [1e-6, 1e-6, 0.0]],
                "custom_intensity": [1.0, 2.0],
                "displacement": "2 um",
                "max_step": "0.2 um",
            }
        }
        text = config_to_yaml(config_from_dict(doc))
        assert set(yaml.safe_load(text)["task"]) == {f.name for f in fields(TaskSpec)}
        assert config_to_yaml(config_from_dict(yaml.safe_load(text))) == text


_STRICT_BASE = {
    "optical": {"grid_x": 64, "grid_y": 64},
    "task": {
        "kind": "reconfig_2d",
        "source_layers": [{"dims": [2, 2], "spacing": "5 um"}],
        "target_layers": [{"dims": [1, 1], "spacing": "5 um"}],
    },
    "solver": {"iterations": 2},
    "refresh": {"samples_per_refresh": 3},
    "run": {"warmup_frames": 0},
}


@pytest.mark.parametrize(
    "section, key",
    [
        ((), "optcal"),
        (("optical",), "gridx"),
        (("task",), "sed"),
        (("task", "source_layers", 0), "fill"),
        (("solver",), "iteration"),
        (("solver",), "over_relaxation_last_iters"),
        (("refresh",), "tau"),
        (("run",), "threads"),
        (("run",), "over_relax_tail_fraction"),
        (("run",), "tie_break"),
    ],
    ids=[
        "top", "optical", "task", "lattice", "solver", "solver_relax_last_iters", "refresh",
        "run", "run_tail_fraction", "run_tie_break",
    ],
)
def test_unknown_key_rejected(section, key):
    doc = copy.deepcopy(_STRICT_BASE)
    config_from_dict(doc)
    node = doc
    for step in section:
        node = node[step]
    node[key] = 1
    with pytest.raises(ConfigError, match=key):
        config_from_dict(doc)


@pytest.fixture()
def tiny_config_file(tmp_path):
    # two traps, sub-micron move, small grid and budgets: fast end-to-end
    doc = {
        "optical": {"wavelength": 820e-9, "focal_length": 4e-3,
                    "grid_x": 64, "grid_y": 64, "pixel_pitch": 17e-6},
        "task": {
            "kind": "custom",
            "custom_source": [[-10e-6, 0.0, 0.0], [10e-6, 0.0, 0.0]],
            "custom_target": [[-10e-6, 0.0, 0.0], [10e-6, 0.5e-6, 0.0]],
        },
        "solver": {"iterations": 2, "wgs_iterations": 4, "seed": 0},
        "refresh": {"samples_per_refresh": 3},
        "run": {"solvers": ["wpgs"], "output_dir": str(tmp_path / "out"),
                "max_step": 0.25e-6, "warmup_frames": 0},
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestCli:
    def test_plan_command(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan", "-c", str(tiny_config_file), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["frames"] == 2
        assert "displacement" in capsys.readouterr().out

    def test_plan_minimal_task_defaults(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["frames"] == 10

    def test_run_command_artifacts(self, tiny_config_file, tmp_path, capsys):
        code = main(["run", "-c", str(tiny_config_file)])
        assert code == 0
        outdir = tmp_path / "out" / "wpgs"
        assert (outdir / "metrics.json").exists()
        assert (outdir / "masks" / "frame_0000.mask").exists()
        text = capsys.readouterr().out
        assert "nu_min" in text and "dphi_std" in text
        # frame 0's one-time costs are reported apart from the later frames
        assert re.search(r"  frame0 \d+\.\d\d ms  median_frame \d+\.\d\d ms\n", text)
        assert "mean_frame" not in text

    def test_run_is_deterministic(self, tiny_config_file, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 0
        names = ["fields.csv", "transients.csv", "objectives.csv", "metrics.json"]
        masks = sorted(p.name for p in (runs[0] / "wpgs" / "masks").iterdir())
        assert len(masks) == 6  # float and 8-bit mask per frame, three frames
        names += [f"masks/{m}" for m in masks]
        for name in names:
            first, second = (d / "wpgs" / name for d in runs)
            assert first.read_bytes() == second.read_bytes(), name

    def test_run_releases_each_record(self, tiny_config_file, tmp_path, monkeypatch):
        # every frame's mask lives in the run record; one solver's record must
        # be gone before the next solver's run starts
        records = []

        def run_sequence(*args, **kwargs):
            if records:
                gc.collect()
                assert records[-1]() is None
            record = original(*args, **kwargs)
            records.append(weakref.ref(record))
            return record

        original = sequence.run_sequence
        monkeypatch.setattr(sequence, "run_sequence", run_sequence)
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["run"]["solvers"] = ["wpgs", "wgs"]
        tiny_config_file.write_text(yaml.safe_dump(doc))
        assert main(["run", "-c", str(tiny_config_file), "-o", str(tmp_path / "run")]) == 0
        assert len(records) == 2

    def test_zero_step_plan_run(self, tmp_path, capsys):
        # a displacement of 0 plans no step: frame 0 is the only frame, and
        # there is no later frame to take a median time of
        doc = config_to_dict(RunConfig())
        doc["optical"].update(grid_x=32, grid_y=32)
        doc["task"]["displacement"] = 0
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert re.search(r"^wpgs: .*  frame0 \d+\.\d\d ms\n", text, re.MULTILINE)
        assert "median_frame" not in text
        assert len(list((tmp_path / "out" / "wgs" / "masks").iterdir())) == 2

    def test_infeasible_plan_exit_code(self, tmp_path):
        doc = {
            "task": {
                "kind": "custom",
                "custom_source": [[0.0, 0.0, 0.0]],
                "custom_target": [[0.0, 0.0, 0.0], [1e-6, 0.0, 0.0]],
            }
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 3

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("task: {kind: nope}")
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 2
        assert main(["plan", "-c", str(tmp_path / "missing.yaml")]) == 2
        path.write_text("run: {tie_break: lex}")  # a removed planner option
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 2
        for step in ("0", "-0.5 um", ".inf"):
            path.write_text(f"run: {{max_step: {step}}}")
            assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 2
        assert not (tmp_path / "p.json").exists()
        # non-finite numbers in the file exit 2 before any solve, where they
        # used to end in a traceback, a solver failure or an infeasible plan
        base = config_to_dict(RunConfig())
        base["optical"].update(grid_x=32, grid_y=32)
        for doc in non_finite_docs(base):
            path.write_text(yaml.safe_dump(doc))
            assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2, doc
        assert not (tmp_path / "out").exists()

    def test_trap_behind_lens_exit_code(self, tmp_path, capsys):
        # traps at z = -5 mm with f = 4 mm: no propagator exists, so every
        # command that plans stops with a config error before any solve
        doc = {
            "optical": {"focal_length": 4e-3, "grid_x": 64, "grid_y": 64},
            "task": {
                "kind": "custom",
                "custom_source": [[0.0, 0.0, -5e-3], [10e-6, 0.0, -5e-3]],
                "custom_target": [[5e-6, 0.0, -5e-3], [15e-6, 0.0, -5e-3]],
            },
            "run": {"output_dir": str(tmp_path / "out")},
        }
        path = tmp_path / "behind.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "-c", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        for command in ("plan", "bench"):
            out = tmp_path / f"{command}.out"
            assert main([command, "-c", str(path), "-o", str(out)]) == 2
            assert "focal_length + z > 0" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "threads.yaml"
        path.write_text("run: {threads: 2}")
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 2

    def test_unknown_flag_exit_code(self, tiny_config_file, tmp_path, capsys):
        # run parameters come from the config file only: a flag such as --seed
        # is a usage error that main returns, not raises, and nothing is written
        out = tmp_path / "out"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out), "--seed", "3"]) == 2
        assert main(["plan", "--max-step", "1", "-o", str(tmp_path / "p.json")]) == 2
        assert main(["plan", "--bogus"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "p.json").exists()

    def test_bench_command(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "-c", str(tiny_config_file), "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "task"
        assert len(rows) == 2  # single solver -> one data row

    def test_bench_warmup_covering_every_frame(self, tiny_config_file, tmp_path, capsys):
        # the tiny plan has three frames: a warm-up of three leaves none to time
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["run"]["warmup_frames"] = 3
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "bench.csv"
        assert main(["bench", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        assert "warmup_frames" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exit_code(self, tiny_config_file, tmp_path, capsys, monkeypatch):
        # a dark trap is the documented exit 4 in bench as in run, not a traceback
        def dark(*args, **kwargs):
            raise DarkTrapError([0], 1)

        monkeypatch.setattr(sequence, "wpgs_solve", dark)
        monkeypatch.setattr(sequence, "wgs_solve", dark)
        assert main(["run", "-c", str(tiny_config_file), "-o", str(tmp_path / "run")]) == 4
        assert "solver failure" in capsys.readouterr().err
        out = tmp_path / "bench.csv"
        assert main(["bench", "-c", str(tiny_config_file), "-o", str(out)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()

    def test_unusable_output_path_exit_code(self, tiny_config_file, tmp_path, capsys,
                                            monkeypatch):
        # run checks its output directory before it solves any frame
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was checked")

        monkeypatch.setattr(sequence, "run_sequence", no_solve)
        existing = tmp_path / "existing.txt"
        existing.write_text("x")
        assert main(["run", "-c", str(tiny_config_file), "-o", str(existing)]) == 2
        assert str(existing) in capsys.readouterr().err
        monkeypatch.undo()

        missing = tmp_path / "missing_dir"
        for args in (["plan", "-c", str(tiny_config_file)],
                     ["bench", "-c", str(tiny_config_file)],
                     ["landscape", "--a-steps", "2", "--dphi-steps", "2"]):
            out = missing / f"{args[0]}.out"
            assert main([*args, "-o", str(out)]) == 2, args[0]
            assert str(out) in capsys.readouterr().err, args[0]
        assert not missing.exists()

        # a solver's directory that cannot be made is exit 2 as well
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "wpgs").write_text("x")
        assert main(["run", "-c", str(tiny_config_file), "-o", str(outdir)]) == 2
        assert str(outdir / "wpgs") in capsys.readouterr().err

    def test_landscape_command(self, tmp_path):
        out = tmp_path / "landscape.csv"
        code = main(["landscape", "--a-steps", "5", "--dphi-steps", "9", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [(float(a), float(d), float(i)) for a, d, i in reader]
        assert header == ["a", "dphi", "intensity"]
        assert len(rows) == 45
        # the dphi = 0 column is identically 1
        assert all(i == pytest.approx(1.0) for a, d, i in rows if d == 0.0)
        # worst-case interference cell (a=0.5, dphi=pi) vanishes
        mid = [i for a, d, i in rows if a == 0.5 and d == pytest.approx(np.pi)]
        assert mid[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("flag", ["--a-steps", "--dphi-steps"])
    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_landscape_bad_step_count(self, tmp_path, capsys, flag, steps):
        out = tmp_path / "landscape.csv"
        assert main(["landscape", flag, steps, "-o", str(out)]) == 2
        assert f"config error: {flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_budgets_from_config(self, tiny_config_file, tmp_path, capsys):
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["solver"].update(iterations=3, wgs_iterations=6)
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "bench2.csv"
        assert main(["bench", "-c", str(tiny_config_file), "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "3"  # wpgs row reports the configured budget

    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
