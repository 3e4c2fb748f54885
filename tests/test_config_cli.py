import copy
import csv
import json
import re
from dataclasses import fields

import pytest
import yaml

from holoseq import sequence, serial
from holoseq.cli import main
from holoseq.config import (
    ConfigError,
    RunConfig,
    RunOptions,
    _float,
    _int,
    config_from_dict,
    config_to_dict,
    config_to_yaml,
    load_config,
    parse_length,
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


@pytest.mark.parametrize("convert", [_int, _float, parse_length],
                         ids=["int", "float", "length"])
def test_booleans_are_not_numbers(convert):
    # bool is an int to Python, but YAML's yes/no/on/off/true are not numbers
    with pytest.raises(ConfigError):
        convert(True)
    assert convert(1) == 1


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            task=offset_bilayer_task(dims=(4, 4), seed=9),
            solver=SolverSettings(iterations=7, seed=3),
            refresh=RefreshModel(samples_per_refresh=11, order="exact"),
            run=RunOptions(solvers=("wpgs",), max_step=0.2e-6),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = RunConfig(task=reconfig_2d_task(source_dims=(5, 5), target_dims=(4, 4), seed=1))
        path = tmp_path / "cfg.yaml"
        path.write_text(config_to_yaml(cfg))
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
        for step in (0, -0.5e-6, "0 um", float("nan")):
            with pytest.raises(ConfigError, match="max_step"):
                config_from_dict({"run": {"max_step": step}})
        # string-valued keys take strings only: a YAML null or a number is not 'None'/'3'
        for doc in (
            {"task": {"kind": 1}},
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
        # no kind takes every field (a field the kind ignores is refused), so
        # three kinds between them set each field away from its default
        layer = {"dims": [3, 3], "spacing": "5 um"}
        tasks = [
            {
                "kind": "custom",
                "seed": 5,
                "custom_source": [[0.0, 0.0, 0.0], ["1 um", 0.0, 0.0]],
                "custom_target": [[0.0, "2 um", 0.0], [1e-6, 1e-6, 0.0]],
                "custom_intensity": [1.0, 2.0],
                "max_step": "0.2 um",
            },
            {
                "kind": "reconfig_2d",
                "source_layers": [{"dims": [2, 2], "spacing": "5 um", "z": "-1 um"}],
                "target_layers": [
                    {"dims": [1, 2], "spacing": "4 um", "center": [1e-6, 0.0], "z": "-1 um"}
                ],
                "layer_intensity": [1.5],
            },
            {"kind": "minimal_3x3", "source_layers": [layer], "target_layers": [layer],
             "displacement": "2 um"},
        ]
        written = set()
        for task in tasks:
            text = config_to_yaml(config_from_dict({"task": task}))
            written |= set(yaml.safe_load(text)["task"])
            assert config_to_yaml(config_from_dict(yaml.safe_load(text))) == text
        assert written == {f.name for f in fields(TaskSpec)}


_STRICT_BASE = {
    "optical": {"grid_x": 64, "grid_y": 64},
    "task": {
        "kind": "reconfig_2d",
        "source_layers": [{"dims": [2, 2], "spacing": "5 um"}],
        "target_layers": [{"dims": [1, 1], "spacing": "5 um"}],
    },
    "solver": {"iterations": 2},
    "refresh": {"samples_per_refresh": 3},
    "run": {"solvers": ["wpgs"]},
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
        "run": {"solvers": ["wpgs"], "max_step": 0.25e-6},
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

    def test_run_command_artifacts(self, tiny_config_file, tmp_path, capsys, monkeypatch):
        # without -o, run writes into ./out
        monkeypatch.chdir(tmp_path)
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

    def test_shorter_rerun_leaves_no_stale_masks(self, tiny_config_file, tmp_path):
        # a 9-frame run, then a 3-frame run into the same directory: the masks
        # are the second run's, a .mask and a .u8 per frame
        doc = yaml.safe_load(tiny_config_file.read_text())
        out = tmp_path / "run"
        for max_step, frames in ((0.0625e-6, 9), (0.25e-6, 3)):
            doc["run"]["max_step"] = max_step
            tiny_config_file.write_text(yaml.safe_dump(doc))
            assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 0
            masks = out / "wpgs" / "masks"
            assert len(list(masks.glob("frame_*.mask"))) == frames
            assert len(list(masks.glob("frame_*.u8"))) == frames
            assert len(list(masks.iterdir())) == 2 * frames
            with open(out / "wpgs" / "timing.csv") as fh:
                assert len(fh.readlines()) == 1 + frames

    @staticmethod
    def _failed_run_files(run_dir, k):
        # frames 0..k-1 were streamed out; no end-of-run file was written
        masks = sorted(p.name for p in (run_dir / "masks").iterdir())
        assert masks == [f"frame_{l:04d}{suffix}" for l in range(k) for suffix in (".mask", ".u8")]
        for name in ("metrics.json", "timing.csv", "plan.json", "settings.yaml"):
            assert not (run_dir / name).exists(), name
        with open(run_dir / "fields.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sorted({int(row[0]) for row in rows}) == list(range(k))

    @pytest.mark.parametrize("k", [1, 2])
    def test_dark_trap_at_frame_k(self, tiny_config_file, tmp_path, capsys, monkeypatch, k):
        # frame 0 calls wpgs_solve once, after its warm-up, and so does each later frame
        real = sequence.wpgs_solve
        calls = []

        def dark_at_k(*args, **kwargs):
            calls.append(None)
            if len(calls) > k:
                raise DarkTrapError([0], 1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sequence, "wpgs_solve", dark_at_k)
        out = tmp_path / "run"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 4
        assert f"solver failure (wpgs): frame {k}:" in capsys.readouterr().err
        self._failed_run_files(out / "wpgs", k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_write_error_at_frame_k(self, tiny_config_file, tmp_path, capsys, monkeypatch, k):
        real = serial.write_mask

        def full_at_k(path, *args, **kwargs):
            if path.name.startswith(f"frame_{k:04d}"):
                raise OSError(28, "No space left on device")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(serial, "write_mask", full_at_k)
        out = tmp_path / "run"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"output error: cannot write {out / 'wpgs'}: No space left on device" in err
        self._failed_run_files(out / "wpgs", k)

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

    @pytest.mark.parametrize("task, code", [
        # a malformed task is a config error (these planned, or failed in
        # planning with exit 3, before TaskSpec checked them)
        ({"kind": "reconfig_3d_layers",
          "source_layers": [{"dims": [3, 3], "spacing": "5 um", "z": "-10 um"},
                            {"dims": [3, 3], "spacing": "5 um", "z": "10 um"}],
          "target_layers": [{"dims": [2, 2], "spacing": "5 um", "z": "-10 um"}]}, 2),
        ({"kind": "custom", "custom_source": [[0, 0, 0], ["5 um", 0, 0]],
          "custom_target": [[0, "5 um", 0], ["5 um", "5 um", 0]], "custom_intensity": [1.0]}, 2),
        ({"kind": "reconfig_2d", "displacement": "2 um", "custom_source": [[0, 0, 0]],
          "source_layers": [{"dims": [3, 3], "spacing": "5 um"}],
          "target_layers": [{"dims": [2, 2], "spacing": "5 um", "filling": 0.5}]}, 2),
        # a lattice whose dims are not a pair (a traceback or exit 3 before)
        ({"kind": "reconfig_2d", "source_layers": [{"dims": [3], "spacing": "5 um"}],
          "target_layers": [{"dims": [2, 2, 2], "spacing": "5 um"}]}, 2),
        # too few occupied sources depends on the sampled occupancy: still 3
        ({"kind": "reconfig_2d", "seed": 0,
          "source_layers": [{"dims": [3, 3], "spacing": "5 um", "filling": 0.1}],
          "target_layers": [{"dims": [2, 2], "spacing": "5 um"}]}, 3),
    ], ids=["layer-counts", "custom-intensity", "ignored-fields", "lattice-dims",
            "sampled-short"])
    def test_task_exit_codes(self, tmp_path, task, code):
        path = tmp_path / "task.yaml"
        doc = {"optical": {"grid_x": 32, "grid_y": 32}, "task": task,
               "run": {"solvers": ["wpgs"], "max_step": "1 um"}}
        path.write_text(yaml.safe_dump(doc))
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == code
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == code
        assert not (tmp_path / "p.json").exists() and not (tmp_path / "out").exists()

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
        }
        path = tmp_path / "behind.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        out = tmp_path / "plan.json"
        assert main(["plan", "-c", str(path), "-o", str(out)]) == 2
        assert "focal_length + z > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "threads.yaml"
        path.write_text("run: {threads: 2}")
        assert main(["plan", "-c", str(path), "-o", str(tmp_path / "p.json")]) == 2

    def test_retired_refresh_order_exit_code(self, tiny_config_file, tmp_path, capsys):
        # only the exact and leading refresh models exist: naming another is a config error
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["refresh"] = {"order": "second"}
        tiny_config_file.write_text(yaml.safe_dump(doc))
        for command in ("plan", "run"):
            out = tmp_path / f"{command}.out"
            assert main([command, "-c", str(tiny_config_file), "-o", str(out)]) == 2, command
            assert capsys.readouterr().err.splitlines()[0] == (
                "config error: refresh: order must be one of ('exact', 'leading'), not 'second'"
            )
            assert not out.exists()

    def test_retired_bench_exit_code(self, tiny_config_file, tmp_path, capsys):
        # `run` writes every frame's time to timing.csv; the bench command and
        # its warmup_frames key are gone, and naming either exits 2
        assert main(["bench", "-c", str(tiny_config_file)]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["run"]["warmup_frames"] = 3
        tiny_config_file.write_text(yaml.safe_dump(doc))
        for command in ("plan", "run"):
            out = tmp_path / f"{command}.out"
            assert main([command, "-c", str(tiny_config_file), "-o", str(out)]) == 2, command
            assert capsys.readouterr().err.splitlines()[0] == (
                "config error: run: unknown run keys ['warmup_frames']"
            )
            assert not out.exists()

    def test_retired_landscape_exit_code(self, tmp_path, capsys):
        # intensity_model stays in the library; the command that tabulated it is gone
        out = tmp_path / "landscape.csv"
        assert main(["landscape", "-o", str(out)]) == 2
        assert "invalid choice: 'landscape'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("cost", "squared"), ("output_dir", "x")])
    def test_retired_run_key_exit_code(self, tiny_config_file, tmp_path, capsys, monkeypatch,
                                       key, value):
        # the matching cost is always squared, and run's -o (default out) is
        # the one name of its output directory
        monkeypatch.chdir(tmp_path)
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["run"][key] = value
        tiny_config_file.write_text(yaml.safe_dump(doc))
        for command in ("plan", "run"):
            assert main([command, "-c", str(tiny_config_file)]) == 2, command
            assert capsys.readouterr().err.splitlines()[0] == (
                f"config error: run: unknown run keys [{key!r}]"
            )
        assert list(tmp_path.iterdir()) == [tiny_config_file]

    @pytest.mark.parametrize("section, key, word", [
        ("solver", "over_relaxation", "off"),
        ("solver", "iterations", "yes"),
        ("optical", "grid_x", "true"),
        ("optical", "wavelength", "on"),
    ])
    def test_yaml_boolean_exit_code(self, tiny_config_file, tmp_path, capsys, section, key,
                                    word):
        # YAML reads these words as booleans, and a bool is an int: off was an
        # over_relaxation of 0 and on a wavelength of 1 m
        value = yaml.safe_load(word)
        assert isinstance(value, bool)
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc[section][key] = value
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run.out"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["solver", "task"])
    def test_negative_seed_exit_code(self, tiny_config_file, tmp_path, capsys, section):
        # numpy's generators take no negative seed: a solver seed of -1 ended
        # in a traceback after frame 0 was written, a task seed of -1 in exit 3
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc[section]["seed"] = -1
        tiny_config_file.write_text(yaml.safe_dump(doc))
        for command in ("plan", "run"):
            out = tmp_path / f"{command}.out"
            assert main([command, "-c", str(tiny_config_file), "-o", str(out)]) == 2, command
            assert capsys.readouterr().err.splitlines()[0] == (
                f"config error: {section}: seed must be >= 0, not -1"
            )
            assert not out.exists()

    @pytest.mark.parametrize("solvers", [[], ["wgs", "wgs"]], ids=["empty", "repeated"])
    def test_run_solvers_exit_code(self, tiny_config_file, tmp_path, capsys, solvers):
        # no solver would run nothing and exit 0; a repeat would run twice into
        # one directory, the second run overwriting the first
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["run"]["solvers"] = solvers
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run.out"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        assert "solvers must name one or more distinct solvers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["12", {"x": 1}], ids=["string", "mapping"])
    @pytest.mark.parametrize("path", [
        ("task", "source_layers", 0, "dims"),
        ("task", "source_layers", 0, "center"),
        ("task", "layer_intensity"),
        ("task", "custom_source"),
        ("task", "custom_intensity"),
        ("task", "source_layers"),
        ("run", "solvers"),
    ], ids=lambda path: path[-1])
    def test_list_key_exit_code(self, tiny_config_file, tmp_path, capsys, path, value):
        # a string or a mapping was iterated: layer_intensity "12" loaded as
        # (1.0, 2.0), a center "12" as (1 m, 2 m), solvers "wpgs" as w, p, g, s
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["task"]["source_layers"] = [{"dims": [2, 2]}]
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run.out"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{path[-1]}: expected a list, got {value!r}" in err
        assert not out.exists()

    def test_unknown_flag_exit_code(self, tiny_config_file, tmp_path, capsys):
        # run parameters come from the config file only: a flag such as --seed
        # is a usage error that main returns, not raises, and nothing is written
        out = tmp_path / "out"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out), "--seed", "3"]) == 2
        assert main(["plan", "--max-step", "1", "-o", str(tmp_path / "p.json")]) == 2
        assert main(["plan", "--bogus"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "p.json").exists()

    def test_solver_failure_exit_code(self, tiny_config_file, tmp_path, capsys, monkeypatch):
        # a dark trap is the documented exit 4, not a traceback
        def dark(*args, **kwargs):
            raise DarkTrapError([0], 1)

        monkeypatch.setattr(sequence, "wpgs_solve", dark)
        monkeypatch.setattr(sequence, "wgs_solve", dark)
        assert main(["run", "-c", str(tiny_config_file), "-o", str(tmp_path / "run")]) == 4
        assert "solver failure" in capsys.readouterr().err

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
        out = missing / "plan.out"
        assert main(["plan", "-c", str(tiny_config_file), "-o", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not missing.exists()

        # a solver's directory that cannot be made is exit 2 as well
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "wpgs").write_text("x")
        assert main(["run", "-c", str(tiny_config_file), "-o", str(outdir)]) == 2
        assert str(outdir / "wpgs") in capsys.readouterr().err

    def test_solver_budgets_from_config(self, tiny_config_file, tmp_path):
        # each frame's objectives.csv rows are its solve's iterations: the
        # configured budget of its solver, frame 0's WPGS polish included
        doc = yaml.safe_load(tiny_config_file.read_text())
        doc["solver"].update(iterations=3, wgs_iterations=6)
        doc["run"]["solvers"] = ["wpgs", "wgs"]
        tiny_config_file.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run"
        assert main(["run", "-c", str(tiny_config_file), "-o", str(out)]) == 0
        for kind, budget in (("wpgs", 3), ("wgs", 6)):
            with open(out / kind / "objectives.csv") as fh:
                frames = [int(row[0]) for row in list(csv.reader(fh))[1:]]
            assert frames == [l for l in range(3) for _ in range(budget)], kind

    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
