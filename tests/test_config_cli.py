import csv
import json

import numpy as np
import pytest
import yaml

from holoseq.cli import main
from holoseq.config import (
    ConfigError,
    RunConfig,
    RunOptions,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_length,
    save_config,
)
from holoseq.geometry import offset_bilayer_task, reconfig_2d_task
from holoseq.solvers import SolverSettings
from holoseq.transient import RefreshModel


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


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            task=offset_bilayer_task(dims=(4, 4), seed=9),
            solver=SolverSettings(iterations=7, seed=3),
            refresh=RefreshModel(samples_per_refresh=11, order="second"),
            run=RunOptions(solvers=("wpgs",), max_step=0.2e-6, tie_break="solver"),
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

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"solver": {"bogus_key": 1}})
        with pytest.raises(ConfigError):
            config_from_dict({"run": {"solvers": ["gs"]}})
        path = tmp_path / "bad.yaml"
        path.write_text("task: {kind: nope}")
        with pytest.raises(ConfigError):
            load_config(path)


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

    def test_bench_command(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "-c", str(tiny_config_file), "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "task"
        assert len(rows) == 2  # single solver -> one data row

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

    def test_solver_flag_overrides(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "bench2.csv"
        code = main(
            ["bench", "-c", str(tiny_config_file), "-o", str(out),
             "--iterations", "3", "--wgs-iterations", "6"]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "3"  # wpgs row reports the overridden budget

    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
