"""The benchmark's correctness checks (perfbench/checks.py) still fit the package.

checks.py reinstantiates tasks through the package's API to judge every
benchmark pass; a change to that API would fail each pass without failing
any other test, so this module runs its plan check on a real `holoseq plan`
output.
"""

import importlib.util
from pathlib import Path

import yaml

from holoseq.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_optimal_on_layered_plan(tmp_path):
    layers = [("-30 um", 0.94), (0.0, 0.89), ("30 um", 0.84)]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "task": {
            "kind": "reconfig_3d_layers",
            "seed": 3,
            "source_layers": [
                {"dims": [4, 4], "spacing": "5 um", "z": z, "filling": filling}
                for z, filling in layers
            ],
            "target_layers": [{"dims": [3, 3], "spacing": "5 um", "z": z} for z, _ in layers],
        },
    }))
    plan = tmp_path / "plan.json"
    assert main(["plan", "-c", str(config), "-o", str(plan), "--max-step", "1"]) == 0
    assert _checks().check_plan_optimal(plan, config) == []
