"""The benchmark's correctness checks (perfbench/checks.py) still fit the package.

checks.py reinstantiates tasks through the package's API to judge every
benchmark pass; a change to that API would fail each pass without failing
any other test, so this module runs its plan check on a real `holoseq plan`
output.  It also runs every benchmark workload (perfbench/workloads.py) at
seed 0 and holds each solver's quality to the pinned perfbench/reference.json
within the benchmark's own 1e-9 gate.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml

from holoseq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py builds a dataclass, which looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _checks():
    return _load("checks")


WORKLOADS = _load("workloads").WORKLOADS


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
        "run": {"max_step": "1 um"},
    }))
    plan = tmp_path / "plan.json"
    assert main(["plan", "-c", str(config), "-o", str(plan)]) == 0
    assert _checks().check_plan_optimal(plan, config) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quality_matches_reference(name, tmp_path):
    checks = _checks()
    workload = WORKLOADS[name]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(workload.config_for(0), sort_keys=False))
    out = tmp_path / "out"
    assert main(["run", "-c", str(config), "-o", str(out)]) == 0
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]["0"]
    for solver in workload.solvers:
        measured = checks.quality(out / solver)
        assert checks.check_quality(measured, reference.get(solver), solver) == []
