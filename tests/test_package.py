import argparse
import ast
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import yaml

import holoseq
from holoseq import config, geometry, metrics, transient

MODULES = sorted(m.name for m in pkgutil.iter_modules(holoseq.__path__, "holoseq."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry fails only on `import *`, so check each name here
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_matches_config_and_cli():
    # README's config example loads through the schema, and every `holoseq`
    # line of its CLI section parses, so neither drifts from the code
    from holoseq.cli import _build_parser
    from holoseq.config import config_from_dict

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```yaml\n(.*?)```", text, re.DOTALL)
    config_from_dict(yaml.safe_load(block))
    # every `a | b | c` list in the block's comments is the set the code
    # accepts for its key, so a removed value cannot stay documented
    accepted = {
        "kind": geometry.TASK_KINDS,
        "order": transient.TRANSIENT_ORDERS,
    }
    documented = {}
    key = None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            key = code.split(":")[0].strip()
        # a comment-only line continues the list of the key above it
        for listed in re.findall(r"\w+(?:\s*\|\s*\w+)+", comment):
            documented.setdefault(key, []).extend(v.strip() for v in listed.split("|"))
    assert {k: sorted(v) for k, v in documented.items()} == {
        k: sorted(v) for k, v in accepted.items()
    }
    cli = text[text.index("## CLI"):text.index("### Configuration")]
    commands = [line for line in re.findall(r"```sh\n(.*?)```", cli, re.DOTALL)[0].splitlines()
                if line.startswith("holoseq ")]
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
    # the block shows each subcommand the parser has and no other
    (subcommands,) = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert {shlex.split(line)[1] for line in commands} == set(subcommands)


def test_readme_library_example_runs(capsys):
    # the README's library example runs as written, so it cannot drift from the API
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = text[text.index("## Library example"):text.index("## Notes on scale")]
    (block,) = re.findall(r"```python\n(.*?)```", example, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) >= block.count("print(")


def _tiny_run(sink=None):
    optical = holoseq.OpticalConfig(820e-9, 4e-3, 16, 16, 17e-6)
    plan = holoseq.plan_task(holoseq.minimal_3x3_task(displacement=0.2e-6))
    settings = holoseq.SolverSettings(iterations=2, wgs_iterations=2)
    return holoseq.run_sequence(optical, plan, "wpgs", settings, holoseq.RefreshModel(3), sink)


def _tiny_frame():
    frames = []
    _tiny_run(lambda l, frame, ratios, dphi: frames.append(frame))
    return frames[0]


def _tiny_layout():
    return holoseq.build_lattice((2, 1), 5e-6)


# every frozen record that holds an array, itself or through another record
_ARRAY_RECORDS = {
    "PhaseMask": lambda: holoseq.PhaseMask(np.zeros((2, 2))),
    "SeparablePropagator": lambda: holoseq.build_separable(
        holoseq.OpticalConfig(820e-9, 4e-3, 4, 4, 17e-6), _tiny_layout()),
    "DensePropagator": lambda: holoseq.build_dense(
        holoseq.OpticalConfig(820e-9, 4e-3, 4, 4, 17e-6), _tiny_layout()),
    "SolveResult": _tiny_frame,
    "Histogram": lambda: metrics.Histogram(np.arange(3.0), np.full(2, 50.0)),
    "AggregateStats": lambda: holoseq.aggregate([np.zeros(2)]),
    "TransitionStats": lambda: holoseq.transition_distribution([np.ones(2)]),
    "MetricsReport": lambda: _tiny_run().metrics,
    "TrapLayout": _tiny_layout,
    "TransportPlan": lambda: holoseq.plan_task(holoseq.minimal_3x3_task()),
    "Assignment": lambda: holoseq.assign(_tiny_layout(), _tiny_layout()),
    "RunRecord": _tiny_run,
}


@pytest.mark.parametrize("name", list(_ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # == on an ndarray field is elementwise, so value equality raised; these
    # records compare by identity and hash by id
    a, b = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and a != b
    assert a == a
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("make", [
    holoseq.paper_optical_config,
    lambda: holoseq.LatticeSpec(dims=(2, 2), spacing=5e-6),
    holoseq.minimal_3x3_task,
    holoseq.SolverSettings,
    holoseq.RefreshModel,
    config.RunOptions,
    config.RunConfig,
])
def test_config_records_compare_by_value(make):
    # records without arrays keep value equality: config round trips compare by it
    assert make() == make() and hash(make()) == hash(make())


def test_scipy_imported_only_by_the_planner_loader():
    # importing scipy.optimize costs 0.4-0.7 s of start-up; only the
    # planner's loader may import scipy, as its fallback
    found = []
    for path in sorted(Path(holoseq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "planner.py":
            (loader,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "_load_lsa"]
            allowed = {id(node) for node in ast.walk(loader)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            scipy = any(n == "scipy" or n.startswith("scipy.") for n in names)
            if scipy and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_leaves_scipy_optimize_unloaded(fresh_python):
    out = fresh_python("import sys, holoseq.cli; print('scipy.optimize' in sys.modules)")
    assert out.split() == ["False"]


# snapshots sys.modules after `import holoseq` and at the first plan_task
# call of a `holoseq run`
_RUN_PROBE = """
import json, sys
import holoseq
bare = sorted(sys.modules)
import holoseq.cli, holoseq.planner
before = []
plan_task = holoseq.planner.plan_task
def first_plan(*args, **kwargs):
    if not before:
        before.extend(sys.modules)
    return plan_task(*args, **kwargs)
holoseq.planner.plan_task = first_plan
code = holoseq.cli.main(["run", "-c", sys.argv[1], "-o", sys.argv[2]])
print(json.dumps({"exit": code, "bare": bare, "before": sorted(before),
                  "after": sorted(set(sys.modules) - set(before))}))
"""


def test_run_loads_no_module_after_planning(fresh_python, tmp_path):
    # a module loaded mid-run (numpy.random, numpy.ma, ...) is paid for in
    # the run's time rather than at start-up
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"optical": {"grid_x": 16, "grid_y": 16}}))
    out = json.loads(fresh_python(_RUN_PROBE, config, tmp_path / "out").splitlines()[-1])
    assert out["exit"] == 0 and out["before"] and out["after"] == []
    # the CSV writers' float formatter: a library import does without it, and
    # a run loads it with the writers, before it plans
    assert "orjson" not in out["bare"]
    assert "orjson" in out["before"]
