"""The benchmark's span tracer (perfbench/tracing.py) still fits the package.

The tracer wraps holoseq functions under the module attributes their callers
look them up by.  A renamed function or a dropped import breaks the traced
benchmark pass without failing any other test, so this module checks that
every binding resolves and that a small traced `holoseq run` succeeds with
every expected span firing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
import yaml

from holoseq.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    return [binding for bindings, _ in tracing.WRAPPED.values() for binding in bindings]


def test_every_binding_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr in _bindings(tracing)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


@pytest.fixture()
def tracer(tracing, monkeypatch):
    # re-set every binding to itself so that monkeypatch restores the
    # originals after the tracer has replaced them
    for module, attr in _bindings(tracing):
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = tracing.Tracer(0)
    tracer.install()
    return tracer


def _run(tmp_path, doc):
    # no task section: the default task is the minimal 3x3 transport
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"optical": {"grid_x": 64, "grid_y": 64}, **doc}))
    assert main(["run", "-c", str(config), "-o", str(tmp_path / "out")]) == 0


def test_traced_run(tracing, tracer, tmp_path):
    _run(tmp_path, {"run": {"solvers": ["wpgs", "wgs"]}})

    # a 3x3 single-layer run with the leading-order model: every span fires
    # except the exact model's and the layer split's
    expected = set(tracing.WRAPPED) - {"transient.transient_exact", "metrics.layer_split"}
    assert tracing.missing_spans(tracer.spans, expected) == []
    assert not any("error" in span for span in tracer.spans)
    # the tie-break works from the one solve: a planner.lsa span per assign
    assigns = [span["id"] for span in tracer.spans if span["name"] == "planner.assign"]
    solves = [span["parent"] for span in tracer.spans if span["name"] == "planner.lsa"]
    assert assigns and sorted(solves) == assigns


def test_traced_exact_run(tracer, tmp_path):
    # the exact model samples a whole interval in one transient_exact call,
    # looked up through holoseq.transient, so its span fires once per interval
    _run(tmp_path, {"refresh": {"order": "exact"}, "run": {"solvers": ["wpgs"]}})
    spans = tracer.spans
    refreshes = [span["id"] for span in spans if span["name"] == "transient.sample_refresh"]
    exact = [span for span in spans if span["name"] == "transient.transient_exact"]
    assert len(refreshes) == 10  # the minimal 3x3 plan has 11 frames
    assert sorted(span["parent"] for span in exact) == refreshes
    # one forward contraction per sample, inside the exact span
    exact_ids = {span["id"] for span in exact}
    samples = sum(
        span["parent"] in exact_ids for span in spans if span["name"] == "propagation.forward_field"
    )
    assert samples == 21 * len(exact)
    assert not any("error" in span for span in spans)
