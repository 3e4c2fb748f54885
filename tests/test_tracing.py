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
    # one forward contraction per sample between the endpoints, inside the
    # exact span: the a = 1 and a = 0 rows are the solve's fields
    exact_ids = {span["id"] for span in exact}
    samples = sum(
        span["parent"] in exact_ids for span in spans if span["name"] == "propagation.forward_field"
    )
    assert samples == (21 - 2) * len(exact)
    assert not any("error" in span for span in spans)


def test_traced_leading_run(tracer, tmp_path):
    # the leading model interpolates a whole interval in one transient_leading
    # call, looked up through holoseq.transient, so its span fires once per
    # interval, inside that interval's sample_refresh span
    _run(tmp_path, {"refresh": {"order": "leading"}, "run": {"solvers": ["wpgs"]}})
    spans = tracer.spans
    refreshes = [span["id"] for span in spans if span["name"] == "transient.sample_refresh"]
    leading = [span for span in spans if span["name"] == "transient.transient_leading"]
    assert len(refreshes) == 10  # the minimal 3x3 plan has 11 frames
    assert sorted(span["parent"] for span in leading) == refreshes
    assert not any(span["name"] == "transient.transient_exact" for span in spans)
    assert not any("error" in span for span in spans)


def test_traced_layered_run(tracer, tmp_path):
    # a two-layer run builds its report with a layer split: each solver run
    # opens one compute_report span with one layer_split span inside it.
    # The benchmark only notes a span that never fires, so this is where a
    # bypassed metrics binding fails.
    source = [(-5e-6, 0, -10e-6), (5e-6, 0, -10e-6), (-5e-6, 0, 10e-6), (5e-6, 0, 10e-6)]
    target = [(x, y + 0.5e-6, z) for x, y, z in source]
    _run(tmp_path, {
        "task": {"kind": "custom", "custom_source": source, "custom_target": target},
        "run": {"solvers": ["wpgs", "wgs"], "max_step": 0.25e-6},
    })
    spans = tracer.spans
    runs = [span["id"] for span in spans if span["name"] == "sequence.run_sequence"]
    reports = [span for span in spans if span["name"] == "metrics.compute_report"]
    splits = [span for span in spans if span["name"] == "metrics.layer_split"]
    assert len(runs) == 2
    assert sorted(span["parent"] for span in reports) == runs
    assert sorted(span["parent"] for span in splits) == [span["id"] for span in reports]
    assert not any("error" in span for span in spans)
