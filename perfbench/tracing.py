"""Spans around holoseq's public functions, recorded from outside the package.

holoseq modules import each other's functions with ``from .x import y``, so a
function is wrapped under every name its callers look it up by (for example
``forward`` in both ``holoseq.solvers`` and ``holoseq.transient``), and all
those bindings record under one span name.  A span holds its name, start and
end (perf_counter_ns), the id of the span that was open when it started, the
pass id, and a few attributes read from the call's arguments or result.
Spans stay in memory until the pass ends.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics; a layer's self time is its span time minus that of its direct
children.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import time


def _forward_attrs(args, kwargs, result):
    # bytes the separable forward reads or writes once each (computed from the
    # array shapes, not measured): phases, phasor written and read back,
    # kernel_x, the (N, grid_y) product written and read, kernel_y
    prop = args[0]
    gx, gy = prop.config.grid_x, prop.config.grid_y
    n = prop.trap_count
    m = gx * gy
    return {"bytes": 8 * m + 32 * m + 16 * n * (gx + 3 * gy)}


def _solve_attrs(args, kwargs, result):
    return {
        "iterations": len(result.objective),
        "adjoint_zero_pixels": int(result.adjoint_zero_pixels),
    }


def _run_sequence_attrs(args, kwargs, result):
    return {"solver": result.solver_kind}


# span name -> (bindings that callers look the function up by, attribute reader)
WRAPPED = {
    "config.load_config": ([("holoseq.config", "load_config")], None),
    "geometry.instantiate_task": ([("holoseq.planner", "instantiate_task")], None),
    "planner.plan_task": ([("holoseq.planner", "plan_task")], None),
    "planner.assign": ([("holoseq.planner", "assign")], None),
    "planner.lsa": ([("holoseq.planner", "linear_sum_assignment")], None),
    "propagation.build_separable": ([("holoseq.sequence", "build_separable")], None),
    "propagation.forward": (
        [("holoseq.solvers", "forward"), ("holoseq.transient", "forward")], _forward_attrs
    ),
    "propagation.forward_field": (
        [("holoseq.propagation", "forward_field"), ("holoseq.transient", "forward_field")],
        None,
    ),
    "propagation.adjoint_phase": ([("holoseq.solvers", "adjoint_phase")], None),
    "solvers.wpgs_solve": ([("holoseq.sequence", "wpgs_solve")], _solve_attrs),
    "solvers.wgs_solve": ([("holoseq.sequence", "wgs_solve")], _solve_attrs),
    "transient.sample_refresh": ([("holoseq.sequence", "sample_refresh")], None),
    "transient.transient_exact": ([("holoseq.transient", "transient_exact")], None),
    "transient.transient_leading": ([("holoseq.transient", "transient_leading")], None),
    "sequence.run_sequence": ([("holoseq.sequence", "run_sequence")], _run_sequence_attrs),
    "metrics.compute_report": ([("holoseq.sequence", "compute_report")], None),
    "metrics.layer_split": ([("holoseq.metrics", "layer_split")], None),
    "metrics.phase_diff": (
        [("holoseq.sequence", "phase_diff"), ("holoseq.serial", "phase_diff")], None
    ),
    "serial.save_run_record": ([("holoseq.serial", "save_run_record")], None),
    "serial.write_mask": ([("holoseq.serial", "write_mask")], None),
    "serial.write_fields_csv": ([("holoseq.serial", "write_fields_csv")], None),
    "serial.write_transients_csv": ([("holoseq.serial", "write_transients_csv")], None),
    "serial.write_timing_csv": ([("holoseq.serial", "write_timing_csv")], None),
    "serial.write_objective_csv": ([("holoseq.serial", "write_objective_csv")], None),
    "serial.write_metrics_json": ([("holoseq.serial", "write_metrics_json")], None),
    "serial.write_plan_json": ([("holoseq.serial", "write_plan_json")], None),
}

# the span the benchmark opens itself around holoseq.cli.main
CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id,
            }
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every binding in WRAPPED with a recording wrapper."""
        for name, (bindings, attrs) in WRAPPED.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))


def _self_times(spans: list[dict]) -> dict[int, int]:
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_ns.get(s["id"], 0) for s in spans}


def _forwards_per_frame(spans: list[dict], solver: str) -> list[int]:
    """Forward calls in each frame >= 1 of every run of `solver`.

    A frame starts at its build_separable call, so a forward belongs to the
    latest build_separable that started before it within the same run.
    """
    counts = []
    for run in spans:
        if run["name"] != "sequence.run_sequence" or run.get("solver") != solver:
            continue
        inside = [s for s in spans if run["start"] <= s["start"] and s["end"] <= run["end"]]
        builds = sorted(s["start"] for s in inside if s["name"] == "propagation.build_separable")
        per_frame = [0] * len(builds)
        for s in inside:
            if s["name"] == "propagation.forward":
                per_frame[bisect.bisect_right(builds, s["start"]) - 1] += 1
        counts.extend(per_frame[1:])
    return counts


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals keyed '<module>.<function>.<stat>' (seconds, counts)."""
    self_ns = _self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())) / 1e9

    def self_s(name):
        return sum(self_ns[s["id"]] for s in by_name.get(name, ())) / 1e9

    def ms_p50(name):
        durations = [(s["end"] - s["start"]) / 1e6 for s in by_name.get(name, ())]
        return statistics.median(durations) if durations else 0.0

    def attr_sum(names, key):
        return sum(s.get(key, 0) for n in names for s in by_name.get(n, ()))

    solves = ("solvers.wpgs_solve", "solvers.wgs_solve")
    models = ("transient.transient_exact", "transient.transient_leading")
    writers = [n for n in WRAPPED if n.startswith("serial.write_")]
    per_frame = _forwards_per_frame(spans, "wpgs")
    return {
        "config.load_config.s": total_s("config.load_config"),
        "geometry.instantiate_task.s": total_s("geometry.instantiate_task"),
        "planner.plan_task.self_s": self_s("planner.plan_task"),
        "planner.assign.calls": calls("planner.assign"),
        "planner.assign.self_s": self_s("planner.assign"),
        "planner.lsa.calls": calls("planner.lsa"),
        "planner.lsa.s": total_s("planner.lsa"),
        "propagation.build_separable.calls": calls("propagation.build_separable"),
        "propagation.build_separable.self_s": self_s("propagation.build_separable"),
        "propagation.forward.calls": calls("propagation.forward"),
        "propagation.forward.self_s": self_s("propagation.forward"),
        "propagation.forward.ms_p50": ms_p50("propagation.forward"),
        "propagation.forward.bytes_computed": attr_sum(["propagation.forward"], "bytes"),
        "propagation.forward.per_wpgs_frame": (
            statistics.median(per_frame) if per_frame else 0
        ),
        "propagation.forward_field.calls": calls("propagation.forward_field"),
        "propagation.forward_field.self_s": self_s("propagation.forward_field"),
        "propagation.adjoint_phase.calls": calls("propagation.adjoint_phase"),
        "propagation.adjoint_phase.self_s": self_s("propagation.adjoint_phase"),
        "propagation.adjoint_phase.ms_p50": ms_p50("propagation.adjoint_phase"),
        "solvers.wpgs_solve.calls": calls("solvers.wpgs_solve"),
        "solvers.wpgs_solve.self_s": self_s("solvers.wpgs_solve"),
        "solvers.wgs_solve.calls": calls("solvers.wgs_solve"),
        "solvers.wgs_solve.self_s": self_s("solvers.wgs_solve"),
        "solvers.wgs_solve.ms_p50": ms_p50("solvers.wgs_solve"),
        "solvers.iterations": attr_sum(solves, "iterations"),
        "solvers.adjoint_zero_pixels": attr_sum(solves, "adjoint_zero_pixels"),
        "solvers.dark_trap_errors": sum(
            s.get("error") == "DarkTrapError" for n in solves for s in by_name.get(n, ())
        ),
        "transient.sample_refresh.calls": calls("transient.sample_refresh"),
        "transient.sample_refresh.self_s": self_s("transient.sample_refresh"),
        "transient.model.self_s": sum(self_s(n) for n in models),
        "transient.transient_exact.calls": calls("transient.transient_exact"),
        "sequence.run_sequence.self_s": self_s("sequence.run_sequence"),
        "metrics.compute_report.s": total_s("metrics.compute_report"),
        "metrics.layer_split.calls": calls("metrics.layer_split"),
        "metrics.phase_diff.calls": calls("metrics.phase_diff"),
        "serial.save_run_record.self_s": self_s("serial.save_run_record"),
        "serial.write_mask.calls": calls("serial.write_mask"),
        "serial.write_mask.s": total_s("serial.write_mask"),
        "serial.write_transients_csv.s": total_s("serial.write_transients_csv"),
        "serial.write_plan_json.s": total_s("serial.write_plan_json"),
        "serial.writers.s": sum(total_s(n) for n in writers),
        "cli.main.self_s": self_s(CLI_SPAN),
    }


def module_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per module (the part of the span name before the dot)."""
    self_ns = _self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        module = s["name"].split(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_ns[s["id"]] / 1e9
    return out


def missing_spans(spans: list[dict], expected) -> list[str]:
    """Expected span names that never fired: a bypassed wrapper, not 0 s."""
    fired = {s["name"] for s in spans}
    return sorted(n for n in expected if n not in fired)
