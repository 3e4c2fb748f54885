"""File formats for masks, fields, plans, transients, metrics, and timing.

Phase-mask binary layout (little-endian throughout):

    offset  size  field
    0       4     magic b"HSPM"
    4       1     format version (1)
    5       1     dtype code: 0 = float64 radians, 1 = uint8 quantized
    6       2     reserved (zero)
    8       4     grid_x (uint32)
    12      4     grid_y (uint32)
    16      ...   row-major pixel data

Float masks are written in canonical [0, 2*pi) form.  Quantized masks store
round(phi / (2*pi) * 256) mod 256 per pixel.  CSV/JSON schemas are documented
on the individual writers.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

# phase_diff stays bound here for perfbench/tracing.py, which rebinds it on this module
from .metrics import MetricsReport, phase_diff  # noqa: F401
from .planner import TransportPlan
from .propagation import PhaseMask, TWO_PI

__all__ = [
    "write_mask",
    "read_mask",
    "quantize_mask",
    "write_fields_csv",
    "write_field_json",
    "write_transients_csv",
    "write_timing_csv",
    "write_objective_csv",
    "write_metrics_json",
    "write_histogram_csv",
    "write_plan_json",
    "read_plan_json",
    "write_bench_csv",
    "save_run_record",
]

MASK_MAGIC = b"HSPM"
MASK_VERSION = 1
_HEADER = struct.Struct("<4sBBHII")


def quantize_mask(mask: PhaseMask) -> np.ndarray:
    """8-bit export: phase mapped onto the full unsigned byte range."""
    return (np.round(mask.canonical() / TWO_PI * 256.0).astype(np.int64) % 256).astype(np.uint8)


def write_mask(path, mask: PhaseMask, quantized: bool = False) -> None:
    gx, gy = mask.shape
    dtype_code = 1 if quantized else 0
    payload = quantize_mask(mask).tobytes() if quantized else (
        mask.canonical().astype("<f8").tobytes()
    )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MASK_MAGIC, MASK_VERSION, dtype_code, 0, gx, gy))
        fh.write(payload)


def read_mask(path) -> PhaseMask:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        magic, version, dtype_code, _, gx, gy = _HEADER.unpack(header)
        if magic != MASK_MAGIC:
            raise ValueError(f"{path}: not a phase-mask file")
        if version != MASK_VERSION:
            raise ValueError(f"{path}: unsupported mask version {version}")
        raw = fh.read()
    if dtype_code == 0:
        data = np.frombuffer(raw, dtype="<f8", count=gx * gy).reshape(gx, gy)
    elif dtype_code == 1:
        data = np.frombuffer(raw, dtype=np.uint8, count=gx * gy).reshape(gx, gy)
        data = data.astype(float) / 256.0 * TWO_PI
    else:
        raise ValueError(f"{path}: unknown dtype code {dtype_code}")
    return PhaseMask(np.array(data))


def write_fields_csv(path, frames, ids) -> None:
    """Schema: frame,trap_id,re,im,intensity,phase."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "trap_id", "re", "im", "intensity", "phase"])
        for l, frame in enumerate(frames):
            amps = frame.field.amplitudes
            inten = frame.field.intensity
            phase = frame.field.phase
            for tid, amp, i_n, p_n in zip(ids, amps, inten, phase):
                w.writerow([l, tid, repr(amp.real), repr(amp.imag), repr(i_n), repr(p_n)])


def write_field_json(path, field, ids) -> None:
    """TrapField as a JSON list of {id, re, im, intensity, phase} records."""
    rows = [
        {
            "id": tid,
            "re": float(a.real),
            "im": float(a.imag),
            "intensity": float(i),
            "phase": float(p),
        }
        for tid, a, i, p in zip(ids, field.amplitudes, field.intensity, field.phase)
    ]
    Path(path).write_text(json.dumps(rows, indent=1))


def write_transients_csv(path, sample_intervals, ids, dphi_vectors) -> None:
    """Schema: frame,trap_id,a,I_over_I0,dphi.

    `frame` is the index of the refresh interval's starting frame; dphi is the
    per-trap wrapped phase change across that interval.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "trap_id", "a", "I_over_I0", "dphi"])
        for l, interval in enumerate(sample_intervals):
            dphi = dphi_vectors[l]
            for sample in interval:
                for tid, ratio, d in zip(ids, sample.ratio, dphi):
                    w.writerow([l, tid, repr(sample.a), repr(float(ratio)), repr(float(d))])


def write_timing_csv(path, solve_times) -> None:
    """Schema: frame,solve_ms."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "solve_ms"])
        for l, t in enumerate(solve_times):
            w.writerow([l, repr(float(t) * 1e3)])


def write_objective_csv(path, frames) -> None:
    """Per-iteration matching-objective trace.  Schema: frame,iteration,objective."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "iteration", "objective"])
        for l, frame in enumerate(frames):
            for k, j in enumerate(frame.objective, start=1):
                w.writerow([l, k, repr(float(j))])


def write_metrics_json(path, report: MetricsReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=1))


def write_histogram_csv(path, histogram) -> None:
    """Schema: bin_left,bin_right,percent."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "percent"])
        for left, right, pct in histogram.to_rows():
            w.writerow([repr(left), repr(right), repr(pct)])


def write_plan_json(path, plan: TransportPlan) -> None:
    """Plan document: frames, max_step, traps[{id, source_id, target_intensity, waypoints}]."""
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


def read_plan_json(path) -> TransportPlan:
    doc = json.loads(Path(path).read_text())
    traps = doc["traps"]
    return TransportPlan(
        frames=int(doc["frames"]),
        waypoints=np.array([t["waypoints"] for t in traps], dtype=float),
        trap_ids=tuple(t["id"] for t in traps),
        source_ids=tuple(t["source_id"] for t in traps),
        max_step=float(doc["max_step"]),
        target_intensity=np.array([t["target_intensity"] for t in traps], dtype=float),
    )


def write_bench_csv(path, rows) -> None:
    """Schema: task,solver,iterations,phase_std,mean_ms,median_ms,std_ms,frames."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["task", "solver", "iterations", "phase_std", "mean_ms", "median_ms", "std_ms", "frames"]
        )
        for r in rows:
            w.writerow(
                [r.task, r.solver, r.iterations, repr(r.phase_std), repr(r.mean_ms),
                 repr(r.median_ms), repr(r.std_ms), r.frames]
            )


def save_run_record(outdir, record, config_text: str | None = None) -> Path:
    """Persist a run to a directory.

    Layout: settings.yaml (when provided), masks/frame_NNNN.mask (+ .u8),
    fields.csv, transients.csv, objectives.csv, metrics.json, timing.csv,
    plan.json.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    masks = out / "masks"
    masks.mkdir(exist_ok=True)
    frames = record.sequence.frames
    for l, frame in enumerate(frames):
        write_mask(masks / f"frame_{l:04d}.mask", frame.mask)
        write_mask(masks / f"frame_{l:04d}.u8", frame.mask, quantized=True)
    ids = record.plan.trap_ids
    write_fields_csv(out / "fields.csv", frames, ids)
    write_transients_csv(out / "transients.csv", record.samples, ids, record.dphi)
    write_timing_csv(out / "timing.csv", record.sequence.solve_times)
    write_objective_csv(out / "objectives.csv", frames)
    write_metrics_json(out / "metrics.json", record.metrics)
    write_plan_json(out / "plan.json", record.plan)
    if config_text is not None:
        (out / "settings.yaml").write_text(config_text)
    return out
