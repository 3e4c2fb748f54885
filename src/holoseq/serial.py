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

Text contract.  fields.csv, transients.csv and plan.json are assembled as
strings rather than through csv.writer and json.dumps, and keep the bytes
those would write:

- every CSV row ends in "\r\n", the csv module's default line terminator;
- a trap id is quoted as the csv module's default dialect quotes it (each id
  goes through csv.writer once per call);
- every float is its repr, Python's shortest round-trip spelling, which is
  also how json spells a finite float;
- plan.json has the json.dumps(doc, indent=1) layout, with strings and ints
  through json.dumps; TransportPlan admits finite floats only.
"""

from __future__ import annotations

import csv
import io
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
    "write_transients_csv",
    "write_timing_csv",
    "write_objective_csv",
    "write_metrics_json",
    "write_plan_json",
    "read_plan_json",
    "write_bench_csv",
    "save_run_record",
]

MASK_MAGIC = b"HSPM"
MASK_VERSION = 1
_HEADER = struct.Struct("<4sBBHII")
_MASK_DTYPES = {0: np.dtype("<f8"), 1: np.dtype(np.uint8)}  # by header dtype code


def _quantize(canonical: np.ndarray) -> np.ndarray:
    return (np.round(canonical / TWO_PI * 256.0).astype(np.int64) % 256).astype(np.uint8)


def quantize_mask(mask: PhaseMask) -> np.ndarray:
    """8-bit export: phase mapped onto the full unsigned byte range."""
    return _quantize(mask.canonical())


def write_mask(path, mask: PhaseMask, quantized: bool = False, canonical=None) -> None:
    """Write one mask file; canonical is mask.canonical() when the caller has it."""
    gx, gy = mask.shape
    dtype_code = 1 if quantized else 0
    if canonical is None:
        canonical = mask.canonical()
    payload = _quantize(canonical).tobytes() if quantized else canonical.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MASK_MAGIC, MASK_VERSION, dtype_code, 0, gx, gy))
        fh.write(payload)


def read_mask(path) -> PhaseMask:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, version, dtype_code, reserved, gx, gy = _HEADER.unpack_from(raw)
    if magic != MASK_MAGIC:
        raise ValueError(f"{path}: not a phase-mask file")
    if version != MASK_VERSION:
        raise ValueError(f"{path}: unsupported mask version {version}")
    if reserved:
        raise ValueError(f"{path}: reserved header bytes are {reserved:#06x}, not zero")
    if dtype_code not in _MASK_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {dtype_code}")
    dtype = _MASK_DTYPES[dtype_code]
    payload = len(raw) - _HEADER.size
    if payload != gx * gy * dtype.itemsize:
        raise ValueError(
            f"{path}: payload is {payload} bytes, a {gx}x{gy} mask needs {gx * gy * dtype.itemsize}"
        )
    data = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(gx, gy)
    if dtype_code == 1:
        data = data.astype(float) / 256.0 * TWO_PI
    return PhaseMask(data)


def _csv_cells(values) -> list[str]:
    """Each value as the csv module's default dialect writes it in a row."""
    buf = io.StringIO()
    w = csv.writer(buf)
    cells = []
    for v in values:
        buf.seek(0)
        buf.truncate()
        # a second, empty cell keeps the one-empty-field rule ('""') out of it
        w.writerow((v, ""))
        cells.append(buf.getvalue()[:-3])  # drop ',\r\n'
    return cells


def write_fields_csv(path, frames, ids) -> None:
    """Schema: frame,trap_id,re,im,intensity,phase."""
    cells = _csv_cells(ids)
    with open(path, "w", newline="") as fh:
        fh.write("frame,trap_id,re,im,intensity,phase\r\n")
        for l, frame in enumerate(frames):
            field = frame.field
            columns = (field.amplitudes.real, field.amplitudes.imag, field.intensity, field.phase)
            fh.write("".join([
                f"{l},{c},{re!r},{im!r},{i!r},{ph!r}\r\n"
                for c, re, im, i, ph in zip(cells, *(col.tolist() for col in columns))
            ]))


def write_transients_csv(path, ratios, a_values, ids, dphi_vectors) -> None:
    """Schema: frame,trap_id,a,I_over_I0,dphi.

    `frame` is the index of the refresh interval's starting frame; ratios holds
    one (samples, traps) I/I0 array per interval, its rows at a_values; dphi is
    the per-trap wrapped phase change across that interval.  One write per
    sample row: the file is never held whole in memory.
    """
    cells = _csv_cells(ids)
    a_text = [repr(float(a)) for a in a_values]
    with open(path, "w", newline="") as fh:
        fh.write("frame,trap_id,a,I_over_I0,dphi\r\n")
        for l, interval in enumerate(ratios):
            heads = [f"{l},{c}," for c in cells]
            tails = [f",{d!r}\r\n" for d in dphi_vectors[l].tolist()]
            for a, row in zip(a_text, interval.tolist()):
                fh.write("".join([f"{h}{a},{r!r}{t}" for h, r, t in zip(heads, row, tails)]))


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


def write_plan_json(path, plan: TransportPlan) -> None:
    """Plan document: frames, max_step, traps[{id, source_id, target_intensity, waypoints}].

    The json.dumps(doc, indent=1) layout, written one trap at a time.
    """
    with open(path, "w") as fh:
        fh.write(
            f'{{\n "frames": {json.dumps(plan.frames)},\n'
            f' "max_step": {plan.max_step!r},\n "traps": ['
        )
        for i, (tid, sid, iv) in enumerate(
            zip(plan.trap_ids, plan.source_ids, plan.target_intensity.tolist())
        ):
            points = ",\n".join([
                f"    [\n     {x!r},\n     {y!r},\n     {z!r}\n    ]"
                for x, y, z in plan.waypoints[i].tolist()
            ])
            fh.write(
                f'{"," if i else ""}\n  {{\n   "id": {json.dumps(tid)},\n'
                f'   "source_id": {json.dumps(sid)},\n   "target_intensity": {iv!r},\n'
                f'   "waypoints": [\n{points}\n   ]\n  }}'
            )
        fh.write("\n ]\n}" if plan.trap_ids else "]\n}")


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
    frames = record.frames
    for l, frame in enumerate(frames):
        # both files of a frame come from one canonical fold of its phases
        canonical = frame.mask.canonical()
        write_mask(masks / f"frame_{l:04d}.mask", frame.mask, canonical=canonical)
        write_mask(masks / f"frame_{l:04d}.u8", frame.mask, quantized=True, canonical=canonical)
    ids = record.plan.trap_ids
    write_fields_csv(out / "fields.csv", frames, ids)
    write_transients_csv(
        out / "transients.csv", record.ratios, record.refresh.a_grid(), ids, record.dphi
    )
    write_timing_csv(out / "timing.csv", record.solve_times)
    write_objective_csv(out / "objectives.csv", frames)
    write_metrics_json(out / "metrics.json", record.metrics)
    write_plan_json(out / "plan.json", record.plan)
    if config_text is not None:
        (out / "settings.yaml").write_text(config_text)
    return out
