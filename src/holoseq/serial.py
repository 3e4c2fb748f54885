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

A run directory is written as the run goes.  RunWriter is run_sequence's
sink: it opens the directory before the first solve, writes each frame's two
mask files and appends its fields.csv, objectives.csv and transients.csv rows
as the frame arrives, through the per-frame section writers below, and keeps
none of it.  save_run_record then adds timing.csv, plan.json, settings.yaml
and, last, metrics.json, so a directory without metrics.json holds an
unfinished run.

Text contract.  fields.csv, transients.csv and plan.json are assembled as
strings rather than through csv.writer and json.dumps, and keep the bytes
those would write:

- every CSV row ends in "\r\n", the csv module's default line terminator;
- a trap id is quoted as the csv module's default dialect quotes it (each id
  goes through csv.writer once per call);
- every float is its repr, Python's shortest round-trip spelling, which is
  also how json spells a finite float.  The floats of fields.csv and
  transients.csv are spelled one array at a time (_float_reprs): orjson
  writes the array, and the values it spells otherwise than repr (non-finite
  ones, |x| >= 1e16 and 0 < |x| < 1e-4) are put back through repr, so the
  bytes are still repr's;
- plan.json has the json.dumps(doc, indent=1) layout, with strings and ints
  through json.dumps; TransportPlan admits finite floats only.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import struct
from pathlib import Path

import numpy as np
import orjson

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
    "RunWriter",
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
    # the array's own buffer is written: no copy of the payload is made
    payload = _quantize(canonical) if quantized else np.ascontiguousarray(canonical, dtype="<f8")
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


@functools.lru_cache(maxsize=8)
def _csv_cells(values: tuple) -> tuple[str, ...]:
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
    return tuple(cells)


def _float_reprs(values) -> list[str]:
    """repr(float(v)) of every value v of an array, taken as float64, in C order.

    One orjson call spells the whole array; it agrees with repr on finite
    values with 1e-4 <= |x| < 1e16 and on +-0.0.  The rest (orjson writes
    null for nan and inf, 1e16 for 1e+16 and 1e-5 for 1e-05) are spelled
    through repr one at a time.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        return []
    tokens = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(x)
    # nan compares False throughout, so only ~isfinite catches it
    other = ~np.isfinite(x) | (mag >= 1e16) | ((mag < 1e-4) & (x != 0))
    for i in np.flatnonzero(other).tolist():
        tokens[i] = repr(float(x[i]))
    return tokens


FIELDS_HEADER = "frame,trap_id,re,im,intensity,phase\r\n"
OBJECTIVES_HEADER = "frame,iteration,objective\r\n"
TRANSIENTS_HEADER = "frame,trap_id,a,I_over_I0,dphi\r\n"


def write_fields_csv(fh, l, field, ids) -> None:
    """Frame l's rows of fields.csv to an open text file.

    Schema (FIELDS_HEADER): frame,trap_id,re,im,intensity,phase; field is the
    frame's (N,) complex trap field and ids the plan's trap ids, in its order.
    """
    cells = _csv_cells(tuple(ids))
    n = len(cells)
    # one call on the (4, n) stack of the re, im, intensity and phase columns
    text = _float_reprs(np.stack((field.real, field.imag, np.abs(field) ** 2, np.angle(field))))
    fh.write("".join([
        f"{l},{c},{re},{im},{i},{ph}\r\n"
        for c, re, im, i, ph in zip(cells, *(text[k * n:(k + 1) * n] for k in range(4)))
    ]))


def write_transients_csv(fh, l, ratios, a_values, ids, dphi) -> None:
    """Refresh interval l's rows of transients.csv to an open text file.

    Schema (TRANSIENTS_HEADER): frame,trap_id,a,I_over_I0,dphi.  `frame` is
    the index of the interval's starting frame; ratios is its (samples, traps)
    I/I0 array, its rows at a_values; dphi is the per-trap wrapped phase change
    across the interval.  One write per sample row.
    """
    heads = [f"{l},{c}," for c in _csv_cells(tuple(ids))]
    tails = [f",{d}\r\n" for d in _float_reprs(dphi)]
    n = len(heads)
    text = _float_reprs(ratios)
    for k, a in enumerate(_float_reprs(a_values)):
        row = text[k * n:(k + 1) * n]
        fh.write("".join([f"{h}{a},{r}{t}" for h, r, t in zip(heads, row, tails)]))


def write_objective_csv(fh, l, objective) -> None:
    """Frame l's per-iteration matching objective to an open text file.

    Schema (OBJECTIVES_HEADER): frame,iteration,objective.
    """
    csv.writer(fh).writerows([l, k, repr(float(j))] for k, j in enumerate(objective, start=1))


def write_timing_csv(path, solve_times) -> None:
    """Schema: frame,solve_ms."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "solve_ms"])
        for l, t in enumerate(solve_times):
            w.writerow([l, repr(float(t) * 1e3)])


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


# written when a run ends; an earlier run's are removed when a writer opens
_END_FILES = ("timing.csv", "plan.json", "settings.yaml", "metrics.json")


class RunWriter:
    """run_sequence's sink: writes each frame's artifacts under outdir as it arrives.

    Opening makes outdir and outdir/masks, removes what an earlier run left
    there (every masks/frame_*.mask and masks/frame_*.u8, and the end-of-run
    files) and opens fields.csv, objectives.csv and transients.csv with their
    header rows.  Calling it with (l, frame, ratios, dphi) writes
    masks/frame_NNNN.mask and .u8 from one canonical fold of frame l's phases,
    frame l's fields.csv and objectives.csv rows and, for l >= 1, the
    transients.csv rows of the interval that ends at frame l.  Use it as a
    context manager, or call close().
    """

    def __init__(self, outdir, plan: TransportPlan, refresh):
        self.outdir = Path(outdir)
        self.masks = self.outdir / "masks"
        self.masks.mkdir(parents=True, exist_ok=True)
        for name in _END_FILES:
            (self.outdir / name).unlink(missing_ok=True)
        for pattern in ("frame_*.mask", "frame_*.u8"):
            for path in self.masks.glob(pattern):
                path.unlink()
        self.ids = plan.trap_ids
        self.a_values = refresh.a_grid()
        self._files = []
        self._fields = self._open("fields.csv", FIELDS_HEADER)
        self._objectives = self._open("objectives.csv", OBJECTIVES_HEADER)
        self._transients = self._open("transients.csv", TRANSIENTS_HEADER)

    def _open(self, name, header):
        fh = open(self.outdir / name, "w", newline="")
        self._files.append(fh)
        fh.write(header)
        return fh

    def __call__(self, l, frame, ratios, dphi) -> None:
        # both files of a frame come from one canonical fold of its phases
        canonical = frame.mask.canonical()
        stem = self.masks / f"frame_{l:04d}"
        write_mask(stem.with_suffix(".mask"), frame.mask, canonical=canonical)
        write_mask(stem.with_suffix(".u8"), frame.mask, quantized=True, canonical=canonical)
        write_fields_csv(self._fields, l, frame.field, self.ids)
        write_objective_csv(self._objectives, l, frame.objective)
        if ratios is not None:
            write_transients_csv(self._transients, l - 1, ratios, self.a_values, self.ids, dphi)

    def close(self) -> None:
        while self._files:
            self._files.pop().close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_run_record(outdir, record, config_text: str | None = None) -> Path:
    """Finish a run directory that a RunWriter streamed the frames into.

    Writes timing.csv, plan.json, settings.yaml (when config_text is given)
    and, last, metrics.json.  Layout of the whole directory: settings.yaml,
    masks/frame_NNNN.mask (+ .u8), fields.csv, transients.csv, objectives.csv,
    metrics.json, timing.csv, plan.json.
    """
    out = Path(outdir)
    write_timing_csv(out / "timing.csv", record.solve_times)
    write_plan_json(out / "plan.json", record.plan)
    if config_text is not None:
        (out / "settings.yaml").write_text(config_text)
    write_metrics_json(out / "metrics.json", record.metrics)
    return out
