"""End-to-end execution of a transport plan.

Frame 0 is always solved from scratch with the amplitude-only baseline (its
iteration budget doubles as the warm-up for the phase-constrained solver).
Every later frame warm-starts from the previous frame's pixel phasor and
weights; the phase-constrained solver additionally takes the previous frame's
realized trap phases as its target phases, which is what couples consecutive
holograms.  The phasor is the one start the solvers and the exact transient
take, so a run takes one complex exp over the pixel grid (frame 0's random
mask), not two per frame, and passes no mask into a solve or an interval.
After each solve the refresh interval from the previous frame is sampled at
the new frame's trap positions, from the two fields that solve computed (its
starting field and its result).  The exact model also starts from the
previous frame's phasor and reads the previous phases as its angle, so under
it the run keeps that phasor until the interval is sampled, and the
transient overwrites it in place.  Under the leading model nothing reads
that phasor after the solve, so the solve writes its phase steps into it:
the run works in one phasor buffer from frame 0's polish on.

A run streams: each frame's SolveResult (with ``pixel`` None) goes to the
caller's sink as soon as its interval is sampled, and between frames the run
keeps one grid-sized array, the newest phasor, which starts the next solve
(and, under the exact model, the next interval); no mask outlives the sink
call that receives it.  The metrics fold each frame in as it arrives
(metrics.RunMetrics takes the sink's arguments), so no I/I0 array outlives
the calls that receive it.  A RunRecord is the summary: the metrics and the
per-frame wall times (``solve_times``: propagator build plus the solve,
without transient sampling, the sink or the metrics), which ``holoseq run``
writes to timing.csv.  A caller that wants the frames or the intervals
collects them through the sink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import OpticalConfig
from .metrics import MetricsReport, RunMetrics, compute_report, phase_diff
from .planner import TransportPlan
from .propagation import build_separable
from .solvers import SOLVER_KINDS, SolveResult, SolverSettings, wgs_solve, wpgs_solve
from .transient import RefreshModel, sample_refresh

__all__ = [
    "RunRecord",
    "run_sequence",
]


@dataclass(frozen=True, eq=False)
class RunRecord:
    """A finished run: per-frame wall times and metrics."""

    solve_times: np.ndarray
    metrics: MetricsReport
    plan: TransportPlan
    solver_kind: str


def _solve_frame(
    prop,
    plan: TransportPlan,
    solver_kind: str,
    settings: SolverSettings,
    pixel: np.ndarray | None,
    weights: np.ndarray | None,
    field: np.ndarray | None,
    out: np.ndarray | None,
) -> SolveResult:
    """Solve one frame from the previous frame's phasor, weights and field.

    pixel None solves frame 0.  The solve writes its phase steps into out,
    which may be pixel; None allocates a buffer.
    """
    if pixel is None:
        # frame 0 from scratch: amplitude-only warm-up; the phase-constrained
        # solver then polishes it as it does every later frame, with the
        # warm-up's realized phases as targets, in the warm-up's phasor
        warm_up = wgs_solve(prop, plan.target_intensity, settings)
        if solver_kind == "wgs":
            return warm_up
        pixel, weights, field = warm_up.pixel, warm_up.weights, warm_up.field
        out = pixel
    if solver_kind == "wpgs":
        return wpgs_solve(
            prop, plan.target_intensity, np.angle(field), settings,
            init_pixel=pixel, init_weights=weights, out=out,
        )
    return wgs_solve(
        prop, plan.target_intensity, settings, init_pixel=pixel, init_weights=weights, out=out
    )


def run_sequence(
    config: OpticalConfig,
    plan: TransportPlan,
    solver_kind: str,
    settings: SolverSettings,
    refresh: RefreshModel,
    sink=None,
) -> RunRecord:
    """Solve every frame of a plan and sample each refresh interval.

    sink, when given, is called in frame order as sink(l, frame, ratios, dphi)
    with frame l's SolveResult (``pixel`` None) and, for l >= 1, the I/I0
    array and dphi vector of the interval that ends at frame l (None at frame
    0).  The run drops its own reference to frame l, its mask included, once
    the sink returns.  Raises the solver's DarkTrapError annotated with the
    failing frame index.
    """
    if solver_kind not in SOLVER_KINDS:
        raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}")
    times: list[float] = []
    metrics = RunMetrics(plan.target_z, plan.displacement)
    exact = refresh.order == "exact"
    # what the next frame reads of the newest result: its phasor, weights and field
    pixel = weights = field = None
    for l in range(plan.frames + 1):
        layout = plan.layout(l)
        t0 = time.perf_counter()
        prop = build_separable(config, layout)
        try:
            # under the leading model nothing reads the previous phasor after
            # the solve, so the solve writes its phase steps into it
            result = _solve_frame(
                prop, plan, solver_kind, settings, pixel, weights, field,
                None if exact else pixel,
            )
        except Exception as exc:
            exc.args = (f"frame {l}: {exc}",) + exc.args[1:]
            raise
        times.append(time.perf_counter() - t0)
        # no frame passed on holds a phasor
        frame = replace(result, pixel=None)
        interval = d = None
        if l:
            # the exact transient starts from the previous phasor, which the
            # solve left as it was, reads the start phases as its angle and
            # overwrites it; the leading model reads neither
            interval = sample_refresh(
                prop, frame.mask, frame.init_field, frame.field, refresh,
                pixel if exact else None,
            )
            d = phase_diff(np.angle(field), np.angle(frame.field))
        pixel = None  # the exact transient is done with the previous phasor
        metrics(l, frame, interval, d)
        if sink is not None:
            sink(l, frame, interval, d)
        pixel, weights, field = result.pixel, frame.weights, frame.field
        result = frame = interval = None
    pixel = None  # the report below needs no grid-sized array

    return RunRecord(
        solve_times=np.array(times),
        metrics=compute_report(metrics),
        plan=plan,
        solver_kind=solver_kind,
    )
