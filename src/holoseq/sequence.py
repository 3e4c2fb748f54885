"""End-to-end execution of a transport plan.

Frame 0 is always solved from scratch with the amplitude-only baseline (its
iteration budget doubles as the warm-up for the phase-constrained solver).
Every later frame warm-starts from the previous frame's pixel phasor and
weights; the phase-constrained solver additionally takes the previous frame's
realized trap phases as its target phases, which is what couples consecutive
holograms.  Passing the phasor, not the mask, means a run takes one complex
exp over the pixel grid (frame 0's random mask), not two per frame.
After each solve the refresh interval from the previous mask is sampled at
the new frame's trap positions, from the two fields that solve computed (its
starting field and its result).

A run streams: each frame's SolveResult (with ``pixel`` None) goes to the
caller's sink as soon as its interval is sampled, and the run keeps nothing
grid-sized past the next interval: the previous frame's mask, which the exact
transient reads, and the newest phasor, which starts the next solve.  The
metrics fold each frame in as it arrives (metrics.RunMetrics takes the sink's
arguments), so no I/I0 array outlives the calls that receive it.  A RunRecord
is the summary: the metrics and the per-frame wall times (``solve_times``:
propagator build plus the solve, without transient sampling, the sink or the
metrics), which ``holoseq run`` writes to timing.csv.  A caller that wants the
frames or the intervals collects them through the sink.
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
    prev: SolveResult | None,
) -> SolveResult:
    if prev is None:
        # frame 0 from scratch: amplitude-only warm-up; the phase-constrained
        # solver then polishes it as it does every later frame, with the
        # warm-up's realized phases as targets
        prev = wgs_solve(prop, plan.target_intensity, settings)
        if solver_kind == "wgs":
            return prev
    if solver_kind == "wpgs":
        return wpgs_solve(
            prop, plan.target_intensity, np.angle(prev.field), settings,
            init_mask=prev.pixel, init_weights=prev.weights,
        )
    return wgs_solve(
        prop, plan.target_intensity, settings, init_mask=prev.pixel, init_weights=prev.weights
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
    0).  The run drops its own reference to frame l once interval l + 1 is
    sampled.  Raises the solver's DarkTrapError annotated with the failing
    frame index.
    """
    if solver_kind not in SOLVER_KINDS:
        raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}")
    times: list[float] = []
    metrics = RunMetrics(plan.target_z, plan.displacement)
    # the newest result, phasor included: the only phasor alive between solves
    prev: SolveResult | None = None
    # the previous frame without its phasor: the interval's starting mask and phases
    last: SolveResult | None = None
    for l in range(plan.frames + 1):
        layout = plan.layout(l)
        t0 = time.perf_counter()
        prop = build_separable(config, layout)
        try:
            prev = _solve_frame(prop, plan, solver_kind, settings, prev)
        except Exception as exc:
            exc.args = (f"frame {l}: {exc}",) + exc.args[1:]
            raise
        times.append(time.perf_counter() - t0)
        # rebinding prev above dropped the previous phasor; no frame passed on holds one
        frame = replace(prev, pixel=None)
        interval = d = None
        if last is not None:
            interval = sample_refresh(
                prop, last.mask, frame.mask, frame.init_field, frame.field, refresh
            )
            d = phase_diff(np.angle(last.field), np.angle(frame.field))
        metrics(l, frame, interval, d)
        if sink is not None:
            sink(l, frame, interval, d)
        last, interval = frame, None
    prev = last = frame = None  # the report below needs no grid-sized array

    return RunRecord(
        solve_times=np.array(times),
        metrics=compute_report(metrics),
        plan=plan,
        solver_kind=solver_kind,
    )
