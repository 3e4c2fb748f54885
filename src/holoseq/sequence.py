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
starting field and its result).  A RunRecord holds each frame's SolveResult
(``record.frames``, with ``pixel`` None: only the newest frame's phasor is
alive during a run), one (samples, traps) I/I0 array per interval
(``record.ratios``) and the per-frame wall times (``record.solve_times``),
which cover propagator build plus the solve only (transient sampling and
metric assembly are excluded).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import OpticalConfig
from .metrics import MetricsReport, compute_report, phase_diff
from .planner import TransportPlan
from .propagation import build_separable
from .solvers import SOLVER_KINDS, SolveResult, SolverSettings, TargetSpec, wgs_solve, wpgs_solve
from .transient import RefreshModel, sample_refresh

__all__ = [
    "RunRecord",
    "BenchRow",
    "run_sequence",
    "bench",
]


@dataclass(frozen=True)
class RunRecord:
    """A finished run: each frame's solve and wall time, per-interval I/I0 and dphi, metrics."""

    frames: tuple[SolveResult, ...]
    solve_times: np.ndarray
    ratios: tuple[np.ndarray, ...]
    dphi: tuple[np.ndarray, ...]
    metrics: MetricsReport
    plan: TransportPlan
    refresh: RefreshModel
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
        # solver then polishes with the warm-up's realized phases as targets
        warm = wgs_solve(prop, plan.target_intensity, settings)
        if solver_kind != "wpgs":
            return warm
        target = TargetSpec(plan.target_intensity, warm.field.phase)
        return wpgs_solve(prop, target, settings, init_mask=warm.pixel, init_weights=warm.weights)
    if solver_kind == "wpgs":
        target = TargetSpec(plan.target_intensity, prev.field.phase)
        return wpgs_solve(
            prop, target, settings, init_mask=prev.pixel, init_weights=prev.weights
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
) -> RunRecord:
    """Solve every frame of a plan and sample each refresh interval.

    Raises the solver's DarkTrapError annotated with the failing frame index.
    """
    if solver_kind not in SOLVER_KINDS:
        raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}")
    frames: list[SolveResult] = []
    times: list[float] = []
    ratios: list[np.ndarray] = []
    # the newest result, phasor included: the only phasor alive between solves
    prev: SolveResult | None = None
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
        # rebinding prev above dropped the previous phasor; the record keeps none
        result = replace(prev, pixel=None)
        frames.append(result)
        if l > 0:
            ratios.append(sample_refresh(
                prop, frames[l - 1].mask, result.mask, result.init_field, result.field, refresh
            ))
    prev = None  # the metrics below need no phasor

    dphi = tuple(
        phase_diff(frames[l].field.phase, frames[l + 1].field.phase)
        for l in range(len(frames) - 1)
    )
    return RunRecord(
        frames=tuple(frames),
        solve_times=np.array(times),
        ratios=tuple(ratios),
        dphi=dphi,
        metrics=_run_metrics(plan, frames, ratios, dphi),
        plan=plan,
        refresh=refresh,
        solver_kind=solver_kind,
    )


def _run_metrics(plan, frames, ratios, dphi) -> MetricsReport:
    if not dphi:
        dphi = [np.zeros(plan.trap_count)]
    mean_d, max_d = plan.displacement_stats()
    return compute_report(
        frame_intensities=[f.field.intensity for f in frames],
        dphi_vectors=dphi,
        ratio_samples=ratios,
        displacement_mean=mean_d,
        displacement_max=max_d,
        trap_z=plan.target_z,
    )


@dataclass(frozen=True)
class BenchRow:
    task: str
    solver: str
    iterations: int
    phase_std: float
    mean_ms: float
    median_ms: float
    std_ms: float
    frames: int


def bench(
    config: OpticalConfig,
    plan: TransportPlan,
    entries,
    refresh: RefreshModel | None = None,
    warmup_frames: int = 3,
    task_label: str = "",
) -> list[BenchRow]:
    """Timing comparison across solver configurations on one plan.

    entries is an iterable of (solver_kind, SolverSettings).  The first
    warmup_frames frame times of each run are excluded from the statistics;
    a warmup_frames that leaves no frame to time is a ValueError, raised
    before any solve.
    """
    if not (0 <= warmup_frames <= plan.frames):
        raise ValueError(
            f"warmup_frames must lie in [0, {plan.frames}] for a plan of "
            f"{plan.frames + 1} frames, not {warmup_frames}"
        )
    refresh = refresh or RefreshModel()
    rows: list[BenchRow] = []
    for solver_kind, settings in entries:
        record = run_sequence(config, plan, solver_kind, settings, refresh)
        times = record.solve_times[warmup_frames:] * 1e3
        iters = settings.iterations if solver_kind == "wpgs" else settings.wgs_iterations
        rows.append(
            BenchRow(
                task=task_label,
                solver=solver_kind,
                iterations=iters,
                phase_std=record.metrics.dphi.std,
                mean_ms=float(times.mean()),
                median_ms=float(statistics.median(times.tolist())),
                std_ms=float(times.std()),
                frames=int(times.size),
            )
        )
    return rows
