"""End-to-end execution of a transport plan.

Frame 0 is always solved from scratch with the amplitude-only baseline (its
iteration budget doubles as the warm-up for the phase-constrained solver).
Every later frame warm-starts from the previous frame's mask and weights; the
phase-constrained solver additionally takes the previous frame's realized trap
phases as its target phases, which is what couples consecutive holograms.
After each solve the refresh interval to the previous mask is sampled at the
new frame's trap positions.  Per-frame wall time covers propagator build plus
the solve only (transient sampling and metric assembly are excluded).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import OpticalConfig, TrapLayout
from .metrics import MetricsReport, compute_report, phase_diff
from .planner import TransportPlan
from .propagation import PhaseMask, TrapField, build_separable
from .solvers import SolveResult, SolverSettings, wgs_solve, wpgs_solve
from .transient import RefreshModel, TransientSample, sample_refresh

__all__ = [
    "SOLVER_KINDS",
    "FrameRecord",
    "FrameSequence",
    "RunRecord",
    "BenchRow",
    "run_sequence",
    "bench",
]

SOLVER_KINDS = ("wgs", "wpgs")


@dataclass(frozen=True)
class FrameRecord:
    """One transport step: trap layout, hologram, realized field, weights, time."""

    layout: TrapLayout
    mask: PhaseMask
    field: TrapField
    weights: np.ndarray
    solve_time: float
    objective: tuple[float, ...] = ()


@dataclass(frozen=True)
class FrameSequence:
    frames: tuple[FrameRecord, ...]
    solver_kind: str

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def masks(self) -> list[PhaseMask]:
        return [f.mask for f in self.frames]

    @property
    def solve_times(self) -> np.ndarray:
        return np.array([f.solve_time for f in self.frames])


@dataclass(frozen=True)
class RunRecord:
    """A finished run: frames, per-interval refresh samples and dphi, metrics, settings."""

    sequence: FrameSequence
    samples: tuple[tuple[TransientSample, ...], ...]
    dphi: tuple[np.ndarray, ...]
    metrics: MetricsReport
    plan: TransportPlan
    settings: SolverSettings
    refresh: RefreshModel
    solver_kind: str

    @property
    def seed(self) -> int:
        return self.settings.seed


def _solve_frame(
    prop,
    plan: TransportPlan,
    solver_kind: str,
    settings: SolverSettings,
    prev: SolveResult | None,
    relax_enabled: bool,
) -> SolveResult:
    from .solvers import TargetSpec

    if prev is None:
        # frame 0 from scratch: amplitude-only warm-up; the phase-constrained
        # solver then polishes with the warm-up's realized phases as targets
        warm = wgs_solve(prop, plan.target_intensity, settings)
        if solver_kind != "wpgs":
            return warm
        target = TargetSpec(plan.target_intensity, warm.field.phase)
        return wpgs_solve(prop, target, settings, init_mask=warm.mask, init_weights=warm.weights)
    eff = settings if relax_enabled else replace(settings, over_relaxation_last_iters=0)
    if solver_kind == "wpgs":
        target = TargetSpec(plan.target_intensity, prev.field.phase)
        return wpgs_solve(
            prop, target, eff, init_mask=prev.mask, init_weights=prev.weights
        )
    return wgs_solve(
        prop, plan.target_intensity, eff, init_mask=prev.mask, init_weights=prev.weights
    )


def run_sequence(
    config: OpticalConfig,
    plan: TransportPlan,
    solver_kind: str,
    settings: SolverSettings,
    refresh: RefreshModel,
    over_relax_tail_fraction: float = 1.0,
) -> RunRecord:
    """Solve every frame of a plan and sample each refresh interval.

    over_relax_tail_fraction gates the late-stage weight relaxation to the
    final fraction of transport frames (1.0 = every frame).  Raises the
    solver's DarkTrapError annotated with the failing frame index.
    """
    if solver_kind not in SOLVER_KINDS:
        raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}")
    frames: list[FrameRecord] = []
    samples: list[tuple[TransientSample, ...]] = []
    prev: SolveResult | None = None
    total = plan.frames
    for l in range(total + 1):
        layout = plan.layout(l)
        relax_on = total == 0 or (total - l) <= over_relax_tail_fraction * total
        t0 = time.perf_counter()
        prop = build_separable(config, layout)
        try:
            result = _solve_frame(prop, plan, solver_kind, settings, prev, relax_on)
        except Exception as exc:
            exc.args = (f"frame {l}: {exc}",) + exc.args[1:]
            raise
        dt = time.perf_counter() - t0
        frames.append(
            FrameRecord(
                layout=layout,
                mask=result.mask,
                field=result.field,
                weights=result.weights,
                solve_time=dt,
                objective=result.objective,
            )
        )
        if l > 0:
            samples.append(tuple(sample_refresh(prop, frames[l - 1].mask, result.mask, refresh)))
        prev = result

    dphi = tuple(
        phase_diff(frames[l].field.phase, frames[l + 1].field.phase)
        for l in range(len(frames) - 1)
    )
    return RunRecord(
        sequence=FrameSequence(frames=tuple(frames), solver_kind=solver_kind),
        samples=tuple(samples),
        dphi=dphi,
        metrics=_run_metrics(plan, frames, samples, dphi),
        plan=plan,
        settings=settings,
        refresh=refresh,
        solver_kind=solver_kind,
    )


def _run_metrics(plan, frames, samples, dphi) -> MetricsReport:
    if not dphi:
        dphi = [np.zeros(plan.trap_count)]
    ratios = [s.ratio for interval in samples for s in interval]
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
    warmup_frames frame times of each run are excluded from the statistics.
    """
    refresh = refresh or RefreshModel()
    rows: list[BenchRow] = []
    for solver_kind, settings in entries:
        record = run_sequence(config, plan, solver_kind, settings, refresh)
        times = record.sequence.solve_times[warmup_frames:] * 1e3
        if times.size == 0:
            times = record.sequence.solve_times * 1e3
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
