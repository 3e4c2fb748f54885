"""Iterative phase-only hologram solvers.

Both solvers run one alternating loop (forward propagation, weight update,
scale update, pixel-phasor update) and differ only in its rules, selected by
whether the target phases are pinned:

* ``wpgs_solve`` pins them: the target is a full complex field, per-trap
  weights equalize amplitudes toward trap-dependent targets |E_tar,n|, and a
  fitted complex global scale absorbs the overall amplitude/phase offset.
  Feeding each frame's realized trap phases in as the next frame's target
  phases keeps consecutive holograms phase-continuous.
* ``wgs_solve`` is the amplitude-only baseline: the target phase is replaced
  every iteration by the currently realized trap phases, the scale is pinned
  to 1, and the weight rule uses the mean target amplitude.

The weight, scale, objective and back-propagation formulas are the public
step functions, which take arrays; the loop calls them and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .propagation import (
    PhaseMask,
    SeparablePropagator,
    TrapField,
    adjoint_phase,
    forward,
    forward_field,
)

__all__ = [
    "SOLVER_KINDS",
    "DarkTrapError",
    "TargetSpec",
    "SolverSettings",
    "SolveResult",
    "weight_update",
    "over_relax",
    "scale_update",
    "objective",
    "phase_step",
    "random_mask",
    "wpgs_solve",
    "wgs_solve",
]

SOLVER_KINDS = ("wgs", "wpgs")
WEIGHT_FLOOR_RATIO = 1e-15


class DarkTrapError(RuntimeError):
    """A trap's field collapsed below the divergence floor during a solve."""

    def __init__(self, indices, iteration=None):
        self.indices = tuple(int(i) for i in np.atleast_1d(indices))
        self.iteration = iteration
        where = f" at iteration {iteration}" if iteration is not None else ""
        super().__init__(f"dark trap(s) {self.indices}{where}: field magnitude below floor")


@dataclass(frozen=True)
class TargetSpec:
    """Per-trap target intensity and phase defining the complex target field."""

    target_intensity: np.ndarray
    target_phase: np.ndarray

    def __post_init__(self):
        inten = np.asarray(self.target_intensity, dtype=float)
        phase = np.asarray(self.target_phase, dtype=float)
        if inten.ndim != 1 or phase.shape != inten.shape:
            raise ValueError("target intensity and phase must be 1D arrays of equal length")
        if not (inten > 0).all():
            raise ValueError("target intensities must be > 0 elementwise")
        if not np.isfinite(phase).all():
            raise ValueError("target phases must be finite")
        inten = inten.copy()
        phase = phase.copy()
        inten.setflags(write=False)
        phase.setflags(write=False)
        object.__setattr__(self, "target_intensity", inten)
        object.__setattr__(self, "target_phase", phase)

    def __len__(self) -> int:
        return len(self.target_intensity)

    @property
    def field(self) -> np.ndarray:
        return np.sqrt(self.target_intensity) * np.exp(1j * self.target_phase)


@dataclass(frozen=True)
class SolverSettings:
    """Iteration budgets and weight-relaxation knobs.

    iterations is the phase-constrained budget; wgs_iterations the baseline /
    warm-up budget.  The last iteration damps the normalized weight update by
    over_relaxation (0 disables the advance).
    """

    iterations: int = 5
    wgs_iterations: int = 26
    over_relaxation: float = 0.85
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.wgs_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        if not (0.0 <= self.over_relaxation < 1.0):
            raise ValueError("over_relaxation must lie in [0, 1)")


@dataclass(frozen=True)
class SolveResult:
    """A finished solve; init_field is the field the init mask gives at these traps.

    mask is built once, from the angle of the loop's final pixel phasor, and
    field is forward(prop, mask) bit for bit, so the refresh transient can
    start and end on these fields.
    """

    mask: PhaseMask
    weights: np.ndarray
    field: TrapField
    init_field: TrapField
    objective: tuple[float, ...]
    scale: complex
    solver: str = ""
    adjoint_zero_pixels: int = field(default=0, compare=False)


def _check_bright(field_abs: np.ndarray, iteration=None) -> None:
    peak = field_abs.max(initial=0.0)
    if peak <= 0.0:
        raise DarkTrapError(np.arange(len(field_abs)), iteration)
    dark = np.flatnonzero(field_abs < WEIGHT_FLOOR_RATIO * peak)
    if dark.size:
        raise DarkTrapError(dark, iteration)


def weight_update(weights: np.ndarray, field_abs: np.ndarray, target_abs: np.ndarray,
                  iteration=None) -> np.ndarray:
    """Multiplicative amplitude-equalization step, normalized to unit mean.

    w_n <- w_n * |E_tar,n| / |E_n|, then divided by the arithmetic mean, with
    field_abs = |E_n| and target_abs = |E_tar,n|.  Raises DarkTrapError when
    any |E_n| falls below 1e-15 * max|E|.
    """
    _check_bright(field_abs, iteration)
    w = weights * target_abs / field_abs
    return w / w.mean()


def over_relax(w_prev: np.ndarray, w_tilde_prev: np.ndarray, w_tilde_new: np.ndarray,
               beta: float) -> np.ndarray:
    """Late-stage damped weight advance: w_tilde_prev + beta*(w_tilde_new - w_prev).

    With all inputs unit-mean the result is unit-mean as well.
    """
    return w_tilde_prev + beta * (w_tilde_new - w_prev)


def scale_update(e_tar: np.ndarray, weighted: np.ndarray) -> complex:
    """Least-squares global scale: s = E_tar^H (w * E) / ||E_tar||^2, weighted = w * E."""
    return complex(np.vdot(e_tar, weighted) / np.vdot(e_tar, e_tar).real)


def objective(weighted: np.ndarray, s: complex, e_tar: np.ndarray) -> float:
    """Weighted complex-field matching residual ||w*E - s*E_tar||^2, weighted = w * E."""
    resid = weighted - s * e_tar
    return float(np.vdot(resid, resid).real)


def phase_step(prop: SeparablePropagator, weights: np.ndarray, s: complex,
               e_tar: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit pixel phasor from back-propagating the weighted, scaled target field.

    Returns the (grid_x, grid_y) phasor and the count of back-propagated
    pixels that are exactly zero (phasor 1), as adjoint_phase does.
    """
    return adjoint_phase(prop, np.conj(prop.axial_phase) * (weights * (s * e_tar)))


def random_mask(config, seed: int) -> PhaseMask:
    rng = np.random.default_rng(seed)
    return PhaseMask(rng.uniform(0.0, 2.0 * np.pi, size=(config.grid_x, config.grid_y)))


def _solve(
    prop: SeparablePropagator,
    target_amp: np.ndarray,
    pinned_field: np.ndarray | None,
    settings: SolverSettings,
    init_mask: PhaseMask | None,
    init_weights: np.ndarray | None,
) -> SolveResult:
    """The loop behind both solvers; pinned_field None selects the WGS rules.

    target_amp is |E_tar,n| under the WPGS rules and sqrt(I_n) under the WGS
    rules.  The loop's pixel state is the unit phasor from phase_step: each
    phase step but the last is forward-propagated as it is, without a phase
    array or a complex exp.  After the loop the phasor's angle becomes the
    one PhaseMask of the solve, and result.field is that mask's forward, so
    it corresponds to result.mask bit for bit as result.init_field does to
    the initial mask.  A solve costs 1 + iterations forward contractions and
    two complex exps (the initial and the final mask).
    """
    n = len(target_amp)
    pinned = pinned_field is not None
    phi = init_mask if init_mask is not None else random_mask(prop.config, settings.seed)
    w = np.ones(n) if init_weights is None else np.asarray(init_weights, dtype=float).copy()
    if (w <= 0).any():
        raise ValueError("initial weights must be positive")
    w_tilde_prev = w.copy()
    weight_target = target_amp if pinned else np.full(n, target_amp.mean())

    total = settings.iterations if pinned else settings.wgs_iterations
    objectives = []
    s = 1.0 + 0.0j
    zero_pixels = 0
    realized = init_field = forward(prop, phi)
    for k in range(1, total + 1):
        e = realized.amplitudes
        e_tar = pinned_field if pinned else target_amp * np.exp(1j * np.angle(e))
        w_hat = weight_update(w, np.abs(e), weight_target, iteration=k)
        if k == total and settings.over_relaxation > 0.0:
            w_new = over_relax(w, w_tilde_prev, w_hat, settings.over_relaxation)
        else:
            w_new = w_hat
        w_tilde_prev = w_hat
        w = w_new
        weighted = w * e
        if pinned:
            s = scale_update(e_tar, weighted)
        objectives.append(objective(weighted, s, e_tar))
        pixel, nz = phase_step(prop, w, s, e_tar)
        zero_pixels += nz
        if k < total:
            realized = forward_field(prop, pixel)

    mask = PhaseMask(np.angle(pixel))
    realized = forward(prop, mask)
    return SolveResult(
        mask=mask,
        weights=w,
        field=realized,
        init_field=init_field,
        objective=tuple(objectives),
        scale=s,
        solver="wpgs" if pinned else "wgs",
        adjoint_zero_pixels=zero_pixels,
    )


def wpgs_solve(
    prop: SeparablePropagator,
    target: TargetSpec,
    settings: SolverSettings,
    init_mask: PhaseMask | None = None,
    init_weights: np.ndarray | None = None,
) -> SolveResult:
    """Phase-constrained solve (settings.iterations iterations).

    The target field, trap phases included, stays fixed; the complex scale is
    refit every iteration and each trap's weight targets its own |E_tar,n|.
    """
    n = prop.trap_count
    if len(target) != n:
        raise ValueError(f"target length {len(target)} != trap count {n}")
    e_tar = target.field
    return _solve(prop, np.abs(e_tar), e_tar, settings, init_mask, init_weights)


def wgs_solve(
    prop: SeparablePropagator,
    target_intensity: np.ndarray,
    settings: SolverSettings,
    init_mask: PhaseMask | None = None,
    init_weights: np.ndarray | None = None,
) -> SolveResult:
    """Amplitude-only baseline solve (settings.wgs_iterations iterations).

    The trap phases are free: each iteration's target field takes the phases
    the current mask realizes, the global scale stays 1, and the weight rule
    uses the mean target amplitude.  The recorded objective is the same
    matching residual evaluated against that iteration's phase-adapted target.
    """
    n = prop.trap_count
    inten = np.asarray(target_intensity, dtype=float)
    if inten.shape != (n,):
        raise ValueError(f"target intensity must have length {n}")
    if not (inten > 0).all():
        raise ValueError("target intensities must be > 0")
    return _solve(prop, np.sqrt(inten), None, settings, init_mask, init_weights)
