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

The loop's pixel state is a unit phasor, never a phase array, and so is its
start, ``init_pixel``: a previous result's last phasor (``SolveResult.pixel``),
forward-propagated as it is, or None for a random mask.  A sequence of
warm-started solves takes no complex exp at all: only the random start
(frame 0's) pays one, in ``forward``.  Phases appear only in
``SolveResult.mask``, the export form.  Every phase step of a solve is
written into one phasor buffer, the solver's ``out``: a caller that has no
further use for the start phasor passes it as ``out`` too, and a sequence of
such solves works in one grid-sized buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first attribute access; load it on import, not mid-run
import numpy.random

from .geometry import freeze_array, per_trap_array, require_int
from .propagation import (
    PhaseMask,
    SeparablePropagator,
    adjoint_phase,
    forward,
    forward_field,
)

__all__ = [
    "SOLVER_KINDS",
    "DarkTrapError",
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
class SolverSettings:
    """Iteration budgets and weight-relaxation knobs.

    iterations is the phase-constrained budget; wgs_iterations the baseline /
    warm-up budget.  The last iteration damps the normalized weight update
    by over_relaxation, w + over_relaxation*(w_hat - w) (over_relax); 0 takes
    the update w_hat whole.
    """

    iterations: int = 5
    wgs_iterations: int = 26
    over_relaxation: float = 0.85
    seed: int = 0

    def __post_init__(self):
        require_int("iterations", self.iterations, 1)
        require_int("wgs_iterations", self.wgs_iterations, 1)
        # numpy's generators take no negative seed
        require_int("seed", self.seed, 0)
        if isinstance(self.over_relaxation, bool) or not (0.0 <= self.over_relaxation < 1.0):
            raise ValueError(f"over_relaxation must lie in [0, 1), not {self.over_relaxation!r}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A finished solve; init_field is the field the solve's start gives at these traps.

    field and init_field are (N,) complex trap fields.  weights, field and
    init_field are read-only copies; pixel, grid-sized, is kept as it is.
    pixel is the loop's final unit pixel phasor and field is
    forward_field(prop, pixel) bit for bit.  mask, the angle of pixel, is the
    export and record form: forward(prop, mask) rebuilds the phasor with a
    complex exp and agrees with field to rounding (about 1e-15 relative).
    pixel is the solve's out buffer (a new one when out was None) and the
    next solve's start; a run keeps it for the newest frame only (under the
    exact refresh model, until the next interval's transient has started from
    it and overwritten it; under the leading model the next solve writes its
    phase steps into it), and its recorded frames hold None.
    """

    mask: PhaseMask
    weights: np.ndarray
    field: np.ndarray
    init_field: np.ndarray
    objective: tuple[float, ...]
    scale: complex
    solver: str = ""
    adjoint_zero_pixels: int = 0
    pixel: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        freeze_array(self, "weights")
        freeze_array(self, "field", complex)
        freeze_array(self, "init_field", complex)


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


def over_relax(w: np.ndarray, w_hat: np.ndarray, beta: float) -> np.ndarray:
    """Last-iteration damped weight step: w + beta*(w_hat - w).

    w is the iteration's weights and w_hat their weight_update; with both
    unit-mean the result is unit-mean as well.
    """
    return w + beta * (w_hat - w)


def scale_update(e_tar: np.ndarray, weighted: np.ndarray) -> complex:
    """Least-squares global scale: s = E_tar^H (w * E) / ||E_tar||^2, weighted = w * E."""
    return complex(np.vdot(e_tar, weighted) / np.vdot(e_tar, e_tar).real)


def objective(weighted: np.ndarray, s: complex, e_tar: np.ndarray) -> float:
    """Weighted complex-field matching residual ||w*E - s*E_tar||^2, weighted = w * E."""
    resid = weighted - s * e_tar
    return float(np.vdot(resid, resid).real)


def phase_step(prop: SeparablePropagator, weights: np.ndarray, s: complex,
               e_tar: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Unit pixel phasor from back-propagating the weighted, scaled target field.

    Returns the (grid_x, grid_y) phasor and the count of back-propagated
    pixels that are exactly zero (phasor 1), as adjoint_phase does; the
    phasor is written into out when given.
    """
    return adjoint_phase(prop, np.conj(prop.axial_phase) * (weights * (s * e_tar)), out=out)


def random_mask(config, seed: int) -> PhaseMask:
    rng = np.random.default_rng(seed)
    return PhaseMask(rng.uniform(0.0, 2.0 * np.pi, size=(config.grid_x, config.grid_y)))


def _solve(
    prop: SeparablePropagator,
    target_amp: np.ndarray,
    pinned_field: np.ndarray | None,
    settings: SolverSettings,
    init_pixel: np.ndarray | None,
    init_weights: np.ndarray | None,
    out: np.ndarray | None,
) -> SolveResult:
    """The loop behind both solvers; pinned_field None selects the WGS rules.

    target_amp is |E_tar,n| under the WPGS rules and sqrt(I_n) under the WGS
    rules.  The loop's pixel state is the unit phasor from phase_step, and
    every phase step is forward-propagated as it is, without a phase array or
    a complex exp; result.field is the last one's forward.  Every phase step
    is written into one buffer: out, or the array the first step allocates
    when out is None.  out may be the start phasor itself, which is
    forward-propagated before the first phase step overwrites it.  After the
    loop the phasor's angle becomes the one PhaseMask of the solve.  A solve
    costs 1 + iterations forward contractions; a complex exp only when it
    starts from the random mask (init_pixel None).
    """
    n = len(target_amp)
    pinned = pinned_field is not None
    if init_weights is None:
        w = np.ones(n)
    else:
        w = per_trap_array("init_weights", init_weights, n, positive=True)
    if init_pixel is None:
        init_field = forward(prop, random_mask(prop.config, settings.seed))
    elif np.iscomplexobj(init_pixel):  # propagated as it is; forward_field checks its shape
        init_field = forward_field(prop, init_pixel)
    else:  # a PhaseMask or a phase array
        raise ValueError("init_pixel must be a complex unit pixel phasor, not phases")
    weight_target = target_amp if pinned else np.full(n, target_amp.mean())

    total = settings.iterations if pinned else settings.wgs_iterations
    objectives = []
    s = 1.0 + 0.0j
    zero_pixels = 0
    e = init_field
    pixel = out
    for k in range(1, total + 1):
        e_tar = pinned_field if pinned else target_amp * np.exp(1j * np.angle(e))
        w_hat = weight_update(w, np.abs(e), weight_target, iteration=k)
        if k == total and settings.over_relaxation > 0.0:
            w = over_relax(w, w_hat, settings.over_relaxation)
        else:
            w = w_hat
        weighted = w * e
        if pinned:
            s = scale_update(e_tar, weighted)
        objectives.append(objective(weighted, s, e_tar))
        # each phase step overwrites the one before, which is forwarded already
        pixel, nz = phase_step(prop, w, s, e_tar, out=pixel)
        zero_pixels += nz
        e = forward_field(prop, pixel)

    return SolveResult(
        mask=PhaseMask(np.angle(pixel)),
        weights=w,
        field=e,
        init_field=init_field,
        objective=tuple(objectives),
        scale=s,
        solver="wpgs" if pinned else "wgs",
        adjoint_zero_pixels=zero_pixels,
        pixel=pixel,
    )


def wpgs_solve(
    prop: SeparablePropagator,
    target_intensity: np.ndarray,
    target_phase: np.ndarray,
    settings: SolverSettings,
    init_pixel: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> SolveResult:
    """Phase-constrained solve (settings.iterations iterations).

    The target field E_tar = sqrt(target_intensity) * exp(i * target_phase),
    trap phases included, stays fixed; the complex scale is refit every
    iteration and each trap's weight targets its own |E_tar,n|.  Both arrays
    have one entry per trap; intensities must be finite and > 0, phases finite.
    init_pixel is a complex unit pixel phasor of the grid's shape (such as a
    previous result's pixel; a PhaseMask or a real array is refused), or None
    for random_mask(settings.seed).  init_weights, the starting weights, is a
    finite, positive array with one entry per trap, or None for all ones; a
    bad one is refused before any forward.  Every phase step is written into
    out, a C-contiguous complex array of the grid's shape that becomes
    result.pixel; it may be init_pixel itself.  out None allocates the buffer
    once per solve.
    """
    n = prop.trap_count
    inten = per_trap_array("target_intensity", target_intensity, n, positive=True)
    phase = per_trap_array("target_phase", target_phase, n)
    e_tar = np.sqrt(inten) * np.exp(1j * phase)
    return _solve(prop, np.abs(e_tar), e_tar, settings, init_pixel, init_weights, out)


def wgs_solve(
    prop: SeparablePropagator,
    target_intensity: np.ndarray,
    settings: SolverSettings,
    init_pixel: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> SolveResult:
    """Amplitude-only baseline solve (settings.wgs_iterations iterations).

    The trap phases are free: each iteration's target field takes the phases
    the current mask realizes, the global scale stays 1, and the weight rule
    uses the mean target amplitude.  The recorded objective is the same
    matching residual evaluated against that iteration's phase-adapted target.
    init_pixel, init_weights and out are as for wpgs_solve.
    """
    inten = per_trap_array("target_intensity", target_intensity, prop.trap_count, positive=True)
    return _solve(prop, np.sqrt(inten), None, settings, init_pixel, init_weights, out)
