"""Optical field during the SLM refresh between consecutive holograms.

While the liquid crystal relaxes, each pixel's phase follows
``phi_j(t) = a(t)*phi_j_old + (1-a(t))*phi_j_new`` with
``a(t) = exp(-(t-t0)/tau)`` decaying from 1 toward 0.  All quantities here are
parameterized by the interpolation factor ``a`` directly; tau would only map
``a`` to wall-clock time, which no model or artifact uses.

A refresh interval is one complex (samples, traps) array whose row k is the
field at ``a_k = 1 - k/(samples-1)``, the ``RefreshModel.a_grid`` order.  Two
models produce it:

* ``transient_exact``   -- forward propagation of the relaxing mask
  ``phi_l + (1-a)*wrap(phi_l1 - phi_l)``, a function of the sample count;
* ``transient_leading`` -- plain complex interpolation
  ``a*E_old + (1-a)*E_new``, whose error grows linearly with the mean squared
  excursion ``mean_sq_excursion``.

Both take the interval's endpoint fields from the solve: the a = 1 row is
the field of the previous frame's pixel phasor at the new traps (the new
solve's ``init_field``) and the a = 0 row the new frame's ``field``.
``transient_exact`` starts from the previous frame's unit pixel phasor P
itself, its only start (phi_l is P's angle, so no start mask is kept),
wraps ``dphi`` once and makes one forward contraction per interior sample:
of S samples, row k's relaxing phasor is
``exp(i(phi_l + (k/(S-1))*dphi)) = P * Q**k`` with ``Q = exp(i*dphi/(S-1))``,
one complex exp per interval and one complex multiply per sample, written
into P's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import per_trap_array, require_int
# forward stays bound here for perfbench/tracing.py, which rebinds it on this module
from .propagation import (  # noqa: F401
    PhaseMask,
    SeparablePropagator,
    forward,
    forward_field,
    wrap_phase,
)

__all__ = [
    "RefreshModel",
    "pixel_interpolate",
    "transient_exact",
    "transient_leading",
    "mean_sq_excursion",
    "intensity_model",
    "sample_refresh",
]

TRANSIENT_ORDERS = ("exact", "leading")


@dataclass(frozen=True)
class RefreshModel:
    """How to sample one refresh interval.

    samples_per_refresh points are uniform in a over [0, 1] including both
    endpoints (a=1 start, a=0 end); >= 21 keeps a sample within 0.025 of the
    worst-case interference point a = 1/2.
    """

    samples_per_refresh: int = 21
    order: str = "leading"

    def __post_init__(self):
        require_int("samples_per_refresh", self.samples_per_refresh, 2)
        if self.order not in TRANSIENT_ORDERS:
            raise ValueError(f"order must be one of {TRANSIENT_ORDERS}, not {self.order!r}")

    def a_grid(self) -> np.ndarray:
        """Interpolation factors in time order (1 -> 0)."""
        return np.linspace(1.0, 0.0, self.samples_per_refresh)


def pixel_interpolate(mask_l: PhaseMask, mask_l1: PhaseMask, a: float) -> PhaseMask:
    """Pixelwise relaxation state: phi_l + (1-a) * wrap(phi_l1 - phi_l)."""
    if mask_l.shape != mask_l1.shape:
        raise ValueError("masks must share dimensions")
    if not (0.0 <= a <= 1.0):
        raise ValueError("a must lie in [0, 1]")
    dphi = wrap_phase(mask_l1.phases - mask_l.phases)
    return PhaseMask(mask_l.phases + (1.0 - a) * dphi)


def transient_exact(
    prop: SeparablePropagator,
    pixel_l: np.ndarray,
    mask_l1: PhaseMask,
    field_l: np.ndarray,
    field_l1: np.ndarray,
    samples: int,
) -> np.ndarray:
    """Exact transient field: the forward of the relaxing mask, (samples, traps).

    Row k is the field at a_k = 1 - k/(samples-1), RefreshModel(samples).a_grid()[k],
    for samples >= 2, the bound RefreshModel keeps.  pixel_l is the complex
    unit pixel phasor the interval starts from (a SolveResult's pixel); phi_l
    is its angle with np.angle's bits, those of the mask a solve records.
    field_l is its (N,) field at prop's traps and field_l1 the (N,) field of
    mask_l1's phasor there: the a = 1 and a = 0 rows as given.  The rows
    between are the forwards of pixel_l * Q**k, computed in pixel_l's buffer,
    which is overwritten: a read-only pixel_l is refused before any work.
    """
    if np.shape(pixel_l) != mask_l1.shape:
        raise ValueError(f"pixel_l shape {np.shape(pixel_l)} != mask shape {mask_l1.shape}")
    if not np.iscomplexobj(pixel_l):
        raise ValueError("pixel_l must be a complex unit pixel phasor, not phases")
    if not (isinstance(pixel_l, np.ndarray) and pixel_l.flags.writeable):
        raise ValueError(f"pixel_l must be a writeable complex {mask_l1.shape} array")
    n = prop.trap_count
    field_l = per_trap_array("field_l", field_l, n, dtype=complex)
    field_l1 = per_trap_array("field_l1", field_l1, n, dtype=complex)
    require_int("samples", samples, 2)
    fields = np.empty((samples, n), dtype=complex)
    fields[0] = field_l
    fields[-1] = field_l1
    if samples > 2:
        # exp(i(phi_l + k*h*dphi)) = P * Q**k with h = 1/(samples-1), P = pixel_l
        # and Q = exp(i*h*dphi): one complex multiply per sample instead of an
        # exp.  phi_l (np.angle's arctan2) and the wrapped dphi are written into
        # Q's buffer, which Q then overwrites, and every sample's phasor goes to
        # P's buffer: no other grid-sized array
        step = np.empty(pixel_l.shape, dtype=complex)
        phi_l = np.arctan2(pixel_l.imag, pixel_l.real, out=step.imag)
        dphi = wrap_phase(np.subtract(mask_l1.phases, phi_l, out=step.imag), out=step.imag)
        np.multiply(dphi, 1.0 / (samples - 1), out=step.imag)
        step.real = 0.0
        np.exp(step, out=step)
        for k in range(1, samples - 1):
            pixel_l *= step
            fields[k] = forward_field(prop, pixel_l)
    return fields


def transient_leading(field_l: np.ndarray, field_l1: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Leading-order interpolation a*E_l + (1-a)*E_l1, one row per entry of the 1-D a.

    field_l and field_l1 are (N,) complex trap fields.
    """
    a = np.asarray(a, dtype=float)[:, None]
    return a * field_l + (1.0 - a) * field_l1


def mean_sq_excursion(mask_l: PhaseMask, mask_l1: PhaseMask) -> float:
    """Pixel-mean of the squared wrapped excursion <dphi^2>."""
    dphi = wrap_phase(mask_l1.phases - mask_l.phases)
    return float(np.mean(dphi * dphi))


def intensity_model(a, dphi):
    """Normalized two-frame interference landscape |a + (1-a) e^{i dphi}|^2."""
    a = np.asarray(a, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    value = a**2 + (1.0 - a) ** 2 + 2.0 * a * (1.0 - a) * np.cos(dphi)
    return value if value.ndim else float(value)


def sample_refresh(
    prop: SeparablePropagator,
    mask_l1: PhaseMask,
    field_l: np.ndarray,
    field_l1: np.ndarray,
    model: RefreshModel,
    pixel_l: np.ndarray | None = None,
) -> np.ndarray:
    """I/I0 over one refresh interval, shape (samples, traps), rows in a_grid order.

    field_l and field_l1 are the (N,) complex fields of the interval's start
    and of its end mask mask_l1 at prop's trap positions (the new frame's
    SolveResult.init_field and .field).  Ratios are taken against the
    start-of-interval intensity I0 = |field_l|^2, which makes the a=1 row
    exactly 1.  The exact model also needs pixel_l, the unit pixel phasor
    that field_l is the field of (the previous frame's SolveResult.pixel),
    and overwrites it, as transient_exact does; the leading model reads
    neither mask_l1 nor pixel_l.
    """
    if model.order == "exact":
        if pixel_l is None:
            raise ValueError("the exact refresh model needs the start phasor pixel_l")
        fields = transient_exact(
            prop, pixel_l, mask_l1, field_l, field_l1, model.samples_per_refresh
        )
    else:
        field_l = per_trap_array("field_l", field_l, prop.trap_count, dtype=complex)
        field_l1 = per_trap_array("field_l1", field_l1, prop.trap_count, dtype=complex)
        fields = transient_leading(field_l, field_l1, model.a_grid())
    return np.abs(fields) ** 2 / np.abs(field_l) ** 2
