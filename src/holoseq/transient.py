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

``transient_exact`` wraps ``dphi`` once and makes one forward contraction per
sample.  Of S samples, row k's relaxing phasor comes from the last one by the
recurrence ``exp(i(phi_l + (k/(S-1))*dphi)) = P * Q**k`` with
``P = exp(i*phi_l)`` and ``Q = exp(i*dphi/(S-1))``: two complex exps per
interval and one complex multiply per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.samples_per_refresh < 2:
            raise ValueError("samples_per_refresh must be >= 2")
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
    prop: SeparablePropagator, mask_l: PhaseMask, mask_l1: PhaseMask, samples: int
) -> np.ndarray:
    """Exact transient field: the forward of the relaxing mask, (samples, traps).

    Row k is the field at a_k = 1 - k/(samples-1), RefreshModel(samples).a_grid()[k];
    one sample is the a = 1 row alone.
    """
    if mask_l.shape != mask_l1.shape:
        raise ValueError("masks must share dimensions")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, not {samples!r}")
    phi_l = mask_l.phases
    # exp(i(phi_l + k*h*dphi)) = P * Q**k with h = 1/(samples-1), P = exp(i*phi_l)
    # and Q = exp(i*h*dphi): one complex multiply per sample instead of an exp.
    # Every sample's phasor is written into P's buffer, and dphi is wrapped
    # inside Q's buffer, which Q then overwrites: no grid-sized array lives
    # beside P and Q, and none is page-faulted in again per sample
    pixel = np.empty(phi_l.shape, dtype=complex)
    step = np.empty_like(pixel)
    dphi = wrap_phase(np.subtract(mask_l1.phases, phi_l, out=step.imag), out=step.imag)
    fields = np.empty((samples, prop.trap_count), dtype=complex)
    _relaxing_phasor(phi_l, dphi, 0.0, pixel)
    fields[0] = forward_field(prop, pixel)
    if samples > 1:
        _relaxing_phasor(0.0, dphi, 1.0 / (samples - 1), step)
        for k in range(1, samples):
            pixel *= step
            fields[k] = forward_field(prop, pixel)
    return fields


def _relaxing_phasor(phi_l, dphi, c, out):
    """exp(1j*(phi_l + c*dphi)) computed in the complex buffer out."""
    np.multiply(dphi, c, out=out.imag)
    np.add(out.imag, phi_l, out=out.imag)
    out.real = 0.0
    return np.exp(out, out=out)


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
    mask_l: PhaseMask,
    mask_l1: PhaseMask,
    field_l: np.ndarray,
    field_l1: np.ndarray,
    model: RefreshModel,
) -> np.ndarray:
    """I/I0 over one refresh interval, shape (samples, traps), rows in a_grid order.

    field_l and field_l1 are the (N,) complex fields mask_l and mask_l1 give at
    prop's trap positions (the new frame's SolveResult.init_field and .field).
    Ratios are taken against the start-of-interval intensity I0 = |field_l|^2,
    which makes the a=1 row 1.
    """
    if model.order == "exact":
        fields = transient_exact(prop, mask_l, mask_l1, model.samples_per_refresh)
    else:
        fields = transient_leading(field_l, field_l1, model.a_grid())
    return np.abs(fields) ** 2 / np.abs(field_l) ** 2
