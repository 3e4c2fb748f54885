"""Optical field during the SLM refresh between consecutive holograms.

While the liquid crystal relaxes, each pixel's phase follows
``phi_j(t) = a(t)*phi_j_old + (1-a(t))*phi_j_new`` with
``a(t) = exp(-(t-t0)/tau)`` decaying from 1 toward 0.  All quantities here are
parameterized by the interpolation factor ``a`` directly; tau would only map
``a`` to wall-clock time, which no model or artifact uses.

Field models, from exact to cheapest:

* ``transient_exact``     -- forward propagation of the relaxing mask
  ``phi_l + (1-a)*wrap(phi_l1 - phi_l)``;
* ``transient_second``    -- two-term interpolation with amplitude
  renormalization ``alpha = 1 + O(<dphi^2>)/6`` on each endpoint field;
* ``transient_leading``   -- plain complex interpolation
  ``a*E_old + (1-a)*E_new``.

``sample_refresh`` with the exact model makes one ``transient_exact`` call per
interval with the whole a grid; that call wraps ``dphi`` once and makes one
forward contraction per sample.  When the a values are evenly spaced, as
``RefreshModel.a_grid`` is, each sample's relaxing phasor comes from the last
one by the recurrence ``exp(i(phi_l + (1-a_k)*dphi)) = P * Q**k``, with
``P = exp(i(phi_l + (1-a_0)*dphi))`` and ``Q = exp(i*h*dphi)`` for the spacing
h: two complex exps per interval and one complex multiply per sample.  A scalar
a or unevenly spaced values take one complex exp per sample instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# forward stays bound here for perfbench/tracing.py, which rebinds it on this module
from .propagation import (  # noqa: F401
    PhaseMask,
    SeparablePropagator,
    TrapField,
    forward,
    forward_field,
    wrap_phase,
)

__all__ = [
    "RefreshModel",
    "pixel_interpolate",
    "transient_exact",
    "transient_leading",
    "transient_second",
    "mean_sq_excursion",
    "intensity_model",
    "sample_refresh",
]

TRANSIENT_ORDERS = ("exact", "leading", "second")
# a values within this many ulps of 1 of an evenly spaced grid take the recurrence
UNIFORM_ULPS = 4


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
            raise ValueError(f"order must be one of {TRANSIENT_ORDERS}")

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
    prop: SeparablePropagator, mask_l: PhaseMask, mask_l1: PhaseMask, a: float | np.ndarray
) -> TrapField | list[TrapField]:
    """Exact transient field: the forward of the relaxing mask at each a.

    A float a gives one TrapField; a 1-D array gives a list with one TrapField
    per value, in order.
    """
    if mask_l.shape != mask_l1.shape:
        raise ValueError("masks must share dimensions")
    a_values = np.asarray(a, dtype=float)
    if a_values.ndim > 1:
        raise ValueError("a must be a float or a 1-D array")
    if not ((a_values >= 0.0) & (a_values <= 1.0)).all():
        raise ValueError("a must lie in [0, 1]")
    phi_l = mask_l.phases
    a_flat = a_values.ravel()
    # every sample's phasor is written into one buffer: fresh grid-sized
    # temporaries per sample are page-faulted in again each time
    pixel = np.empty(phi_l.shape, dtype=complex)
    h = _uniform_step(a_flat)
    if h is None:
        dphi = wrap_phase(mask_l1.phases - phi_l)
        fields = [
            forward_field(prop, _relaxing_phasor(phi_l, dphi, 1.0 - a_k, pixel))
            for a_k in a_flat
        ]
    else:
        # exp(i(phi_l + (1-a_k)*dphi)) = P * Q**k with P the a_0 phasor and
        # Q = exp(i*h*dphi): one complex multiply per sample instead of an exp.
        # dphi is wrapped inside Q's buffer, which Q then overwrites: no
        # grid-sized array lives beside P and Q
        step = np.empty_like(pixel)
        dphi = wrap_phase(np.subtract(mask_l1.phases, phi_l, out=step.imag), out=step.imag)
        _relaxing_phasor(phi_l, dphi, 1.0 - a_flat[0], pixel)
        _relaxing_phasor(0.0, dphi, h, step)
        fields = [forward_field(prop, pixel)]
        for _ in range(1, a_flat.size):
            pixel *= step
            fields.append(forward_field(prop, pixel))
    return fields if a_values.ndim else fields[0]


def _relaxing_phasor(phi_l, dphi, c, out):
    """exp(1j*(phi_l + c*dphi)) computed in the complex buffer out."""
    np.multiply(dphi, c, out=out.imag)
    np.add(out.imag, phi_l, out=out.imag)
    out.real = 0.0
    return np.exp(out, out=out)


def _uniform_step(a):
    """The spacing h when a[k] = a[0] - k*h to a few ulps for every k, else None.

    Fewer than two samples have no spacing.  a lies in [0, 1], so the absolute
    tolerance UNIFORM_ULPS * eps is at most that many ulps of the largest a,
    and the phase error the recurrence's own grid adds stays below
    UNIFORM_ULPS * eps * pi.
    """
    if a.size < 2:
        return None
    h = (a[0] - a[-1]) / (a.size - 1)
    drift = np.abs(a - (a[0] - h * np.arange(a.size)))
    return h if drift.max() <= UNIFORM_ULPS * np.finfo(float).eps else None


def transient_leading(field_l: TrapField, field_l1: TrapField, a: float) -> TrapField:
    """Leading-order interpolation a*E_l + (1-a)*E_l1."""
    return TrapField(a * field_l.amplitudes + (1.0 - a) * field_l1.amplitudes)


def transient_second(
    field_l: TrapField, field_l1: TrapField, a: float, mean_sq_excursion: float
) -> TrapField:
    """Second-order model: endpoint amplitudes renormalized by alpha factors.

    alpha_l = 1 + (1-a^2)*<dphi^2>/6, alpha_l1 = 1 + a*(2-a)*<dphi^2>/6.
    """
    if mean_sq_excursion < 0:
        raise ValueError("mean squared excursion must be >= 0")
    alpha_l = 1.0 + (1.0 - a * a) * mean_sq_excursion / 6.0
    alpha_l1 = 1.0 + a * (2.0 - a) * mean_sq_excursion / 6.0
    return TrapField(
        a * alpha_l * field_l.amplitudes + (1.0 - a) * alpha_l1 * field_l1.amplitudes
    )


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
    field_l: TrapField,
    field_l1: TrapField,
    model: RefreshModel,
) -> np.ndarray:
    """I/I0 over one refresh interval, shape (samples, traps), rows in a_grid order.

    field_l and field_l1 are the fields mask_l and mask_l1 give at prop's trap
    positions (the new frame's SolveResult.init_field and .field).  Ratios are
    taken against the start-of-interval intensity I0 = |field_l|^2, which makes
    the a=1 row 1.
    """
    i0 = field_l.intensity
    if model.order == "exact":
        fields = transient_exact(prop, mask_l, mask_l1, model.a_grid())
    elif model.order == "second":
        msq = mean_sq_excursion(mask_l, mask_l1)
        fields = [transient_second(field_l, field_l1, a, msq) for a in model.a_grid()]
    else:
        fields = [transient_leading(field_l, field_l1, a) for a in model.a_grid()]
    return np.array([f.intensity / i0 for f in fields])
