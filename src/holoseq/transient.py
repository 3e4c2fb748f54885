"""Optical field during the SLM refresh between consecutive holograms.

While the liquid crystal relaxes, each pixel's phase follows
``phi_j(t) = a(t)*phi_j_old + (1-a(t))*phi_j_new`` with
``a(t) = exp(-(t-t0)/tau)`` decaying from 1 toward 0.  All quantities here are
parameterized by the interpolation factor ``a`` directly; tau would only map
``a`` to wall-clock time, which no model or artifact uses.

Field models, from exact to cheapest:

* ``transient_exact``     -- per-pixel sine-ratio decomposition of the
  interpolated phasor (algebraically identical to forward-propagating the
  interpolated mask);
* ``transient_second``    -- two-term interpolation with amplitude
  renormalization ``alpha = 1 + O(<dphi^2>)/6`` on each endpoint field;
* ``transient_leading``   -- plain complex interpolation
  ``a*E_old + (1-a)*E_new``.

``sample_refresh`` with the exact model makes one ``transient_exact`` call per
interval with the whole a grid.  Once per interval that call wraps
``dphi = phi_new - phi_old``, splits the pixels into the small, near-pi and
safe branches, and computes ``sin(dphi)`` over the safe pixels and both
endpoint phasors ``exp(i*phi_old)`` and ``exp(i*phi_new)``.  Once per sample
it computes the two sine ratios over the safe pixels, combines the phasors,
fixes up the near-pi pixels and makes one forward contraction.

The residual dropped by the second-order model is bounded via Cauchy-Schwarz
by ``sqrt(sum_j |A_nj|^2) * sqrt(sum_j eps_j^2)`` with
``eps_j = dphi_j^2 - <dphi^2>``.
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
    "residual_bound",
    "intensity_model",
    "transient_intensity_expansion",
    "sample_refresh",
]

TRANSIENT_ORDERS = ("exact", "leading", "second")

# sine-ratio branch cuts: below SMALL_DPHI use the a/(1-a) limit weights,
# within PI_MARGIN of +-pi evaluate the interpolated phasor directly
# (the ratio denominator sin(dphi) -> 0 there and cancellation would
# destroy the exactness identity)
SMALL_DPHI = 1e-6
PI_MARGIN = 0.1


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
    """Exact transient field via the per-pixel sine-ratio decomposition.

    Away from the branch cuts the interpolated phasor splits as
    ``e^{i phi_l} sin(a*dphi)/sin(dphi) + e^{i phi_l1} sin((1-a)*dphi)/sin(dphi)``.
    A float a gives one TrapField; a 1-D array gives a list with one TrapField
    per value, in order.  The terms that do not depend on a are computed once
    per call (see the module docstring), and every value reuses one set of
    coefficient and pixel buffers.
    """
    if mask_l.shape != mask_l1.shape:
        raise ValueError("masks must share dimensions")
    a_values = np.asarray(a, dtype=float)
    if a_values.ndim > 1:
        raise ValueError("a must be a float or a 1-D array")
    if not ((a_values >= 0.0) & (a_values <= 1.0)).all():
        raise ValueError("a must lie in [0, 1]")
    phi0 = mask_l.phases
    phi1 = mask_l1.phases
    dphi = wrap_phase(phi1 - phi0)

    small = np.abs(dphi) < SMALL_DPHI
    near_pi_mask = (np.pi - np.abs(dphi)) < PI_MARGIN
    safe = ~(small | near_pi_mask)
    near_pi = np.nonzero(near_pi_mask)
    phi0_pi = phi0[near_pi]
    dphi_pi = dphi[near_pi]
    dphi_safe = dphi[safe]
    del dphi  # the loop reads only its safe and near-pi parts; keeps peak memory flat
    sd = np.sin(dphi_safe)
    phasor_l = np.exp(1j * phi0)
    phasor_l1 = np.exp(1j * phi1)

    # near-pi coefficients stay 0: those pixels are overwritten below
    coeff = np.zeros(phi0.shape)
    ratio = np.empty(dphi_safe.shape)
    pixel = np.empty(phi0.shape, dtype=complex)
    term = np.empty(phi0.shape, dtype=complex)
    fields = []
    for a_k in a_values.ravel():
        for phasor, weight, out in ((phasor_l, a_k, pixel), (phasor_l1, 1.0 - a_k, term)):
            np.multiply(weight, dphi_safe, out=ratio)
            np.sin(ratio, out=ratio)
            np.divide(ratio, sd, out=ratio)
            coeff[safe] = ratio
            coeff[small] = weight
            np.multiply(phasor, coeff, out=out)
        np.add(pixel, term, out=pixel)
        if phi0_pi.size:
            pixel[near_pi] = np.exp(1j * (phi0_pi + (1.0 - a_k) * dphi_pi))
        fields.append(forward_field(prop, pixel))
    return fields if a_values.ndim else fields[0]


def transient_leading(field_l: TrapField, field_l1: TrapField, a: float) -> TrapField:
    """Leading-order interpolation a*E_l + (1-a)*E_l1."""
    return TrapField(a * field_l.amplitudes + (1.0 - a) * field_l1.amplitudes)


def _alphas(a: float, mean_sq_excursion: float) -> tuple[float, float]:
    """Second-order endpoint renormalizations (alpha_l, alpha_l1)."""
    return (
        1.0 + (1.0 - a * a) * mean_sq_excursion / 6.0,
        1.0 + a * (2.0 - a) * mean_sq_excursion / 6.0,
    )


def transient_second(
    field_l: TrapField, field_l1: TrapField, a: float, mean_sq_excursion: float
) -> TrapField:
    """Second-order model: endpoint amplitudes renormalized by alpha factors.

    alpha_l = 1 + (1-a^2)*<dphi^2>/6, alpha_l1 = 1 + a*(2-a)*<dphi^2>/6.
    """
    if mean_sq_excursion < 0:
        raise ValueError("mean squared excursion must be >= 0")
    alpha_l, alpha_l1 = _alphas(a, mean_sq_excursion)
    return TrapField(
        a * alpha_l * field_l.amplitudes + (1.0 - a) * alpha_l1 * field_l1.amplitudes
    )


def mean_sq_excursion(mask_l: PhaseMask, mask_l1: PhaseMask) -> float:
    """Pixel-mean of the squared wrapped excursion <dphi^2>."""
    dphi = wrap_phase(mask_l1.phases - mask_l.phases)
    return float(np.mean(dphi * dphi))


def residual_bound(row_norms: np.ndarray, excursions: np.ndarray) -> np.ndarray:
    """Cauchy-Schwarz bound on the fluctuation residual dropped at second order.

    row_norms carries sum_j |A_nj|^2 per trap (see propagation.row_power);
    excursions are the wrapped per-pixel dphi_j.  Returns the per-trap bound
    sqrt(row_norm) * sqrt(sum_j (dphi_j^2 - <dphi^2>)^2).
    """
    row_norms = np.asarray(row_norms, dtype=float)
    sq = np.asarray(excursions, dtype=float).ravel() ** 2
    eps = sq - sq.mean()
    return np.sqrt(row_norms) * np.sqrt((eps * eps).sum())


def intensity_model(a, dphi):
    """Normalized two-frame interference landscape |a + (1-a) e^{i dphi}|^2."""
    a = np.asarray(a, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    value = a**2 + (1.0 - a) ** 2 + 2.0 * a * (1.0 - a) * np.cos(dphi)
    return value if value.ndim else float(value)


def transient_intensity_expansion(i_l, i_l1, dphi, a, mean_sq_excursion: float = 0.0):
    """Transient intensity from endpoint intensities and relative phase.

    a^2*alpha_l^2*I_l + (1-a)^2*alpha_l1^2*I_l1
    + 2*a*(1-a)*alpha_l*alpha_l1*sqrt(I_l*I_l1)*cos(dphi); the default
    mean_sq_excursion = 0 gives the leading-order expansion (alpha = 1).
    """
    i_l = np.asarray(i_l, dtype=float)
    i_l1 = np.asarray(i_l1, dtype=float)
    if (i_l < 0).any() or (i_l1 < 0).any():
        raise ValueError("intensities must be >= 0")
    alpha_l, alpha_l1 = _alphas(a, mean_sq_excursion)
    value = (
        (a * alpha_l) ** 2 * i_l
        + ((1.0 - a) * alpha_l1) ** 2 * i_l1
        + 2.0 * a * (1.0 - a) * alpha_l * alpha_l1 * np.sqrt(i_l * i_l1) * np.cos(dphi)
    )
    return value if np.ndim(value) else float(value)


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
