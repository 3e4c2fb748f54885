"""Trap-field propagation between the SLM plane and trap positions.

Two routes compute the complex field at each trap from a pixelwise phase mask:

* a separable path that factors the Fresnel kernel into per-axis matrices
  ``kernel_x`` (R x grid_x, one row per distinct (x, z) pair of the N traps)
  and ``kernel_y`` (one row per distinct (y, z) pair), contracted as
  ``E = scale * c * rowsum((U @ exp(i*phi))[x_rows] * V[y_rows])``, where
  ``x_rows`` and ``y_rows`` map trap n to its rows of U and V;
* a dense N x M matrix built independently from the single-exponential kernel,
  kept as a verification oracle for small problems.

Both paths share one sign convention: the kernel for trap n is
``exp(-i * (pi*z_n*(u^2+v^2)/(lambda f^2) + 2*pi*(x_n*u + y_n*v)/(lambda f)))``
with pixel coordinates (u, v) centered on the SLM.  The per-trap scalar
``d^2 * u0 / (i * lambda * (f + z_n))`` is retained (not approximated to 1/f)
so trap intensities across axial layers remain physically comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import OpticalConfig, TrapLayout

__all__ = [
    "PhaseMask",
    "TrapField",
    "SeparablePropagator",
    "DensePropagator",
    "wrap_phase",
    "build_separable",
    "build_dense",
    "forward",
    "forward_field",
    "forward_dense",
    "adjoint_phase",
]

# Dense matrices are for oracle use only; N*M above this is refused.
DENSE_ENTRY_LIMIT = 8_388_608

TWO_PI = 2.0 * np.pi
# forward_field gathers and sums the contracted rows of this many complex
# entries at a time (128 KB): N x grid_y at once is a large temporary
ROW_BLOCK_ENTRIES = 8192


def wrap_phase(x, out=None):
    """Wrap angles into (-pi, pi]; ties at +-pi map to +pi.

    The result goes to out, a float array of x's shape (x itself allowed),
    or to a new array.
    """
    out = np.empty(np.shape(x)) if out is None else out
    np.subtract(np.pi, x, out=out)
    np.mod(out, TWO_PI, out=out)
    return np.subtract(np.pi, out, out=out)


@dataclass(frozen=True)
class PhaseMask:
    """Pixelwise SLM phases in radians, shape (grid_x, grid_y).

    Values are unconstrained for internal arithmetic; canonical() folds them
    into [0, 2*pi) for serialization and export.
    """

    phases: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phases, dtype=float)
        if arr.ndim != 2:
            raise ValueError("phase mask must be 2D")
        if not np.isfinite(arr).all():
            raise ValueError("phase mask entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.phases.shape

    def canonical(self) -> np.ndarray:
        return np.mod(self.phases, TWO_PI)


@dataclass(frozen=True)
class TrapField:
    """Complex field amplitudes at the trap centers."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("trap field must be a 1D complex vector")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def __len__(self) -> int:
        return len(self.amplitudes)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.amplitudes)


@dataclass(frozen=True)
class SeparablePropagator:
    """Factored Fresnel propagator for one (config, layout) pair.

    axial_phase (c) has unit modulus and carries the whole phase of the
    per-trap prefactor, including the constant -pi/2 from the 1/i of the
    Fresnel integral; trap_scale is the real positive amplitude
    d^2*u0 / (lambda*(f+z_n)).  Keeping the prefactor phase inside c matters:
    the solvers cancel c between forward and back-propagation, and a phase
    left in trap_scale instead would rotate every realized trap phase each
    iteration and wreck frame-to-frame continuity.

    kernel_x holds one row per distinct (x, z) pair of the layout, not one
    per trap: the traps of a lattice transport share few x values in a frame,
    and the x kernel depends on x and z only.  x_rows (N,) maps each trap to
    its row.  kernel_y and y_rows do the same for the distinct (y, z) pairs;
    kernel_y[y_rows] is the per-trap y kernel, bit for bit.  axial_phase and
    trap_scale stay per trap.
    """

    config: OpticalConfig
    layout: TrapLayout
    axial_phase: np.ndarray = field(repr=False)
    kernel_x: np.ndarray = field(repr=False)
    kernel_y: np.ndarray = field(repr=False)
    trap_scale: np.ndarray = field(repr=False)
    x_rows: np.ndarray = field(repr=False)
    y_rows: np.ndarray = field(repr=False)

    @property
    def trap_count(self) -> int:
        return len(self.layout)


@dataclass(frozen=True)
class DensePropagator:
    """Explicit N x M propagation matrix (row-major pixel flattening)."""

    config: OpticalConfig
    layout: TrapLayout
    matrix: np.ndarray = field(repr=False)

    @property
    def trap_count(self) -> int:
        return len(self.layout)


def _kernel_phase(trap_axis: np.ndarray, trap_z: np.ndarray, pix: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """Per-axis kernel exponent: pi*z*u^2/(lambda f^2) + 2*pi*x*u/(lambda f)."""
    lam = config.wavelength
    f = config.focal_length
    quad = (np.pi / (lam * f * f)) * trap_z[:, None] * (pix * pix)[None, :]
    lin = (TWO_PI / (lam * f)) * trap_axis[:, None] * pix[None, :]
    return quad + lin


def build_separable(config: OpticalConfig, layout: TrapLayout) -> SeparablePropagator:
    """Build the factored c / kernel_x / kernel_y propagator."""
    z = layout.z
    if np.any(config.focal_length + z <= 0):
        raise ValueError("trap z must satisfy f + z > 0")
    u = config.pixel_coords_x()
    v = config.pixel_coords_y()
    # the x kernel depends on (x, z) only; -0.0 and 0.0 compare equal here
    xz, x_rows = np.unique(np.stack([layout.x, z], axis=1), axis=0, return_inverse=True)
    kernel_x = np.exp(-1j * _kernel_phase(xz[:, 0], xz[:, 1], u, config))
    yz, y_rows = np.unique(np.stack([layout.y, z], axis=1), axis=0, return_inverse=True)
    kernel_y = np.exp(-1j * _kernel_phase(yz[:, 0], yz[:, 1], v, config))
    axial = np.exp(
        1j * (TWO_PI * (2.0 * config.focal_length + z) / config.wavelength - np.pi / 2.0)
    )
    scale = config.pixel_pitch**2 / (config.wavelength * (config.focal_length + z))
    return SeparablePropagator(
        config=config,
        layout=layout,
        axial_phase=axial,
        kernel_x=kernel_x,
        kernel_y=kernel_y,
        trap_scale=scale,
        # numpy 2.0.0 returns the inverse of an axis unique as 2-D
        x_rows=x_rows.ravel(),
        y_rows=y_rows.ravel(),
    )


def forward_field(prop: SeparablePropagator, pixel_field: np.ndarray) -> TrapField:
    """Propagate an arbitrary complex pixel field."""
    cfg = prop.config
    if pixel_field.shape != (cfg.grid_x, cfg.grid_y):
        raise ValueError(
            f"pixel field shape {pixel_field.shape} != grid ({cfg.grid_x}, {cfg.grid_y})"
        )
    f = np.asarray(pixel_field, dtype=complex)
    contracted_x = prop.kernel_x @ f
    # a block of traps at a time; each trap's row sum is the same either way
    contracted = np.empty(prop.trap_count, dtype=complex)
    block = max(1, ROW_BLOCK_ENTRIES // cfg.grid_y)
    for start in range(0, prop.trap_count, block):
        stop = start + block
        rows = contracted_x[prop.x_rows[start:stop]]
        rows *= prop.kernel_y[prop.y_rows[start:stop]]
        rows.sum(axis=1, out=contracted[start:stop])
    return TrapField(prop.trap_scale * prop.axial_phase * contracted)


def forward(prop: SeparablePropagator, mask: PhaseMask) -> TrapField:
    """Trap field produced by a phase mask through the separable kernel."""
    return forward_field(prop, np.exp(1j * mask.phases))


def adjoint_phase(prop: SeparablePropagator, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit phasor of the back-propagated pixel field ``U[x_rows]^H diag(b) V^*``.

    V = kernel_y[y_rows] is the per-trap y kernel, formed for the call.
    Traps that share a row of kernel_x (U) are summed before the x
    contraction: b is scattered into an (R, N) matrix B at (x_rows[n], n),
    and ``U[x_rows]^H diag(b) V^* = U^H (B V^*)``.

    Returns the (grid_x, grid_y) phasor ``pixel / |pixel|`` and the count of
    pixels whose back-propagated field is exactly zero; those pixels get the
    phasor 1 (phase 0).  The caller supplies the per-trap source vector b
    (the solver uses conj(c) * w * s * E_tar).
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (prop.trap_count,):
        raise ValueError(f"b must have length {prop.trap_count}")
    n = prop.trap_count
    by_row = np.zeros((len(prop.kernel_x), n), dtype=complex)
    by_row[prop.x_rows, np.arange(n)] = b
    pixel = np.conj(prop.kernel_x).T @ (by_row @ np.conj(prop.kernel_y)[prop.y_rows])
    magnitude = np.abs(pixel)
    zero = magnitude == 0
    zero_pixels = int(np.count_nonzero(zero))
    if zero_pixels:
        pixel[zero] = 1.0
        magnitude[zero] = 1.0
    # numpy divides a complex by a real as a product with its reciprocal, so
    # this gives the bits of pixel /= magnitude (up to the sign of a zero
    # real or imaginary part) at less cost
    np.reciprocal(magnitude, out=magnitude)
    pixel *= magnitude
    return pixel, zero_pixels


def build_dense(config: OpticalConfig, layout: TrapLayout) -> DensePropagator:
    """Dense oracle matrix; independent of the separable factorization.

    Entry (n, j) is scale_n * c_n * exp(-i * Delta_j^n) with the full
    2D exponent evaluated in one expression, pixels flattened row-major
    (j = jx * grid_y + jy).
    """
    n = len(layout)
    m = config.pixel_count
    if n * m > DENSE_ENTRY_LIMIT:
        raise ValueError(f"dense propagator refused: N*M = {n * m} > {DENSE_ENTRY_LIMIT}")
    z = layout.z
    if np.any(config.focal_length + z <= 0):
        raise ValueError("trap z must satisfy f + z > 0")
    lam = config.wavelength
    f = config.focal_length
    uu, vv = np.meshgrid(config.pixel_coords_x(), config.pixel_coords_y(), indexing="ij")
    uu = uu.ravel()
    vv = vv.ravel()
    delta = (np.pi / (lam * f * f)) * z[:, None] * (uu * uu + vv * vv)[None, :] + (
        TWO_PI / (lam * f)
    ) * (layout.x[:, None] * uu[None, :] + layout.y[:, None] * vv[None, :])
    axial = np.exp(1j * TWO_PI * (2.0 * f + z) / lam)
    scale = config.pixel_pitch**2 / (1j * lam * (f + z))
    matrix = (scale * axial)[:, None] * np.exp(-1j * delta)
    return DensePropagator(config=config, layout=layout, matrix=matrix)


def forward_dense(dense: DensePropagator, mask: PhaseMask) -> TrapField:
    """Oracle forward: E = A exp(i*phi), phases flattened row-major."""
    cfg = dense.config
    if mask.shape != (cfg.grid_x, cfg.grid_y):
        raise ValueError(f"mask shape {mask.shape} != grid ({cfg.grid_x}, {cfg.grid_y})")
    return TrapField(dense.matrix @ np.exp(1j * mask.phases.ravel()))

