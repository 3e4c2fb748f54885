"""Trap-field propagation between the SLM plane and trap positions.

Two routes compute the complex field at each trap from a pixelwise phase mask:

* a separable path that factors the Fresnel kernel into per-axis matrices
  ``kernel_x`` (U, R_x x grid_x, one row per distinct (x, z) pair of the N
  traps) and ``kernel_y`` (V, R_y x grid_y, one row per distinct (y, z)
  pair); ``x_rows`` and ``y_rows`` map trap n to its rows of U and V.  The
  forward contracts a pixel field F two-sided, ``E = scale * c *
  ((U @ F) @ V.T)[x_rows, y_rows]``, when R_x*R_y <= TWO_SIDED_RATIO * N (a
  lattice frame), and by row sums, ``rowsum((U @ F)[x_rows] * V[y_rows])``,
  otherwise (scattered traps, where R_x = R_y = N).  The back-propagation is
  always two-sided, through an R_x x R_y matrix of the trap sources;
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

from .geometry import OpticalConfig, TrapLayout, freeze_array

__all__ = [
    "PhaseMask",
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
# forward_field gathers and sums the contracted rows, and adjoint_phase
# normalizes the pixel phasor, this many complex entries at a time (128 KB):
# a grid-sized temporary is what a whole-array step would cost
ROW_BLOCK_ENTRIES = 8192
# forward_field contracts both axes by GEMM when R_x * R_y <= this * N, and
# by row sums otherwise.  Measured with one BLAS thread on the step after
# U @ F, the two routes break even near R_x*R_y/N = 16 at 256^2 and 1024^2:
# scattered traps (R_x = R_y = N) at N = 16 took 0.014 vs 0.016 ms (row sums
# vs two-sided) at 256^2 and 0.064 vs 0.073 ms at 1024^2, at N = 32 0.023 vs
# 0.037 ms and 0.122 vs 0.222 ms; traps sharing rows at a ratio of 15.5
# took 0.432 vs 0.400 ms at 1024^2, and a 32 x 32 lattice (ratio 1)
# 3.40 vs 0.26 ms
TWO_SIDED_RATIO = 16


def _mod_two_pi(x):
    """np.mod(x, 2*pi) in place on the float array x, bit for bit up to the sign of a zero.

    Inside [-2*pi, 4*pi) np.mod adds 2*pi to each negative value and takes
    2*pi from each value >= 2*pi, exactly (fmod is exact there); two masked
    steps do the same in about half np.mod's time.  np.mod also turns -0.0
    into +0.0, which this leaves to the caller.
    """
    if x.size and -TWO_PI <= x.min() and x.max() < 2.0 * TWO_PI:
        low = x < 0
        high = x >= TWO_PI
        np.add(x, TWO_PI, out=x, where=low)
        return np.subtract(x, TWO_PI, out=x, where=high)
    return np.mod(x, TWO_PI, out=x)


def wrap_phase(x, out=None):
    """Wrap angles into (-pi, pi]; ties at +-pi map to +pi.

    The bits are those of pi - np.mod(pi - x, 2*pi).  The result goes to
    out, a float array of x's shape (x itself allowed), or to a new array.
    """
    out = np.empty(np.shape(x)) if out is None else out
    np.subtract(np.pi, x, out=out)
    # pi - x is never -0.0, and pi - (+-0.0) is pi either way
    _mod_two_pi(out)
    return np.subtract(np.pi, out, out=out)


@dataclass(frozen=True, eq=False)
class PhaseMask:
    """Pixelwise SLM phases in radians, shape (grid_x, grid_y).

    Values are unconstrained for internal arithmetic; canonical() folds them
    into [0, 2*pi) for serialization and export.
    """

    phases: np.ndarray

    def __post_init__(self):
        arr = freeze_array(self, "phases")
        if arr.ndim != 2:
            raise ValueError("phase mask must be 2D")
        if not np.isfinite(arr).all():
            raise ValueError("phase mask entries must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.phases.shape

    def canonical(self) -> np.ndarray:
        """The phases folded into [0, 2*pi), bit for bit as np.mod(phases, 2*pi)."""
        return _mod_two_pi(self.phases + 0.0)  # a copy, and -0.0 + 0.0 is +0.0


@dataclass(frozen=True, eq=False)
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
    trap_scale stay per trap.  Trap n's kernel is the (x_rows[n], y_rows[n])
    entry of the pair grid kernel_x x kernel_y, which the two-sided
    contractions work on.
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

    @property
    def two_sided(self) -> bool:
        """Whether forward_field contracts both axes by GEMM: R_x*R_y <= TWO_SIDED_RATIO * N."""
        return len(self.kernel_x) * len(self.kernel_y) <= TWO_SIDED_RATIO * self.trap_count


@dataclass(frozen=True, eq=False)
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


def forward_field(prop: SeparablePropagator, pixel_field: np.ndarray) -> np.ndarray:
    """Propagate an arbitrary complex pixel field to the (N,) complex trap field."""
    cfg = prop.config
    if pixel_field.shape != (cfg.grid_x, cfg.grid_y):
        raise ValueError(
            f"pixel field shape {pixel_field.shape} != grid ({cfg.grid_x}, {cfg.grid_y})"
        )
    f = np.asarray(pixel_field, dtype=complex)
    contracted_x = prop.kernel_x @ f
    if prop.two_sided:
        # every (x row, y row) pair's sum, then the traps' pairs
        contracted = (contracted_x @ prop.kernel_y.T)[prop.x_rows, prop.y_rows]
    else:
        # a block of traps at a time; each trap's row sum is the same either way
        contracted = np.empty(prop.trap_count, dtype=complex)
        block = max(1, ROW_BLOCK_ENTRIES // cfg.grid_y)
        for start in range(0, prop.trap_count, block):
            stop = start + block
            rows = contracted_x[prop.x_rows[start:stop]]
            rows *= prop.kernel_y[prop.y_rows[start:stop]]
            rows.sum(axis=1, out=contracted[start:stop])
    return prop.trap_scale * prop.axial_phase * contracted


def forward(prop: SeparablePropagator, mask: PhaseMask) -> np.ndarray:
    """(N,) complex trap field produced by a phase mask through the separable kernel."""
    # exp(1j*phases) in one buffer, with the same bits
    pixel = np.empty(mask.shape, dtype=complex)
    pixel.imag = mask.phases
    pixel.real = 0.0
    return forward_field(prop, np.exp(pixel, out=pixel))


def _normalize_phasor(pixel: np.ndarray) -> int:
    """pixel / |pixel| in place on a C-contiguous complex array; returns the zero count.

    A pixel whose value is exactly zero gets the phasor 1 (phase 0).  The
    array is taken ROW_BLOCK_ENTRIES entries at a time, so |pixel| and its
    zero test never take a grid-sized temporary.  A block starts at a
    multiple of that count, so each element meets numpy's loops as it would
    in one whole-array call, with the same bits.
    """
    flat = pixel.reshape(-1)
    zero_pixels = 0
    for start in range(0, flat.size, ROW_BLOCK_ENTRIES):
        block = flat[start:start + ROW_BLOCK_ENTRIES]
        magnitude = np.abs(block)
        zero = magnitude == 0
        count = int(np.count_nonzero(zero))
        if count:
            block[zero] = 1.0
            magnitude[zero] = 1.0
            zero_pixels += count
        # numpy divides a complex by a real as a product with its reciprocal,
        # so this gives the bits of block /= magnitude (up to the sign of a
        # zero real or imaginary part) at less cost
        np.reciprocal(magnitude, out=magnitude)
        block *= magnitude
    return zero_pixels


def adjoint_phase(
    prop: SeparablePropagator, b: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Unit phasor of the back-propagated pixel field ``U[x_rows]^H diag(b) V[y_rows]^*``.

    Traps that share a (kernel_x row, kernel_y row) pair share a kernel, so
    b is summed into an R_x x R_y matrix B at (x_rows[n], y_rows[n]) (two
    coincident traps add), and the field is ``U^H (B V^*)``: no per-trap
    kernel row is formed.  Since R_y <= N, B V^* costs no more than one
    N-row product.

    Returns the (grid_x, grid_y) phasor ``pixel / |pixel|`` and the count of
    pixels whose back-propagated field is exactly zero; those pixels get the
    phasor 1 (phase 0).  The caller supplies the per-trap source vector b
    (the solver uses conj(c) * w * s * E_tar).  The phasor is written into
    out, a C-contiguous complex array of the grid's shape, which is returned;
    out None allocates it.  The bits are the same either way.
    """
    cfg = prop.config
    b = np.asarray(b, dtype=complex)
    if b.shape != (prop.trap_count,):
        raise ValueError(f"b must have length {prop.trap_count}")
    if out is not None and not (
        isinstance(out, np.ndarray) and out.shape == (cfg.grid_x, cfg.grid_y)
        and out.dtype == complex and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writeable C-contiguous complex ({cfg.grid_x}, {cfg.grid_y}) array"
        )
    pairs = np.zeros((len(prop.kernel_x), len(prop.kernel_y)), dtype=complex)
    np.add.at(pairs, (prop.x_rows, prop.y_rows), b)
    pixel = np.matmul(np.conj(prop.kernel_x).T, pairs @ np.conj(prop.kernel_y), out=out)
    return pixel, _normalize_phasor(pixel)


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


def forward_dense(dense: DensePropagator, mask: PhaseMask) -> np.ndarray:
    """Oracle forward: E = A exp(i*phi), phases flattened row-major."""
    cfg = dense.config
    if mask.shape != (cfg.grid_x, cfg.grid_y):
        raise ValueError(f"mask shape {mask.shape} != grid ({cfg.grid_x}, {cfg.grid_y})")
    return dense.matrix @ np.exp(1j * mask.phases.ravel())

