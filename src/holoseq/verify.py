"""Built-in oracle suites behind the `verify` subcommand.

Each suite re-derives a core identity against an independent route: the
separable propagator's forward and back-propagation against the dense matrix
(random layouts, whose scattered traps of up to 40 give the largest pair
grids, R_x = R_y = N, plus lattice layouts whose traps share kernel_x rows),
the exact transient against the dense propagation of the relaxing mask, the
closed-form scale against random perturbations, and the assignment solver
against exhaustive search.

The propagation and transient suites both report a maximum deviation of
about 9.84e-12 to 9.9e-12 at any seed and grid.  That is a floor set by the
axial phase, not contraction error: build_separable and build_dense evaluate
exp(i*2*pi*(2f + z)/lambda), an argument near 6e4 rad whose rounding is
about 1e-11 rad, in two different orders (-pi/2 in the exponent against a
1/i factor).  Both suites keep a 10x margin to their 1e-10 tolerance.
"""

from __future__ import annotations

import sys

import numpy as np
import numpy.random

__all__ = ["run_verification"]


def _random_layout(rng, n, z_choices=(-30e-6, 0.0, 30e-6)):
    from .geometry import TrapLayout

    xyz = [
        (rng.uniform(-40e-6, 40e-6), rng.uniform(-40e-6, 40e-6), rng.choice(z_choices))
        for _ in range(n)
    ]
    return TrapLayout(tuple(f"v{i}" for i in range(n)), xyz)


def _lattice_layouts():
    """Layouts whose traps share kernel_x rows, which uniform random x never gives.

    The same lattice on two z layers (equal x, different rows), and a
    mid-transport frame of a small 2D plan (many traps per row).
    """
    from .geometry import build_lattice, concat_layouts, reconfig_2d_task
    from .planner import plan_task

    layers = concat_layouts([
        build_lattice((3, 4), 5e-6, z=z, id_prefix=f"z{k}_")
        for k, z in enumerate((-30e-6, 30e-6))
    ])
    plan = plan_task(reconfig_2d_task((5, 5), (4, 4), seed=1), max_step=0.5e-6)
    return [layers, plan.layout(plan.frames // 2)]


def _dense_deviation(cfg, layout, rng) -> float:
    """Relative deviation of forward and adjoint_phase from the dense matrix.

    The dense adjoint is ``conj(A).T @ b`` with b divided by the conjugate
    per-trap prefactor, which leaves ``U^H diag(b) V^*``; adjoint_phase's
    unit phasor is scaled back by that field's magnitude to compare.
    """
    from .propagation import (
        PhaseMask,
        adjoint_phase,
        build_dense,
        build_separable,
        forward,
        forward_dense,
    )

    prop = build_separable(cfg, layout)
    dense = build_dense(cfg, layout)
    mask = PhaseMask(rng.uniform(0, 2 * np.pi, (cfg.grid_x, cfg.grid_y)))
    e_sep = forward(prop, mask)
    e_den = forward_dense(dense, mask)
    fwd = np.max(np.abs(e_sep - e_den)) / np.max(np.abs(e_den))
    b = np.exp(1j * rng.uniform(-np.pi, np.pi, len(layout)))
    raw = np.conj(dense.matrix).T @ (b / np.conj(prop.trap_scale * prop.axial_phase))
    raw = raw.reshape(cfg.grid_x, cfg.grid_y)
    pixel, _ = adjoint_phase(prop, b)
    adj = np.max(np.abs(pixel * np.abs(raw) - raw)) / np.max(np.abs(raw))
    return max(fwd, adj)


def _check_propagation(rng, cases) -> tuple[bool, str]:
    from .geometry import OpticalConfig

    def random_grid():
        grid = int(rng.choice([16, 32, 64]))
        return OpticalConfig(820e-9, 4e-3, grid, grid, 17e-6)

    # scattered traps, 1 to 16 and then 17 to 40 (pair grids of up to 1600
    # entries), and the lattices, whose traps share rows
    layouts = [_random_layout(rng, int(rng.integers(1, 17))) for _ in range(cases)]
    layouts += [_random_layout(rng, int(rng.integers(17, 41))) for _ in range(cases // 5 + 1)]
    lattices = _lattice_layouts()
    worst = max(_dense_deviation(random_grid(), layout, rng) for layout in layouts + lattices)
    return worst <= 1e-10, (
        f"max relative deviation {worst:.3e} (tol 1e-10), forward and adjoint, "
        f"{len(layouts)} scattered and {len(lattices)} lattice layouts"
    )


def _check_transient(rng, cases) -> tuple[bool, str]:
    from .geometry import OpticalConfig
    from .propagation import (
        PhaseMask,
        build_dense,
        build_separable,
        forward,
        forward_dense,
        forward_field,
    )
    from .transient import RefreshModel, pixel_interpolate, transient_exact

    cfg = OpticalConfig(820e-9, 4e-3, 32, 32, 17e-6)
    worst = 0.0
    for _ in range(cases):
        layout = _random_layout(rng, int(rng.integers(1, 10)))
        prop = build_separable(cfg, layout)
        dense = build_dense(cfg, layout)
        start = np.exp(1j * rng.uniform(0, 2 * np.pi, (32, 32)))
        m1 = PhaseMask(rng.uniform(0, 2 * np.pi, (32, 32)))
        m0 = PhaseMask(np.angle(start))  # the start phases the transient reads
        # whole-grid calls as runs make them, from the start phasor and the two
        # endpoint fields; 3 samples put one at a = 1/2
        for samples in (3, 21):
            a_grid = RefreshModel(samples).a_grid()
            pixel = start.copy()
            ends = forward_field(prop, pixel), forward(prop, m1)
            for a, field in zip(a_grid, transient_exact(prop, pixel, m1, *ends, samples)):
                e_dense = forward_dense(dense, pixel_interpolate(m0, m1, float(a)))
                rel = np.max(np.abs(field - e_dense)) / np.max(np.abs(e_dense))
                worst = max(worst, rel)
    return worst <= 1e-10, f"max relative deviation {worst:.3e} (tol 1e-10)"


def _check_scale(rng, cases) -> tuple[bool, str]:
    from .solvers import objective, scale_update

    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        field = rng.normal(size=n) + 1j * rng.normal(size=n)
        inten, phase = rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n)
        e_tar = np.sqrt(inten) * np.exp(1j * phase)
        weighted = rng.uniform(0.5, 1.5, n) * field
        s = scale_update(e_tar, weighted)
        base = objective(weighted, s, e_tar)
        for _ in range(100):
            delta = 0.1 * (rng.normal() + 1j * rng.normal())
            if objective(weighted, s + delta, e_tar) < base - 1e-12:
                failures += 1
                break
    return failures == 0, f"{failures} instances beaten by a perturbation"


def _check_assignment(rng, cases) -> tuple[bool, str]:
    from .planner import assign, brute_force_assign

    mismatches = 0
    for _ in range(cases):
        n_tgt = int(rng.integers(1, 8))
        n_src = n_tgt + int(rng.integers(0, 3))
        src = _random_layout(rng, n_src, z_choices=(0.0,))
        tgt = _random_layout(rng, n_tgt, z_choices=(0.0,))
        fast = assign(src, tgt)
        slow = brute_force_assign(src, tgt)
        if abs(fast.total_cost - slow.total_cost) > 1e-12 * (1 + slow.total_cost):
            mismatches += 1
    return mismatches == 0, f"{mismatches} cost mismatches vs exhaustive search"


def run_verification(quick: bool = False, out=sys.stdout) -> bool:
    rng = np.random.default_rng(20260810)
    suites = [
        ("separable vs dense propagation", _check_propagation, 5 if quick else 20),
        ("exact transient vs dense relaxing mask", _check_transient, 3 if quick else 10),
        ("closed-form scale optimality", _check_scale, 10 if quick else 50),
        ("assignment vs exhaustive oracle", _check_assignment, 30 if quick else 200),
    ]
    all_ok = True
    for name, fn, cases in suites:
        ok, detail = fn(rng, cases)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({cases} cases): {detail}", file=out)
    return all_ok
