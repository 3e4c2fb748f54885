"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Desk scale means the 256x256 grid profile; sequence fixtures are
shared across criteria so the whole suite stays a few minutes.
"""

import time

import numpy as np
import pytest

from holoseq.geometry import (
    LatticeSpec,
    OpticalConfig,
    TrapLayout,
    minimal_3x3_task,
    offset_bilayer_task,
    reconfig_2d_task,
    reconfig_3d_task,
)
from holoseq.metrics import aggregate, transition_distribution, uniformity
from holoseq.planner import assign, brute_force_assign, plan_task
from holoseq.propagation import (
    PhaseMask,
    build_dense,
    build_separable,
    forward,
    forward_dense,
    forward_field,
    wrap_phase,
)
from holoseq.sequence import run_sequence
from holoseq.solvers import SolverSettings, objective, scale_update
from holoseq.transient import (
    RefreshModel,
    mean_sq_excursion,
    pixel_interpolate,
    transient_exact,
    transient_leading,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_layout(rng, n):
    xyz = [
        (rng.uniform(-40e-6, 40e-6), rng.uniform(-40e-6, 40e-6), rng.choice([-30e-6, 0.0, 30e-6]))
        for _ in range(n)
    ]
    return TrapLayout(tuple(f"a{i}" for i in range(n)), xyz)


@pytest.fixture(scope="module")
def settings():
    # matched convergence budgets: phase-constrained 5, baseline 26
    return SolverSettings(iterations=5, wgs_iterations=26, seed=0)


@pytest.fixture(scope="module")
def refresh():
    return RefreshModel(samples_per_refresh=21, order="leading")


@pytest.fixture(scope="module")
def runs_3x3(desk_config, settings, refresh):
    plan = plan_task(minimal_3x3_task())
    t0 = time.perf_counter()
    records = {
        kind: run_sequence(desk_config, plan, kind, settings, refresh)
        for kind in ("wpgs", "wgs")
    }
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs_2d(desk_config, settings, refresh):
    """(records, each run's I/I0 arrays as its sink got them, seconds taken)."""
    spec = reconfig_2d_task(source_dims=(10, 10), target_dims=(8, 8), filling=0.79, seed=7)
    plan = plan_task(spec)
    t0 = time.perf_counter()
    records, ratios = {}, {}
    for kind in ("wpgs", "wgs"):
        kept = ratios[kind] = []

        def sink(l, frame, interval, dphi):
            if l:
                kept.append(interval)

        records[kind] = run_sequence(desk_config, plan, kind, settings, refresh, sink=sink)
    return records, ratios, time.perf_counter() - t0


def test_criterion_1_propagation_oracle(desk_config):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        grid = int(rng.choice([32, 48, 64]))
        cfg = OpticalConfig(820e-9, 4e-3, grid, grid, 17e-6)
        layout = random_layout(rng, int(rng.integers(1, 17)))
        mask = PhaseMask(rng.uniform(0, 2 * np.pi, (grid, grid)))
        e_sep = forward(build_separable(cfg, layout), mask)
        e_dense = forward_dense(build_dense(cfg, layout), mask)
        worst = max(worst, np.abs(e_sep - e_dense).max() / np.abs(e_dense).max())
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"separable vs dense max rel err {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_transient_exactness_and_slope(small_config, grid_3x3):
    rng = np.random.default_rng(22)
    prop = build_separable(small_config, grid_3x3)
    dense = build_dense(small_config, grid_3x3)
    worst = worst_dense = 0.0
    for _ in range(20):
        m0 = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        m1 = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
        # whole-grid calls: the grid a run samples, and three samples (a = 1/2)
        for samples in (3, RefreshModel().samples_per_refresh):
            a_grid = RefreshModel(samples).a_grid()
            # from m0's phasor and the two endpoint fields, as a run passes them
            pixel = np.exp(1j * m0.phases)
            ends = forward_field(prop, pixel), forward(prop, m1)
            for a, e_exact in zip(a_grid, transient_exact(prop, m0, m1, *ends, samples, pixel)):
                relaxing = pixel_interpolate(m0, m1, float(a))
                e_ref = forward(prop, relaxing)
                worst = max(worst, np.abs(e_exact - e_ref).max() / np.abs(e_ref).max())
                # independent route: the dense matrix on the relaxing mask
                e_dense = forward_dense(dense, relaxing)
                rel = np.abs(e_exact - e_dense).max() / np.abs(e_dense).max()
                worst_dense = max(worst_dense, rel)

    m0 = PhaseMask(rng.uniform(0, 2 * np.pi, (64, 64)))
    pattern = rng.uniform(-1, 1, (64, 64))
    msqs, errs = [], []
    for s in np.geomspace(0.01, 0.3, 8):
        m1 = PhaseMask(m0.phases + s * pattern)
        e0, e1 = forward(prop, m0), forward(prop, m1)
        ex = transient_exact(prop, m0, m1, e0, e1, 3, np.exp(1j * m0.phases))[1]  # a = 1/2
        lead = transient_leading(e0, e1, np.array([0.5]))[0]
        msqs.append(mean_sq_excursion(m0, m1))
        errs.append(np.linalg.norm(ex - lead) / np.linalg.norm(ex))
    slope = float(np.polyfit(np.log(msqs), np.log(errs), 1)[0])
    report(
        2,
        worst <= 1e-12 and worst_dense <= 1e-10 and abs(slope - 1.0) <= 0.15,
        f"identity max rel err {worst:.2e} (tol 1e-12), dense relaxing mask max rel err "
        f"{worst_dense:.2e} (tol 1e-10), error slope {slope:.3f} (1.0 +- 0.15)",
    )


def test_criterion_3_scale_optimality():
    rng = np.random.default_rng(33)
    beaten = 0
    worst_identity = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 16))
        field = rng.normal(size=n) + 1j * rng.normal(size=n)
        inten, phase = rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n)
        e_tar = np.sqrt(inten) * np.exp(1j * phase)
        we = rng.uniform(0.5, 1.5, n) * field
        s = scale_update(e_tar, we)
        base = objective(we, s, e_tar)
        for _ in range(100):
            delta = (rng.normal() + 1j * rng.normal()) * 10.0 ** rng.uniform(-6, 0)
            if objective(we, s + delta, e_tar) < base - 1e-12:
                beaten += 1
                break
        p = np.outer(e_tar, np.conj(e_tar)) / np.vdot(e_tar, e_tar).real
        j_proj = float(np.linalg.norm(we - p @ we) ** 2)
        denom = max(base, j_proj, 1e-300)
        worst_identity = max(worst_identity, abs(base - j_proj) / denom)
    report(
        3,
        beaten == 0 and worst_identity <= 1e-10,
        f"{beaten}/50 instances beaten by perturbations; projective identity rel err "
        f"{worst_identity:.2e} (tol 1e-10)",
    )


def test_criterion_4_assignment_optimality(criterion_4_instances):
    mismatches = 0
    for src, tgt in criterion_4_instances:
        fast = assign(src, tgt)
        slow = brute_force_assign(src, tgt)
        # canonical per-pair cost sums: bitwise equal iff the matchings
        # carry the same cost multiset
        fast_total = float(np.sort(fast.distances**2).sum())
        slow_total = float(np.sort(slow.distances**2).sum())
        if fast_total != slow_total:
            mismatches += 1
    report(
        4,
        mismatches == 0,
        f"{mismatches}/{len(criterion_4_instances)} cost mismatches vs exhaustive oracle (exact)",
    )


def test_criterion_5_minimal_3x3(runs_3x3):
    records, elapsed = runs_3x3
    m_wpgs = records["wpgs"].metrics
    m_wgs = records["wgs"].metrics
    ok = (
        m_wpgs.dphi.std <= m_wgs.dphi.std / 3.0
        and m_wpgs.transition.minimum >= m_wgs.transition.minimum
        and m_wpgs.transition.minimum >= 0.85
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"dphi std {m_wpgs.dphi.std:.4f} vs WGS {m_wgs.dphi.std:.4f} "
        f"(need <= 1/3), I/I0 min {m_wpgs.transition.minimum:.3f} vs WGS "
        f"{m_wgs.transition.minimum:.3f} (need >= and >= 0.85), {elapsed:.0f}s (< 300 s)",
    )


def test_criterion_6_scaled_2d(runs_2d):
    records, ratios, elapsed = runs_2d
    m_wpgs = records["wpgs"].metrics
    m_wgs = records["wgs"].metrics
    nu_min = min(m_wpgs.frame_uniformity)
    ratio = m_wgs.dphi.std / m_wpgs.dphi.std
    wgs_ratios = np.concatenate([r.ravel() for r in ratios["wgs"]])
    below = float(np.mean(wgs_ratios < m_wpgs.transition.minimum))
    ok = (
        nu_min >= 0.98
        and m_wpgs.dphi.std <= 0.1
        and ratio >= 3.0
        and m_wpgs.transition.minimum >= 0.8
        and (wgs_ratios < m_wpgs.transition.minimum).any()
        and elapsed < 1800.0
    )
    report(
        6,
        ok,
        f"nu_min {nu_min:.4f} (>= 0.98), dphi std {m_wpgs.dphi.std:.4f} (<= 0.1), "
        f"WGS/WPGS ratio {ratio:.2f} (>= 3), I/I0 min {m_wpgs.transition.minimum:.3f} "
        f"(>= 0.8), {below * 100:.2f}% of WGS samples below it, {elapsed:.0f}s (< 1800 s)",
    )


def test_criterion_7_layers_and_bilayer(desk_config, settings, refresh):
    spec3 = reconfig_3d_task(
        source_layers=(
            LatticeSpec(dims=(7, 7), spacing=6e-6, z=-30e-6, filling=0.94),
            LatticeSpec(dims=(7, 7), spacing=5e-6, z=0.0, filling=0.89),
            LatticeSpec(dims=(8, 8), spacing=4e-6, z=30e-6, filling=0.84),
        ),
        target_dims=(6, 6),
        target_spacing=5e-6,
        seed=3,
    )
    rec3 = run_sequence(desk_config, plan_task(spec3), "wpgs", settings, refresh)
    stds = [rep.dphi.std for rep in rec3.metrics.layer_reports.values()]
    layer_ok = max(stds) <= 3.0 * min(stds)

    specb = offset_bilayer_task(dims=(6, 6), seed=1)
    planb = plan_task(specb)
    frames = []
    run_sequence(desk_config, planb, "wpgs", settings, refresh,
                 sink=lambda l, frame, ratios, dphi: frames.append(frame))
    final = frames[-1]
    r = np.abs(final.field) / np.sqrt(planb.target_intensity)
    spread = float((r.max() - r.min()) / r.mean())
    report(
        7,
        layer_ok and spread <= 0.05,
        f"layer dphi stds {[f'{s:.4f}' for s in stds]} (within 3x), "
        f"bilayer |E|/|E_tar| spread {spread * 100:.2f}% (<= 5%)",
    )


def test_criterion_8_timing(runs_2d, settings):
    records, _, _ = runs_2d
    t_wpgs = records["wpgs"].solve_times[3:].mean()
    t_wgs = records["wgs"].solve_times[3:].mean()
    ratio = t_wpgs / t_wgs
    report(
        8,
        ratio <= 0.5,
        f"mean frame time {t_wpgs * 1e3:.2f} ms (K={settings.iterations}) vs "
        f"{t_wgs * 1e3:.2f} ms (K={settings.wgs_iterations}); ratio {ratio:.3f} (<= 0.5)",
    )


def test_criterion_9_metric_units():
    checks = [
        uniformity([1.0, 1.0, 1.0]) == 1.0,
        uniformity([1.0, 3.0]) == 0.5,
        uniformity([0.0, 1.0]) == 0.0,
        wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2),
        wrap_phase(np.pi) == np.pi,
        wrap_phase(-np.pi) == np.pi,
    ]
    rng = np.random.default_rng(99)
    agg = aggregate([rng.uniform(-np.pi, np.pi, 5000)])
    checks.append(abs(agg.histogram.percent.sum() - 100.0) <= 1e-9)
    trans = transition_distribution([np.array([0.5, 0.9, 1.0, 1.0])])
    checks.append(trans.fraction_below[0.86] == 0.25)
    checks.append(trans.fraction_below[0.91] == 0.5)
    checks.append(abs(trans.histogram.percent.sum() - 100.0) <= 1e-9)
    report(9, all(checks), f"{sum(checks)}/{len(checks)} exact metric checks")
