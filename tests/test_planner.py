import itertools

import numpy as np
import pytest

from holoseq.geometry import (
    LatticeSpec,
    TrapLayout,
    TrapSite,
    custom_task,
    minimal_3x3_task,
    offset_bilayer_task,
    reconfig_3d_task,
)
from holoseq.planner import (
    InfeasibleAssignmentError,
    assign,
    brute_force_assign,
    discretize,
    plan_task,
)


def layout_from_x(xs, prefix="s"):
    return TrapLayout(tuple(TrapSite(f"{prefix}{i}", float(x), 0.0, 0.0) for i, x in enumerate(xs)))


def random_layout(rng, n, prefix):
    return TrapLayout(
        tuple(
            TrapSite(f"{prefix}{i}", float(rng.uniform(0, 50e-6)), float(rng.uniform(0, 50e-6)), 0.0)
            for i in range(n)
        )
    )


class TestAssign:
    def test_single_pair(self):
        src = layout_from_x([1e-6])
        tgt = layout_from_x([2e-6], prefix="t")
        a = assign(src, tgt)
        assert len(a.pairs) == 1
        assert a.pairs[0][0].id == "s0" and a.pairs[0][1].id == "t0"
        assert a.distances[0] == pytest.approx(1e-6)
        assert a.total_cost == pytest.approx(1e-12)  # squared-cost units

    def test_line_example_matches_brute_force(self):
        src = layout_from_x([0.0, 1.0, 2.0])
        tgt = layout_from_x([0.4, 1.4], prefix="t")
        fast = assign(src, tgt)
        slow = brute_force_assign(src, tgt)
        assert fast.total_cost == slow.total_cost
        # optimal matching: s0->t0 (0.4), s1->t1 (0.4); s2 unmatched
        assert [(s.id, t.id) for s, t in fast.pairs] == [("s0", "t0"), ("s1", "t1")]
        assert [u.id for u in fast.unmatched_sources] == ["s2"]

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(40):
            n_tgt = int(rng.integers(1, 8))
            n_src = n_tgt + int(rng.integers(0, 3))
            src = random_layout(rng, n_src, "s")
            tgt = random_layout(rng, n_tgt, "t")
            fast = assign(src, tgt)
            slow = brute_force_assign(src, tgt)
            assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleAssignmentError):
            assign(layout_from_x([0.0]), layout_from_x([1.0, 2.0], prefix="t"))

    def test_tie_break_deterministic_and_lexicographic(self):
        # two sources equidistant from two targets: every matching costs the
        # same; the canonical answer pairs s0 with t0
        src = TrapLayout((TrapSite("s0", 0, 1e-6, 0), TrapSite("s1", 0, -1e-6, 0)))
        tgt = TrapLayout((TrapSite("t0", 1e-6, 0, 0), TrapSite("t1", -1e-6, 0, 0)))
        a1 = assign(src, tgt)
        a2 = assign(src, tgt)
        assert [(s.id, t.id) for s, t in a1.pairs] == [("s0", "t0"), ("s1", "t1")]
        assert [(s.id, t.id) for s, t in a1.pairs] == [(s.id, t.id) for s, t in a2.pairs]

    def test_solver_tie_break_still_optimal(self, rng):
        src = random_layout(rng, 9, "s")
        tgt = random_layout(rng, 7, "t")
        a = assign(src, tgt, tie_break="solver")
        b = brute_force_assign(src, tgt)
        assert a.total_cost == pytest.approx(b.total_cost, rel=1e-12)

    def test_squared_cost_option(self):
        # squared cost prefers balancing long moves: classic 3-point example
        src = layout_from_x([0.0, 10.0])
        tgt = layout_from_x([4.0, 14.0], prefix="t")
        for cost in ("euclidean", "squared"):
            a = assign(layout_from_x([0.0, 10.0]), tgt, cost=cost)
            assert [(s.id, t.id) for s, t in a.pairs] == [("s0", "t0"), ("s1", "t1")]
        with pytest.raises(ValueError):
            assign(src, tgt, cost="manhattan")


class TestBruteForce:
    def test_guard(self, rng):
        src = random_layout(rng, 9, "s")
        tgt = random_layout(rng, 9, "t")
        with pytest.raises(ValueError, match="limited"):
            brute_force_assign(src, tgt)

    def test_matches_permutation_enumeration(self, rng):
        # reference: the minimum over every injection, enumerated directly
        for _ in range(30):
            n_tgt = int(rng.integers(1, 6))
            n_src = n_tgt + int(rng.integers(0, 3))
            src = random_layout(rng, n_src, "s")
            tgt = random_layout(rng, n_tgt, "t")
            d = np.linalg.norm(tgt.positions()[None] - src.positions()[:, None], axis=2)
            best = min(
                itertools.permutations(range(n_src), n_tgt),
                key=lambda perm: (d * d)[list(perm), range(n_tgt)].sum(),
            )
            a = brute_force_assign(src, tgt)
            assert [(s.id, t.id) for s, t in a.pairs] == [
                (src.sites[s].id, tgt.sites[t].id) for t, s in enumerate(best)
            ]

    def test_single_pair(self):
        a = brute_force_assign(
            layout_from_x([0.0]), layout_from_x([3.0], prefix="t"), cost="euclidean"
        )
        assert a.total_cost == pytest.approx(3.0)
        sq = brute_force_assign(layout_from_x([0.0]), layout_from_x([3.0], prefix="t"))
        assert sq.total_cost == pytest.approx(9.0)


class TestDiscretize:
    def test_static_plan(self):
        src = layout_from_x([1e-6, 2e-6])
        a = assign(src, layout_from_x([1e-6, 2e-6], prefix="t"))
        plan = discretize(a, 0.1e-6)
        assert plan.frames == 0
        assert plan.waypoints.shape == (2, 1, 3)

    def test_ten_uniform_steps(self):
        src = layout_from_x([0.0])
        tgt = layout_from_x([2.0e-6], prefix="t")
        plan = discretize(assign(src, tgt), 0.2e-6)
        assert plan.frames == 10
        steps = np.diff(plan.waypoints[0, :, 0])
        np.testing.assert_allclose(steps, 0.2e-6, rtol=1e-9)
        assert plan.waypoints[0, -1, 0] == 2.0e-6

    def test_short_segment_scales_down(self):
        src = layout_from_x([0.0, 10e-6])
        tgt = layout_from_x([1.0e-6, 10.35e-6], prefix="t")
        plan = discretize(assign(src, tgt), 0.1e-6)
        assert plan.frames == 10
        second = np.diff(plan.waypoints[1, :, 0])
        np.testing.assert_allclose(second, 0.035e-6, atol=1e-15)

    def test_step_bound_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            src = random_layout(rng, n + 1, "s")
            tgt = random_layout(rng, n, "t")
            plan = discretize(assign(src, tgt), 0.1e-6)
            steps = np.linalg.norm(np.diff(plan.waypoints, axis=1), axis=2)
            assert steps.max(initial=0.0) <= 0.1e-6 + 1e-12
            np.testing.assert_array_equal(
                plan.waypoints[:, -1, :],
                np.array([[t.x, t.y, t.z] for _, t in assign(src, tgt).pairs]),
            )


class TestPlanTask:
    def test_minimal_3x3_plan(self):
        plan = plan_task(minimal_3x3_task())
        assert plan.frames == 10
        assert plan.trap_count == 9
        moved = np.linalg.norm(plan.waypoints[:, -1, :] - plan.waypoints[:, 0, :], axis=1)
        assert (moved[moved > 0] == pytest.approx(2e-6, rel=1e-12)) and (moved > 0).sum() == 3
        mean_d, max_d = plan.displacement_stats()
        assert max_d == pytest.approx(2e-6, rel=1e-12)

    def test_three_layer_shared_frames(self):
        spec = reconfig_3d_task(
            source_layers=(
                LatticeSpec(dims=(4, 4), spacing=6e-6, z=-30e-6, filling=1.0),
                LatticeSpec(dims=(4, 4), spacing=5e-6, z=0.0, filling=1.0),
                LatticeSpec(dims=(4, 4), spacing=4e-6, z=30e-6, filling=1.0),
            ),
            target_dims=(3, 3),
        )
        plan = plan_task(spec, max_step=0.1e-6)
        assert plan.trap_count == 27
        assert set(plan.target_z.tolist()) == {-30e-6, 0.0, 30e-6}
        # every trap stays in its layer and shares the global frame count
        np.testing.assert_array_equal(plan.waypoints[:, 0, 2], plan.waypoints[:, -1, 2])
        steps = np.linalg.norm(np.diff(plan.waypoints, axis=1), axis=2)
        assert steps.max() <= 0.1e-6 + 1e-12

    def test_bilayer_crossing_forced(self):
        spec = offset_bilayer_task(dims=(4, 4), fillings=(1.0, 0.5), seed=2)
        plan = plan_task(spec, max_step=0.5e-6)
        z0 = plan.waypoints[:, 0, 2]
        z1 = plan.waypoints[:, -1, 2]
        crossings = (np.sign(z0) != np.sign(z1)).sum()
        assert crossings > 0  # count imbalance forces interlayer moves

    def test_forced_antiparallel_swap(self):
        # two stacked traps swap layers when in-plane alternatives are longer
        z = 10e-6
        spec = custom_task(
            source_points=[(0, 0, -z), (50e-6, 0, +z)],
            target_points=[(50e-6, 0, -z), (0, 0, +z)],
        )
        plan = plan_task(spec, max_step=1e-6)
        d = plan.waypoints[:, -1, :] - plan.waypoints[:, 0, :]
        np.testing.assert_allclose(d[0], -d[1], atol=1e-18)
        np.testing.assert_allclose(np.abs(d[:, 2]), 2 * z, atol=1e-18)
        np.testing.assert_allclose(d[:, :2], 0.0, atol=1e-18)

    def test_determinism(self):
        spec = offset_bilayer_task(dims=(4, 4), seed=5)
        p1 = plan_task(spec)
        p2 = plan_task(spec)
        np.testing.assert_array_equal(p1.waypoints, p2.waypoints)
        assert p1.trap_ids == p2.trap_ids

    def test_layout_frame_access(self):
        plan = plan_task(minimal_3x3_task())
        lay0 = plan.layout(0)
        layL = plan.layout(plan.frames)
        assert lay0.count == layL.count == 9
        np.testing.assert_array_equal(layL.positions(), plan.waypoints[:, -1, :])
