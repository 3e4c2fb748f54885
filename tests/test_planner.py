import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from holoseq import planner
from holoseq.config import config_from_dict
from holoseq.geometry import (
    LatticeSpec,
    TrapLayout,
    custom_task,
    instantiate_task,
    minimal_3x3_task,
    offset_bilayer_task,
    reconfig_2d_task,
    reconfig_3d_task,
)
from holoseq.planner import (
    _TIE_RTOL,
    InfeasibleAssignmentError,
    TransportPlan,
    _cost_matrix,
    _lex_matching,
    assign,
    brute_force_assign,
    discretize,
    plan_task,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def layout_from_x(xs, prefix="s"):
    return TrapLayout(tuple(f"{prefix}{i}" for i in range(len(xs))), [(x, 0.0, 0.0) for x in xs])


def random_layout(rng, n, prefix):
    xyz = [(rng.uniform(0, 50e-6), rng.uniform(0, 50e-6), 0.0) for _ in range(n)]
    return TrapLayout(tuple(f"{prefix}{i}" for i in range(n)), xyz)


class TestAssign:
    def test_single_pair(self):
        src = layout_from_x([1e-6])
        tgt = layout_from_x([2e-6], prefix="t")
        a = assign(src, tgt)
        assert len(a.targets) == 1
        assert a.sources.ids[0] == "s0" and a.targets.ids[0] == "t0"
        assert a.distances[0] == pytest.approx(1e-6)
        assert a.total_cost == pytest.approx(1e-12)  # squared-cost units

    def test_line_example_matches_brute_force(self):
        src = layout_from_x([0.0, 1.0, 2.0])
        tgt = layout_from_x([0.4, 1.4], prefix="t")
        fast = assign(src, tgt)
        slow = brute_force_assign(src, tgt)
        assert fast.total_cost == slow.total_cost
        # optimal matching: s0->t0 (0.4), s1->t1 (0.4); s2 unmatched
        assert list(zip(fast.sources.ids, fast.targets.ids)) == [("s0", "t0"), ("s1", "t1")]
        assert sorted(set(src.ids) - set(fast.sources.ids)) == ["s2"]

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
        src = TrapLayout(("s0", "s1"), [(0, 1e-6, 0), (0, -1e-6, 0)])
        tgt = TrapLayout(("t0", "t1"), [(1e-6, 0, 0), (-1e-6, 0, 0)])
        a1 = assign(src, tgt)
        a2 = assign(src, tgt)
        assert list(zip(a1.sources.ids, a1.targets.ids)) == [("s0", "t0"), ("s1", "t1")]
        assert (a1.sources.ids, a1.targets.ids) == (a2.sources.ids, a2.targets.ids)

    def test_squared_cost_option(self):
        # squared cost prefers balancing long moves: classic 3-point example
        src = layout_from_x([0.0, 10.0])
        tgt = layout_from_x([4.0, 14.0], prefix="t")
        for cost in ("euclidean", "squared"):
            a = assign(layout_from_x([0.0, 10.0]), tgt, cost=cost)
            assert list(zip(a.sources.ids, a.targets.ids)) == [("s0", "t0"), ("s1", "t1")]
        with pytest.raises(ValueError):
            assign(src, tgt, cost="manhattan")


# Reference for the lexicographic tie-break: the planner's former matcher,
# which re-solves a sub-assignment for every candidate pair.  The dual-based
# _lex_matching must return exactly its pairs.
def _lsa_total(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _lex_refine(cost: np.ndarray, base_total: float) -> dict[int, int]:
    """Lexicographically canonical minimum-cost matching.

    Sources are visited in index order; each takes the lowest-index remaining
    target that still admits a completion of total cost base_total (within a
    relative tie tolerance).  O(S*T) assignment re-solves worst case, intended
    for desk-scale instances.
    """
    n_src, n_tgt = cost.shape
    # relative tie tolerance: costs carry physical units (meters), so an
    # absolute term would swamp genuine optimality gaps
    tol = _TIE_RTOL * abs(base_total)
    remaining = list(range(n_tgt))
    matching: dict[int, int] = {}
    budget = base_total
    for s in range(n_src):
        if not remaining:
            break
        rest_sources = np.arange(s + 1, n_src)
        chosen = None
        for t in remaining:
            others = [u for u in remaining if u != t]
            if len(others) > rest_sources.size:
                continue
            sub_total = _lsa_total(cost[np.ix_(rest_sources, others)]) if others else 0.0
            if cost[s, t] + sub_total <= budget + tol:
                chosen = t
                break
        if chosen is None:
            # source s is skipped in every co-optimal matching from here on
            continue
        matching[s] = chosen
        budget -= cost[s, chosen]
        remaining.remove(chosen)
    return matching


def oracle_pairs(src, tgt, cost):
    """(source id, target id) pairs of the reference matcher, by target index."""
    c = _cost_matrix(src, tgt, cost)
    matching = _lex_refine(c, _lsa_total(c))
    by_target = sorted(matching.items(), key=lambda st: st[1])
    return [(src.ids[s], tgt.ids[t]) for s, t in by_target]


def _workload_task(name):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return config_from_dict({"task": module.WORKLOADS[name].config["task"]}).task


_TASKS = {
    "acceptance-2d": lambda: reconfig_2d_task(
        source_dims=(10, 10), target_dims=(8, 8), filling=0.79, seed=7
    ),
    "acceptance-3d-layers": lambda: reconfig_3d_task(
        source_layers=(
            LatticeSpec(dims=(7, 7), spacing=6e-6, z=-30e-6, filling=0.94),
            LatticeSpec(dims=(7, 7), spacing=5e-6, z=0.0, filling=0.89),
            LatticeSpec(dims=(8, 8), spacing=4e-6, z=30e-6, filling=0.84),
        ),
        target_dims=(6, 6),
        target_spacing=5e-6,
        seed=3,
    ),
    "bilayer-6x6": lambda: offset_bilayer_task(dims=(6, 6), seed=1),
    "perfbench-desk-2d": lambda: _workload_task("desk-2d"),
    "perfbench-desk-3d-exact": lambda: _workload_task("desk-3d-exact"),
    "perfbench-plan-144": lambda: _workload_task("plan-144"),
}


class TestLexMatching:
    """The one-solve tie-break returns the reference matcher's pairs exactly."""

    @pytest.mark.parametrize("cost", ["squared", "euclidean"])
    @pytest.mark.parametrize("task", list(_TASKS))
    def test_task_pairs(self, task, cost, monkeypatch):
        # every assign call plan_task makes (one per layer for lattice tasks)
        calls = []

        def spy(sources, targets, cost):
            result = assign(sources, targets, cost=cost)
            calls.append((sources, targets, result))
            return result

        monkeypatch.setattr(planner, "assign", spy)
        plan_task(_TASKS[task](), cost=cost)
        assert calls
        for sources, targets, result in calls:
            got = list(zip(result.sources.ids, result.targets.ids))
            assert got == oracle_pairs(sources, targets, cost)

    def test_criterion_4_instances(self, criterion_4_instances):
        for cost, src, tgt in criterion_4_instances:
            a = assign(src, tgt, cost=cost)
            got = list(zip(a.sources.ids, a.targets.ids))
            assert got == oracle_pairs(src, tgt, cost)

    def test_integer_costs_full_of_ties(self, rng):
        # small integer costs make many exactly co-optimal matchings; surplus
        # sources (S > T) make the unmatched choice part of the tie-break
        cases = [np.full((n_tgt + extra, n_tgt), 3.0) for n_tgt in (1, 4, 6) for extra in (0, 2)]
        for _ in range(400):
            n_tgt = int(rng.integers(1, 8))
            n_src = n_tgt + int(rng.integers(0, 4))
            cases.append(rng.integers(0, int(rng.integers(1, 4)), (n_src, n_tgt)).astype(float))
        for c in cases:
            assert _lex_matching(c) == _lex_refine(c, _lsa_total(c)), c


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
            assert list(zip(a.sources.ids, a.targets.ids)) == [
                (src.ids[s], tgt.ids[t]) for t, s in enumerate(best)
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
                assign(src, tgt).targets.xyz,
            )


class TestTransportPlan:
    def fields(self, **changes):
        wp = np.zeros((1, 2, 3))
        wp[0, 1, 0] = 1e-6
        fields = dict(frames=1, waypoints=wp, trap_ids=("t0",), source_ids=("s0",),
                      max_step=1e-6, target_intensity=np.ones(1))
        fields.update(changes)
        return fields

    def test_numpy_scalars_become_python_numbers(self):
        # plan.json spells max_step by repr, which is plain only on a float
        plan = TransportPlan(**self.fields(frames=np.int64(1), max_step=np.float64(1e-6)))
        assert type(plan.frames) is int and type(plan.max_step) is float

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(waypoints=np.full((1, 2, 3), np.nan)), "waypoints must be finite"),
            (dict(waypoints=np.full((1, 2, 3), np.inf)), "waypoints must be finite"),
            (dict(max_step=float("nan")), "max_step"),
            (dict(max_step=float("inf")), "max_step"),
            (dict(max_step=0.0), "max_step"),
            (dict(target_intensity=np.array([-1.0])), "target_intensity"),
            (dict(target_intensity=np.array([0.0])), "target_intensity"),
            (dict(target_intensity=np.array([np.nan])), "target_intensity"),
            (dict(trap_ids=("t0", "t1")), "trap_ids has 2 entries for 1 traps"),
            (dict(source_ids=()), "source_ids has 0 entries for 1 traps"),
            (dict(frames=-1, waypoints=np.zeros((1, 0, 3))), "frames"),
        ],
    )
    def test_bad_input_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TransportPlan(**self.fields(**changes))


class TestPlanTask:
    def test_minimal_3x3_plan(self):
        plan = plan_task(minimal_3x3_task())
        assert plan.frames == 10
        assert plan.trap_count == 9
        moved = np.linalg.norm(plan.waypoints[:, -1, :] - plan.waypoints[:, 0, :], axis=1)
        assert (moved[moved > 0] == pytest.approx(2e-6, rel=1e-12)) and (moved > 0).sum() == 3
        mean_d, max_d = plan.displacement_stats()
        assert max_d == pytest.approx(2e-6, rel=1e-12)

    def test_step_longer_than_every_move(self):
        # one step covers every move: the plan takes that one step and ends
        # on the targets instead of staying on the sources
        spec = reconfig_2d_task((10, 10), (8, 8), seed=7)
        plan = plan_task(spec, max_step=1e4)
        assert plan.frames == 1
        _, target, _ = planner.instantiate_task(spec)
        by_id = dict(zip(target.ids, target.xyz))
        np.testing.assert_array_equal(
            plan.waypoints[:, -1, :], [by_id[tid] for tid in plan.trap_ids]
        )
        assert plan.displacement_stats()[1] > 0

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
        assert len(lay0) == len(layL) == 9
        np.testing.assert_array_equal(layL.positions(), plan.waypoints[:, -1, :])


def _digest(ids, *arrays):
    h = hashlib.sha256("\n".join(ids).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# (task, max_step) -> source, target and plan counts, then sha256 of
# the source ids + coordinates, the target ids + coordinates + intensities,
# and the plan's trap_ids + source_ids + waypoints + target_intensity.
# plan.json and the CSVs carry these ids, so they must not drift.
_PINNED = {
    "minimal-3x3": (
        lambda: minimal_3x3_task(), None, (9, 9, 10),
        "460e9403ff66f3cbe839ee6fff30c82d4b5b94b7dab134d4c7ffce7b817076a0",
        "7a201d98cad6e1bb8a82ba348345d1f447f2d3206638e43d28f5836ca3668a84",
        "71211a74c3a668ea57e7959c6531dda933e612521d2894d9e2ab551ad6644b6f",
    ),
    "acceptance-2d": (
        _TASKS["acceptance-2d"], 0.5e-6, (78, 64, 15),
        "83e9d664d0fd1cfc2714043026c9abbd1c341b0449f8279e594e2fb0a20fa1dd",
        "7a0433a4c22ca3a147da941853aad5eafd010764ad5b127668cd36add0711b78",
        "a04c3938cad77385c218ea325b070c06d0cbc5501b5f3b4bc5c0a110c3e41db8",
    ),
    "desk-3-layer": (
        _TASKS["acceptance-3d-layers"], 0.8e-6, (147, 108, 9),
        "9234924b5b81da567dc687acffc3edacd82f47faa0eb2ae756b848f49c68b4e6",
        "e3c2d2479cf0403610331daa4b7abacba66e83d98367ed9a33a537d7bb5cbd9f",
        "2e9882e9106516a1201ad8e16179e5b2fbe722b82ca037e7e2178c7b898bbfb7",
    ),
    "bilayer-6x6": (
        _TASKS["bilayer-6x6"], 0.5e-6, (53, 53, 41),
        "a11967b8cad563de2940d61b1b167f00f34ac66416df13a9425e00085e45eb32",
        "658e974daa0de44ab9b1b235003d87f2364badfebe6ea8b505feb499e0a316ad",
        "805b6e71f0affec4df55d5a68942bccd245810be5aa49f56347f733a5ddebe80",
    ),
    "custom": (
        lambda: custom_task(
            [(0, 0, -5e-6), (4e-6, 1e-6, 0), (-3e-6, 2e-6, 5e-6)],
            [(1e-6, 1e-6, 0), (-2e-6, 0, 5e-6)],
            intensities=[1.0, 1.5],
        ),
        1e-6, (3, 2, 3),
        "68dc0831bb98ad69897be12f6c048f5e17245a2b690a5ef814f6e5b072e2bd1b",
        "234402ec9d8541eca6e7fdeaaa3fca6e17bfb551f9c034ae9a535a9fcd44c258",
        "8455d18c5fd8224715e6d9ba34a335570a4149a9988342c04302a8da6768459b",
    ),
}


@pytest.mark.parametrize("task", list(_PINNED))
def test_trap_sets_pinned(task):
    make, max_step, counts, source_digest, target_digest, plan_digest = _PINNED[task]
    spec = make()
    source, target, inten = instantiate_task(spec)
    plan = plan_task(spec, max_step=max_step)
    assert (len(source), len(target), plan.frames) == counts
    assert _digest(source.ids, source.positions()) == source_digest
    assert _digest(target.ids, target.positions(), inten) == target_digest
    assert _digest(
        plan.trap_ids + plan.source_ids, plan.waypoints, plan.target_intensity
    ) == plan_digest
