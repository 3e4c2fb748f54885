"""Source-to-target assignment and transport discretization.

Assignment is a minimum-cost bipartite matching of occupied source traps onto
target sites (every target filled, surplus sources left unmatched), solved via
scipy's linear_sum_assignment.  An exhaustive matcher (a dynamic program over
target subsets) serves as the optimality oracle for small instances.  Matched
pairs move along straight segments discretized into equal sub-steps so no trap
ever moves more than the configured maximum per frame.

The default matching cost is squared Euclidean distance: plain-distance
matchings admit rare very long edges (measured 5-6x the squared-cost maximum
on 1000-trap reconfigurations), and since the frame count scales with the
longest segment, squared cost keeps transport sequences short.  Displacement
statistics are always reported as true Euclidean lengths regardless of the
matching cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import TaskSpec, TrapLayout, TrapSite, instantiate_task

__all__ = [
    "InfeasibleAssignmentError",
    "Assignment",
    "TransportPlan",
    "assign",
    "brute_force_assign",
    "discretize",
    "plan_task",
]

COST_KINDS = ("squared", "euclidean")
DEFAULT_COST = "squared"
TIE_BREAKS = ("lex", "solver")
BRUTE_FORCE_MAX_TARGETS = 8

# relative slack when deciding whether a candidate pair is co-optimal
_TIE_RTOL = 1e-9


class InfeasibleAssignmentError(ValueError):
    """Fewer occupied sources than target sites."""


@dataclass(frozen=True)
class Assignment:
    """Matched (source, target) pairs, ordered by target index."""

    pairs: tuple[tuple[TrapSite, TrapSite], ...]
    unmatched_sources: tuple[TrapSite, ...]
    total_cost: float
    cost: str = DEFAULT_COST

    @property
    def distances(self) -> np.ndarray:
        """Euclidean source->target distance per pair (independent of cost kind)."""
        if not self.pairs:
            return np.zeros(0)
        src = np.array([[s.x, s.y, s.z] for s, _ in self.pairs])
        tgt = np.array([[t.x, t.y, t.z] for _, t in self.pairs])
        return np.linalg.norm(tgt - src, axis=1)

    def displacement_stats(self) -> tuple[float, float]:
        d = self.distances
        if d.size == 0:
            return 0.0, 0.0
        return float(d.mean()), float(d.max())


def _cost_matrix(sources: TrapLayout, targets: TrapLayout, cost: str) -> np.ndarray:
    if cost not in COST_KINDS:
        raise ValueError(f"cost must be one of {COST_KINDS}")
    sp = sources.positions()[:, None, :]
    tp = targets.positions()[None, :, :]
    d = np.linalg.norm(tp - sp, axis=2)
    return d * d if cost == "squared" else d


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


def assign(
    sources: TrapLayout,
    targets: TrapLayout,
    cost: str = DEFAULT_COST,
    tie_break: str = "lex",
) -> Assignment:
    """Minimum-total-cost matching of sources onto targets.

    tie_break="lex" canonicalizes equal-cost optima so the matching is the
    lexicographically smallest in (source index, target index); its refinement
    pass re-solves sub-assignments and is meant for desk-scale trap counts.
    tie_break="solver" keeps the raw (still deterministic) solver matching,
    the right choice for 1000-trap full-scale instances.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if len(sources) < len(targets):
        raise InfeasibleAssignmentError(
            f"{len(targets)} targets but only {len(sources)} sources"
        )
    c = _cost_matrix(sources, targets, cost)
    rows, cols = linear_sum_assignment(c)
    total = float(c[rows, cols].sum())
    matching = {int(r): int(t) for r, t in zip(rows, cols)}
    if tie_break == "lex":
        matching = _lex_refine(c, total)

    by_target = sorted(matching.items(), key=lambda st: st[1])
    pairs = tuple((sources.sites[s], targets.sites[t]) for s, t in by_target)
    matched_sources = set(matching)
    unmatched = tuple(
        s for i, s in enumerate(sources.sites) if i not in matched_sources
    )
    total = float(np.sum([c[s, t] for s, t in by_target])) if by_target else 0.0
    return Assignment(pairs=pairs, unmatched_sources=unmatched, total_cost=total, cost=cost)


def brute_force_assign(
    sources: TrapLayout, targets: TrapLayout, cost: str = DEFAULT_COST
) -> Assignment:
    """Exhaustive minimum over all source injections; test oracle only.

    An exact dynamic program over target subsets, O(S*T*2^T): after source i,
    best[m] is the least cost of filling exactly the target set m with
    sources 0..i, each used at most once.  It searches the same space as
    enumerating every injection, without relying on the LSA solver it checks.
    """
    n_src, n_tgt = len(sources), len(targets)
    if n_tgt > BRUTE_FORCE_MAX_TARGETS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_TARGETS} targets")
    if n_src < n_tgt:
        raise InfeasibleAssignmentError(f"{n_tgt} targets but only {n_src} sources")
    c = _cost_matrix(sources, targets, cost)
    masks = np.arange(1 << n_tgt)
    best = np.full(masks.size, np.inf)
    best[0] = 0.0
    # choice[i, m]: target source i fills on the way to m, or -1 if it is unused
    choice = np.full((n_src, masks.size), -1)
    for i in range(n_src):
        prev = best.copy()
        for t in range(n_tgt):
            free = masks[(masks >> t) & 1 == 0]
            cand = prev[free] + c[i, t]
            better = cand < best[free | (1 << t)]
            filled = free[better] | (1 << t)
            best[filled] = cand[better]
            choice[i, filled] = t
    source_of = [0] * n_tgt
    m = masks[-1]
    for i in range(n_src - 1, -1, -1):
        t = choice[i, m]
        if t >= 0:
            source_of[t] = i
            m ^= 1 << t
    pairs = tuple((sources.sites[s], targets.sites[t]) for t, s in enumerate(source_of))
    matched = set(source_of)
    unmatched = tuple(s for i, s in enumerate(sources.sites) if i not in matched)
    total = float(c[source_of, range(n_tgt)].sum())
    return Assignment(pairs=pairs, unmatched_sources=unmatched, total_cost=total, cost=cost)


@dataclass(frozen=True)
class TransportPlan:
    """Straight-line waypoints for every matched trap.

    waypoints has shape (n_traps, frames + 1, 3); column 0 is the source
    position and the final column equals the target exactly.  Traps are
    ordered by target index (row-major within a layer, layers ascending z);
    target_z records each trap's destination layer for layer-resolved metrics.
    """

    frames: int
    waypoints: np.ndarray = field(repr=False)
    trap_ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    max_step: float
    target_intensity: np.ndarray = field(repr=False)

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 3 or wp.shape[1] != self.frames + 1 or wp.shape[2] != 3:
            raise ValueError("waypoints must have shape (n_traps, frames+1, 3)")
        inten = np.asarray(self.target_intensity, dtype=float)
        if inten.shape != (wp.shape[0],):
            raise ValueError("target_intensity must have one entry per trap")
        wp = wp.copy()
        wp.setflags(write=False)
        inten = inten.copy()
        inten.setflags(write=False)
        object.__setattr__(self, "waypoints", wp)
        object.__setattr__(self, "target_intensity", inten)

    @property
    def trap_count(self) -> int:
        return self.waypoints.shape[0]

    @property
    def target_z(self) -> np.ndarray:
        return self.waypoints[:, -1, 2]

    def layout(self, frame: int) -> TrapLayout:
        """Trap layout at a given frame index (0 = source positions)."""
        pts = self.waypoints[:, frame, :]
        return TrapLayout(
            tuple(
                TrapSite(tid, float(p[0]), float(p[1]), float(p[2]))
                for tid, p in zip(self.trap_ids, pts)
            )
        )

    def displacement_stats(self) -> tuple[float, float]:
        d = np.linalg.norm(self.waypoints[:, -1, :] - self.waypoints[:, 0, :], axis=1)
        if d.size == 0:
            return 0.0, 0.0
        return float(d.mean()), float(d.max())


def _frame_count(d_max: float, max_step: float) -> int:
    if d_max <= 0.0:
        return 0
    # guard against float noise pushing an exact ratio over the next integer
    return int(math.ceil(d_max / max_step - 1e-9))


def discretize(assignment: Assignment, max_step: float, frames: int | None = None) -> TransportPlan:
    """Split every matched segment into equal sub-steps bounded by max_step.

    The frame count is ceil(longest distance / max_step), shared by all traps
    so each moves simultaneously and strictly within the bound; zero-distance
    traps hold position.  `frames` overrides the count (used to share a global
    schedule across layers).
    """
    if not (max_step > 0):
        raise ValueError("max_step must be > 0")
    d = assignment.distances
    n = len(assignment.pairs)
    if n == 0:
        raise ValueError("cannot discretize an empty assignment")
    length = _frame_count(float(d.max()), max_step) if frames is None else frames
    src = np.array([[s.x, s.y, s.z] for s, _ in assignment.pairs])
    tgt = np.array([[t.x, t.y, t.z] for _, t in assignment.pairs])
    if length == 0:
        wp = src[:, None, :]
    else:
        frac = np.linspace(0.0, 1.0, length + 1)
        wp = src[:, None, :] + (tgt - src)[:, None, :] * frac[None, :, None]
        wp[:, -1, :] = tgt
    return TransportPlan(
        frames=length,
        waypoints=wp,
        trap_ids=tuple(t.id for _, t in assignment.pairs),
        source_ids=tuple(s.id for s, _ in assignment.pairs),
        max_step=max_step,
        target_intensity=np.ones(n),
    )


def _merge_assignments(parts: list[Assignment]) -> Assignment:
    pairs = tuple(p for part in parts for p in part.pairs)
    unmatched = tuple(s for part in parts for s in part.unmatched_sources)
    total = float(sum(part.total_cost for part in parts))
    return Assignment(
        pairs=pairs, unmatched_sources=unmatched, total_cost=total, cost=parts[0].cost
    )


def plan_task(
    spec: TaskSpec,
    max_step: float | None = None,
    cost: str = DEFAULT_COST,
    tie_break: str = "lex",
) -> TransportPlan:
    """Instantiate a task, assign sources to targets, and discretize.

    Layered kinds (reconfig_2d / reconfig_3d_layers / minimal_3x3) assign
    within each z layer independently; offset_bilayer and custom tasks use one
    global 3D assignment so interlayer segments arise naturally.  All layers
    share one global frame count.
    """
    if max_step is None:
        max_step = spec.max_step if spec.max_step is not None else 0.1e-6
    source, target, inten = instantiate_task(spec)

    if spec.kind in ("minimal_3x3", "reconfig_2d", "reconfig_3d_layers"):
        zs = sorted(set(target.z.tolist()))
        parts = []
        for zv in zs:
            src_sites = tuple(s for s in source.sites if s.z == zv)
            tgt_sites = tuple(t for t in target.sites if t.z == zv)
            parts.append(
                assign(
                    TrapLayout(src_sites), TrapLayout(tgt_sites),
                    cost=cost, tie_break=tie_break,
                )
            )
        assignment = _merge_assignments(parts)
    else:
        assignment = assign(source, target, cost=cost, tie_break=tie_break)

    plan = discretize(assignment, max_step)
    # reattach per-target intensities in the plan's trap order
    by_id = {t.id: v for t, v in zip(target.sites, inten)}
    inten_ordered = np.array([by_id[tid] for tid in plan.trap_ids])
    return TransportPlan(
        frames=plan.frames,
        waypoints=plan.waypoints,
        trap_ids=plan.trap_ids,
        source_ids=plan.source_ids,
        max_step=plan.max_step,
        target_intensity=inten_ordered,
    )
