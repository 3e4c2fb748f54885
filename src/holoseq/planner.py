"""Source-to-target assignment and transport discretization.

Assignment is a minimum-cost bipartite matching of occupied source traps onto
target sites (every target filled, surplus sources left unmatched), solved via
one scipy linear_sum_assignment call.  Its LP duals mark every co-optimal edge,
which breaks equal-cost ties lexicographically without a second solve, so the
plan never depends on the solver's internal tie order.  An exhaustive matcher
(a dynamic program over target subsets) serves as the optimality oracle for
small instances.  Matched pairs move along straight segments discretized into
equal sub-steps so no trap ever moves more than the configured maximum per
frame.

The matching cost is squared Euclidean distance.  Plain-distance matchings
admit rare very long edges, and the frame count, one SLM refresh per frame,
scales with the longest segment: plain distance took the acceptance 2D task
(10x10 at 79% -> 8x8, seed 7, 0.5 um steps) from 15 to 32 frames, and a
1024-trap task (36x36 at 79% -> 32x32, seed 3, 0.1 um steps) from 112 to 850
frames, its longest move from 11.2 to 85 um.  Displacement statistics are
true Euclidean lengths.

The solver is scipy's compiled extension ``scipy.optimize._lsap``, a private
module whose ``linear_sum_assignment`` is the function that
``scipy.optimize`` re-exports.  ``_load_lsa`` loads that one file by spec, so
importing the planner does not run ``scipy/__init__.py`` or
``scipy/optimize/__init__.py``; those also import scipy.linalg and
scipy.sparse, and took more than half of ``import holoseq``.  The module is
registered under its own name, so a later ``import scipy.optimize`` reuses
it and both names give one function object.  If the file cannot be found or
loaded, the public ``from scipy.optimize import linear_sum_assignment`` is
used instead.  The function stays bound as
``planner.linear_sum_assignment``, the name callers and tracers look it up
by.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import TaskSpec, TrapLayout, concat_layouts, freeze_array, instantiate_task

__all__ = [
    "InfeasibleAssignmentError",
    "Assignment",
    "TransportPlan",
    "assign",
    "brute_force_assign",
    "discretize",
    "plan_task",
]

BRUTE_FORCE_MAX_TARGETS = 8

# relative slack when deciding whether an edge is co-optimal
_TIE_RTOL = 1e-9

_LSAP = "scipy.optimize._lsap"


def _load_lsa():
    """scipy's compiled linear_sum_assignment, without importing scipy.optimize.

    Tries ``<scipy>/optimize/_lsap<suffix>`` for each extension suffix and
    falls back to the public import on any failure (see the module docstring).

    The module is registered in ``sys.modules`` before its package exists, so
    a later ``import scipy.optimize`` reuses it but does not set it as the
    package attribute: ``scipy.optimize._lsap`` is then missing, although
    ``sys.modules["scipy.optimize._lsap"]`` is there.  Nothing reaches that
    attribute.  What stays true: ``planner.linear_sum_assignment`` and
    ``scipy.optimize.linear_sum_assignment`` are one function object.
    """
    try:
        module = sys.modules.get(_LSAP)
        if module is None:
            bases = importlib.util.find_spec("scipy").submodule_search_locations
            paths = [
                os.path.join(base, "optimize", "_lsap" + suffix)
                for base in bases
                for suffix in importlib.machinery.EXTENSION_SUFFIXES
            ]
            path = next(p for p in paths if os.path.isfile(p))
            spec = importlib.util.spec_from_file_location(_LSAP, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_LSAP] = module
            try:
                spec.loader.exec_module(module)
            except Exception:
                # a half-loaded module would break the public import below
                del sys.modules[_LSAP]
                raise
        return module.linear_sum_assignment
    except Exception:
        # whatever failed, the public import gives the same function or the real error
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


linear_sum_assignment = _load_lsa()


class InfeasibleAssignmentError(ValueError):
    """Fewer occupied sources than target sites."""


@dataclass(frozen=True, eq=False)
class Assignment:
    """Matched traps ordered by target index: sources[k] moves to targets[k]."""

    sources: TrapLayout
    targets: TrapLayout
    total_cost: float

    @property
    def distances(self) -> np.ndarray:
        """Euclidean source->target distance per pair (the cost is its square)."""
        return np.linalg.norm(self.targets.xyz - self.sources.xyz, axis=1)


def _cost_matrix(sources: TrapLayout, targets: TrapLayout) -> np.ndarray:
    sp = sources.xyz[:, None, :]
    tp = targets.xyz[None, :, :]
    # the square of the norm, not a sum of squares: other bits could break a
    # near-tie the other way and change a plan
    d = np.linalg.norm(tp - sp, axis=2)
    return d * d


def _lex_matching(cost: np.ndarray) -> dict[int, int]:
    """Lexicographically smallest minimum-cost matching, from one LSA solve.

    Of all matchings of minimum total cost (within a relative tie tolerance)
    it returns the one where source 0 takes the lowest-index target it can,
    then source 1, and so on; a source that no co-optimal matching uses stays
    unmatched.  Zero-cost dummy columns pad the S x T cost to square (a dummy
    stands for "unmatched"), and one linear_sum_assignment gives an optimal
    matching M.  A Bellman-Ford pass over M's reassignment arcs gives column
    potentials v with v_j <= v_M(i) + C[i,j] - C[i,M(i)]; with
    u_i = C[i,M(i)] - v_M(i), (u, v) is an optimal dual, so by complementary
    slackness the optimal matchings are exactly the perfect matchings of the
    tight graph C - u - v <= tol.  Sources then fix their target in index
    order, each testing its tight targets below its current one by an
    alternating-path search among the sources not yet fixed.
    """
    n_src, n_tgt = cost.shape
    c = np.zeros((n_src, n_src))
    c[:, :n_tgt] = cost
    _, col_of = linear_sum_assignment(c)
    src_of = np.argsort(col_of)
    matched = c[np.arange(n_src), col_of]
    # relative tie tolerance: costs carry physical units (meters), so an
    # absolute term would swamp genuine optimality gaps
    tol = _TIE_RTOL * abs(float(matched.sum()))

    # d[i, j] + v[M(i)] - v[j] is the reduced cost C - u - v; each pass relaxes
    # only the rows whose v[M(i)] fell in the pass before.  LSA's optimum is
    # optimal only up to rounding and can close a negative cycle of a few ulps,
    # so a drop of at most tol/n does not count, and the passes stop at n.
    d = c - matched[:, None]
    v = np.zeros(n_src)
    rows = np.arange(n_src)
    for _ in range(n_src):
        cand = (d[rows] + v[col_of[rows], None]).min(axis=0)
        lower = np.flatnonzero(cand < v - tol / n_src)
        if lower.size == 0:
            break
        v[lower] = cand[lower]
        rows = src_of[lower]
    reduced = d + v[col_of, None] - v
    assert reduced.min() >= -tol, "LSA matching is not optimal"
    tight = reduced <= tol
    adj = [np.flatnonzero(row).tolist() for row in tight[:, :n_tgt]]
    dummy_ok = tight[:, n_tgt:].any(axis=1)

    fixed = np.zeros(n_src, dtype=bool)
    dummies = range(n_tgt, n_src)

    def reroute(start: int, free_col: int) -> bool:
        # Breadth-first search for an alternating tight path from `start`
        # through unfixed sources to free_col; on success every source on the
        # path takes the column of the next one.  Dummy columns are
        # interchangeable, so the first source with a tight dummy edge reaches
        # every dummy holder.
        parent = {start: -1}
        queue = [start]
        dummies_seen = False
        for x in queue:
            if tight[x, free_col]:
                col = free_col
                while x >= 0:
                    col_of[x], col = col, col_of[x]
                    src_of[col_of[x]] = x
                    x = parent[x]
                return True
            cols = adj[x]
            if dummy_ok[x] and not dummies_seen:
                dummies_seen = True
                cols = [*cols, *dummies]
            for j in cols:
                y = int(src_of[j])
                if not fixed[y] and y not in parent:
                    parent[y] = x
                    queue.append(y)
        return False

    for s in range(n_src):
        fixed[s] = True
        own = int(col_of[s])
        for t in adj[s]:
            if t >= own:
                break
            holder = int(src_of[t])
            if not fixed[holder] and reroute(holder, own):
                col_of[s], src_of[t] = t, s
                break
    return {s: int(t) for s, t in enumerate(col_of) if t < n_tgt}


def assign(sources: TrapLayout, targets: TrapLayout) -> Assignment:
    """Matching of sources onto targets with the least total squared distance.

    Equal-cost optima are canonicalized: the matching is the lexicographically
    smallest in (source index, target index), found from one LSA solve plus
    LP duals, at about the cost of the solve itself.
    """
    if len(sources) < len(targets):
        raise InfeasibleAssignmentError(
            f"{len(targets)} targets but only {len(sources)} sources"
        )
    c = _cost_matrix(sources, targets)
    matching = _lex_matching(c)
    # every target is matched, so ordering the matched sources by their
    # target gives the source of target 0, 1, ...
    source_of = sorted(matching, key=matching.get)
    return _assignment(sources, targets, source_of, c)


def brute_force_assign(sources: TrapLayout, targets: TrapLayout) -> Assignment:
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
    c = _cost_matrix(sources, targets)
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
    return _assignment(sources, targets, source_of, c)


def _assignment(sources: TrapLayout, targets: TrapLayout, source_of, c: np.ndarray) -> Assignment:
    """The Assignment moving source source_of[t] to target t, for every t."""
    total = float(c[source_of, range(len(targets))].sum())
    return Assignment(sources.take(source_of), targets, total_cost=total)


@dataclass(frozen=True, eq=False)
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
        frames = operator.index(self.frames)
        if frames < 0:
            raise ValueError(f"frames must be >= 0, not {frames}")
        wp = freeze_array(self, "waypoints")
        if wp.ndim != 3 or wp.shape[1] != frames + 1 or wp.shape[2] != 3:
            raise ValueError("waypoints must have shape (n_traps, frames+1, 3)")
        if not np.isfinite(wp).all():
            raise ValueError("waypoints must be finite")
        for name, ids in (("trap_ids", self.trap_ids), ("source_ids", self.source_ids)):
            if len(ids) != wp.shape[0]:
                raise ValueError(f"{name} has {len(ids)} entries for {wp.shape[0]} traps")
        max_step = float(self.max_step)
        if not (math.isfinite(max_step) and max_step > 0):
            raise ValueError(f"max_step must be finite and > 0, not {max_step!r}")
        inten = freeze_array(self, "target_intensity")
        if inten.shape != (wp.shape[0],):
            raise ValueError("target_intensity must have one entry per trap")
        if not (np.isfinite(inten) & (inten > 0)).all():
            raise ValueError("target_intensity must be finite and > 0")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "max_step", max_step)

    @property
    def trap_count(self) -> int:
        return self.waypoints.shape[0]

    @property
    def target_z(self) -> np.ndarray:
        return self.waypoints[:, -1, 2]

    def layout(self, frame: int) -> TrapLayout:
        """Trap layout at a given frame index (0 = source positions)."""
        return TrapLayout(self.trap_ids, self.waypoints[:, frame])

    @property
    def displacement(self) -> np.ndarray:
        """Each trap's straight-line distance from source to target."""
        return np.linalg.norm(self.waypoints[:, -1, :] - self.waypoints[:, 0, :], axis=1)

    def displacement_stats(self) -> tuple[float, float]:
        d = self.displacement
        if d.size == 0:
            return 0.0, 0.0
        # the mean of equal values can round one ulp above them
        return float(min(d.mean(), d.max())), float(d.max())


def _frame_count(d_max: float, max_step: float) -> int:
    if d_max <= 0.0:
        return 0
    # guard against float noise pushing an exact ratio over the next integer;
    # a move shorter than that guard still takes one step, so the plan ends
    # on the targets
    return max(1, int(math.ceil(d_max / max_step - 1e-9)))


def discretize(assignment: Assignment, max_step: float) -> TransportPlan:
    """Split every matched segment into equal sub-steps bounded by max_step.

    The frame count is ceil(longest distance / max_step), shared by all traps
    so each moves simultaneously and strictly within the bound; zero-distance
    traps hold position.
    """
    if not (max_step > 0):
        raise ValueError("max_step must be > 0")
    length = _frame_count(float(assignment.distances.max()), max_step)
    src = assignment.sources.xyz
    tgt = assignment.targets.xyz
    if length == 0:
        wp = src[:, None, :]
    else:
        frac = np.linspace(0.0, 1.0, length + 1)
        wp = src[:, None, :] + (tgt - src)[:, None, :] * frac[None, :, None]
        wp[:, -1, :] = tgt
    return TransportPlan(
        frames=length,
        waypoints=wp,
        trap_ids=assignment.targets.ids,
        source_ids=assignment.sources.ids,
        max_step=max_step,
        target_intensity=np.ones(len(tgt)),
    )


def plan_task(spec: TaskSpec, max_step: float | None = None) -> TransportPlan:
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
        parts = [
            assign(source.take(source.z == zv), target.take(target.z == zv))
            for zv in sorted(set(target.z.tolist()))
        ]
        assignment = Assignment(
            concat_layouts([a.sources for a in parts]),
            concat_layouts([a.targets for a in parts]),
            total_cost=float(sum(a.total_cost for a in parts)),
        )
    else:
        assignment = assign(source, target)

    # assign keeps target order and layers ascend in z, so the plan's traps
    # are in target order
    return replace(discretize(assignment, max_step), target_intensity=inten)
