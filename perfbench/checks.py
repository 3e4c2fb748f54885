"""Correctness checks on the artifacts of one CLI pass.

Each check returns a list of failure messages (empty when it passes) and
counts as one attempted operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# ROADMAP aim 2: fixed-seed quality stays within 1e-9 of the pinned values
QUALITY_RTOL = 1e-9
PLAN_RTOL = 1e-9

# artifacts that two passes of one input must reproduce byte for byte
DETERMINISTIC = ("fields.csv", "transients.csv", "metrics.json", "objectives.csv", "plan.json")


def quality(run_dir: Path) -> dict[str, float]:
    """nu_min, dphi_std and ratio_min from a solver's metrics.json."""
    doc = json.loads((run_dir / "metrics.json").read_text())
    return {
        "nu_min": doc["uniformity_min"],
        "dphi_std": doc["dphi"]["std"],
        "ratio_min": doc["transition"]["min"],
    }


def frame_times_ms(run_dir: Path) -> list[float]:
    lines = (run_dir / "timing.csv").read_text().splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines]


def check_masks(run_dir: Path, grid: tuple[int, int], frames: int) -> list[str]:
    from holoseq.serial import read_mask

    paths = sorted((run_dir / "masks").glob("*.mask"))
    errors = []
    if len(paths) != frames:
        errors.append(f"{run_dir.name}: {len(paths)} masks for {frames} frames")
    for path in paths:
        try:
            mask = read_mask(path)
        except ValueError as exc:
            errors.append(f"{path.name}: {exc}")
            continue
        if mask.shape != grid or not np.isfinite(mask.phases).all():
            errors.append(f"{path.name}: shape {mask.shape}, expected {grid} and finite")
    return errors


def check_quality(measured: dict[str, float], pinned: dict[str, float] | None,
                  label: str) -> list[str]:
    if pinned is None:
        return [f"{label}: no pinned quality reference"]
    return [
        f"{label} {key}: {measured[key]!r} != pinned {value!r}"
        for key, value in pinned.items()
        if not math.isclose(measured[key], value, rel_tol=QUALITY_RTOL, abs_tol=1e-15)
    ]


def check_plan_optimal(plan_path: Path, config_path: Path) -> list[str]:
    """plan.json's squared-distance total equals an independent LSA optimum.

    The task is instantiated again from the config and each z layer is
    matched separately, as the planner does for lattice tasks.
    """
    from holoseq.config import load_config
    from holoseq.geometry import instantiate_task

    source, target, _ = instantiate_task(load_config(config_path).task)
    optimum = 0.0
    for z in sorted(set(target.z.tolist())):
        src = source.positions()[source.z == z]
        tgt = target.positions()[target.z == z]
        cost = ((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        optimum += float(cost[rows, cols].sum())

    traps = json.loads(plan_path.read_text())["traps"]
    ends = np.array([[t["waypoints"][0], t["waypoints"][-1]] for t in traps])
    total = float(((ends[:, 1] - ends[:, 0]) ** 2).sum())
    errors = []
    if len(traps) != len(target):
        errors.append(f"plan has {len(traps)} traps for {len(target)} targets")
    if not math.isclose(total, optimum, rel_tol=PLAN_RTOL):
        errors.append(f"plan cost {total!r} != LSA optimum {optimum!r}")
    return errors


def artifact_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every artifact that must not change between passes."""
    paths = sorted((run_dir / "masks").iterdir()) + [run_dir / n for n in DETERMINISTIC]
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
    }


def check_same(first: dict[str, str], other: dict[str, str], label: str) -> list[str]:
    differ = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return [f"{label}: {name} differs between passes" for name in differ]


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
