"""Workload definitions: one YAML run configuration and one CLI invocation each.

The task of each workload is fixed; the benchmark seed picks the solver's
initial-mask seed (``solver.seed``), which changes every hologram of the run
but not the plan, the frame count or the amount of work.  Seeds cycle with
period SEED_CYCLE so that each generated input has a pinned quality
reference in ``reference.json``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

SEED_CYCLE = 10

_DESK_OPTICAL = {"grid_x": 256, "grid_y": 256}
_BUDGET = {"iterations": 5, "wgs_iterations": 26}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    @property
    def solvers(self) -> tuple[str, ...]:
        return tuple(self.config["run"]["solvers"])

    @property
    def layered(self) -> bool:
        return self.config["task"]["kind"] == "reconfig_3d_layers"

    @property
    def refresh_order(self) -> str:
        return self.config.get("refresh", {}).get("order", "leading")

    def config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["solver"]["seed"] = seed_index(seed)
        return cfg


def seed_index(seed: int) -> int:
    return seed % SEED_CYCLE


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-2d",
            why=(
                "acceptance 2D task (10x10 at 79% -> 8x8) at 256^2 with WPGS and WGS: "
                "both solver loops and propagation with a cache-resident working set"
            ),
            config={
                "optical": dict(_DESK_OPTICAL),
                "task": {
                    "kind": "reconfig_2d",
                    "seed": 7,
                    "source_layers": [{"dims": [10, 10], "spacing": "5 um", "filling": 0.79}],
                    "target_layers": [{"dims": [8, 8], "spacing": "5 um"}],
                },
                "solver": dict(_BUDGET),
                "refresh": {"samples_per_refresh": 21, "order": "leading"},
                "run": {"solvers": ["wpgs", "wgs"], "max_step": "0.5 um"},
            },
        ),
        Workload(
            name="desk-3d-exact",
            why=(
                "three-layer task at 256^2, WPGS with the exact refresh model: "
                "transient sampling and layer-split metrics dominate, the solver does little"
            ),
            config={
                "optical": dict(_DESK_OPTICAL),
                "task": {
                    "kind": "reconfig_3d_layers",
                    "seed": 3,
                    "source_layers": [
                        {"dims": [7, 7], "spacing": "6 um", "z": "-30 um", "filling": 0.94},
                        {"dims": [7, 7], "spacing": "5 um", "z": 0.0, "filling": 0.89},
                        {"dims": [8, 8], "spacing": "4 um", "z": "30 um", "filling": 0.84},
                    ],
                    "target_layers": [
                        {"dims": [6, 6], "spacing": "5 um", "z": "-30 um"},
                        {"dims": [6, 6], "spacing": "5 um", "z": 0.0},
                        {"dims": [6, 6], "spacing": "5 um", "z": "30 um"},
                    ],
                },
                "solver": dict(_BUDGET),
                "refresh": {"samples_per_refresh": 21, "order": "exact"},
                "run": {"solvers": ["wpgs"], "max_step": "0.8 um"},
            },
        ),
        Workload(
            name="plan-144",
            why=(
                "15x15 at 79% -> 12x12 with the default lex tie-break on a 128^2 grid: "
                "planning is the largest part of the run, solver and propagation work is small"
            ),
            config={
                "optical": {"grid_x": 128, "grid_y": 128},
                "task": {
                    "kind": "reconfig_2d",
                    "seed": 0,
                    "source_layers": [{"dims": [15, 15], "spacing": "5 um", "filling": 0.79}],
                    "target_layers": [{"dims": [12, 12], "spacing": "5 um"}],
                },
                "solver": dict(_BUDGET),
                "refresh": {"samples_per_refresh": 21, "order": "leading"},
                "run": {"solvers": ["wpgs"], "max_step": "0.25 um"},
            },
        ),
    )
}
