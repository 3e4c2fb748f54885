"""Regenerate reference.json: quality per workload, seed index and solver.

    python3 perfbench/pin_reference.py [workload ...]

Run from the repository root on the commit whose results are the reference.
Each input runs once through the holoseq CLI with the benchmark's BLAS
settings; only the named workloads (default: all) are replaced.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy loads
from checks import quality
from workloads import SEED_CYCLE, WORKLOADS


def main(names) -> int:
    import yaml

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    work = run.OUT / "pin"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        pinned = {}
        for seed in range(SEED_CYCLE):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            config = work / "config.yaml"
            config.write_text(yaml.safe_dump(workload.config_for(seed), sort_keys=False))
            subprocess.run(
                [sys.executable, "-m", "holoseq.cli", "run", "-c", str(config),
                 "-o", str(work / "out")],
                cwd=run.ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            pinned[str(seed)] = {s: quality(work / "out" / s) for s in workload.solvers}
            print(name, seed, json.dumps(pinned[str(seed)]), flush=True)
        reference[name] = pinned
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
