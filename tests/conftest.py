import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holoseq
from holoseq.geometry import (
    OpticalConfig,
    TrapLayout,
    build_lattice,
    paper_optical_config,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_config():
    """64x64 grid: unit-test scale where the dense oracle stays cheap."""
    return OpticalConfig(
        wavelength=820e-9, focal_length=4e-3, grid_x=64, grid_y=64, pixel_pitch=17e-6
    )


@pytest.fixture(scope="session")
def desk_config():
    """256x256 grid: the desk-scale profile used by the acceptance suite."""
    return paper_optical_config(grid=256)


@pytest.fixture(scope="session")
def grid_3x3():
    return build_lattice((3, 3), 5e-6, id_prefix="t")


@pytest.fixture(scope="session")
def criterion_4_instances():
    """Acceptance criterion 4's 200 random (sources, targets) instances."""
    rng = np.random.default_rng(44)

    def layout(prefix, n):
        xyz = [(rng.uniform(0, 50e-6), rng.uniform(0, 50e-6), 0.0) for _ in range(n)]
        return TrapLayout(tuple(f"{prefix}{i}" for i in range(n)), xyz)

    instances = []
    for _ in range(200):
        n_tgt = int(rng.integers(1, 8))
        n_src = n_tgt + int(rng.integers(0, 3))
        instances.append((layout("s", n_src), layout("t", n_tgt)))
    return instances


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python code in a new interpreter, as a user's command starts; returns stdout.

    The interpreter imports holoseq from this checkout and turns every
    warning into an error; it must exit 0 with nothing on stderr.
    """
    src = str(Path(holoseq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code, *args):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code, *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        return proc.stdout

    return run
