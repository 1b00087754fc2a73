import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcmkit import core, oracle, postbuckle

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, cwd=None):
    """Run this checkout's CLI in a subprocess; returns CompletedProcess with text output."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "hcmkit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )


@pytest.fixture(scope="session")
def pneumatic_geom():
    return core.RibbonGeometry(
        L1=12.5e-3, gamma_s=6.0, theta=math.radians(-3.0), h=15e-3, t=0.381e-3
    )


@pytest.fixture(scope="session")
def plastic():
    return core.MATERIAL_PRESETS["plastic"]


@pytest.fixture(scope="session")
def calibration():
    return postbuckle.load_calibration()


@pytest.fixture(scope="session")
def pneumatic_ribbon(pneumatic_geom, plastic):
    return oracle.build_discrete(pneumatic_geom, plastic, n_links=60)


@pytest.fixture(scope="session")
def pneumatic_wells(pneumatic_ribbon):
    plus = oracle.find_equilibrium(pneumatic_ribbon, "plus")
    minus = oracle.find_equilibrium(pneumatic_ribbon, "minus")
    return plus, minus


@pytest.fixture(scope="session")
def pneumatic_saddle(pneumatic_ribbon, pneumatic_wells):
    plus, _ = pneumatic_wells
    return oracle.find_saddle(pneumatic_ribbon, well=plus)
