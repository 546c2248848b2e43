"""Smoke test: the quick demos run to completion.

``04_simulation_cross_check.py`` is left out: it simulates for several
seconds, and the Monte Carlo tests cover the same ground.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_chains_and_limits.py", "02_moment_equalization.py", "03_decompositions.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
