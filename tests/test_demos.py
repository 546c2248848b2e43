"""Smoke test: every demo runs to completion, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
