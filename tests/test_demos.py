"""Smoke test: every demo and every README Python block runs, with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(name):
    result = _python(str(ROOT / "demos" / name))
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        result = _python("-c", block)
        assert result.returncode == 0, result.stderr
