import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised inside
    # hypothesis's own reporting hook into an INTERNALERROR that ends the run
    (tmp_path / "pyproject.toml").write_bytes(PYPROJECT.read_bytes())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout
