"""Mutation audit: does the test suite notice when a verdict term or a tolerance changes?

Each row names one file of the checkout, a text that must occur in it exactly
once, the text that replaces it, and the verdict the row is expected to get.
For each row the script copies the checkout (``src/``, ``tests/``, ``demos/``,
README and ``pyproject.toml``, which the suite reads) to a temporary directory,
applies the edit there, runs ``pytest -x -q`` and prints KILLED (some test
failed) or SURVIVED (every test passed).  An unmutated copy runs first, so
that a KILLED row means the mutant, not the copy.  The exit status is 1 when
a row's verdict differs from its expected one.

    python tests/mutants.py          # every row, a few minutes
    python tests/mutants.py --check  # only that each old text occurs once

The name matches no ``test_*`` pattern, so the suite does not collect it.
It uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
#: Seconds allowed for one pytest run; a mutant that hangs counts as killed.
TIMEOUT = 900.0


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    expected: str  # "KILLED", or "SURVIVED" with the reason it may
    reason: str = ""


MUTANTS = [
    Mutant("identity-error-zero", "src/zdlab/pressdyson.py",
           "return IdentityCheck(1.0 / denominator, float(np.max(np.abs(w - _TFT_PD))))",
           "return IdentityCheck(1.0 / denominator, 0.0)",
           "SURVIVED", "equivalent: max_abs_error is 0 by construction (ROADMAP item 9)"),
    Mutant("verify-without-gap", "src/zdlab/cli.py",
           "        & (np.abs(gaps) <= tol)\n", "",
           "SURVIVED",
           "equivalent given dist_equal, the same test at every strict payoff matrix"),
    Mutant("verify-without-dist-equal", "src/zdlab/cli.py",
           "        & dist_equal\n", "",
           "SURVIVED",
           "equivalent given the gap term, the same test at every strict payoff matrix"),
    Mutant("gate-bound-10x", "src/zdlab/montecarlo.py",
           "float(tol_sigma * np.sqrt(", "float(10 * tol_sigma * np.sqrt(",
           "SURVIVED", "waits for the calibration test of ROADMAP item 6"),
    Mutant("gate-ignores-converged", "src/zdlab/montecarlo.py",
           "passed=not flagged and exact.converged,", "passed=not flagged,",
           "SURVIVED", "waits for the calibration test of ROADMAP item 6"),
    Mutant("exact-tol", "src/zdlab/pressdyson.py",
           "EXACT_TOL = 1e-12", "EXACT_TOL = 1e-6", "KILLED"),
    Mutant("wsls-target", "src/zdlab/pressdyson.py",
           'pd = press_dyson(named_strategy("wsls"), 1)',
           'pd = press_dyson(named_strategy("custom:0.9,0.2,0.4,0.7"), 1)', "KILLED"),
    Mutant("rank-tol", "src/zdlab/pressdyson.py",
           "RANK_TOL = 1e-9", "RANK_TOL = 1e-6", "KILLED"),
    Mutant("outcomes-within-1e-12", "src/zdlab/moments.py",
           "if support and values[idx] == support[-1]:",
           "if support and abs(values[idx] - support[-1]) <= 1e-12:", "KILLED"),
    Mutant("default-tol", "src/zdlab/markov.py",
           "DEFAULT_TOL = 1e-13", "DEFAULT_TOL = 1e-10", "KILLED"),
    Mutant("rank-compare-strict", "src/zdlab/montecarlo.py",
           "np.greater_equal(col, x,", "np.greater(col, x,", "KILLED"),
    Mutant("first-pattern-plan", "src/zdlab/markov.py",
           "_solve_group(flat[members], pi0, plans[mask])",
           "_solve_group(flat[members], pi0, next(iter(plans.values())))", "KILLED"),
    Mutant("plan-by-transient-count", "src/zdlab/markov.py",
           "plans = {mask: _classify_mask(mask) for mask in groups}",
           "by_count: dict = {}\n"
           "    plans = {mask: by_count.setdefault(_classify_mask(mask).transient,"
           " _classify_mask(mask)) for mask in groups}", "KILLED"),
    Mutant("is-int-accepts-bool", "src/zdlab/game.py",
           "return type(x) is int or (", "return type(x) in (int, bool) or (", "KILLED"),
    Mutant("frame-swap", "src/zdlab/game.py",
           "_SWAP_INDEX = np.array((0, 2, 1, 3))", "_SWAP_INDEX = np.array((0, 1, 2, 3))",
           "KILLED"),
    Mutant("drop-transient-mass", "src/zdlab/markov.py",
           "        later += mass[:, k, None] * exits\n", "", "KILLED"),
    Mutant("gth-one-minus-diagonal", "src/zdlab/markov.py",
           "into /= np.add.reduce(P[:, k, :k], axis=1, keepdims=True)",
           "into /= 1.0 - P[:, k, k, None]", "KILLED"),
    Mutant("burn-in-off-by-one", "src/zdlab/montecarlo.py",
           "first = max(burn_in - start, 0)", "first = max(burn_in - start - 1, 0)", "KILLED"),
    Mutant("exp-overflow-unchecked", "src/zdlab/game.py",
           "    if not np.isfinite(rows).all():\n",
           "    if not np.isfinite(rows[[len(label) == 2 for label in labels]]).all():\n",
           "KILLED"),
]


def check() -> list[str]:
    """One problem per row whose old text does not occur exactly once in its file."""
    problems = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    return problems


def run_suite(mutant: Mutant | None) -> tuple[str, str]:
    """The verdict of ``pytest -x -q`` on a copy of the checkout, with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="zdlab-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            path = copy / mutant.path
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "KILLED", f"timed out after {TIMEOUT:g} s"
    lines = result.stdout.strip().splitlines()
    summary = lines[-1] if lines else result.stderr.strip()[-200:]
    failed = [line.split(" - ")[0][len("FAILED "):] for line in lines if line.startswith("FAILED ")]
    return ("SURVIVED" if result.returncode == 0 else "KILLED"), " ".join(failed + [summary])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each row's old text occurs exactly once")
    args = parser.parse_args(argv)

    problems = check()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems or args.check:
        if not problems:
            print(f"{len(MUTANTS)} mutants, each old text found exactly once")
        return 1 if problems else 0

    verdict, summary = run_suite(None)
    if verdict != "SURVIVED":
        print(f"error: the unmutated copy fails its tests: {summary}", file=sys.stderr)
        return 1
    print(f"unmutated: {summary}")
    mismatches = 0
    print("| Mutant | File | Verdict | Expected | pytest |")
    print("| --- | --- | --- | --- | --- |")
    for mutant in MUTANTS:
        verdict, summary = run_suite(mutant)
        expected = mutant.expected + (f" ({mutant.reason})" if mutant.reason else "")
        mismatches += verdict != mutant.expected
        print(f"| {mutant.name} | {mutant.path} | {verdict} | {expected} | {summary} |",
              flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
