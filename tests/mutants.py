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
    Mutant("verify-without-converged", "src/zdlab/cli.py",
           "        limits.converged\n        & dist_equal\n", "        dist_equal\n", "KILLED"),
    Mutant("verify-without-dist-equal", "src/zdlab/cli.py",
           "        & dist_equal\n", "", "KILLED"),
    Mutant("verify-without-mgfs", "src/zdlab/cli.py",
           "        & (dev_h <= tol).all(axis=1)\n", "", "KILLED"),
    Mutant("gate-bound-10x", "src/zdlab/montecarlo.py",
           "tol_sigma * math.sqrt(", "10 * tol_sigma * math.sqrt(", "KILLED"),
    Mutant("gate-ignores-converged", "src/zdlab/montecarlo.py",
           "passed=not flagged and exact.converged,", "passed=not flagged,",
           "SURVIVED", "waits for the calibration test of ROADMAP item 6"),
    Mutant("exact-tol", "src/zdlab/pressdyson.py",
           "EXACT_TOL = 1e-12", "EXACT_TOL = 1e-6", "KILLED"),
    Mutant("exact-tol-1e3", "src/zdlab/pressdyson.py",
           "EXACT_TOL = 1e-12", "EXACT_TOL = 1e-9", "KILLED"),
    Mutant("wsls-target", "src/zdlab/pressdyson.py",
           'pd = press_dyson(named_strategy("wsls"), 1)',
           'pd = press_dyson(named_strategy("custom:0.9,0.2,0.4,0.7"), 1)', "KILLED"),
    Mutant("rank-by-threshold", "src/zdlab/pressdyson.py",
           "if rows[i][col]), None)", "if abs(rows[i][col]) > 1e-9), None)", "KILLED"),
    Mutant("metric-unweighted", "src/zdlab/pressdyson.py",
           "weighted = [([scale // q * x for x in v], v) for v, _, q in columns if q]",
           "weighted = [(v, v) for v, _, q in columns if q]", "KILLED"),
    Mutant("table-overflow-unchecked", "src/zdlab/pressdyson.py",
           "        try:  # the coefficients of a zero column are 0\n"
           "            coef.append(tuple(d * sum(map(mul, v, k)) / (q * den or 1) for k in K))\n"
           "        except OverflowError:\n"
           '            raise OverflowError(f"the {kind} coefficient of {format_label(label)}'
           ' overflows "\n'
           '                                "double precision") from None\n',
           "        coef.append(tuple(d * sum(map(mul, v, k)) / (q * den or 1) for k in K))\n",
           "KILLED"),
    Mutant("outcomes-within-1e-12", "src/zdlab/moments.py",
           "if support and values[idx] == support[-1]:",
           "if support and abs(values[idx] - support[-1]) <= 1e-12:", "KILLED"),
    Mutant("default-tol", "src/zdlab/markov.py",
           "DEFAULT_TOL = 1e-13", "DEFAULT_TOL = 1e-10", "KILLED"),
    Mutant("rank-compare-strict", "src/zdlab/montecarlo.py",
           "np.greater_equal(col, x,", "np.greater(col, x,", "KILLED"),
    Mutant("first-pattern-plan", "src/zdlab/markov.py",
           "plan = plans[mask]\n", "plan = next(iter(plans.values()))\n", "KILLED"),
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
           "for row in [P[i] for i in rest] + [mass]:", "for row in [P[i] for i in rest]:",
           "KILLED"),
    Mutant("gth-one-minus-diagonal", "src/zdlab/markov.py",
           "pivot = reduce(add, P[k][lo:k], zero)", "pivot = 1 - P[k][k]", "KILLED"),
    Mutant("gth-back-substitution-reversed", "src/zdlab/markov.py",
           "for i, x_i in enumerate(x, lo)], zero)",
           "for i, x_i in enumerate(x, lo)][::-1], zero)", "KILLED"),
    Mutant("burn-in-off-by-one", "src/zdlab/montecarlo.py",
           "first = max(burn_in - start, 0)", "first = max(burn_in - start - 1, 0)", "KILLED"),
    Mutant("exp-overflow-unchecked", "src/zdlab/game.py",
           "    if not np.isfinite(rows).all():\n",
           "    if not np.isfinite(rows[[len(label) == 2 for label in labels]]).all():\n",
           "KILLED"),
    Mutant("relation-order-cap", "src/zdlab/moments.py",
           "    averages = [float_dot(row, pi) for row in payoff_features(m, list(coeffs)).tolist()]\n",
           "    if any(isinstance(label, tuple) and len(label) == 2 and sum(label) > K_CAP\n"
           "           for label in coeffs):\n"
           "        raise ValueError(f\"moment order above {K_CAP}\")\n"
           "    averages = [float_dot(row, pi) for row in payoff_features(m, list(coeffs)).tolist()]\n",
           "KILLED"),
    Mutant("basis-takes-a-label-twice", "src/zdlab/pressdyson.py",
           "    if twice := [label for i, label in enumerate(labels) if label in labels[:i]]:\n"
           '        raise ValueError(f"a basis names the feature'
           ' {format_label(twice[0])} twice")\n',
           "", "KILLED"),
    Mutant("exp-basis-refuses-h-zero", "src/zdlab/pressdyson.py",
           '        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))\n',
           "        if h == 0.0:\n"
           '            raise ValueError("h must be nonzero")\n'
           '        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))\n',
           "KILLED"),
    Mutant("permissive-refuses-t-equal-s", "src/zdlab/game.py",
           "        if not self.permissive:\n",
           "        if self.permissive and self.T == self.S:\n"
           '            raise ValueError("T equals S")\n'
           "        if not self.permissive:\n",
           "KILLED"),
    Mutant("power-order-past-2-53", "src/zdlab/game.py",
           "                if k1 > 2**53 or k2 > 2**53:"
           "  # numpy takes s**k with k a double, exact to 2^53\n"
           '                    raise ValueError(f"payoff power order {_shown(max(k1, k2))}'
           ' exceeds 2^53")\n', "",
           "KILLED"),
    Mutant("half-codes-bisect-right", "src/zdlab/montecarlo.py",
           "from bisect import bisect_left\n", "from bisect import bisect_right as bisect_left\n",
           "KILLED"),
    Mutant("chain-alone-residual-transposed", "src/zdlab/markov.py",
           "for row, p in zip(M, pi)]", "for row, p in zip(zip(*M), pi)]", "KILLED"),
    Mutant("residual-max-drops-nan-alone", "src/zdlab/markov.py",
           "nan if any(map(isnan, gaps)) else max(gaps)", "max(gaps)", "KILLED"),
    Mutant("residual-max-drops-nan-group", "src/zdlab/markov.py",
           "np.maximum.reduce(gaps)", "np.fmax.reduce(gaps)", "KILLED"),
    Mutant("dot-adds-last-to-first", "src/zdlab/markov.py",
           "terms = map(mul, a, b)", "terms = map(mul, a[::-1], b[::-1])", "KILLED"),
    Mutant("k-cap-21", "src/zdlab/moments.py", "K_CAP = 20", "K_CAP = 21", "KILLED"),
    Mutant("identity-guard-1e-9", "src/zdlab/pressdyson.py",
           "abs(denominator) <= 1e-12 * max(", "abs(denominator) <= 1e-9 * max(", "KILLED"),
    Mutant("identity-no-relative-guard", "src/zdlab/pressdyson.py",
           " or abs(denominator) <= 1e-12 * max(abs(a), abs(b)):", ":", "KILLED"),
    Mutant("identity-no-subnormal-guard", "src/zdlab/pressdyson.py",
           "if abs(denominator) < np.finfo(float).tiny or ", "if ", "KILLED"),
    Mutant("identity-no-overflow-check", "src/zdlab/pressdyson.py",
           "    if not math.isfinite(denominator):\n"
           '        raise OverflowError(f"{name} overflows double precision at {at}")\n',
           "", "KILLED"),
    Mutant("shape-unchecked", "src/zdlab/markov.py",
           "    if x.shape != shape:\n"
           '        raise ValueError(f"{what} must be of shape {shape}, got shape {x.shape}")\n',
           "", "KILLED"),
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
