"""The three benchmark workloads and the checks on each op's output.

Each workload is a closed loop with one client: op ``i`` starts after op
``i - 1`` has returned.  Op ``i``'s inputs depend only on the workload seed
and ``i``, so a rerun of an op must give the same output bytes.

An op reports two kinds of failure:

* ``error``: the op raised, exited with a usage error, or broke an exact
  invariant the program guarantees (the state counts sum to the counted
  rounds; with TFT as player 1 and noise 0, ``|#CD - #DC| <= 1`` on every
  path).  No op of these workloads should ever set it.
* ``passed = False``: the op ran, but a numerical check missed its
  tolerance (``verify-tft`` exit 1, an unconverged Cesaro limit, an Akin
  residual above 1e-9, an enforced relation above 1e-8).  The
  near-deterministic opponents of ``paper-pipeline`` trip these on purpose:
  they expose the long-run solver's known accuracy defect.

Statistical-gate flags of ``empirical_vs_exact`` are counted, never failed:
the gate's variance model assumes independent draws.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

VERIFY_OPPONENTS = 200
SIMULATE_ROUNDS = 10**6
PIPELINE_ROUNDS = 5000
CESARO_TOL = 1e-13
CESARO_MAX_STEPS = 10**9
AKIN_TOL = 1e-9
RELATION_TOL = 1e-8
GATE_SIGMA = 8.0


@dataclass
class OpResult:
    items: int
    output: bytes = b""
    error: str | None = None
    passed: bool = True
    counters: dict = field(default_factory=dict)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _run_cli(z, argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return z.cli.main(argv)


def _count_error(counts, counted, tft_first: bool) -> str | None:
    if sum(counts) != counted:
        return f"state counts {counts} do not sum to {counted} counted rounds"
    if tft_first and abs(counts[1] - counts[2]) > 1:
        return f"TFT pathwise bound broken: #CD={counts[1]}, #DC={counts[2]}"
    return None


class VerifyRandom:
    """``verify-tft --random 200``: one item is one opponent."""

    name = "verify-random"

    def __init__(self, z, seed: int, tmp) -> None:
        self.z, self.seed, self.out = z, seed, tmp / "verify.csv"

    def op(self, i: int) -> OpResult:
        argv = ["verify-tft", "--random", str(VERIFY_OPPONENTS),
                "--seed", str(self.seed + i), "--out", str(self.out)]
        code = _run_cli(self.z, argv)
        if code not in (0, 1):
            return OpResult(VERIFY_OPPONENTS, error=f"verify-tft exited {code}")
        table = self.out.read_bytes()
        output = table + self.out.with_suffix(".manifest.json").read_bytes()
        result = OpResult(VERIFY_OPPONENTS, output, passed=code == 0,
                          counters={"cli.output_bytes": len(output)})
        if table.count(b"\n") != VERIFY_OPPONENTS + 1:
            result.error = "verify-tft table does not hold one row per opponent"
        return result


class SimulateLong:
    """``simulate tft <random opponent> --rounds 1e6``: one item is one round."""

    name = "simulate-long"

    def __init__(self, z, seed: int, tmp) -> None:
        self.z, self.seed, self.out = z, seed, tmp / "simulate.json"

    def op(self, i: int) -> OpResult:
        opponent = ",".join(repr(float(x)) for x in _rng(self.seed, i).random(4))
        argv = ["simulate", "tft", opponent, "--rounds", str(SIMULATE_ROUNDS),
                "--seed", str(self.seed + i), "--out", str(self.out)]
        code = _run_cli(self.z, argv)
        if code != 0:
            return OpResult(SIMULATE_ROUNDS, error=f"simulate exited {code}")
        report_bytes = self.out.read_bytes()
        output = report_bytes + self.out.with_suffix(".csv").read_bytes()
        report = json.loads(report_bytes)["report"]
        return OpResult(
            SIMULATE_ROUNDS, output,
            error=_count_error(report["state_counts"], report["counted_rounds"], True),
            counters={"cli.output_bytes": len(output)},
        )


def _corner(rng) -> np.ndarray:
    return rng.integers(0, 2, size=4).astype(float)


class PaperPipeline:
    """One seeded strategy pair through the library pipeline: one item is one pair.

    Opponents cycle through three kinds so every run holds the same mix:
    deterministic corners of {0,1}^4 (reducible and periodic chains),
    near-deterministic strategies 10^-U(2,9) away from a corner (slow
    mixing), and interior strategies.  The focal player cycles through
    TFT, WSLS and a random interior strategy.
    """

    name = "paper-pipeline"

    def __init__(self, z, seed: int, tmp) -> None:
        self.z, self.seed = z, seed

    def pair(self, i: int):
        z = self.z
        rng = _rng(self.seed, i)
        kind, focal_kind = i % 3, (i // 3) % 3
        if kind == 0:
            p = _corner(rng)
        elif kind == 1:
            corner = _corner(rng)
            delta = 10.0 ** -rng.uniform(2, 9, size=4)
            p = np.where(corner == 1.0, 1.0 - delta, delta)
        else:
            p = rng.random(4)
        if focal_kind == 0:
            focal = z.named_strategy("tft")
        elif focal_kind == 1:
            focal = z.named_strategy("wsls")
        else:
            focal = z.MemoryOneStrategy(tuple(rng.random(4)))
        return focal, z.MemoryOneStrategy(tuple(p)), focal_kind == 0

    def _bases(self, m):
        B = self.z.BasisSpec
        return B.zd(m), B.wsls4(m), B.monomial(m, 3), B.exponential(m, 0.5)

    def op(self, i: int) -> OpResult:
        z = self.z
        m = z.DEFAULT_PAYOFFS
        s1, s2, focal_is_tft = self.pair(i)
        M = z.transition_matrix(s1, s2)
        structure = z.classify(M)
        limit = z.cesaro_limit(M, None, tol=CESARO_TOL, max_steps=CESARO_MAX_STEPS)
        pi = limit.distribution
        pd = z.press_dyson(s1, 1)
        akin = z.akin_residual(pd, pi)
        relations = []
        for basis in self._bases(m):
            decomposition = z.decompose(pd, basis)
            if decomposition.exact:
                relations.append(z.relation_value(decomposition.coefficients, pi, m))
        cfg = z.SimulationConfig(rounds=PIPELINE_ROUNDS, seed=self.seed + i,
                                 burn_in=0, noise=0.0)
        counters = {"markov.nonergodic": not structure.ergodic}
        if structure.ergodic:
            report = z.empirical_vs_exact(s1, s2, cfg, GATE_SIGMA).simulation
        else:
            report = z.simulate(s1, s2, cfg)
        counts = report.state_counts
        passed = (
            limit.converged
            and abs(akin) <= AKIN_TOL
            and all(abs(r) <= RELATION_TOL for r in relations)
        )
        error = _count_error(counts, report.counted_rounds, focal_is_tft)
        output = repr((tuple(pi), limit.converged, akin, relations, counts)).encode()
        return OpResult(1, output, error, passed, counters)


WORKLOADS = {w.name: w for w in (VerifyRandom, SimulateLong, PaperPipeline)}


def kernel_oracle_error(z, seed: int) -> str | None:
    """Compare ``simulate``'s state counts with a plain sequential loop.

    The loop replays the documented stream layout: one uniform for the
    initial-state draw from the uniform distribution, then two uniforms
    per round, player 1's first.  Counts must match bit for bit.
    """
    rng = np.random.default_rng(seed)
    a, b = (tuple(float(x) for x in rng.random(4)) for _ in range(2))
    rounds, burn_in, noise = 20_000, 100, 0.05
    cfg = z.SimulationConfig(rounds=rounds, seed=seed, initial=None,
                             burn_in=burn_in, noise=noise)
    got = tuple(z.simulate(z.MemoryOneStrategy(a), z.MemoryOneStrategy(b), cfg).state_counts)

    p1 = [(1.0 - noise) * x + noise / 2.0 for x in a]
    own2 = [(1.0 - noise) * x + noise / 2.0 for x in b]
    p2 = [own2[0], own2[2], own2[1], own2[3]]  # player 2's frame swaps CD and DC
    stream = np.random.Generator(np.random.PCG64(seed))
    first = stream.random()
    state = min(sum(c <= first for c in (0.25, 0.5, 0.75, 1.0)), 3)
    u = stream.random((rounds, 2)).tolist()
    expected = [0, 0, 0, 0]
    for t in range(rounds):
        state = 2 * (u[t][0] >= p1[state]) + (u[t][1] >= p2[state])
        if t >= burn_in:
            expected[state] += 1
    if got != tuple(expected):
        return f"simulate counts {got} differ from the sequential loop's {tuple(expected)}"
    return None
