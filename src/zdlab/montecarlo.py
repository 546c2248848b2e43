"""Seeded round-by-round simulation of a memory-one strategy pair.

Randomness comes from numpy's PCG64 bit generator, recorded by name in
every report so that runs are reproducible and auditable: a uniform start
takes one uniform value, then round t consumes exactly two, player 1's
first.  Independent trials take distinct seeds; streams are never shared.

A report holds state counts, not payoff statistics: a run's payoff moments
and distributions are :mod:`zdlab.moments` averages under its frequencies.

The counting kernel is numpy only.  It draws the uniforms in fixed-size
pieces, which reproduces the stream of a single draw.  Each round's next
state depends only on the ranks of its two uniforms among the players'
distinct thresholds, so the kernel ranks each uniform once into a byte
row, with the same ``u >= p`` comparisons as a round-by-round loop, and
the pair of ranks is the round's code: one of at most 25 next-state maps,
each a byte holding state s's image in bits 2s and 2s+1.  It then scans
each chunk of codes once, in blocks: it composes the blocks' maps through
a 256 x 256 table of compositions, built once per process, keeping each
prefix; finds the blocks' entry states by a prefix scan of their full
maps; and reads every round's state from its prefix by one shift.
Nothing is replayed, so the counts are exactly the loop's, with memory
bounded by the chunk size rather than the number of rounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .game import (JointState, MemoryOneStrategy, _is_int, _shown, check_noise, global_frame,
                   real_number, transition_matrix)
from .markov import LimitResult, cesaro_limit, check_start

__all__ = [
    "PRNG_ID",
    "SimulationConfig",
    "simulate",
    "empirical_vs_exact",
]

#: Identifier of the pseudo-random generator backing every simulation.
PRNG_ID = "numpy.random.PCG64"

#: Rounds per chunk of uniforms; the kernel's buffers are O(chunk), not O(rounds).
_CHUNK_ROUNDS = 2**17

#: Rounds drawn and ranked at a time, in whole blocks, so the float buffers stay small.
_PIECE_ROUNDS = 2**14

#: The one-byte code of the identity map: state s's image sits in bits 2s and 2s+1.
_IDENTITY = 0b11100100


def check_seed(seed: int) -> None:
    """Refuse an integer seed outside [0, 2**64), the seeds a run records and replays."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {_shown(seed)}")


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable simulation parameters.

    ``initial`` is the start: a JointState, or None for a state drawn
    uniformly, which consumes one uniform value before the round draws
    begin.  ``burn_in`` simulated rounds are discarded from all statistics.
    """

    rounds: int = 10**6
    seed: int = 0
    initial: JointState | None = None
    burn_in: int = 10**3
    noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rounds", "seed", "burn_in"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds!r}")
        check_seed(self.seed)
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in!r}")
        if self.burn_in >= self.rounds:
            raise ValueError(
                f"empty sample: burn_in {self.burn_in} leaves no rounds of {self.rounds}"
            )
        object.__setattr__(self, "noise", check_noise(self.noise))
        check_start(self.initial)


@dataclass(frozen=True)
class SimulationReport:
    """State counts of one run, with the seed and generator that drew it.

    It holds no payoff statistics and does not echo the whole config.
    """

    state_counts: tuple[int, int, int, int]
    frequencies: tuple[float, float, float, float]
    rounds: int
    counted_rounds: int
    seed: int
    prng: str = PRNG_ID


def _half_codes(p: np.ndarray, bit: int) -> tuple[list[float], list[int]]:
    """A player's distinct thresholds strictly inside (0, 1), and each rank's half map code.

    A uniform u of rank ``r = #{q : u >= q}`` passes ``p[s]`` exactly when
    r exceeds the number of thresholds below ``p[s]``; bit ``2s + bit`` of
    rank r's half code says whether it does.  u lies in [0, 1), so it
    passes threshold 0 and fails threshold 1 without a comparison.
    """
    q = sorted({x for x in p.tolist() if 0 < x < 1})
    cuts = [sum(x < v for x in q) - (v == 0) for v in p.tolist()]
    return q, [sum((r > cut) << 2 * s + bit for s, cut in enumerate(cuts))
               for r in range(len(q) + 1)]


@functools.cache
def _composition_table() -> np.ndarray:
    """``after[m, c]``: the code of map ``m`` applied after map ``c``, for all 256 x 256.

    A map of the four states is one byte whose bits 2s and 2s+1 hold the
    image of s.  Built on first use, then kept, read-only, for the process.
    """
    c = np.arange(256, dtype=np.uint16)
    m = c[:, None]
    after = np.zeros((256, 256), dtype=np.uint16)
    for s in range(4):
        after |= (m >> 2 * (c >> 2 * s & 3) & 3) << 2 * s
    after.flags.writeable = False
    return after


def _count_states(rng: np.random.Generator, rounds: int, p1: np.ndarray, p2: np.ndarray,
                  state: int, burn_in: int) -> tuple[int, int, int, int]:
    """Count the states of rounds ``burn_in`` to ``rounds - 1``.

    Round t moves state s to ``2*(u1[t] >= p1[s]) + (u2[t] >= p2[s])``.  The
    ranks r1, r2 of its uniforms among the players' k1, k2 distinct
    thresholds in (0, 1) settle those comparisons, so the round's code
    ``r1*(k2+1) + r2`` picks its next-state map.  Each chunk is split into
    blocks of about sqrt(chunk/16) rounds, drawn and ranked into a byte row
    a piece of whole blocks at a time.  The blocks' maps are composed round
    by round through the composition table's rows for this call's maps,
    vectorised over blocks, and each prefix is kept: the code of the state
    after that round for each entry state.  A log-step prefix scan of the
    full compositions gives each block's entry state, and one shift and
    mask by it reads every round's state.
    """
    q1, half1 = _half_codes(p1, 1)
    q2, half2 = _half_codes(p2, 0)
    maps = [a + b for a in half1 for b in half2] + [_IDENTITY]
    pad_code = (len(maps) - 1) << 8
    after = _composition_table()
    # row k, column c: round map k applied after composed map c
    table = after[maps].ravel()

    counts = [0, 0, 0, 0]
    # one buffer each for all chunks' codes (padding, < isqrt(size), included)
    # and for one piece's draws, column, ranks and compares
    rows = min(_CHUNK_ROUNDS, rounds)
    rows += math.isqrt(rows)
    cells = np.empty(rows, dtype=np.uint16)
    draws = np.empty((min(_PIECE_ROUNDS, rows), 2))
    column = np.empty(len(draws))
    ranks = np.empty(2 * len(draws), dtype=np.uint8)
    for start in range(0, rounds, _CHUNK_ROUNDS):
        size = min(_CHUNK_ROUNDS, rounds - start)
        block = max(math.isqrt(size // 16), 1)
        blocks = -(-size // block)
        pad = blocks * block - size
        # codes[j, b]: 256 times round b*block + j's code, then the code of the
        # map from block b's entry state to the state after that round, then
        # the state itself
        codes = cells[:block * blocks].reshape(block, blocks)
        per = len(draws) // block
        for b in range(0, blocks, per):
            nb = min(per, blocks - b)
            u = draws[:nb * block]
            rng.random(out=u[:size - b * block])  # stale padding draws get the identity
            u = u.reshape(nb, block, 2)
            col = column[:nb * block].reshape(block, nb)
            rank, hit = ranks[:2 * nb * block].reshape(2, block, nb)
            ranked = False
            for player, q in enumerate((q1, q2)):
                if q:
                    # one strided copy: a strided compare is ten times slower
                    np.copyto(col, u[:, :, player].T)
                    if ranked:
                        rank *= len(q) + 1  # Horner's rule: r1*(k2+1) + r2
                    for x in q:  # the first compare writes the rank, later ones add to it
                        np.greater_equal(col, x, out=(hit if ranked else rank).view(np.bool_))
                        if ranked:
                            rank += hit
                        ranked = True
            codes[:, b:b + nb] = rank if ranked else 0
        codes <<= 8
        codes[block - pad:, -1] = pad_code
        composed = _IDENTITY
        for step in codes:
            step += composed
            composed = table.take(step, out=step)
        # entry[b]: blocks 0 to b - 1 composed, by a log-step scan (Hillis and Steele)
        entry = np.empty(blocks + 1, dtype=np.uint16)
        entry[0] = _IDENTITY
        entry[1:] = composed
        for shift in (1 << k for k in range(blocks.bit_length())):
            entry[shift:] = after.take(entry[shift:] << 8 | entry[:-shift])
        entry >>= 2 * state  # then the state block b enters; the next chunk's is last
        entry &= 3
        state = int(entry[-1])
        first = max(burn_in - start, 0)
        if first < size:
            codes >>= 2 * entry[:-1]
            codes &= 3
            # burnt-in and padding rounds get state 4, which is not counted
            skipped, partial = divmod(first, block)
            codes[:, :skipped] = 4
            codes[:partial, skipped] = 4
            codes[block - pad:, -1] = 4
            for s in range(4):
                counts[s] += int(np.count_nonzero(codes == s))
    return tuple(counts)


def simulate(s1: MemoryOneStrategy, s2: MemoryOneStrategy,
             cfg: SimulationConfig) -> SimulationReport:
    """Play ``cfg.rounds`` rounds and count the joint states after burn-in.

    Deterministic in (s1, s2, cfg): identical inputs give bit-identical
    reports.  Each round draws player 1's action, then player 2's, from
    the noise-mixed conditional cooperation probabilities given the
    previous state.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # k/4 and 4u are exact in binary, so this is the state whose quarter of [0, 1) holds u
    state = int(4 * rng.random()) if cfg.initial is None else int(cfg.initial)

    p1 = s1.with_noise(cfg.noise).array
    p2 = global_frame(s2.with_noise(cfg.noise).array, 2)
    counts = _count_states(rng, cfg.rounds, p1, p2, state, cfg.burn_in)

    n = cfg.rounds - cfg.burn_in
    return SimulationReport(state_counts=counts, frequencies=tuple(c / n for c in counts),
                            rounds=cfg.rounds, counted_rounds=n, seed=cfg.seed)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Empirical state frequencies versus the exact long-run limit from the same start.

    A state is flagged when its deviation exceeds
    tol_sigma * sqrt(pi (1 - pi) / n) + 1/n; the 1/n term is the counting
    resolution, which matters for deterministic chains whose binomial bound
    is exactly zero.
    """

    simulation: SimulationReport
    exact: LimitResult
    deviations: tuple[float, float, float, float]
    bounds: tuple[float, float, float, float]
    flagged: tuple[int, ...]
    passed: bool


def empirical_vs_exact(
    s1: MemoryOneStrategy,
    s2: MemoryOneStrategy,
    cfg: SimulationConfig,
    tol_sigma: float,
) -> ComparisonReport:
    """Cross-validate a simulation against the exact Cesaro limit.

    The exact side uses the same noise-mixed strategies and the same
    start as the simulation.  ``tol_sigma`` must be a positive finite number.
    """
    tol_sigma = real_number(tol_sigma, "tol_sigma")
    if not 0 < tol_sigma < math.inf:
        raise ValueError(f"tol_sigma must be positive and finite, got {tol_sigma!r}")
    report = simulate(s1, s2, cfg)
    M = transition_matrix(s1.with_noise(cfg.noise), s2.with_noise(cfg.noise))
    exact = cesaro_limit(M, cfg.initial)
    n = report.counted_rounds
    pi = exact.distribution
    deviations = tuple(abs(f - p) for f, p in zip(report.frequencies, pi))
    bounds = tuple(
        float(tol_sigma * np.sqrt(p * (1.0 - p) / n) + 1.0 / n) for p in pi
    )
    flagged = tuple(i for i in range(4) if deviations[i] > bounds[i])
    return ComparisonReport(
        simulation=report,
        exact=exact,
        deviations=deviations,
        bounds=bounds,
        flagged=flagged,
        passed=not flagged and exact.converged,
    )
