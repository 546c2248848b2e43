"""Seeded round-by-round simulation of a memory-one strategy pair.

Randomness comes from numpy's PCG64 bit generator, recorded by name in
every report so that runs are reproducible and auditable: after the
optional initial-state draw, round t consumes exactly two uniform values,
player 1's first (positions 2t and 2t+1 of the stream).  Independent
trials take distinct seeds; streams are never shared.

A report holds state counts, not payoff statistics: a run's payoff moments
and distributions are :mod:`zdlab.moments` averages under its frequencies.

The counting kernel is numpy only.  It draws the uniforms in fixed-size
chunks, which reproduces the stream of a single draw, and scans each
chunk once, in blocks: it composes the blocks' next-state maps keeping
each prefix, walks the blocks' entry states, then gathers every round's
state; nothing is replayed.  It makes the same ``u >= p`` comparisons as
a round-by-round loop, so the counts are exactly the loop's, with memory
bounded by the chunk size rather than the number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import JointState, MemoryOneStrategy, global_frame, transition_matrix
from .markov import (
    LimitResult,
    as_distribution,
    cesaro_limit,
    point_mass,
    uniform_distribution,
)

__all__ = [
    "PRNG_ID",
    "SimulationConfig",
    "SimulationReport",
    "ComparisonReport",
    "simulate",
    "empirical_vs_exact",
]

#: Identifier of the pseudo-random generator backing every simulation.
PRNG_ID = "numpy.random.PCG64"

_SEED_MODULUS = 2**64

#: Rounds per chunk of uniforms; the kernel's buffers are O(chunk), not O(rounds).
_CHUNK_ROUNDS = 2**17

_IDENTITY = np.arange(4, dtype=np.int8)


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable simulation parameters.

    ``initial`` may be a JointState, a 4-entry distribution, or None for
    the uniform distribution; drawing from a distribution consumes one
    uniform value before the round draws begin.  ``burn_in`` simulated
    rounds are discarded from all statistics.
    """

    rounds: int = 10**6
    seed: int = 0
    initial: JointState | tuple[float, float, float, float] | None = None
    burn_in: int = 10**3
    noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rounds", "seed", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds!r}")
        if not (0 <= self.seed < _SEED_MODULUS):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in!r}")
        if self.burn_in >= self.rounds:
            raise ValueError(
                f"empty sample: burn_in {self.burn_in} leaves no rounds of {self.rounds}"
            )
        if not (0.0 <= self.noise <= 0.5):
            raise ValueError(f"noise must lie in [0, 1/2], got {float(self.noise)!r}")
        object.__setattr__(self, "noise", float(self.noise))
        if self.initial is not None and not isinstance(self.initial, JointState):
            if isinstance(self.initial, bool):
                raise ValueError(f"initial must be a state or distribution, not {self.initial!r}")
            if isinstance(self.initial, (int, np.integer)):
                object.__setattr__(self, "initial", JointState(int(self.initial)))
            else:
                dist = as_distribution(self.initial)
                object.__setattr__(self, "initial", tuple(float(x) for x in dist))

    def initial_distribution(self) -> np.ndarray:
        if self.initial is None:
            return uniform_distribution()
        if isinstance(self.initial, JointState):
            return point_mass(self.initial)
        return as_distribution(self.initial)


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


def _count_states(rng: np.random.Generator, rounds: int, p1: np.ndarray, p2: np.ndarray,
                  state: int, burn_in: int) -> tuple[int, int, int, int]:
    """Count the states of rounds ``burn_in`` to ``rounds - 1``.

    Round t moves state s to ``2*(u1[t] >= p1[s]) + (u2[t] >= p2[s])``.  Each
    chunk is split into blocks of about sqrt(chunk) rounds.  The blocks'
    next-state maps are composed round by round, vectorised over blocks, and
    each prefix is kept: the state after that round for each entry state.  A
    sequential walk through the full compositions gives each block's entry
    state, and one gather by entry state reads every round's state.
    """
    counts = np.zeros(4, dtype=np.int64)
    # one buffer each for all chunks' draws and maps, padding (< isqrt(size)) included;
    # stale padding draws are harmless, as padding rounds get identity maps
    rows = min(_CHUNK_ROUNDS, rounds)
    rows += math.isqrt(rows)
    draws = np.empty((rows, 2))
    cells = np.empty(4 * rows, dtype=np.int8)
    for start in range(0, rounds, _CHUNK_ROUNDS):
        size = min(_CHUNK_ROUNDS, rounds - start)
        block = math.isqrt(size)
        blocks = -(-size // block)
        pad = blocks * block - size
        u = draws[:size + pad]
        rng.random(out=u[:size])
        # maps[j, b, s]: the state after round b*block + j from state s before it,
        # then, composed in place, from state s on entering block b; one pass
        # per state, since a 4-wide inner loop per round is slower
        u = u.reshape(blocks, block, 2).transpose(1, 0, 2)
        maps = cells[:4 * (size + pad)].reshape(block, blocks, 4)
        for s in range(4):
            maps[:, :, s] = (u[:, :, 0] >= p1[s]) * np.int8(2) + (u[:, :, 1] >= p2[s])
        maps[block - pad:, -1] = _IDENTITY  # padding rounds keep the state
        lanes = np.repeat(np.arange(0, 4 * blocks, 4), 4)
        composed = np.tile(_IDENTITY, blocks)
        for step in maps.reshape(block, 4 * blocks):
            step[:] = composed = step.take(lanes + composed)
        entries = [state]
        for table in composed.reshape(blocks, 4).tolist():
            entries.append(table[entries[-1]])
        state = entries.pop()
        path = maps[:, np.arange(blocks), entries].T
        first = max(burn_in - start, 0)
        counts += np.bincount(path.reshape(-1)[first:size], minlength=4)
    return tuple(int(c) for c in counts)


def simulate(s1: MemoryOneStrategy, s2: MemoryOneStrategy,
             cfg: SimulationConfig) -> SimulationReport:
    """Play ``cfg.rounds`` rounds and count the joint states after burn-in.

    Deterministic in (s1, s2, cfg): identical inputs give bit-identical
    reports.  Each round draws player 1's action, then player 2's, from
    the noise-mixed conditional cooperation probabilities given the
    previous state.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if isinstance(cfg.initial, JointState):
        state = int(cfg.initial)
    else:
        cumulative = np.cumsum(cfg.initial_distribution())
        state = min(int(np.searchsorted(cumulative, rng.random(), side="right")), 3)

    p1 = s1.with_noise(cfg.noise).array
    p2 = global_frame(s2.with_noise(cfg.noise).array, 2)
    counts = _count_states(rng, cfg.rounds, p1, p2, state, cfg.burn_in)

    n = cfg.rounds - cfg.burn_in
    return SimulationReport(state_counts=counts, frequencies=tuple(c / n for c in counts),
                            rounds=cfg.rounds, counted_rounds=n, seed=cfg.seed)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Empirical state frequencies versus the exact long-run distribution.

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
    initial distribution as the simulation.
    """
    report = simulate(s1, s2, cfg)
    M = transition_matrix(s1.with_noise(cfg.noise), s2.with_noise(cfg.noise))
    exact = cesaro_limit(M, cfg.initial_distribution())
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
