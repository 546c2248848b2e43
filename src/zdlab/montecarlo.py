"""Seeded round-by-round simulation of a memory-one strategy pair.

Randomness comes from numpy's PCG64 bit generator, recorded by name in
every report so that runs are reproducible and auditable: after the
optional initial-state draw, round t consumes exactly two uniform values,
player 1's first (positions 2t and 2t+1 of the stream).  Parallel sweeps
derive per-trial seeds as base + trial index via :func:`derive_seed`;
streams are never shared.

The inner counting loop is compiled with numba when it is installed and
falls back to pure Python otherwise; both paths perform the identical
comparisons, so reports are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .game import (
    DEFAULT_PAYOFFS,
    JointState,
    MemoryOneStrategy,
    PayoffMatrix,
    cooperation_probs,
    payoff_vector,
    transition_matrix,
)
from .markov import (
    LimitResult,
    as_distribution,
    cesaro_limit,
    point_mass,
    uniform_distribution,
)
from .moments import PayoffDistribution, payoff_distribution

try:  # pragma: no cover - exercised implicitly by whichever env runs
    from numba import njit as _njit
except ImportError:  # pragma: no cover
    _njit = None

__all__ = [
    "PRNG_ID",
    "SimulationConfig",
    "SimulationReport",
    "ComparisonReport",
    "derive_seed",
    "simulate",
    "empirical_vs_exact",
]

#: Identifier of the pseudo-random generator backing every simulation.
PRNG_ID = "numpy.random.PCG64"

_SEED_MODULUS = 2**64


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for trial ``index`` of a sweep: base + index (mod 2^64)."""
    return (int(base_seed) + int(index)) % _SEED_MODULUS


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
            raise ValueError(f"noise must lie in [0, 1/2], got {self.noise!r}")
        if self.initial is not None and not isinstance(self.initial, JointState):
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


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Outcome of one simulation, echoing everything needed to re-run it."""

    state_counts: tuple[int, int, int, int]
    frequencies: tuple[float, float, float, float]
    moments: Mapping[int, Mapping[int, float]]
    histograms: Mapping[int, PayoffDistribution]
    rounds: int
    counted_rounds: int
    seed: int
    config: SimulationConfig
    payoffs: PayoffMatrix
    k_max: int
    prng: str = PRNG_ID

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimulationReport):
            return NotImplemented
        return (
            self.state_counts == other.state_counts
            and self.frequencies == other.frequencies
            and dict(self.moments) == dict(other.moments)
            and dict(self.histograms) == dict(other.histograms)
            and self.rounds == other.rounds
            and self.counted_rounds == other.counted_rounds
            and self.seed == other.seed
            and self.config == other.config
            and self.payoffs == other.payoffs
            and self.k_max == other.k_max
            and self.prng == other.prng
        )


def _count_states_py(u1, u2, p1, p2, state, burn_in):
    counts = [0, 0, 0, 0]
    p1 = list(p1)
    p2 = list(p2)
    for t in range(len(u1)):
        state = 2 * (u1[t] >= p1[state]) + (u2[t] >= p2[state])
        if t >= burn_in:
            counts[state] += 1
    return counts


if _njit is not None:

    @_njit(cache=False)
    def _count_states_nb(u1, u2, p1, p2, state, burn_in):  # pragma: no cover
        counts = np.zeros(4, dtype=np.int64)
        for t in range(u1.shape[0]):
            state = 2 * (u1[t] >= p1[state]) + (u2[t] >= p2[state])
            if t >= burn_in:
                counts[state] += 1
        return counts


def _count_states(u: np.ndarray, p1: np.ndarray, p2: np.ndarray, state: int, burn_in: int):
    if _njit is not None:
        return tuple(int(c) for c in _count_states_nb(u[:, 0], u[:, 1], p1, p2, state, burn_in))
    return tuple(_count_states_py(u[:, 0].tolist(), u[:, 1].tolist(), p1, p2, state, burn_in))


def simulate(
    s1: MemoryOneStrategy,
    s2: MemoryOneStrategy,
    cfg: SimulationConfig,
    payoffs: PayoffMatrix = DEFAULT_PAYOFFS,
    k_max: int = 6,
) -> SimulationReport:
    """Play ``cfg.rounds`` rounds and report empirical statistics.

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
        state = int(np.searchsorted(cumulative, rng.random(), side="right"))
        state = min(state, 3)

    p1 = cooperation_probs(s1.with_noise(cfg.noise), 1)
    p2 = cooperation_probs(s2.with_noise(cfg.noise), 2)
    uniforms = rng.random((cfg.rounds, 2))
    counts = _count_states(uniforms, p1, p2, state, cfg.burn_in)

    counted = cfg.rounds - cfg.burn_in
    frequencies = tuple(c / counted for c in counts)
    moments = {
        player: {
            k: float(np.dot(payoff_vector(payoffs, player).array ** k, frequencies))
            for k in range(1, k_max + 1)
        }
        for player in (1, 2)
    }
    histograms = {
        player: payoff_distribution(payoff_vector(payoffs, player), frequencies)
        for player in (1, 2)
    }
    return SimulationReport(
        state_counts=counts,
        frequencies=frequencies,
        moments=moments,
        histograms=histograms,
        rounds=cfg.rounds,
        counted_rounds=counted,
        seed=cfg.seed,
        config=cfg,
        payoffs=payoffs,
        k_max=k_max,
    )


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
    payoffs: PayoffMatrix = DEFAULT_PAYOFFS,
) -> ComparisonReport:
    """Cross-validate a simulation against the exact Cesaro limit.

    The exact side uses the same noise-mixed strategies and the same
    initial distribution as the simulation.
    """
    report = simulate(s1, s2, cfg, payoffs=payoffs)
    M = transition_matrix(s1.with_noise(cfg.noise), s2.with_noise(cfg.noise))
    exact = cesaro_limit(M, cfg.initial_distribution(), tol=1e-13)
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
