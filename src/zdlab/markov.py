"""Long-run behaviour of the four-state chain induced by a strategy pair.

Deterministic strategies such as Tit-for-Tat create reducible and periodic
chains, so "the stationary distribution" is not always a single well-defined
object.  The canonical long-run quantity used throughout this package is the
Cesaro limit of the time-averaged state distribution from a declared initial
distribution (uniform unless stated otherwise): it exists for every finite
chain, it is a fixed point of the transition matrix, and it is the average
against which Press-Dyson vectors vanish.

Every long-run distribution here comes from one finite, subtraction-free
elimination.  :func:`classify` splits the states into transient states and
closed (recurrent) classes.  State reduction then removes the transient
states one at a time, pushing their starting mass onto the states they
exit to; this yields the mass each recurrent class absorbs.  Finally the
Grassmann-Taksar-Heyman (GTH) elimination gives the stationary
distribution of each recurrent class, and the Cesaro limit is the
absorbed-mass mixture of those.  Exit probabilities are always sums of
outgoing entries, never ``1 - p_ii``, so slow mixing costs no accuracy
(Grassmann, Taksar & Heyman, Oper. Res. 33, 1985; Stewart, Introduction to
the Numerical Solution of Markov Chains, 1994).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .game import MemoryOneStrategy, transition_matrix

__all__ = [
    "ChainStructure",
    "LimitResult",
    "as_distribution",
    "uniform_distribution",
    "point_mass",
    "evolve",
    "classify",
    "stationary_exact",
    "cesaro_limit",
    "perturbed_stationary",
]

N_STATES = 4

#: Default bound on the fixed-point residual max|M pi - pi|.
DEFAULT_TOL = 1e-12


def as_distribution(pi, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a probability vector over the four states."""
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if pi.shape != (N_STATES,):
        raise ValueError(f"a state distribution has {N_STATES} entries, got {pi.shape}")
    if np.any(pi < -tol):
        raise ValueError(f"negative probability in {pi}")
    if abs(pi.sum() - 1.0) > tol:
        raise ValueError(f"probabilities sum to {pi.sum()!r}, not 1")
    return np.clip(pi, 0.0, None)


def uniform_distribution() -> np.ndarray:
    return np.full(N_STATES, 1.0 / N_STATES)


def point_mass(state: int) -> np.ndarray:
    pi = np.zeros(N_STATES)
    pi[int(state)] = 1.0
    return pi


def evolve(M, pi) -> np.ndarray:
    """One step of the chain: returns M @ pi."""
    return np.asarray(M, dtype=float) @ as_distribution(pi)


@dataclass(frozen=True)
class ChainStructure:
    """Communicating-class decomposition of a 4-state chain.

    ``classes`` partitions {0, 1, 2, 3}; ``recurrent[i]`` marks whether
    ``classes[i]`` is closed; ``periods[i]`` is the period of a recurrent
    class and None for a transient one.  ``ergodic`` is True when there is
    exactly one recurrent class and it is aperiodic (every state then leads
    to it, so the long-run distribution is unique and start-independent).
    """

    classes: tuple[tuple[int, ...], ...]
    recurrent: tuple[bool, ...]
    periods: tuple[int | None, ...]
    ergodic: bool

    @property
    def recurrent_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c, r in zip(self.classes, self.recurrent) if r)

    @property
    def transient_states(self) -> tuple[int, ...]:
        out: list[int] = []
        for c, r in zip(self.classes, self.recurrent):
            if not r:
                out.extend(c)
        return tuple(sorted(out))


def classify(M) -> ChainStructure:
    """Exact structural classification of the chain's support graph.

    Entries > 0 are treated as edges.  Communicating classes are computed
    by reachability closure, recurrence by closedness, and the period of a
    recurrent class as the gcd of its short closed-walk lengths (cycles of
    length <= class size suffice on four states).
    """
    M = np.asarray(M, dtype=float)
    edge = (M.T > 0.0).astype(np.int8)  # edge[i, j]: one step i -> j
    reach = (edge | np.eye(N_STATES, dtype=np.int8)).astype(np.int8)
    for _ in range(2):  # path lengths double per squaring; 4 covers n=4
        reach = ((reach @ reach) > 0).astype(np.int8)
    mutual = (reach & reach.T) > 0

    seen = [False] * N_STATES
    classes: list[tuple[int, ...]] = []
    for i in range(N_STATES):
        if not seen[i]:
            members = tuple(j for j in range(N_STATES) if mutual[i, j])
            for j in members:
                seen[j] = True
            classes.append(members)

    recurrent: list[bool] = []
    periods: list[int | None] = []
    for members in classes:
        closed = all(
            all(j in members for j in np.nonzero(reach[i])[0]) for i in members
        )
        recurrent.append(closed)
        if not closed:
            periods.append(None)
            continue
        sub = edge[np.ix_(members, members)]
        walk = np.eye(len(members), dtype=np.int8)
        period = 0
        for t in range(1, len(members) + 1):
            walk = ((walk @ sub) > 0).astype(np.int8)
            if walk.diagonal().any():
                period = gcd(period, t)
        periods.append(period)

    n_recurrent = sum(recurrent)
    ergodic = n_recurrent == 1 and all(p in (None, 1) for p in periods)
    return ChainStructure(tuple(classes), tuple(recurrent), tuple(periods), ergodic)


@dataclass(frozen=True, eq=False)
class LimitResult:
    """A long-run distribution together with its checks.

    ``residual`` is the fixed-point defect max|M pi - pi|; ``unique`` says
    whether the stationary distribution of the chain is unique (equivalently
    whether there is a single recurrent class), and ``converged`` says
    whether the residual is within the requested tolerance.  The solve is
    finite, so ``iterations`` is always 0.
    """

    distribution: np.ndarray
    unique: bool
    iterations: int
    residual: float
    converged: bool


def _gth(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic block (GTH).

    Removes states last to first, folding the paths through each removed
    state into direct moves among the states before it, then rebuilds the
    distribution front to back; ``P`` is overwritten.
    """
    n = len(P)
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()  # exit probability: a sum, never 1 - P[k, k]
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    x = np.ones(n)
    for k in range(1, n):
        x[k] = x[:k] @ P[:k, k]
    return x / x.sum()


def _long_run(
    M: np.ndarray, pi0: np.ndarray, structure: ChainStructure, tol: float
) -> LimitResult:
    """Cesaro limit from ``pi0`` by state reduction and GTH, with its checks."""
    transient = structure.transient_states
    recurrent = structure.recurrent_classes
    order = list(transient) + [s for members in recurrent for s in members]
    P = M.T[np.ix_(order, order)]  # P[i, j]: one step i -> j, transient states first
    mass = pi0[order]
    for k in range(len(transient)):
        rest = slice(k + 1, N_STATES)
        exits = P[k, rest] / P[k, rest].sum()
        P[rest, rest] += np.outer(P[rest, k], exits)
        mass[rest] += mass[k] * exits
    pi = np.zeros(N_STATES)
    start = len(transient)
    for members in recurrent:
        block = slice(start, start + len(members))
        pi[list(members)] = mass[block].sum() * _gth(P[block, block])
        start = block.stop
    pi /= pi.sum()
    pi.flags.writeable = False
    residual = float(np.max(np.abs(M @ pi - pi)))
    return LimitResult(pi, len(recurrent) == 1, 0, residual, residual <= tol)


def stationary_exact(M) -> LimitResult:
    """A stationary distribution of the chain, solved exactly.

    When the chain has one recurrent class its stationary distribution is
    unique and returned.  When it has several (reducible chains carrying
    several invariant measures), the result is flagged ``unique=False`` and
    the distribution returned is the stationary distribution of the first
    recurrent class, which is one valid solution; callers wanting
    start-dependent limits should use :func:`cesaro_limit`.
    """
    M = np.asarray(M, dtype=float)
    structure = classify(M)
    first = point_mass(structure.recurrent_classes[0][0])
    return _long_run(M, first, structure, DEFAULT_TOL)


def cesaro_limit(M, pi0=None, tol: float = DEFAULT_TOL, max_steps=None) -> LimitResult:
    """Cesaro (time-average) limit of the chain from a starting distribution.

    Computes lim_n (1/n) sum_{t<n} pi_t exactly: the mass ``pi0`` puts on
    transient states is carried to the recurrent classes it is absorbed
    by, and each class contributes its stationary distribution weighted by
    the mass it holds (see the module docstring).

    Parameters
    ----------
    M : array_like, shape (4, 4)
        Column-stochastic transition matrix.
    pi0 : array_like or None
        Initial distribution; uniform when None.
    tol : float
        Bound on the fixed-point residual max|M pi - pi| for ``converged``.
    max_steps : ignored
        Accepted so that callers written for an iterative solver keep
        working; the solve is finite, so there is no step budget.

    Returns
    -------
    LimitResult; ``converged`` is False when the residual exceeds ``tol``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    M = np.asarray(M, dtype=float)
    pi = uniform_distribution() if pi0 is None else as_distribution(pi0)
    return _long_run(M, pi, classify(M), tol)


def perturbed_stationary(
    s1: MemoryOneStrategy, s2: MemoryOneStrategy, eps: float
) -> LimitResult:
    """Stationary distribution after trembling-hand regularisation.

    Both strategies are mixed with uniform noise (p <- (1-eps) p + eps/2)
    and the resulting chain, strictly positive for eps > 0, is solved
    exactly.  This is an analysis tool: for reducible chains its eps -> 0
    limit need not coincide with the Cesaro limit from a particular start,
    so no such identity is asserted anywhere.
    """
    M = transition_matrix(s1.with_noise(eps), s2.with_noise(eps))
    return stationary_exact(M)
