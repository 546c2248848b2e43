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

The elimination works on a stack of chains at once (:func:`cesaro_limits`).
Chains sharing a support pattern share their classification and their
elimination order, so each pattern is classified once and eliminated as
one vectorised group; :func:`cesaro_limit` is its N=1 case.  Every
weighted sum over states in the package is :func:`ordered_dot`, which adds
its terms first to last in elementwise numpy and never calls BLAS, so a
result has the same bits on every CPU and in every batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChainStructure",
    "LimitResult",
    "LimitBatch",
    "point_mass",
    "classify",
    "cesaro_limit",
    "cesaro_limits",
]

N_STATES = 4

#: Default bound on the fixed-point residual max|M pi - pi|, tight because
#: k-th moment checks amplify distribution error by T^k.
DEFAULT_TOL = 1e-13

#: Slack allowed in a given distribution's signs and sum.
_DISTRIBUTION_TOL = 1e-12

#: Bit 4*to + frm of a chain's support mask is set when M[to, frm] > 0.
_MASK_BITS = 1 << np.arange(N_STATES * N_STATES)


def as_distribution(pi) -> np.ndarray:
    """Validate and return a probability vector over the four states."""
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if pi.shape != (N_STATES,):
        raise ValueError(f"a state distribution has {N_STATES} entries, got {pi.shape}")
    if np.any(pi < -_DISTRIBUTION_TOL):
        raise ValueError(f"negative probability in {pi}")
    if not abs(pi.sum() - 1.0) <= _DISTRIBUTION_TOL:  # NaN fails too
        raise ValueError(f"probabilities sum to {float(pi.sum())!r}, not 1")
    return np.clip(pi, 0.0, None)


def uniform_distribution() -> np.ndarray:
    return np.full(N_STATES, 1.0 / N_STATES)


def point_mass(state: int) -> np.ndarray:
    pi = np.zeros(N_STATES)
    pi[int(state)] = 1.0
    return pi


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
    def unique(self) -> bool:
        """One recurrent class: the stationary distribution is unique."""
        return sum(self.recurrent) == 1

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


def _support_masks(Ms: np.ndarray) -> np.ndarray:
    return (Ms.reshape(-1, N_STATES * N_STATES) > 0.0) @ _MASK_BITS


def classify(M) -> ChainStructure:
    """Exact structural classification of the chain's support graph.

    Entries > 0 are treated as edges.  Communicating classes are computed
    by reachability closure, recurrence by closedness, and the period of a
    recurrent class as the gcd of its short closed-walk lengths (cycles of
    length <= class size suffice on four states).  The result depends on
    the support pattern alone and is cached per pattern.
    """
    return _classify_mask(int(_support_masks(np.asarray(M, dtype=float))[0]))


@lru_cache(maxsize=4096)
def _classify_mask(mask: int) -> ChainStructure:
    support = (mask >> np.arange(N_STATES * N_STATES)) & 1
    edge = support.reshape(N_STATES, N_STATES).T.astype(np.int8)  # edge[i, j]: i -> j
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


class LimitBatch(NamedTuple):
    """Long-run distributions of a stack of N chains, with their checks.

    ``distributions`` (N, 4) is read-only; ``residuals`` (N,) holds each
    fixed-point defect max|M pi - pi|, ``converged`` (N,) whether it is
    within the requested tolerance, ``structures`` each chain's
    :class:`ChainStructure` (shared between chains of one support pattern),
    and the read-only ``unique`` (N,) each structure's ``unique``.
    """

    distributions: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    structures: tuple[ChainStructure, ...]
    unique: np.ndarray


def ordered_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of ``a * b`` over the last axis, added first to last: ((t0 + t1) + t2) + t3."""
    total = a[..., 0] * b[..., 0]
    for j in range(1, max(a.shape[-1], b.shape[-1])):  # unequal lengths: IndexError
        total += a[..., j] * b[..., j]
    return total


def _gth_stack(P: np.ndarray) -> np.ndarray:
    """Stationary distributions of a stack of irreducible blocks (GTH).

    ``P`` (G, n, n) holds row-stochastic blocks.  Removes states last to
    first, folding the paths through each removed state into direct moves
    among the states before it, then rebuilds the distribution front to
    back; ``P`` is overwritten.
    """
    n = P.shape[1]
    for k in range(n - 1, 0, -1):
        P[:, :k, k] /= P[:, k, :k].sum(axis=1, keepdims=True)  # a sum, never 1 - P[k, k]
        P[:, :k, :k] += P[:, :k, k, None] * P[:, k, None, :k]
    x = np.ones((len(P), n))
    for k in range(1, n):
        x[:, k] = ordered_dot(x[:, :k], P[:, :k, k])
    return x / x.sum(axis=1, keepdims=True)


def _solve_group(Ms: np.ndarray, pi0: np.ndarray, structure: ChainStructure) -> np.ndarray:
    """Cesaro limits from ``pi0`` of chains sharing ``structure``: (G, 4)."""
    transient = structure.transient_states
    recurrent = structure.recurrent_classes
    order = np.array(list(transient) + [s for members in recurrent for s in members])
    # P[g, i, j]: one step i -> j of chain g, transient states first
    P = np.ascontiguousarray(Ms[:, order[None, :], order[:, None]])
    mass = np.tile(pi0[order], (len(P), 1))
    for k in range(len(transient)):
        rest = slice(k + 1, N_STATES)
        exits = P[:, k, rest] / P[:, k, rest].sum(axis=1, keepdims=True)
        P[:, rest, rest] += P[:, rest, k, None] * exits[:, None, :]
        mass[:, rest] += mass[:, k, None] * exits
    pi = np.zeros((len(P), N_STATES))
    start = len(transient)
    for members in recurrent:
        block = slice(start, start + len(members))
        weight = mass[:, block].sum(axis=1, keepdims=True)
        pi[:, list(members)] = weight * _gth_stack(P[:, block, block])
        start = block.stop
    return pi / pi.sum(axis=1, keepdims=True)


def cesaro_limits(Ms, pi0=None, tol: float = DEFAULT_TOL) -> LimitBatch:
    """Cesaro limits of a stack of chains from one starting distribution.

    ``Ms`` (N, 4, 4) stacks column-stochastic transition matrices.  Each
    distinct support pattern is classified once, and its chains are solved
    together by state reduction and GTH (see the module docstring); chain
    ``n``'s result is bit-identical to ``cesaro_limit(Ms[n], pi0, tol)``.
    ``pi0`` is uniform when None; ``tol`` bounds the residual for
    ``converged``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {float(tol)!r}")
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 3 or Ms.shape[1:] != (N_STATES, N_STATES):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {Ms.shape}")
    pi0 = uniform_distribution() if pi0 is None else as_distribution(pi0)
    masks, group = np.unique(_support_masks(Ms), return_inverse=True)
    structures = [_classify_mask(mask) for mask in masks.tolist()]
    pis = np.empty((len(Ms), N_STATES))
    for index, structure in enumerate(structures):
        members = np.flatnonzero(group == index)
        pis[members] = _solve_group(Ms[members], pi0, structure)
    pis.flags.writeable = False
    residuals = np.abs(ordered_dot(Ms, pis[:, None, :]) - pis).max(axis=1)
    unique = np.array([structure.unique for structure in structures])[group]
    unique.flags.writeable = False
    return LimitBatch(
        pis, residuals, residuals <= tol,
        tuple(structures[g] for g in group.tolist()), unique,
    )


def cesaro_limit(M, pi0=None, tol: float = DEFAULT_TOL, max_steps=None) -> LimitResult:
    """Cesaro (time-average) limit of the chain from a starting distribution.

    Computes lim_n (1/n) sum_{t<n} pi_t exactly: the mass ``pi0`` puts on
    transient states is carried to the recurrent classes it is absorbed
    by, and each class contributes its stationary distribution weighted by
    the mass it holds (see the module docstring).  This is
    :func:`cesaro_limits` for a single chain.

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
    batch = cesaro_limits(np.asarray(M, dtype=float)[None], pi0, tol)
    return LimitResult(batch.distributions[0], bool(batch.unique[0]), 0,
                       float(batch.residuals[0]), bool(batch.converged[0]))

