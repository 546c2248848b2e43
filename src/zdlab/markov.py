"""Long-run behaviour of the four-state chain induced by a strategy pair.

Deterministic strategies such as Tit-for-Tat create reducible and periodic
chains, so "the stationary distribution" is not always a single well-defined
object.  The canonical long-run quantity used throughout this package is the
Cesaro limit of the time-averaged state distribution from a declared start,
a joint state or the uniform start: it exists for every finite chain, it is a
fixed point of the transition matrix, and it is the average against which
Press-Dyson vectors vanish.  The limit is linear in the start, so a mixed
start's limit is the same mixture of the four point-start limits.

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

The elimination is written once, over entries (:func:`cesaro_limits`).
Chains sharing a support pattern share their classification and their
elimination order, so each pattern is classified and planned once per
process.  A chain alone is eliminated, and its residual taken, on Python
floats, and a group on numpy columns, one entry per chain;
:func:`cesaro_limit` is the N=1 case.
Every weighted sum over states in the package adds its terms first to last
in elementwise numpy or Python floats and never calls BLAS
(:func:`ordered_dot` for a stack of sums, :func:`float_dot` for one), so a
result has the same bits on every CPU and in every batch.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, isnan, nan
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .game import JointState, real_number

__all__ = [
    "classify",
    "cesaro_limit",
    "cesaro_limits",
]

N_STATES = 4

#: Default bound on the fixed-point residual max|M pi - pi|, tight because
#: k-th moment checks amplify distribution error by T^k.
DEFAULT_TOL = 1e-13

#: Bit 4*to + frm of a chain's support mask is set when M[to, frm] > 0.
_MASK_BITS = 1 << np.arange(N_STATES * N_STATES)

#: The start distributions, read-only: row s is all mass on joint state s,
#: and the last row is the uniform start.
_STARTS = np.vstack([np.eye(N_STATES), np.full(N_STATES, 1.0 / N_STATES)])
_STARTS.flags.writeable = False


def check_start(initial) -> None:
    """Refuse a start that is neither a JointState nor None (the uniform start)."""
    if initial is not None and not isinstance(initial, JointState):
        raise ValueError(f"initial must be a JointState or None, got {initial!r}")


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
    return _classify_mask(int(_support_masks(np.asarray(M, dtype=float))[0])).structure


class _Plan(NamedTuple):
    """How the chains of one support pattern are solved.

    The elimination visits the states in ``order``: the ``transient``
    transient states first, then each recurrent class, whose rows in that
    order and whose states ``blocks`` holds.  ``take[4i + j]`` indexes the
    flattened matrix at ``P[i, j]``, one step from the i-th state to the j-th.
    """

    structure: ChainStructure
    order: np.ndarray
    take: np.ndarray
    transient: int
    blocks: tuple[tuple[slice, tuple[int, ...]], ...]


@lru_cache(maxsize=4096)
def _classify_mask(mask: int) -> _Plan:
    states = range(N_STATES)
    succ = [{to for to in states if (mask >> (N_STATES * to + frm)) & 1} for frm in states]

    def step(frontier: set[int]) -> set[int]:  # the states one move from the frontier
        return set().union(*(succ[j] for j in frontier))

    reach = [{i} for i in states]
    for _ in range(N_STATES - 1):  # a shortest path on four states has at most three steps
        reach = [r | step(r) for r in reach]
    classes = tuple(dict.fromkeys(
        tuple(j for j in states if j in reach[i] and i in reach[j]) for i in states
    ))
    recurrent = tuple(reach[members[0]] <= set(members) for members in classes)
    periods: list[int | None] = []
    for members, closed in zip(classes, recurrent):
        walks, period = [{i} for i in members], 0  # walks[k]: where t steps from members[k] end
        for t in range(1, len(members) + 1):
            walks = [step(w) for w in walks]
            if any(i in w for i, w in zip(members, walks)):
                period = gcd(period, t)
        periods.append(period if closed else None)
    ergodic = sum(recurrent) == 1 and all(p in (None, 1) for p in periods)
    structure = ChainStructure(classes, recurrent, tuple(periods), ergodic)
    transient, closed = structure.transient_states, structure.recurrent_classes
    order = np.array(transient + sum(closed, ()))
    take = (N_STATES * order[None, :] + order[:, None]).ravel()
    order.flags.writeable = take.flags.writeable = False  # one plan serves every caller
    starts = list(accumulate(map(len, closed), initial=len(transient)))
    blocks = tuple((slice(a, b), c) for c, a, b in zip(closed, starts, starts[1:]))
    return _Plan(structure, order, take, len(transient), blocks)


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
    """Sums of ``a * b`` over the last axis, added first to last: ((t0 + t1) + t2) + t3.

    For stacks of sums; :func:`float_dot` takes a single one.
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"cannot pair {a.shape[-1]} terms with {b.shape[-1]}")
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total += a[..., j] * b[..., j]
    return total


def float_dot(a: list, b: list) -> float:
    """The sum of ``a * b`` over two lists of Python floats, added first to last.

    The bits :func:`ordered_dot` gives on the same two 1-D arrays, with no
    numpy call; not the builtin ``sum``, which compensates from Python 3.12
    on.  Lists of unequal length are a ValueError; the empty sum is 0.0.
    """
    if len(a) != len(b):
        raise ValueError(f"cannot pair {len(a)} terms with {len(b)}")
    return reduce(add, map(mul, a, b)) if a else 0.0


def state_vector(x, what: str) -> list:
    """``x`` as four Python floats, one per joint state; any shape but (4,) is a ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (N_STATES,):
        raise ValueError(f"{what} must be of shape (4,), got shape {x.shape}")
    return x.tolist()


def _solve(P: list, mass: list, plan: _Plan) -> list:
    """Each state's Cesaro limit, from steps ``P[i][j]`` and start ``mass[i]`` in plan order.

    An entry is a Python float, a (G,) numpy column of G chains or a Fraction; every carrier
    takes the same steps, and a sum adds its terms first to last from zero, as numpy's does.
    ``P`` and ``mass`` are overwritten; no diagonal entry affects the result.
    """
    zero = mass[0] * 0  # of the entries' own type, so Fractions stay exact
    for k in range(plan.transient):  # carry state k's paths and mass to the states after it
        rest = range(k + 1, N_STATES)
        out = reduce(add, P[k][k + 1:], zero)
        exits = [P[k][j] / out for j in rest]
        for row in [P[i] for i in rest] + [mass]:  # the start's mass moves as one more row
            for j, go in zip(rest, exits):
                row[j] += row[k] * go
    pi = [zero] * N_STATES
    for block, members in plan.blocks:
        lo, hi = block.start, block.stop
        for k in range(hi - 1, lo, -1):  # GTH: fold the paths through state k into those before it
            pivot = reduce(add, P[k][lo:k], zero)  # a sum, never 1 - P[k][k]
            for i in range(lo, k):
                P[i][k] /= pivot
                for j in range(lo, k):
                    P[i][j] += P[i][k] * P[k][j]
        x = [zero + 1]  # x_k: the sum of x_i P[i][k] over i < k, once each x_i is final
        for k in range(lo + 1, hi):
            x.append(reduce(add, [x_i * P[i][k] for i, x_i in enumerate(x, lo)], zero))
        weight, total = reduce(add, mass[block], zero), reduce(add, x, zero)
        for state, x_i in zip(members, x):
            pi[state] = weight * (x_i / total)
    total = reduce(add, pi, zero)
    return [p / total for p in pi]


def cesaro_limits(Ms, initial=None, tol: float = DEFAULT_TOL) -> LimitBatch:
    """Cesaro limits of a stack of chains from one start.

    ``Ms`` (N, 4, 4) stacks column-stochastic transition matrices.  Each
    distinct support pattern is classified once, and its chains are solved
    together by state reduction and GTH (see the module docstring); chain
    ``n``'s result is bit-identical to ``cesaro_limit(Ms[n], initial, tol)``.
    ``initial`` is a JointState, or None for the uniform start; anything
    else is a ValueError.  ``tol`` bounds the residual for ``converged``.
    """
    tol = real_number(tol, "tolerance")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 3 or Ms.shape[1:] != (N_STATES, N_STATES):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {Ms.shape}")
    check_start(initial)
    pi0 = _STARTS[N_STATES if initial is None else initial]
    masks = _support_masks(Ms).tolist()
    groups: dict[int, list[int]] = {}
    for n, mask in enumerate(masks):
        groups.setdefault(mask, []).append(n)
    plans = {mask: _classify_mask(mask) for mask in groups}
    flat = Ms.reshape(-1, N_STATES * N_STATES)
    pis = np.empty((len(Ms), N_STATES))
    residuals = np.empty(len(Ms))
    unique = np.empty(len(Ms), dtype=bool)
    start = pi0.tolist()
    columns = False  # whether some chains are solved on numpy columns
    for mask, members in groups.items():
        plan, pi = plans[mask], None
        order = plan.order.tolist()
        mass = [start[i] for i in order]
        if len(members) == 1:  # on Python floats, where a 0/0 raises and reruns as a column
            n = members[0]
            M = Ms[n].tolist()
            with suppress(ZeroDivisionError):  # a copy, as a failed solve leaves mass half moved
                pi = _solve([[M[j][i] for j in order] for i in order], mass[:], plan)
        if pi is not None:  # max|M pi - pi|, nan as soon as one term is
            gaps = [abs(float_dot(row, pi) - p) for row, p in zip(M, pi)]
            residuals[n] = nan if any(map(isnan, gaps)) else max(gaps)
        else:
            n, columns = np.array(members), True  # a list index is converted anew at each use
            P = flat[n].T.take(plan.take, axis=0).reshape(N_STATES, N_STATES, -1)
            with np.errstate(all="ignore"):  # an underflowed pivot gives nan, as the residual says
                pi = np.transpose(_solve([list(row) for row in P], mass, plan))
        pis[n] = pi
        unique[n] = plan.structure.unique
    if columns:  # then every residual in one batch, a chain alone's with the same bits
        residuals = np.maximum.reduce(np.abs(ordered_dot(Ms, pis[:, None, :]) - pis), axis=1)
    pis.flags.writeable = False
    unique.flags.writeable = False
    structures = tuple(plans[mask].structure for mask in masks)
    return LimitBatch(pis, residuals, residuals <= tol, structures, unique)


def cesaro_limit(M, initial=None, tol: float = DEFAULT_TOL, max_steps=None) -> LimitResult:
    """Cesaro (time-average) limit of the chain from a start.

    Computes lim_n (1/n) sum_{t<n} pi_t exactly: the mass the start puts on
    transient states is carried to the recurrent classes it is absorbed
    by, and each class contributes its stationary distribution weighted by
    the mass it holds (see the module docstring).  This is
    :func:`cesaro_limits` for a single chain.

    Parameters
    ----------
    M : array_like, shape (4, 4)
        Column-stochastic transition matrix.
    initial : JointState or None
        The start: all mass on one joint state, or uniform when None.
    tol : float
        Bound on the fixed-point residual max|M pi - pi| for ``converged``.
    max_steps : ignored
        Accepted so that callers written for an iterative solver keep
        working; the solve is finite, so there is no step budget.

    Returns
    -------
    LimitResult; ``converged`` is False when the residual exceeds ``tol``.
    """
    batch = cesaro_limits(np.asarray(M, dtype=float)[None], initial, tol)
    return LimitResult(batch.distributions[0], bool(batch.unique[0]), 0,
                       float(batch.residuals[0]), bool(batch.converged[0]))

