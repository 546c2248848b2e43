"""Payoff moments, moment generating functions, and payoff distributions.

Every moment, cross moment, MGF value and enforced relation is an average
<f, pi> of a payoff feature f (a power, product or exponential of payoff
vectors) under a state distribution pi, and all of them go through one kernel,
:func:`feature_averages`, which evaluates a stack of features under a stack
of distributions.  It makes one BLAS dot per (distribution, feature) pair,
so a value does not depend on how many others are computed with it;
:func:`moment`, :func:`cross_moment` and :func:`mgf` are its single-value
entry points on any 4-vector.  A payoff distribution is the (support,
probabilities) pair that :func:`payoff_distributions` builds.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .game import PayoffMatrix, check_exp_range, payoff_features

__all__ = [
    "feature_averages",
    "moment",
    "cross_moment",
    "mgf",
    "relation_value",
    "payoff_distributions",
    "distribution_stacks_equal",
]

#: Exponents above this are refused: payoff values raised to very large
#: powers silently lose all relative precision in double arithmetic.
K_CAP = 20

#: Absolute tolerance for treating two payoff values as the same outcome.
VALUE_TOL = 1e-12


def _check_k(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {k!r}")
    if k > K_CAP:
        raise ValueError(f"moment order {k} exceeds the precision cap {K_CAP}")
    return int(k)


def moment_orders(k_max: int) -> list[int]:
    """The moment orders 1 ... ``k_max``, each at most :data:`K_CAP`."""
    if not isinstance(k_max, (int, np.integer)) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"need at least one moment order, got k_max={k_max!r}")
    return [_check_k(k) for k in range(1, k_max + 1)]


def feature_averages(F, pi) -> np.ndarray:
    """Averages <f, pi> of every feature row f of ``F`` under every ``pi``.

    ``F`` has shape (m, 4) and ``pi`` (..., 4); the result has shape
    (..., m).  Each entry is one BLAS dot, as ``np.dot(f, pi)`` would
    compute it; a matrix product would switch BLAS kernels with the stack
    size and round differently.
    """
    F = np.asarray(F, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return np.matmul(pi[..., None, None, :], F[:, :, None])[..., 0, 0]


def moment(v, pi, k: int) -> float:
    """k-th payoff moment sum_s v[s]^k * pi[s] for k >= 1."""
    k = _check_k(k)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    return float(feature_averages([np.asarray(v, dtype=float) ** k], pi)[0])


def cross_moment(v1, v2, pi, k1: int, k2: int) -> float:
    """Mixed moment sum_s v1[s]^k1 * v2[s]^k2 * pi[s], k1 and k2 >= 0."""
    k1 = _check_k(k1)
    k2 = _check_k(k2)
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    return float(feature_averages([v1 ** k1 * v2 ** k2], pi)[0])


def mgf(v, pi, h: float) -> float:
    """Moment generating function sum_s e^{h * v[s]} * pi[s], for finite h."""
    v = np.asarray(v, dtype=float)
    check_exp_range(h, float(np.max(np.abs(v))))
    return float(feature_averages([np.exp(h * v)], pi)[0])


def relation_value(coeffs: Mapping, pi, m: PayoffMatrix) -> float:
    """Evaluate a linear combination of payoff averages.

    ``coeffs`` maps payoff-feature labels (see
    :func:`zdlab.game.payoff_features`) to coefficients; the result is
    the dot product of the coefficients with the features' averages under
    ``pi``.  Monomial exponents above ``K_CAP`` are refused, as for
    :func:`cross_moment`.  When ``pi`` is a long-run distribution of a
    chain in which the decomposed player uses the corresponding strategy,
    the result is the enforced relation and vanishes.
    """
    for label in coeffs:
        if isinstance(label, tuple) and len(label) == 2:
            for k in label:
                _check_k(k)
    averages = feature_averages(payoff_features(m, list(coeffs)), pi)
    return float(np.dot(list(coeffs.values()), averages))


def payoff_distributions(v, pi, value_tol: float = VALUE_TOL):
    """Aggregate state probabilities over states sharing a payoff value.

    Returns the support, the distinct payoff values in ascending order
    (shape (G,)), and the probability of each under every distribution of
    ``pi`` (shape (..., G)).  A payoff within ``value_tol`` of a support
    value counts as that outcome; probabilities are summed in ascending
    payoff order.
    """
    values = np.asarray(v, dtype=float)
    pi = np.asarray(pi, dtype=float)
    support: list[float] = []
    probs: list[np.ndarray] = []
    for idx in np.argsort(values, kind="stable").tolist():
        if support and abs(values[idx] - support[-1]) <= value_tol:
            probs[-1] = probs[-1] + pi[..., idx]
        else:
            support.append(float(values[idx]))
            probs.append(pi[..., idx])
    return np.array(support), np.stack(probs, axis=-1)


def distribution_stacks_equal(a, b, tol: float, value_tol: float = VALUE_TOL) -> np.ndarray:
    """Compare two stacks of payoff distributions outcome by outcome.

    ``a`` and ``b`` are (support, probabilities) pairs as returned by
    :func:`payoff_distributions`, with probabilities of shapes that
    broadcast to each other.  The two supports are merge-walked, matching
    values within ``value_tol``; an outcome present on one side only has
    probability zero on the other.  Returns, per distribution, whether
    every outcome's two probabilities agree within ``tol``.
    """
    (xa, pa), (xb, pb) = a, b
    xa, xb = np.asarray(xa, dtype=float).tolist(), np.asarray(xb, dtype=float).tolist()
    ia = ib = 0
    ja: list[int] = []
    jb: list[int] = []
    while ia < len(xa) or ib < len(xb):
        if ib >= len(xb) or (ia < len(xa) and xa[ia] < xb[ib] - value_tol):
            ja.append(ia)
            jb.append(-1)
            ia += 1
        elif ia >= len(xa) or xb[ib] < xa[ia] - value_tol:
            ja.append(-1)
            jb.append(ib)
            ib += 1
        else:
            ja.append(ia)
            jb.append(ib)
            ia += 1
            ib += 1
    # index -1 selects an appended zero column: the missing outcome
    pa, pb = (np.asarray(p, dtype=float) for p in (pa, pb))
    pa = np.concatenate([pa, np.zeros(pa.shape[:-1] + (1,))], axis=-1)
    pb = np.concatenate([pb, np.zeros(pb.shape[:-1] + (1,))], axis=-1)
    return (np.abs(pa[..., ja] - pb[..., jb]) <= tol).all(axis=-1)

