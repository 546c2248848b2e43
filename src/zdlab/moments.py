"""Payoff moments, moment generating functions, and payoff distributions.

Every moment, cross moment, MGF value and enforced relation is an average
<f, pi> of a payoff feature f (a power, product or exponential of payoff
vectors) under a state distribution pi, and all of them go through one kernel,
:func:`feature_averages`, which evaluates a stack of features under a stack
of distributions.  Each average adds its four terms first to last, with no
BLAS call, so a value has the same bits on every CPU and whatever else is
computed with it.  The features are rows of :func:`zdlab.game.payoff_features`:
player 1's k-th moment averages the ``(k, 0)`` row, a cross moment the
``(k1, k2)`` row and an MGF value the ``("exp", player, h)`` row.  A payoff distribution is
the (support, probabilities) pair that :func:`payoff_distributions`
builds, and it has one outcome rule: sorted by value, a payoff within :data:`VALUE_TOL` of the
first value of the current cluster joins that cluster as one outcome.  The
rule is the same within one distribution and between two, since
:func:`distribution_stacks_equal` compares two distributions by clustering
their supports together.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .game import PayoffMatrix, payoff_features
from .markov import ordered_dot

__all__ = [
    "feature_averages",
    "relation_value",
    "payoff_distributions",
    "distribution_stacks_equal",
]

#: The largest moment order accepted: a fixed bound on the orders that
#: ``simulate`` and ``verify-tft`` accept and that a relation may name.
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
    (..., m).  Each entry is ((f0*p0 + f1*p1) + f2*p2) + f3*p3, added in
    that order whatever the CPU and the stack size.
    """
    F = np.asarray(F, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return ordered_dot(pi[..., None, :], F)


def relation_value(coeffs: Mapping, pi, m: PayoffMatrix) -> float:
    """Evaluate a linear combination of payoff averages.

    ``coeffs`` maps payoff-feature labels (see
    :func:`zdlab.game.payoff_features`) to coefficients; the result is
    the dot product of the coefficients with the features' averages under
    ``pi``.  Monomial exponents above ``K_CAP`` are refused, as in
    :func:`moment_orders`.  When ``pi`` is a long-run distribution of a
    chain in which the decomposed player uses the corresponding strategy,
    the result is the enforced relation and vanishes.
    """
    if not coeffs:
        return 0.0  # the empty sum
    for label in coeffs:
        if isinstance(label, tuple) and len(label) == 2:
            for k in label:
                _check_k(k)
    averages = feature_averages(payoff_features(m, list(coeffs)), pi)
    return float(ordered_dot(np.array(list(coeffs.values()), dtype=float), averages))


def payoff_distributions(v, pi):
    """Aggregate state probabilities over states sharing a payoff value.

    Returns the support, the distinct payoff values in ascending order
    (shape (G,)), and the probability of each under every distribution of
    ``pi`` (shape (..., G)).  A payoff within :data:`VALUE_TOL` of a
    support value counts as that outcome; probabilities are summed in ascending
    payoff order.
    """
    values = np.asarray(v, dtype=float)
    pi = np.asarray(pi, dtype=float)
    support: list[float] = []
    probs: list[np.ndarray] = []
    for idx in np.argsort(values, kind="stable").tolist():
        if support and abs(values[idx] - support[-1]) <= VALUE_TOL:
            probs[-1] = probs[-1] + pi[..., idx]
        else:
            support.append(float(values[idx]))
            probs.append(pi[..., idx])
    return np.array(support), np.stack(probs, axis=-1)


def distribution_stacks_equal(a, b, tol: float) -> np.ndarray:
    """Compare two stacks of payoff distributions outcome by outcome.

    ``a`` and ``b`` are (support, probabilities) pairs as returned by
    :func:`payoff_distributions`, with probabilities of shapes that
    broadcast to each other.  The outcomes are those of
    :func:`payoff_distributions` over both supports together, with ``b``'s
    probabilities negated, so an outcome present on one side only has
    probability zero on the other.  Returns, per distribution, whether
    every outcome's two probabilities agree within ``tol``.
    """
    (xa, pa), (xb, pb) = a, b
    pa, pb = np.asarray(pa, dtype=float), np.asarray(pb, dtype=float)
    stack = np.broadcast_shapes(pa.shape[:-1], pb.shape[:-1])
    signed = np.concatenate([np.broadcast_to(pa, stack + pa.shape[-1:]),
                             -np.broadcast_to(pb, stack + pb.shape[-1:])], axis=-1)
    _, gaps = payoff_distributions(np.concatenate([xa, xb]), signed)
    return (np.abs(gaps) <= tol).all(axis=-1)
