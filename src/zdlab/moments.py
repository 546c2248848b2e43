"""Payoff moments, moment generating functions, and payoff distributions.

Every moment, cross moment, MGF value and enforced relation is an average
<f, pi> of a payoff feature f (a power, product or exponential of payoff
vectors) under a state distribution pi.  Stacks of them go through
:func:`feature_averages`, which evaluates a stack of features under a stack
of distributions, and one relation through :func:`zdlab.markov.float_dot`.
Either way each average adds its four terms first to last, with no BLAS
call, so a value has the same bits on every CPU and whatever else is
computed with it.  The features are rows of :func:`zdlab.game.payoff_features`:
player 1's k-th moment averages the ``(k, 0)`` row, a cross moment the
``(k1, k2)`` row and an MGF value the ``("exp", player, h)`` row.  A payoff distribution is
the (support, probabilities) pair that :func:`payoff_distributions`
builds, and it has one outcome rule: equal payoffs are one outcome, in
ascending order.  The rule is the same within one distribution and between
two, since :func:`distribution_stacks_equal` compares two distributions by
merging their supports together.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .game import PayoffMatrix, _is_int, payoff_features, real_number
from .markov import float_dot, state_vector

__all__ = [
    "feature_averages",
    "relation_value",
    "payoff_distributions",
    "distribution_stacks_equal",
]

#: The largest moment order accepted: a fixed bound on the orders that
#: ``simulate`` and ``verify-tft`` accept and that a monomial basis may reach.
K_CAP = 20


def moment_orders(k_max: int) -> list[int]:
    """The moment orders 1 ... ``k_max``, each at most :data:`K_CAP`."""
    if not _is_int(k_max) or k_max < 1:
        raise ValueError(f"need at least one moment order, got k_max={k_max!r}")
    if k_max > K_CAP:  # names the first order at fault
        raise ValueError(f"moment order {K_CAP + 1} exceeds the precision cap {K_CAP}")
    return list(range(1, k_max + 1))


def feature_averages(F, pi) -> np.ndarray:
    """Averages <f, pi> of every feature row f of ``F`` under every ``pi``.

    ``F`` has shape (m, 4) and ``pi`` (..., 4), and any other shape is a
    ValueError; the result has shape (..., m).  Each entry is
    ((f0*p0 + f1*p1) + f2*p2) + f3*p3, added in that order whatever the CPU
    and the stack size.
    """
    F = np.asarray(F, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if F.ndim != 2 or F.shape[1] != 4:
        raise ValueError(f"the features must be of shape (m, 4), got shape {F.shape}")
    if pi.shape[-1:] != (4,):
        raise ValueError(f"the distributions must be of shape (..., 4), got shape {pi.shape}")
    return float_dot([pi[..., None, j] for j in range(4)], F.T)


def relation_value(coeffs: Mapping, pi, m: PayoffMatrix) -> float:
    """Evaluate a linear combination of payoff averages.

    ``coeffs`` maps payoff-feature labels (see
    :func:`zdlab.game.payoff_features`) to coefficients; the result is
    the dot product of the coefficients with the features' averages under
    ``pi``, one distribution of shape (4,); any other shape is a ValueError.
    The labels follow the rules of :func:`payoff_features`, so
    every decomposition that :func:`zdlab.pressdyson.decompose` makes reads
    back.  When ``pi`` is a long-run distribution of a chain in which the
    decomposed player uses the corresponding strategy, the result is the
    enforced relation and vanishes.
    """
    pi = state_vector(pi, "the distribution")
    averages = [float_dot(row, pi) for row in payoff_features(m, list(coeffs)).tolist()]
    return float_dot([*map(float, coeffs.values())], averages)


def payoff_distributions(v, pi):
    """Aggregate state probabilities over states sharing a payoff value.

    Returns the support, the distinct payoff values in ascending order
    (shape (G,)), and the probability of each under every distribution of
    ``pi`` (shape (..., G)); ``pi`` of any shape but (..., len(v)) is a
    ValueError.  Probabilities are summed in ascending payoff order, state
    order within a tie.
    """
    values = np.asarray(v, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1:] != values.shape:
        raise ValueError(f"{values.size} payoffs against probabilities of shape {pi.shape}")
    support: list[float] = []
    probs: list[np.ndarray] = []
    for idx in np.argsort(values, kind="stable").tolist():
        if support and values[idx] == support[-1]:
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
    every outcome's two probabilities agree within ``tol``, a real number >= 0.
    """
    tol = real_number(tol, "tol")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    (xa, pa), (xb, pb) = a, b
    pa, pb = np.asarray(pa, dtype=float), np.asarray(pb, dtype=float)
    stack = np.broadcast_shapes(pa.shape[:-1], pb.shape[:-1])
    signed = np.concatenate([np.broadcast_to(pa, stack + pa.shape[-1:]),
                             -np.broadcast_to(pb, stack + pb.shape[-1:])], axis=-1)
    _, gaps = payoff_distributions(np.concatenate([xa, xb]), signed)
    return (np.abs(gaps) <= tol).all(axis=-1)
