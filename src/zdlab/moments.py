"""Payoff moments, moment generating functions, and payoff distributions.

Every moment, cross moment and MGF value is an average <f, pi> of a payoff
feature f (a power, product or exponential of payoff vectors) under a state
distribution pi, and all of them go through one kernel,
:func:`feature_averages`, which evaluates a stack of features under a stack
of distributions.  It makes one BLAS dot per (distribution, feature) pair,
so a value does not depend on how many others are computed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .game import PayoffMatrix, PayoffVector, check_exp_range, payoff_vector

__all__ = [
    "PayoffDistribution",
    "feature_averages",
    "moment_features",
    "mgf_features",
    "moment",
    "cross_moment",
    "mgf",
    "relation_value",
    "payoff_distribution",
    "payoff_distributions",
    "distribution_stacks_equal",
    "distributions_equal",
]

#: Exponents above this are refused: payoff values raised to very large
#: powers silently lose all relative precision in double arithmetic.
K_CAP = 20

#: Absolute tolerance for treating two payoff values as the same outcome.
VALUE_TOL = 1e-12


def _values(v) -> np.ndarray:
    if isinstance(v, PayoffVector):
        return v.array
    return np.asarray(v, dtype=float)


def _check_k(k: int, k_cap: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {k!r}")
    if k > k_cap:
        raise ValueError(f"moment order {k} exceeds the precision cap {k_cap}")
    return int(k)


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


def moment_features(v, k_max: int) -> np.ndarray:
    """Rows v^1 ... v^k_max: the features of the first ``k_max`` moments."""
    if not isinstance(k_max, (int, np.integer)) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"need at least one moment order, got k_max={k_max!r}")
    values = _values(v)
    return np.array([values ** _check_k(k, K_CAP) for k in range(1, k_max + 1)])


def mgf_features(v, hs) -> np.ndarray:
    """Rows e^{h v} for each h of ``hs``: the features of the MGF values."""
    values = _values(v)
    max_abs = float(np.max(np.abs(values)))
    rows = []
    for h in hs:
        h = float(h)
        check_exp_range(h, max_abs)
        rows.append(np.exp(h * values))
    return np.array(rows).reshape(-1, len(values))


def moment(v, pi, k: int, k_cap: int = K_CAP) -> float:
    """k-th payoff moment sum_s v[s]^k * pi[s] for k >= 1."""
    k = _check_k(k, k_cap)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    return float(feature_averages([_values(v) ** k], pi)[0])


def cross_moment(v1, v2, pi, k1: int, k2: int, k_cap: int = K_CAP) -> float:
    """Mixed moment sum_s v1[s]^k1 * v2[s]^k2 * pi[s], k1 and k2 >= 0."""
    k1 = _check_k(k1, k_cap)
    k2 = _check_k(k2, k_cap)
    return float(feature_averages([_values(v1) ** k1 * _values(v2) ** k2], pi)[0])


def mgf(v, pi, h: float) -> float:
    """Moment generating function sum_s e^{h * v[s]} * pi[s]."""
    return float(feature_averages(mgf_features(v, [h]), pi)[0])


def relation_value(coeffs: Mapping, pi, m: PayoffMatrix) -> float:
    """Evaluate a linear combination of payoff averages.

    ``coeffs`` maps basis labels to coefficients: a monomial label
    ``(k1, k2)`` contributes its weighted cross moment <s1^k1 s2^k2>, and
    an exponential label ``("exp", player, h)`` contributes <e^{h s}> of
    that player.  When ``pi`` is a long-run distribution of a chain in
    which the decomposed player uses the corresponding strategy, the
    result is the enforced relation and vanishes.
    """
    s1 = payoff_vector(m, 1)
    s2 = payoff_vector(m, 2)
    total = 0.0
    for label, coefficient in coeffs.items():
        if (
            isinstance(label, tuple)
            and len(label) == 2
            and all(isinstance(x, (int, np.integer)) for x in label)
        ):
            term = cross_moment(s1, s2, pi, label[0], label[1])
        elif isinstance(label, tuple) and len(label) == 3 and label[0] == "exp":
            _, player, h = label
            term = mgf(payoff_vector(m, player), pi, h)
        else:
            raise ValueError(f"cannot evaluate basis label {label!r} as an average")
        total += coefficient * term
    return float(total)


@dataclass(frozen=True)
class PayoffDistribution:
    """A finite payoff distribution as sorted (value, probability) pairs."""

    points: tuple[tuple[float, float], ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.points)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)

    def as_dict(self) -> dict[float, float]:
        return dict(self.points)


def payoff_distributions(v, pi, value_tol: float = VALUE_TOL):
    """Aggregate state probabilities over states sharing a payoff value.

    Returns the support, the distinct payoff values in ascending order
    (shape (G,)), and the probability of each under every distribution of
    ``pi`` (shape (..., G)).  A payoff within ``value_tol`` of a support
    value counts as that outcome; probabilities are summed in ascending
    payoff order.
    """
    values = _values(v)
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


def payoff_distribution(v, pi, value_tol: float = VALUE_TOL) -> PayoffDistribution:
    """The payoff distribution of one state distribution.

    The support and probabilities of :func:`payoff_distributions`;
    outcomes whose aggregated probability is exactly zero carry no
    support point.
    """
    support, probs = payoff_distributions(v, pi, value_tol)
    points = zip(support.tolist(), probs.tolist())
    return PayoffDistribution(tuple((x, p) for x, p in points if p != 0.0))


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


def distributions_equal(
    a: PayoffDistribution,
    b: PayoffDistribution,
    tol: float,
    value_tol: float = VALUE_TOL,
) -> bool:
    """True iff supports match within value_tol and probabilities within tol.

    :func:`distribution_stacks_equal` for one pair: an outcome present on
    one side only still passes when its probability is at most ``tol``.
    """
    return bool(distribution_stacks_equal(
        (a.values, [a.probabilities]), (b.values, [b.probabilities]), tol, value_tol
    )[0])
