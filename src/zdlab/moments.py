"""Payoff moments, moment generating functions, and payoff distributions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .game import PayoffMatrix, PayoffVector, check_exp_range, payoff_vector

__all__ = [
    "PayoffDistribution",
    "moment",
    "cross_moment",
    "mgf",
    "relation_value",
    "payoff_distribution",
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


def moment(v, pi, k: int, k_cap: int = K_CAP) -> float:
    """k-th payoff moment sum_s v[s]^k * pi[s] for k >= 1."""
    k = _check_k(k, k_cap)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    values = _values(v)
    return float(np.dot(values**k, np.asarray(pi, dtype=float)))


def cross_moment(v1, v2, pi, k1: int, k2: int, k_cap: int = K_CAP) -> float:
    """Mixed moment sum_s v1[s]^k1 * v2[s]^k2 * pi[s], k1 and k2 >= 0."""
    k1 = _check_k(k1, k_cap)
    k2 = _check_k(k2, k_cap)
    values = _values(v1) ** k1 * _values(v2) ** k2
    return float(np.dot(values, np.asarray(pi, dtype=float)))


def mgf(v, pi, h: float) -> float:
    """Moment generating function sum_s e^{h * v[s]} * pi[s]."""
    h = float(h)
    values = _values(v)
    check_exp_range(h, float(np.max(np.abs(values))))
    return float(np.dot(np.exp(h * values), np.asarray(pi, dtype=float)))


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


def payoff_distribution(v, pi, value_tol: float = VALUE_TOL) -> PayoffDistribution:
    """Aggregate state probabilities over states sharing a payoff value.

    Values closer than ``value_tol`` count as the same outcome; outcomes
    whose aggregated probability is exactly zero carry no support point.
    """
    values = _values(v)
    pi = np.asarray(pi, dtype=float)
    order = np.argsort(values, kind="stable")
    points: list[list[float]] = []
    for idx in order:
        value, prob = float(values[idx]), float(pi[idx])
        if points and abs(value - points[-1][0]) <= value_tol:
            points[-1][1] += prob
        else:
            points.append([value, prob])
    return PayoffDistribution(tuple((v, p) for v, p in points if p != 0.0))


def distributions_equal(
    a: PayoffDistribution,
    b: PayoffDistribution,
    tol: float,
    value_tol: float = VALUE_TOL,
) -> bool:
    """True iff supports match within value_tol and probabilities within tol.

    The two supports are merge-walked so that an outcome present on one
    side only still passes when its probability is at most ``tol``.
    """
    ia = ib = 0
    pa, pb = a.points, b.points
    while ia < len(pa) or ib < len(pb):
        if ib >= len(pb) or (ia < len(pa) and pa[ia][0] < pb[ib][0] - value_tol):
            if pa[ia][1] > tol:
                return False
            ia += 1
        elif ia >= len(pa) or pb[ib][0] < pa[ia][0] - value_tol:
            if pb[ib][1] > tol:
                return False
            ib += 1
        else:
            if abs(pa[ia][1] - pb[ib][1]) > tol:
                return False
            ia += 1
            ib += 1
    return True
