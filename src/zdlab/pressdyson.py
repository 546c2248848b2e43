"""Press-Dyson vectors and their decompositions over payoff bases.

A memory-one strategy's Press-Dyson vector is the difference between its
cooperation probabilities and the indicator of its own previous cooperation.
All decompositions here act on that cooperation component; the defection
component is exactly its negative, so any other weighting of the two action
components only rescales coefficients without changing span membership.

Basis vectors are named by payoff-feature labels, and every basis builds
its columns from them with :func:`zdlab.game.payoff_features`: a monomial
label ``(k1, k2)`` names the pointwise product s1^k1 * s2^k2 (with
``(0, 0)`` the all-ones vector), and an exponential label
``("exp", player, h)`` names e^{h * s_player}.  The same labels let
:func:`zdlab.moments.relation_value` read a decomposition back as an
enforced relation between averages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .game import (
    JointState,
    MemoryOneStrategy,
    PayoffMatrix,
    _is_int,
    _shown,
    feature_label,
    global_frame,
    named_strategy,
    payoff_features,
    real_number,
)
from .markov import float_dot, state_vector
from .moments import K_CAP

__all__ = [
    "BasisSpec",
    "press_dyson",
    "akin_residual",
    "format_label",
    "decompose",
    "tft_power_identity",
    "tft_exponential_identity",
    "wsls_coefficients",
]

#: Residual 2-norm below which a decomposition counts as exact.
EXACT_TOL = 1e-12
#: Bases that the ``BasisSpec`` constructors keep, one per (kind, payoffs,
#: labels); the least recently used goes first.
BASIS_CACHE_SIZE = 64

# Indicator of "own previous action was C" in the owner's frame.
_OWN_PREV_C = np.array([1.0, 1.0, 0.0, 0.0])


def press_dyson(s: MemoryOneStrategy, player: int) -> np.ndarray:
    """Press-Dyson vector (cooperation component) of a strategy, read-only.

    A float array in the global state order, as :func:`zdlab.game.payoff_vector`
    returns: entry s is the owner's cooperation probability given s minus
    1 if the owner cooperated in s, so entries where the owner previously
    cooperated lie in [-1, 0] and the others in [0, 1].  The defection
    component is exactly its negative.
    """
    pd = global_frame(s.array - _OWN_PREV_C, player)
    pd.flags.writeable = False
    return pd


def akin_residual(pd, pi) -> float:
    """Average of a Press-Dyson vector under a state distribution.

    Vanishes whenever ``pi`` is a stationary (or Cesaro-limit) distribution
    of a chain in which the vector's owner plays the decomposed strategy;
    a visibly nonzero value therefore flags an inconsistent ``pi``.  Both
    arguments have shape (4,); any other shape is a ValueError.
    """
    pd, pi = state_vector(pd, "the Press-Dyson vector"), state_vector(pi, "the distribution")
    return float_dot(pd, pi)


def format_label(label) -> str:
    """Human-readable form of a payoff feature label, e.g. (1,1) -> 's1*s2'; else a ValueError."""
    label = feature_label(label)
    if len(label) == 3:
        return f"exp({label[2]:g}*s{label[1]})"
    powers = zip(("s1", "s2"), label)
    return "*".join(f"{s}^{k}" if k > 1 else s for s, k in powers if k > 0) or "1"


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """An ordered, labelled family of payoff-space basis vectors.

    Its columns are ``payoff_features(m, labels).T``.  One builder makes
    every basis and solves it once, exactly: its rank, and two tables of
    Python-float rows of 4 for :func:`decompose`.  The ``zd``, ``monomial``,
    ``exponential`` and ``wsls4`` constructors share one instance per
    payoffs and argument, and nothing of a basis can be written.
    """

    kind: str
    labels: tuple
    _rank: int = field(repr=False)
    _x: tuple = field(repr=False)  # one row of 4 per label; the coefficients are _x times a target
    _p: tuple = field(repr=False)  # 4 rows of 4: the projector onto the span

    @classmethod
    def zd(cls, m: PayoffMatrix) -> "BasisSpec":
        """The classical basis {1, s1, s2}."""
        return _shared_basis("zd", m, ((0, 0), (1, 0), (0, 1)))

    @classmethod
    def monomial(cls, m: PayoffMatrix, max_total_degree: int = 3) -> "BasisSpec":
        """All payoff monomials s1^k1 * s2^k2 with k1 + k2 <= the bound.

        The bound is an integer in 0 ... :data:`zdlab.moments.K_CAP`; degree 2
        already spans every 4-vector at strict payoffs.
        """
        if not (_is_int(max_total_degree) and 0 <= max_total_degree <= K_CAP):
            raise ValueError(f"max_total_degree must lie in [0, {K_CAP}] (the precision cap "
                             f"K_CAP), got {_shown(max_total_degree)}")
        labels = tuple((k1, total - k1) for total in range(max_total_degree + 1)
                       for k1 in range(total, -1, -1))
        return _shared_basis(f"monomial:{max_total_degree}", m, labels)

    @classmethod
    def exponential(cls, m: PayoffMatrix, h: float) -> "BasisSpec":
        """The basis {1, e^{h s1}, e^{h s2}} wherever its entries are finite (rank 1 at h = 0)."""
        h = real_number(h, "h")
        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))
        return _shared_basis(f"exp:{h:g}", m, labels)

    @classmethod
    def wsls4(cls, m: PayoffMatrix) -> "BasisSpec":
        """The four-vector basis (s1, s2, s1*s2, 1)."""
        return _shared_basis("wsls4", m, ((1, 0), (0, 1), (1, 1), (0, 0)))

    @classmethod
    def custom(cls, m: PayoffMatrix, labels: Sequence) -> "BasisSpec":
        """Distinct payoff-feature labels, as in :func:`payoff_features`, kept canonical."""
        return _shared_basis.__wrapped__("custom", m, tuple(labels))


def _reduce(rows: list) -> list:
    """Gauss-Jordan elimination of rows of exact numbers in place; the pivot columns in order."""
    pivots = []
    for col in range(len(rows[0])):
        top = len(pivots)
        lead = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if lead is not None:
            pivot = [x / rows[lead][col] for x in rows[lead]]
            rows[lead], rows[top] = rows[top], pivot
            for i, row in enumerate(rows):
                if i != top and row[col]:
                    rows[i] = [x - row[col] * y for x, y in zip(row, pivot)]
            pivots.append(col)
    return pivots


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _shared_basis(kind: str, m: PayoffMatrix, labels: tuple) -> BasisSpec:
    """The basis of the labels' feature rows at the payoffs ``m``, solved exactly.

    ``custom`` calls it uncached.  Labels are kept canonical, and one named
    twice is a ValueError.  G = sum_j a_j a_j^T / |a_j|^2 over the nonzero
    columns a_j is exact, and so is the elimination of [G | I]: its pivots
    give the rank, and its rows past the rank span G's null space, Q.  With
    K = (G + Q^T Q)^-1, G K projects onto the span, and a_j^T K / |a_j|^2
    gives label j's coefficient, of least weighted norm.  Each entry is
    rounded once; one beyond double precision is an OverflowError.
    """
    if not labels:
        raise ValueError("a basis must contain at least one vector")
    labels = tuple(map(feature_label, labels))
    if twice := [label for i, label in enumerate(labels) if label in labels[:i]]:
        raise ValueError(f"a basis names the feature {format_label(twice[0])} twice")
    columns = []  # (v_j, d_j, |v_j|^2) with a_j = v_j / d_j, v_j integers
    for row in payoff_features(m, labels).tolist():
        d = max(x.as_integer_ratio()[1] for x in row)  # a power of two
        v = [int(Fraction(x) * d) for x in row]
        columns.append((v, d, sum(x * x for x in v)))
    scale = math.lcm(*(q for *_, q in columns if q))  # G = N / scale, N of integers
    weighted = [([scale // q * x for x in v], v) for v, _, q in columns if q]
    N = [[sum(wv[i] * v[k] for wv, v in weighted) for k in range(4)] for i in range(4)]
    eye = [[Fraction(i == k) for k in range(4)] for i in range(4)]
    rows = [[Fraction(x, scale) for x in n] + e for n, e in zip(N, eye)]  # [G | I]
    rank = sum(col < 4 for col in _reduce(rows))
    if rank < 4:  # (Q^T Q)^+, the rest of K, vanishes on the span: K = G^+ + (Q^T Q)^+
        Q = [row[4:] for row in rows[rank:]]
        rows = [[Fraction(x, scale) + sum(q[i] * q[k] for q in Q) for k, x in enumerate(n)] + e
                for i, (n, e) in enumerate(zip(N, eye))]
        _reduce(rows)
    den = math.lcm(*(x.denominator for row in rows for x in row[4:]))
    K = [[x.numerator * (den // x.denominator) for x in col] for col in zip(*rows)][4:]  # columns
    coef = []
    for label, (v, d, q) in zip(labels, columns):
        try:  # the coefficients of a zero column are 0
            coef.append(tuple(d * sum(map(mul, v, k)) / (q * den or 1) for k in K))
        except OverflowError:
            raise OverflowError(f"the {kind} coefficient of {format_label(label)} overflows "
                                "double precision") from None
    proj = tuple(tuple(sum(map(mul, n, k)) / (scale * den) for k in K) for n in N)
    return BasisSpec(kind, labels, rank, tuple(coef), proj)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Least-squares decomposition of a Press-Dyson vector over a basis.

    ``coefficients`` maps each basis label to its coefficient, one per column
    in basis order; ``residual`` is the target minus its projection onto the
    span of the basis.
    """

    coefficients: dict
    residual: np.ndarray
    residual_norm: float
    rank: int
    exact: bool


def decompose(pd, basis: BasisSpec) -> DecompositionResult:
    """Decompose a Press-Dyson vector, or any 4-vector, against a basis.

    Least squares through the two tables the basis keeps, solved exactly
    when it was built, so the rank has no threshold.  A target that is not
    a finite 4-vector is a ValueError.  A rank-deficient or overcomplete
    basis is reported through ``rank``; its coefficients are those of least
    weighted norm sum_j c_j^2 |a_j|^2 over its columns a_j.  The residual is
    the target minus its projection onto the span, and ``exact`` is True
    iff its 2-norm is at most ``EXACT_TOL``, however large the coefficients.
    Each output entry is one in-order sum in Python floats, with no LAPACK
    or BLAS call.  A basis that spans R^4, as ``wsls4`` and ``monomial:D``
    for D >= 2 do at strict payoffs, leaves every target a residual of 0,
    so there only the coefficients carry content.
    """
    t = state_vector(pd, "the target")
    if not all(map(math.isfinite, t)):
        raise ValueError(f"the target must be finite, got {t}")
    coef = [float_dot(row, t) for row in basis._x]
    off = [x - float_dot(row, t) for x, row in zip(t, basis._p)]
    norm = math.sqrt(float_dot(off, off))
    residual = np.array(off)
    residual.flags.writeable = False
    return DecompositionResult(dict(zip(basis.labels, coef)), residual, norm, basis._rank,
                               norm <= EXACT_TOL)


class IdentityCheck(NamedTuple):
    """Normalising coefficient and worst componentwise deviation.

    s2 is s1 with CD and DC swapped, so the difference of the two features
    is exactly (0, -d, d, 0), and over d exactly TFT's vector: ``max_abs_error``
    is that proved 0.0, kept for its column's bytes; it measures no rounding.
    """

    coefficient: float
    max_abs_error: float


def _tft_identity(m: PayoffMatrix, labels, name: str, at: str) -> IdentityCheck:
    """The reciprocal of d, the DC entry of the difference of two payoff features.

    The difference is (0, -d, d, 0) for the TFT identities, so only the DC
    entries are read.  A non-finite d is an OverflowError.  A d that
    vanishes is a ValueError: a subnormal one (1/d could overflow), or one
    at most 1e-12 times the larger of the two DC entries.  Both name ``at``.
    """
    a, b = map(float, payoff_features(m, labels)[:, JointState.DC])
    denominator = a - b
    if not math.isfinite(denominator):
        raise OverflowError(f"{name} overflows double precision at {at}")
    if abs(denominator) < np.finfo(float).tiny or abs(denominator) <= 1e-12 * max(abs(a), abs(b)):
        raise ValueError(f"degenerate denominator: {name} vanishes at {at}")
    return IdentityCheck(1.0 / denominator, 0.0)


def tft_power_identity(m: PayoffMatrix, k: int) -> IdentityCheck:
    """Check that (s1^k - s2^k) / (T^k - S^k) reproduces the TFT vector.

    Valid for any integer 1 <= k <= 2^53 with T^k != S^k; the denominator
    is checked per k because e.g. T = -S kills it for even k even though
    T != S.  Any other k is a ValueError, and a payoff power or a
    denominator beyond double precision is an OverflowError.
    """
    return _tft_identity(m, [(k, 0), (0, k)], "T^k - S^k", f"k={_shown(k)}")


def tft_exponential_identity(m: PayoffMatrix, h: float) -> IdentityCheck:
    """Check that (e^{h s1} - e^{h s2}) / (e^{hT} - e^{hS}) is the TFT vector.

    Valid wherever the denominator does not vanish in double precision,
    which is a ValueError: at h = 0 and, at the default payoffs, at |h|
    below about 2e-13.  An e^{h s} that is not a finite double is an
    OverflowError (h >= 142 at the default payoffs), as in payoff_features.
    """
    h = real_number(h, "h")
    return _tft_identity(m, [("exp", 1, h), ("exp", 2, h)], "e^{hT} - e^{hS}", f"h={h}")


def wsls_coefficients(m: PayoffMatrix) -> DecompositionResult:
    """Coefficients of Win-Stay Lose-Shift over the basis (s1, s2, s1*s2, 1).

    At every strict payoff matrix the four vectors span R^4, since
    |det| = |(S-T)(P-R)[(S-P)(R-T) + (T-P)(R-S)]| > 0, so the solve is
    exact for any strategy and the claim lies in the coefficient values.
    Degenerate permissive payoffs (for example R = P, which makes the CC
    and DD rows coincide) are reported through ``rank`` < 4, with the
    coefficients of :func:`decompose`.  They depend on the payoff values,
    unlike the payoff-independent TFT identities.
    """
    pd = press_dyson(named_strategy("wsls"), 1)
    return decompose(pd, BasisSpec.wsls4(m))
