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
from typing import NamedTuple, Sequence

import numpy as np

from .game import (
    JointState,
    MemoryOneStrategy,
    PayoffMatrix,
    _is_int,
    feature_label,
    global_frame,
    named_strategy,
    payoff_features,
    real_number,
)
from .markov import ordered_dot
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

#: Relative singular-value threshold for basis rank decisions.
RANK_TOL = 1e-9
#: Residual 2-norm below which a decomposition counts as exact.
EXACT_TOL = 1e-12
#: Bases that the ``BasisSpec`` constructors keep, one per (kind, payoffs,
#: labels); the least recently used goes first.
BASIS_CACHE_SIZE = 64

#: The cooperation-component target that both TFT identities must reproduce.
_TFT_PD = np.array([0.0, -1.0, 1.0, 0.0])

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
    a visibly nonzero value therefore flags an inconsistent ``pi``.
    """
    return float(ordered_dot(np.asarray(pd, dtype=float), np.asarray(pi, dtype=float)))


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

    One builder makes every basis, equilibrated once for :func:`decompose`
    (each column scaled to unit 2-norm, a zero column keeping scale 1).  The
    ``zd``, ``monomial``, ``exponential`` and ``wsls4`` constructors share one
    instance per payoffs and argument; every array of a basis is read-only.
    """

    kind: str
    labels: tuple
    matrix: np.ndarray  # shape (4, len(labels)), columns follow labels
    _scale: np.ndarray = field(repr=False)
    _equilibrated: np.ndarray = field(repr=False)

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
            raise ValueError(
                f"max_total_degree must lie in [0, {K_CAP}] (the precision cap K_CAP), "
                f"got {max_total_degree}"
            )
        labels = tuple(
            (k1, total - k1)
            for total in range(max_total_degree + 1)
            for k1 in range(total, -1, -1)
        )
        return _shared_basis(f"monomial:{max_total_degree}", m, labels)

    @classmethod
    def exponential(cls, m: PayoffMatrix, h: float) -> "BasisSpec":
        """The basis {1, e^{h s1}, e^{h s2}} for h != 0 wherever its entries are finite."""
        h = real_number(h, "h")
        if h == 0.0:
            raise ValueError("h = 0 degenerates the exponential basis")
        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))
        return _shared_basis(f"exp:{h:g}", m, labels)

    @classmethod
    def wsls4(cls, m: PayoffMatrix) -> "BasisSpec":
        """The four-vector basis (s1, s2, s1*s2, 1)."""
        return _shared_basis("wsls4", m, ((1, 0), (0, 1), (1, 1), (0, 0)))

    @classmethod
    def custom(cls, m: PayoffMatrix, labels: Sequence) -> "BasisSpec":
        """Any family of payoff-feature labels, as in :func:`payoff_features`."""
        return _shared_basis.__wrapped__("custom", m, tuple(labels))


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _shared_basis(kind: str, m: PayoffMatrix, labels: tuple) -> BasisSpec:
    """The basis of the labels' feature rows at the payoffs ``m``.

    ``custom`` calls it uncached.  Each column is divided by the power of
    two at its peak, which is exact, then its 2-norm is taken and scaled
    back, so a column whose squares underflow or overflow is equilibrated
    like any other.
    """
    if not labels:
        raise ValueError("a basis must contain at least one vector")
    matrix = payoff_features(m, labels).T
    _, peak = np.frexp(np.max(np.abs(matrix), axis=0))
    scale = np.ldexp(np.linalg.norm(np.ldexp(matrix, -peak), axis=0), peak)
    scale[scale == 0.0] = 1.0
    arrays = (matrix, scale, matrix / scale)
    for array in arrays:
        array.flags.writeable = False
    return BasisSpec(kind, labels, *arrays)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Least-squares decomposition of a Press-Dyson vector over a basis.

    ``coefficients`` maps each basis label to its coefficient, in basis
    order; ``residual`` is the target minus the basis combination.
    """

    coefficients: dict
    residual: np.ndarray
    residual_norm: float
    rank: int
    exact: bool


def decompose(pd, basis: BasisSpec) -> DecompositionResult:
    """Decompose a Press-Dyson vector, or any 4-vector, against a basis.

    Least squares over the basis as equilibrated when it was built, each
    column scaled to unit 2-norm (a zero column keeps scale 1), so that
    columns of very different magnitude (5^20 against 1) do not hide the
    small ones below the rank threshold ``RANK_TOL``, relative to the
    largest singular value.  A target that is not finite is a ValueError.
    A rank-deficient or overcomplete basis is reported through ``rank``,
    never an error; its coefficients are the solution whose scaled
    coefficients (coefficient times column norm) have minimum norm.  The
    residual is taken against the unscaled basis, and ``exact`` is True iff
    its 2-norm is at most ``EXACT_TOL``.  A basis that spans R^4, as
    ``wsls4`` and ``monomial:D`` for D >= 2 do at every strict payoff
    matrix, is exact for every target, so there ``exact`` says nothing
    about the strategy; the coefficients carry the content.
    """
    target = np.asarray(pd, dtype=float)
    if not np.isfinite(target).all():
        raise ValueError(f"the target must be finite, got {target.tolist()}")
    coef, _, rank, _ = np.linalg.lstsq(basis._equilibrated, target, rcond=RANK_TOL)
    coef = coef / basis._scale
    residual = target - basis.matrix @ coef
    residual.flags.writeable = False
    norm = float(np.linalg.norm(residual))
    return DecompositionResult(
        coefficients=dict(zip(basis.labels, (float(c) for c in coef))),
        residual=residual,
        residual_norm=norm,
        rank=int(rank),
        exact=norm <= EXACT_TOL,
    )


class IdentityCheck(NamedTuple):
    """Normalising coefficient and worst componentwise deviation.

    ``max_abs_error`` is a structural check.  s2 is s1 with CD and DC
    swapped, so the difference of the two features is exactly (0, -d, d, 0)
    and the check reads 0 by construction whenever a check is returned.  It
    does not measure the rounding error of ``coefficient``.
    """

    coefficient: float
    max_abs_error: float


def _tft_identity(m: PayoffMatrix, labels, name: str, at: str) -> IdentityCheck:
    """Normalise the difference of two payoff features by its DC entry.

    The difference is (0, -d, d, 0) for the TFT identities, with d its DC
    entry.  A non-finite d is an OverflowError.  A d that vanishes is a
    ValueError: a subnormal one (1/d could overflow), or one at most 1e-12
    times the larger DC entry of the two features.  Both errors name ``at``.
    """
    a, b = payoff_features(m, labels)
    dc = JointState.DC
    denominator = float(a[dc]) - float(b[dc])
    if not math.isfinite(denominator):
        raise OverflowError(f"{name} overflows double precision at {at}")
    if (abs(denominator) < np.finfo(float).tiny
            or abs(denominator) <= 1e-12 * max(abs(a[dc]), abs(b[dc]))):
        raise ValueError(f"degenerate denominator: {name} vanishes at {at}")
    w = (a - b) / denominator
    return IdentityCheck(1.0 / denominator, float(np.max(np.abs(w - _TFT_PD))))


def tft_power_identity(m: PayoffMatrix, k: int) -> IdentityCheck:
    """Check that (s1^k - s2^k) / (T^k - S^k) reproduces the TFT vector.

    Valid for any integer k >= 1 with T^k != S^k; the denominator is
    checked per k because e.g. T = -S kills it for even k even though
    T != S.  Any other k is a ValueError, and a payoff power or a
    denominator beyond double precision is an OverflowError.
    """
    return _tft_identity(m, [(k, 0), (0, k)], "T^k - S^k", f"k={k}")


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
    and DD rows coincide) are reported through ``rank`` < 4 with the
    minimum-norm coefficients of :func:`decompose`.  The coefficients depend on the payoff
    values, unlike the payoff-independent TFT identities.
    """
    pd = press_dyson(named_strategy("wsls"), 1)
    return decompose(pd, BasisSpec.wsls4(m))
