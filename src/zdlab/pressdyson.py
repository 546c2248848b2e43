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
    global_frame,
    named_strategy,
    payoff_features,
    table_key,
)
from .markov import ordered_dot

__all__ = [
    "BasisSpec",
    "DecompositionResult",
    "IdentityCheck",
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
    """Human-readable form of a basis label, e.g. (1,1) -> 's1*s2'."""
    if isinstance(label, tuple) and len(label) == 3 and label[0] == "exp":
        _, player, h = label
        return f"exp({h:g}*s{player})"
    if isinstance(label, tuple) and len(label) == 2:
        powers = zip(("s1", "s2"), label)
        return "*".join(f"{s}^{k}" if k > 1 else s for s, k in powers if k > 0) or "1"
    return str(label)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """An ordered, labelled family of payoff-space basis vectors.

    The ``zd``, ``monomial``, ``exponential`` and ``wsls4`` constructors
    return one shared instance per payoffs and argument; every array of a
    basis is read-only.  Building a basis also equilibrates it once for
    :func:`decompose`: each column scaled to unit 2-norm, a zero column
    keeping scale 1.
    """

    kind: str
    labels: tuple
    matrix: np.ndarray  # shape (4, len(labels)), columns follow labels
    _scale: np.ndarray = field(init=False, repr=False)
    _equilibrated: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (4, len(self.labels)):
            raise ValueError("basis matrix shape does not match its labels")
        if len(self.labels) == 0:
            raise ValueError("a basis must contain at least one vector")
        with np.errstate(over="ignore"):  # a sum of squares above 1e308 rescales
            scale = np.linalg.norm(matrix, axis=0)
            for j in np.flatnonzero(np.isinf(scale)).tolist():
                peak = np.max(np.abs(matrix[:, j]))
                scale[j] = peak * np.linalg.norm(matrix[:, j] / peak)
        scale[scale == 0.0] = 1.0
        equilibrated = matrix / scale
        for name, array in (("matrix", matrix), ("_scale", scale),
                            ("_equilibrated", equilibrated)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def zd(cls, m: PayoffMatrix) -> "BasisSpec":
        """The classical basis {1, s1, s2}."""
        return _shared_basis(cls, "zd", table_key(m), ((0, 0), (1, 0), (0, 1)))

    @classmethod
    def monomial(cls, m: PayoffMatrix, max_total_degree: int = 3) -> "BasisSpec":
        """All payoff monomials s1^k1 * s2^k2 with k1 + k2 <= the bound."""
        if max_total_degree < 0:
            raise ValueError("max_total_degree must be >= 0")
        try:
            m.max_abs() ** int(max_total_degree)
        except OverflowError:  # a float power raises wherever numpy's is inf
            big = np.float64(m.max_abs())
            with np.errstate(over="ignore"):
                if np.isinf(big ** max_total_degree):
                    # rows of degree k are bounded by max|payoff|^k, reached by (k, 0)
                    k = max(int(math.log(np.finfo(float).max) / math.log(big)) - 1, 0)
                    while np.isfinite(big ** k):
                        k += 1
                    payoff_features(m, [(k, 0)])
        labels = tuple(
            (k1, total - k1)
            for total in range(max_total_degree + 1)
            for k1 in range(total, -1, -1)
        )
        return _shared_basis(cls, f"monomial:{max_total_degree}", table_key(m), labels)

    @classmethod
    def exponential(cls, m: PayoffMatrix, h: float) -> "BasisSpec":
        """The basis {1, e^{h s1}, e^{h s2}} for h != 0 within exponential range."""
        h = float(h)
        if h == 0.0:
            raise ValueError("h = 0 degenerates the exponential basis")
        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))
        return _shared_basis(cls, f"exp:{h:g}", table_key(m), labels)

    @classmethod
    def wsls4(cls, m: PayoffMatrix) -> "BasisSpec":
        """The four-vector basis (s1, s2, s1*s2, 1)."""
        return _shared_basis(cls, "wsls4", table_key(m), ((1, 0), (0, 1), (1, 1), (0, 0)))

    @classmethod
    def custom(cls, m: PayoffMatrix, labels: Sequence) -> "BasisSpec":
        """Any family of payoff-feature labels, as in :func:`payoff_features`."""
        labels = tuple(labels)
        return cls("custom", labels, payoff_features(m, labels).T)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _shared_basis(cls, kind: str, key: tuple, labels: tuple) -> BasisSpec:
    return cls(kind, labels, payoff_features(key[0], labels).T)


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
    largest singular value.  A
    rank-deficient or overcomplete basis is reported through ``rank``,
    never an error; its coefficients are the solution whose scaled
    coefficients (coefficient times column norm) have minimum norm.  The
    residual is taken against the unscaled basis, and ``exact`` is True iff
    its 2-norm is at most ``EXACT_TOL``.
    """
    target = np.asarray(pd, dtype=float)
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
    entry; a non-finite d is an OverflowError and one that vanishes next
    to the two features' DC entries a ValueError, both naming ``at``.
    """
    a, b = payoff_features(m, labels)
    dc = JointState.DC
    denominator = float(a[dc]) - float(b[dc])
    if not math.isfinite(denominator):
        raise OverflowError(f"{name} overflows double precision at {at}")
    if abs(denominator) <= 1e-12 * max(abs(a[dc]), abs(b[dc]), 1.0):
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

    Valid for any h != 0 whose denominator does not vanish in double
    precision (at the default payoffs, |h| above about 2e-13), which is a
    ValueError.  Arguments with |h| * max|payoff| > 700 would overflow
    double precision and are rejected as a range error.
    """
    h = float(h)
    if h == 0.0:
        raise ValueError("h = 0 is excluded (the identity degenerates)")
    return _tft_identity(m, [("exp", 1, h), ("exp", 2, h)], "e^{hT} - e^{hS}", f"h={h}")


def wsls_coefficients(m: PayoffMatrix) -> DecompositionResult:
    """Coefficients of Win-Stay Lose-Shift over the basis (s1, s2, s1*s2, 1).

    For generic payoffs the four vectors are linearly independent and the
    solve is exact; degenerate payoff sets (for example R = P, which makes
    the CC and DD rows coincide) are reported through ``rank`` < 4 with the
    minimum-norm coefficients of :func:`decompose`.  The coefficients depend on the payoff
    values, unlike the payoff-independent TFT identities.
    """
    pd = press_dyson(named_strategy("wsls"), 1)
    return decompose(pd, BasisSpec.wsls4(m))
