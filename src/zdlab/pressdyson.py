"""Press-Dyson vectors and their decompositions over payoff bases.

A memory-one strategy's Press-Dyson vector is the difference between its
cooperation probabilities and the indicator of its own previous cooperation.
All decompositions here act on that cooperation component; the defection
component is exactly its negative, so any other weighting of the two action
components only rescales coefficients without changing span membership.

Basis vectors are tagged with labels that :func:`zdlab.moments.relation_value`
can evaluate as averages: a monomial label is a pair ``(k1, k2)`` standing
for the pointwise product s1^k1 * s2^k2 (with ``(0, 0)`` the all-ones
vector), and an exponential label is ``("exp", player, h)`` standing for
e^{h * s_player}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .game import (
    MemoryOneStrategy,
    PayoffMatrix,
    PayoffVector,
    check_exp_range,
    cooperation_probs,
    named_strategy,
    payoff_vector,
)

__all__ = [
    "PressDysonVector",
    "BasisSpec",
    "DecompositionResult",
    "IdentityCheck",
    "press_dyson",
    "akin_residual",
    "monomial_vector",
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

#: The cooperation-component target that both TFT identities must reproduce.
_TFT_PD = np.array([0.0, -1.0, 1.0, 0.0])

# Indicator of "own previous action was C" in the global state order,
# per player.
_OWN_PREV_C = {
    1: np.array([1.0, 1.0, 0.0, 0.0]),
    2: np.array([1.0, 0.0, 1.0, 0.0]),
}


@dataclass(frozen=True)
class PressDysonVector:
    """Cooperation component of a strategy's Press-Dyson vector.

    Indexed by the global previous state; entry s is the cooperation
    probability given s minus 1 if the owner cooperated in s.  Entries
    where the owner previously cooperated lie in [-1, 0], the others in
    [0, 1], and the defection component is exactly the negative of this
    vector.
    """

    values: tuple[float, float, float, float]
    player: int

    def __post_init__(self) -> None:
        if self.player not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {self.player!r}")
        values = tuple(float(x) for x in self.values)
        if len(values) != 4:
            raise ValueError("a Press-Dyson vector has exactly four components")
        for state, x in enumerate(values):
            cooperated = _OWN_PREV_C[self.player][state] == 1.0
            low, high = (-1.0, 0.0) if cooperated else (0.0, 1.0)
            if not (low <= x <= high):
                raise ValueError(
                    f"component {x!r} at state {state} outside [{low}, {high}]"
                )
        object.__setattr__(self, "values", values)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def press_dyson(s: MemoryOneStrategy, player: int) -> PressDysonVector:
    """Press-Dyson vector (cooperation component) of a strategy.

    For player 2 the strategy's own frame is translated to the global
    state order and the previous-action indicator reads the second action.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    values = cooperation_probs(s, player) - _OWN_PREV_C[player]
    return PressDysonVector(tuple(float(x) for x in values), player)


def akin_residual(pd: PressDysonVector, pi) -> float:
    """Average of a Press-Dyson vector under a state distribution.

    Vanishes whenever ``pi`` is a stationary (or Cesaro-limit) distribution
    of a chain in which the vector's owner plays the decomposed strategy;
    a visibly nonzero value therefore flags an inconsistent ``pi``.
    """
    return float(np.dot(pd.array, np.asarray(pi, dtype=float)))


def monomial_vector(m: PayoffMatrix, k1: int, k2: int) -> np.ndarray:
    """Pointwise s1^k1 * s2^k2 over the four states ((0,0) gives ones)."""
    s1 = payoff_vector(m, 1).array
    s2 = payoff_vector(m, 2).array
    return s1**k1 * s2**k2


def format_label(label) -> str:
    """Human-readable form of a basis label, e.g. (1,1) -> 's1*s2'."""
    if isinstance(label, tuple) and len(label) == 3 and label[0] == "exp":
        _, player, h = label
        return f"exp({h:g}*s{player})"
    if isinstance(label, tuple) and len(label) == 2:
        k1, k2 = label
        parts = []
        if k1 == 1:
            parts.append("s1")
        elif k1 > 1:
            parts.append(f"s1^{k1}")
        if k2 == 1:
            parts.append("s2")
        elif k2 > 1:
            parts.append(f"s2^{k2}")
        return "*".join(parts) if parts else "1"
    return str(label)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """An ordered, labelled family of payoff-space basis vectors."""

    kind: str
    labels: tuple
    matrix: np.ndarray  # shape (4, len(labels)), columns follow labels

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (4, len(self.labels)):
            raise ValueError("basis matrix shape does not match its labels")
        if len(self.labels) == 0:
            raise ValueError("a basis must contain at least one vector")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def zd(cls, m: PayoffMatrix) -> "BasisSpec":
        """The classical basis {1, s1, s2}."""
        labels = ((0, 0), (1, 0), (0, 1))
        cols = [monomial_vector(m, k1, k2) for k1, k2 in labels]
        return cls("zd", labels, np.column_stack(cols))

    @classmethod
    def monomial(cls, m: PayoffMatrix, max_total_degree: int = 3) -> "BasisSpec":
        """All payoff monomials s1^k1 * s2^k2 with k1 + k2 <= the bound."""
        if max_total_degree < 0:
            raise ValueError("max_total_degree must be >= 0")
        labels = tuple(
            (k1, total - k1)
            for total in range(max_total_degree + 1)
            for k1 in range(total, -1, -1)
        )
        cols = [monomial_vector(m, k1, k2) for k1, k2 in labels]
        return cls(f"monomial:{max_total_degree}", labels, np.column_stack(cols))

    @classmethod
    def exponential(cls, m: PayoffMatrix, h: float) -> "BasisSpec":
        """The basis {1, e^{h s1}, e^{h s2}} for h != 0 within exponential range."""
        h = float(h)
        if h == 0.0:
            raise ValueError("h = 0 degenerates the exponential basis")
        check_exp_range(h, m.max_abs())
        s1 = payoff_vector(m, 1).array
        s2 = payoff_vector(m, 2).array
        labels = ((0, 0), ("exp", 1, h), ("exp", 2, h))
        cols = [np.ones(4), np.exp(h * s1), np.exp(h * s2)]
        return cls(f"exp:{h:g}", labels, np.column_stack(cols))

    @classmethod
    def wsls4(cls, m: PayoffMatrix) -> "BasisSpec":
        """The four-vector basis (s1, s2, s1*s2, 1)."""
        labels = ((1, 0), (0, 1), (1, 1), (0, 0))
        cols = [monomial_vector(m, k1, k2) for k1, k2 in labels]
        return cls("wsls4", labels, np.column_stack(cols))

    @classmethod
    def custom(cls, vectors: Sequence[PayoffVector]) -> "BasisSpec":
        labels = tuple(v.label for v in vectors)
        return cls("custom", labels, np.column_stack([v.array for v in vectors]))


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Least-squares decomposition of a Press-Dyson vector over a basis."""

    coefficients: dict
    residual: np.ndarray
    residual_norm: float
    rank: int
    exact: bool
    basis: BasisSpec

    @property
    def coefficient_vector(self) -> np.ndarray:
        return np.array([self.coefficients[label] for label in self.basis.labels])

    def reconstruction(self) -> np.ndarray:
        return self.basis.matrix @ self.coefficient_vector


def decompose(pd, basis: BasisSpec, tol: float = EXACT_TOL) -> DecompositionResult:
    """Decompose a Press-Dyson vector against a basis.

    Minimum-norm least squares with the basis rank revealed at ``RANK_TOL``
    (relative to the largest singular value); a rank-deficient basis is
    reported, never an error.  ``exact`` is True iff the residual 2-norm is
    at most ``tol``.
    """
    target = pd.array if isinstance(pd, PressDysonVector) else np.asarray(pd, float)
    coef, _, rank, _ = np.linalg.lstsq(basis.matrix, target, rcond=RANK_TOL)
    residual = target - basis.matrix @ coef
    residual.flags.writeable = False
    norm = float(np.linalg.norm(residual))
    return DecompositionResult(
        coefficients=dict(zip(basis.labels, (float(c) for c in coef))),
        residual=residual,
        residual_norm=norm,
        rank=int(rank),
        exact=norm <= tol,
        basis=basis,
    )


class IdentityCheck(NamedTuple):
    """Normalising coefficient and worst componentwise deviation."""

    coefficient: float
    max_abs_error: float


def tft_power_identity(m: PayoffMatrix, k: int) -> IdentityCheck:
    """Check that (s1^k - s2^k) / (T^k - S^k) reproduces the TFT vector.

    Valid for any k >= 1 with T^k != S^k; the denominator is checked per k
    because e.g. T = -S kills it for even k even though T != S.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    try:
        denominator = float(m.T) ** k - float(m.S) ** k
        scale = max(abs(m.T) ** k, abs(m.S) ** k, 1.0)
    except OverflowError:
        raise OverflowError(f"T^k or S^k overflows double precision at k={k}") from None
    if abs(denominator) <= 1e-12 * scale:
        raise ValueError(f"degenerate denominator: T^k - S^k vanishes at k={k}")
    s1 = payoff_vector(m, 1).array
    s2 = payoff_vector(m, 2).array
    w = (s1**k - s2**k) / denominator
    return IdentityCheck(1.0 / denominator, float(np.max(np.abs(w - _TFT_PD))))


def tft_exponential_identity(m: PayoffMatrix, h: float) -> IdentityCheck:
    """Check that (e^{h s1} - e^{h s2}) / (e^{hT} - e^{hS}) is the TFT vector.

    Valid for any h != 0.  Arguments with |h| * max|payoff| > 700 would
    overflow double precision and are rejected as a range error.
    """
    h = float(h)
    if h == 0.0:
        raise ValueError("h = 0 is excluded (the identity degenerates)")
    check_exp_range(h, m.max_abs())
    s1 = payoff_vector(m, 1).array
    s2 = payoff_vector(m, 2).array
    denominator = float(np.exp(h * m.T) - np.exp(h * m.S))
    w = (np.exp(h * s1) - np.exp(h * s2)) / denominator
    return IdentityCheck(1.0 / denominator, float(np.max(np.abs(w - _TFT_PD))))


def wsls_coefficients(m: PayoffMatrix, tol: float = EXACT_TOL) -> DecompositionResult:
    """Coefficients of Win-Stay Lose-Shift over the basis (s1, s2, s1*s2, 1).

    For generic payoffs the four vectors are linearly independent and the
    solve is exact; degenerate payoff sets (for example R = P, which makes
    the CC and DD rows coincide) are reported through ``rank`` < 4 with the
    minimum-norm coefficients.  The coefficients depend on the payoff
    values, unlike the payoff-independent TFT identities.
    """
    pd = press_dyson(named_strategy("wsls"), 1)
    return decompose(pd, BasisSpec.wsls4(m), tol=tol)
