"""Core objects of the two-player repeated prisoner's dilemma.

Joint states are indexed in the fixed order CC=0, CD=1, DC=2, DD=3, with
player 1's action written first.  Every vector and matrix in this package
uses that order.  Memory-one strategies are stored from their owner's point
of view (own previous action first); operations that take a ``player``
argument translate to the global frame with the CD<->DC swap where needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

import numpy as np

__all__ = [
    "JointState",
    "PayoffMatrix",
    "MemoryOneStrategy",
    "DEFAULT_PAYOFFS",
    "payoff_vector",
    "payoff_features",
    "named_strategy",
    "parse_strategy",
    "cooperation_probs",
    "transition_matrix",
    "transition_matrices",
]


class JointState(IntEnum):
    """Joint action of the two players in one round, player 1 first."""

    CC = 0
    CD = 1
    DC = 2
    DD = 3


# Index permutation mapping a global state to the opponent's viewpoint.
SWAP = (0, 2, 1, 3)


@dataclass(frozen=True)
class PayoffMatrix:
    """The four one-shot payoffs (R, S, T, P).

    The strict constructor enforces the prisoner's-dilemma ordering
    T > R > P > S together with 2R > T + S.  Passing ``permissive=True``
    relaxes this to T != S, which is the minimum needed for the
    normalising denominators T^k - S^k and e^{hT} - e^{hS} to have a
    chance of existing (individual operations still check their own
    denominator, since e.g. T = -S kills T^k - S^k for even k).
    """

    R: float
    S: float
    T: float
    P: float
    permissive: bool = False

    def __post_init__(self) -> None:
        for name in ("R", "S", "T", "P"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"payoff {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.permissive:
            if self.T == self.S:
                raise ValueError("even permissive payoffs require T != S")
        else:
            if not (self.T > self.R > self.P > self.S):
                raise ValueError(
                    f"payoff ordering T > R > P > S violated by {self.as_tuple()}"
                )
            if not (2 * self.R > self.T + self.S):
                raise ValueError(
                    f"payoffs {self.as_tuple()} violate 2R > T + S"
                )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.R, self.S, self.T, self.P)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.as_tuple())


#: Conventional Axelrod payoffs, used whenever no payoffs are given.
DEFAULT_PAYOFFS = PayoffMatrix(R=3.0, S=0.0, T=5.0, P=1.0)


def payoff_vector(m: PayoffMatrix, player: int) -> np.ndarray:
    """Read-only per-state payoffs of one player: (R,S,T,P) for 1, (R,T,S,P) for 2."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    v = np.array([m.R, m.S, m.T, m.P] if player == 1 else [m.R, m.T, m.S, m.P])
    v.flags.writeable = False
    return v


def check_exp_range(h: float, max_abs: float) -> None:
    """Refuse e^{h * x} for |x| <= max_abs when it can overflow a double.

    A non-finite h is a ValueError, and |h| * max_abs > 700 an
    OverflowError; every exponential of a payoff in this package (MGFs,
    exponential bases and identities) is guarded by this one check.
    """
    if not math.isfinite(h):
        raise ValueError(f"h must be a finite real number, got {h!r}")
    if abs(h) * max_abs > 700.0:
        raise OverflowError(
            f"|h| * max|payoff| = {abs(h) * max_abs:g} exceeds the "
            "double-precision exponential range (700)"
        )


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def payoff_features(m: PayoffMatrix, labels) -> np.ndarray:
    """The payoff features named by ``labels``, one row of four values each.

    The label ``(k1, k2)`` of nonnegative integers names the pointwise
    product s1^k1 * s2^k2, so ``(0, 0)`` is the all-ones vector, and
    ``("exp", player, h)`` names e^{h * s_player} for a finite real h.
    Any other label is a ValueError.  Exponentials are range-checked by
    :func:`check_exp_range`; a power that is not finite in double
    precision is an OverflowError.  Returns shape (len(labels), 4).
    """
    s = np.array([payoff_vector(m, 1), payoff_vector(m, 2)])
    rows = np.empty((len(labels), 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, label in enumerate(labels):
            if (isinstance(label, tuple) and len(label) == 2
                    and all(_is_int(k) and k >= 0 for k in label)):
                rows[i] = s[0] ** label[0] * s[1] ** label[1]
            elif (isinstance(label, tuple) and len(label) == 3 and label[0] == "exp"
                    and _is_int(label[1]) and label[1] in (1, 2)
                    and (_is_int(label[2]) or isinstance(label[2], (float, np.floating)))
                    and math.isfinite(label[2])):
                check_exp_range(label[2], m.max_abs())
                rows[i] = np.exp(label[2] * s[label[1] - 1])
            else:
                raise ValueError(f"not a payoff feature label: {label!r}")
    if not np.isfinite(rows).all():
        k1, k2 = labels[int(np.argmin(np.isfinite(rows).all(axis=1)))]
        raise OverflowError(
            f"payoff power s1^{k1}*s2^{k2} overflows double precision at k={k1 + k2}"
        )
    return rows


@dataclass(frozen=True)
class MemoryOneStrategy:
    """Cooperation probabilities conditioned on the previous joint state.

    ``p[s]`` is the probability of cooperating when the previous state,
    seen from this strategy's own side (own action first), was ``s``.
    Defection probabilities are never stored; they are ``1 - p[s]`` by
    construction, so normalisation cannot be violated.
    """

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        p = tuple(float(x) for x in self.p)
        if len(p) != 4:
            raise ValueError("a memory-one strategy has exactly four probabilities")
        for x in p:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"cooperation probability {x!r} outside [0, 1]")
        object.__setattr__(self, "p", p)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)

    def with_noise(self, eps: float) -> "MemoryOneStrategy":
        """Trembling-hand mixture: p <- (1 - eps) * p + eps / 2."""
        eps = float(eps)
        if not (0.0 <= eps <= 0.5):
            raise ValueError(f"noise level {eps!r} outside [0, 1/2]")
        if eps == 0.0:
            return self
        return MemoryOneStrategy(tuple((1.0 - eps) * x + eps / 2.0 for x in self.p))


_NAMED = {
    "tft": (1.0, 0.0, 1.0, 0.0),
    "wsls": (1.0, 0.0, 0.0, 1.0),
    "all_c": (1.0, 1.0, 1.0, 1.0),
    "all_d": (0.0, 0.0, 0.0, 0.0),
}


def named_strategy(name: str) -> MemoryOneStrategy:
    """Look up a strategy by name.

    Known names: ``tft``, ``wsls``, ``all_c``, ``all_d``, ``random:q``
    (cooperate with constant probability q) and ``custom:a,b,c,d``.
    """
    key = name.strip().lower()
    if key in _NAMED:
        return MemoryOneStrategy(_NAMED[key])
    if key.startswith("random:"):
        q = float(key.split(":", 1)[1])
        return MemoryOneStrategy((q, q, q, q))
    if key.startswith("custom:"):
        parts = key.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise ValueError(f"custom strategy needs four probabilities: {name!r}")
        return MemoryOneStrategy(tuple(float(x) for x in parts))
    raise ValueError(f"unknown strategy name {name!r}")


def parse_strategy(spec: str | Mapping[str, float]) -> MemoryOneStrategy:
    """Parse a strategy literal.

    Accepts a mapping (or JSON object string) with keys p_cc, p_cd, p_dc,
    p_dd; a named string as in :func:`named_strategy`; or an inline
    comma-separated list "p_cc,p_cd,p_dc,p_dd".
    """
    if isinstance(spec, Mapping):
        try:
            return MemoryOneStrategy(
                (spec["p_cc"], spec["p_cd"], spec["p_dc"], spec["p_dd"])
            )
        except KeyError as exc:
            raise ValueError(f"strategy object missing key {exc}") from None
    text = spec.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad strategy JSON: {exc}") from None
        return parse_strategy(obj)
    if "," in text and ":" not in text:
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"inline strategy needs four probabilities: {spec!r}")
        return MemoryOneStrategy(tuple(float(x) for x in parts))
    return named_strategy(text)


def _player2_frame(c: np.ndarray) -> np.ndarray:
    """Re-index a stack of player-2 vectors by global state: CD and DC swap."""
    return c[..., list(SWAP)]


def cooperation_probs(s: MemoryOneStrategy, player: int) -> np.ndarray:
    """Cooperation probabilities indexed by the *global* previous state.

    Player 1's own frame is the global frame; player 2 sees each state
    with the two actions exchanged, so their vector is permuted by CD<->DC.
    """
    if player == 1:
        return s.array
    if player == 2:
        return _player2_frame(s.array)
    raise ValueError(f"player must be 1 or 2, got {player!r}")


def transition_matrices(p1, p2) -> np.ndarray:
    """Transition matrices of a stack of strategy pairs.

    ``p1`` and ``p2`` hold the two players' cooperation probabilities,
    each in its owner's frame, with shapes that broadcast to ``(..., 4)``.
    Entry ``[..., to, frm]`` of the result is the product of the two
    players' independent action probabilities, rows and columns both
    indexed by JointState.
    """
    c1 = np.asarray(p1, dtype=float)
    c2 = _player2_frame(np.asarray(p2, dtype=float))
    d1, d2 = 1.0 - c1, 1.0 - c2
    return np.stack([c1 * c2, c1 * d2, d1 * c2, d1 * d2], axis=-2)


def transition_matrix(s1: MemoryOneStrategy, s2: MemoryOneStrategy) -> np.ndarray:
    """One-step transition matrix of a strategy pair.

    Returns the 4x4 column-stochastic matrix M with ``M[to, frm]`` equal
    to the product of the two players' independent action probabilities;
    this is :func:`transition_matrices` for a single pair.

    Parameters
    ----------
    s1, s2 : MemoryOneStrategy
        Strategies of players 1 and 2, each in its own frame.

    Returns
    -------
    ndarray, shape (4, 4), read-only
    """
    M = transition_matrices(s1.array, s2.array)
    M.flags.writeable = False
    return M
