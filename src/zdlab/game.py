"""Core objects of the two-player repeated prisoner's dilemma.

Joint states are indexed in the fixed order CC=0, CD=1, DC=2, DD=3, with
player 1's action written first.  Every vector and matrix in this package
uses that order.  Memory-one strategies are stored from their owner's point
of view (own previous action first); operations that take a ``player``
argument translate to the global frame with the CD<->DC swap where needed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
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
_SWAP_INDEX = np.array((0, 2, 1, 3))  # take() converts a tuple index on every call


def global_frame(own: np.ndarray, player: int) -> np.ndarray:
    """A stack of ``player``'s own-frame 4-vectors in the global state order.

    Player 1's own frame is the global frame, so ``own`` itself is
    returned; player 2 sees each state with the two actions exchanged, so
    their CD and DC entries swap.  Any other player is a ValueError.
    """
    if player == 1:
        return own
    if player == 2:
        return own.take(_SWAP_INDEX, axis=-1)
    raise ValueError(f"player must be 1 or 2, got {player!r}")


def _is_real(x) -> bool:
    """A real number other than a bool: an int, a float, a Fraction, a numpy int or float."""
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _to_float(x) -> float:
    """A real number as a double; one beyond the double range is an infinity of its sign."""
    try:
        return float(x)
    except OverflowError:  # an int or a Fraction past 1.8e308
        return math.inf if x > 0 else -math.inf


def real_number(x, what: str) -> float:
    """A real number other than a bool as a double (see :func:`_to_float`); else a ValueError."""
    if not _is_real(x):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return _to_float(x)


def read_number(text: str, what: str) -> float:
    """A finite number typed as ``text``, -0 read as 0; else a ValueError naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{what} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what}: expected a finite number, got {text!r}")
    return value + 0.0  # -0.0 + 0.0 is 0.0


def check_noise(eps) -> float:
    """A trembling-hand noise level: a real number in [0, 1/2], as a float."""
    eps = real_number(eps, "noise")
    if not (0.0 <= eps <= 0.5):
        raise ValueError(f"noise must lie in [0, 1/2], got {eps!r}")
    return eps


def _is_int(x) -> bool:
    """An integer other than a bool: an int or an int subclass (an IntEnum too), a numpy int."""
    return type(x) is int or (isinstance(x, (int, np.integer)) and not isinstance(x, bool))


@dataclass(frozen=True)
class PayoffMatrix:
    """The four one-shot payoffs (R, S, T, P); a payoff of -0.0 is read as 0.0.

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
            value = real_number(getattr(self, name), f"payoff {name}")
            if not np.isfinite(value):
                raise ValueError(f"payoff {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value + 0.0)  # -0.0 + 0.0 is 0.0
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


#: Conventional Axelrod payoffs, used whenever no payoffs are given.
DEFAULT_PAYOFFS = PayoffMatrix(R=3.0, S=0.0, T=5.0, P=1.0)


def payoff_vector(m: PayoffMatrix, player: int) -> np.ndarray:
    """Read-only per-state payoffs of one player: (R,S,T,P) for 1, (R,T,S,P) for 2."""
    v = global_frame(np.array([m.R, m.S, m.T, m.P]), player)
    v.flags.writeable = False
    return v


#: Payoff tables that :func:`payoff_features` keeps, one per (payoffs,
#: labels) pair; the least recently used goes first.
FEATURE_CACHE_SIZE = 256


def feature_label(label) -> tuple:
    """The canonical form of a payoff feature label (int orders, float h); else a ValueError."""
    if (isinstance(label, tuple) and len(label) == 2
            and _is_int(label[0]) and label[0] >= 0 and _is_int(label[1]) and label[1] >= 0):
        return (int(label[0]), int(label[1]))
    if (isinstance(label, tuple) and len(label) == 3 and isinstance(label[0], str)
            and label[0] == "exp" and _is_int(label[1]) and label[1] in (1, 2)
            and _is_real(label[2]) and math.isfinite(h := _to_float(label[2]))):
        return ("exp", int(label[1]), h)
    raise ValueError(f"not a payoff feature label: {label!r}")


def payoff_features(m: PayoffMatrix, labels) -> np.ndarray:
    """The payoff features named by ``labels``, one row of four values each.

    The label ``(k1, k2)`` of nonnegative integers names the pointwise
    product s1^k1 * s2^k2, so ``(0, 0)`` is the all-ones vector, and
    ``("exp", player, h)`` names e^{h * s_player} for a finite real h.
    Any other label is a ValueError.  Each value is the double numpy
    computes, an underflow included (0.0 or a subnormal), and a feature
    with a value that is not finite is an OverflowError naming it.
    Returns shape (len(labels), 4), read-only: every label is checked on
    every call, and the rows of a recent (payoffs, labels) pair are the
    array built for it before (see :data:`FEATURE_CACHE_SIZE`).
    """
    # one table per value: a label of another numeric type (np.int64(2) for 2)
    # shares it, and one that feature_label refuses (True, 1.0) never reaches it
    return _feature_rows(m, tuple(map(feature_label, labels)))


@functools.lru_cache(maxsize=FEATURE_CACHE_SIZE)
def _feature_rows(m: PayoffMatrix, labels: tuple) -> np.ndarray:
    s = np.array([payoff_vector(m, 1), payoff_vector(m, 2)])
    rows = np.empty((len(labels), 4))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for i, label in enumerate(labels):
            if len(label) == 2:
                rows[i] = s[0] ** label[0] * s[1] ** label[1]
            else:
                rows[i] = np.exp(label[2] * s[label[1] - 1])
    if not np.isfinite(rows).all():
        label = labels[int(np.argmin(np.isfinite(rows).all(axis=1)))]
        if len(label) == 3:
            raise OverflowError(
                f"payoff exponential e^(h*s{label[1]}) overflows double precision at h={label[2]}"
            )
        k1, k2 = label
        raise OverflowError(
            f"payoff power s1^{k1}*s2^{k2} overflows double precision at k={k1 + k2}"
        )
    rows.flags.writeable = False
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
        try:
            p = tuple(_to_float(x) if _is_real(x) else None for x in self.p)
        except TypeError:  # not iterable
            p = (None,)
        if None in p:
            raise ValueError(f"cooperation probabilities must be numbers: {self.p!r}")
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
        eps = check_noise(eps)
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
        q = read_number(name.split(":", 1)[1], f"strategy {name!r}")
        return MemoryOneStrategy((q, q, q, q))
    if key.startswith("custom:"):
        items = name.split(":", 1)[1].split(",")
        return MemoryOneStrategy(tuple(read_number(x, f"strategy {name!r}") for x in items))
    raise ValueError(f"unknown strategy name {name!r}")


_STRATEGY_KEYS = ("p_cc", "p_cd", "p_dc", "p_dd")


def _strategy_object(pairs) -> MemoryOneStrategy:
    """The strategy of an object's (key, value) pairs: each key once, each value a number."""
    values = {}
    for key, value in pairs:
        if key not in _STRATEGY_KEYS:
            raise ValueError(f"unknown strategy key {key!r}")
        if key in values:
            raise ValueError(f"strategy key {key!r} is named twice")
        if not _is_real(value):
            raise ValueError(f"strategy values must be numbers: {key} is {value!r}")
        values[key] = value
    for key in _STRATEGY_KEYS:
        if key not in values:
            raise ValueError(f"strategy object missing key {key!r}")
    return MemoryOneStrategy(tuple(values[key] for key in _STRATEGY_KEYS))


def parse_strategy(spec: str | Mapping[str, float]) -> MemoryOneStrategy:
    """Parse a strategy literal.

    Accepts a mapping (or JSON object string) that gives each of the keys
    p_cc, p_cd, p_dc, p_dd once, with a number, and no other key; a named
    string as in :func:`named_strategy`; or an inline comma-separated list
    "p_cc,p_cd,p_dc,p_dd".
    """
    if isinstance(spec, Mapping):
        return _strategy_object(spec.items())
    text = spec.strip()
    if text.startswith("{"):
        try:
            pairs = json.loads(text, object_pairs_hook=list)  # keeps repeated keys
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad strategy JSON: {exc}") from None
        return _strategy_object(pairs)
    if "," in text and ":" not in text:
        text = "custom:" + text  # the inline list is custom: without its prefix
    return named_strategy(text)


def transition_matrices(p1, p2) -> np.ndarray:
    """Transition matrices of a stack of strategy pairs.

    ``p1`` and ``p2`` hold the two players' cooperation probabilities,
    each in its owner's frame, with shapes that broadcast to ``(..., 4)``.
    Entry ``[..., to, frm]`` of the result is the product of the two
    players' independent action probabilities, rows and columns both
    indexed by JointState.
    """
    c1 = np.asarray(p1, dtype=float)
    c2 = global_frame(np.asarray(p2, dtype=float), 2)
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
