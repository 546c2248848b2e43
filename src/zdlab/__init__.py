"""Numerical laboratory for memory-one strategies in the repeated prisoner's dilemma.

The package computes the long-run behaviour of the four-state chain induced
by a pair of memory-one strategies, decomposes Press-Dyson vectors over
payoff bases (the classical {1, s1, s2} family and its monomial and
exponential extensions), evaluates the payoff-moment relations those
decompositions enforce, and cross-validates everything with seeded
round-by-round simulation.
"""

from . import game, markov, moments, montecarlo, pressdyson
from .game import *
from .markov import *
from .moments import *
from .montecarlo import *
from .pressdyson import *

__version__ = "0.1.0"

#: Frequently used strategies, ready made.
TFT = named_strategy("tft")
WSLS = named_strategy("wsls")
ALL_C = named_strategy("all_c")
ALL_D = named_strategy("all_d")

__all__ = [
    "__version__", "TFT", "WSLS", "ALL_C", "ALL_D",
    *game.__all__, *markov.__all__, *moments.__all__,
    *montecarlo.__all__, *pressdyson.__all__,
]
