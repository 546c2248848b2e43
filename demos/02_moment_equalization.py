"""Tit-for-Tat equalises every payoff moment of the two players.

Whatever the opponent does, the long-run distribution of a TFT chain puts
equal weight on CD and DC.  Because the players' payoff vectors differ only
by swapping those two states, every moment, every value of the moment
generating function, and finally the whole payoff distribution of the two
players coincide.  This script shows all three layers on one random
opponent.
"""

import numpy as np

import zdlab as z

rng = np.random.default_rng(7)
opponent = z.MemoryOneStrategy(tuple(rng.random(4)))
print("opponent cooperation probabilities:", np.round(opponent.array, 4))

M = z.transition_matrix(z.TFT, opponent)
limit = z.cesaro_limit(M, tol=1e-13)
pi = limit.distribution
print("long-run distribution:", np.round(pi, 10))
print(f"pi[CD] - pi[DC] = {pi[z.JointState.CD] - pi[z.JointState.DC]:.2e}")
print()

m = z.DEFAULT_PAYOFFS
s1, s2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)

print("payoff moments of the two players:")
print(f"{'k':>3} {'<s1^k>':>14} {'<s2^k>':>14} {'difference':>12}")
for k in range(1, 7):
    m1, m2 = z.moment(s1, pi, k), z.moment(s2, pi, k)
    print(f"{k:>3} {m1:>14.8f} {m2:>14.8f} {m1 - m2:>12.2e}")
print()

print("moment generating functions:")
print(f"{'h':>6} {'<e^(h s1)>':>16} {'<e^(h s2)>':>16} {'difference':>12}")
for h in (-2.0, -0.5, 0.5, 2.0):
    g1, g2 = z.mgf(s1, pi, h), z.mgf(s2, pi, h)
    print(f"{h:>6} {g1:>16.8f} {g2:>16.8f} {g1 - g2:>12.2e}")
print()

d1 = z.payoff_distribution(s1, pi)
d2 = z.payoff_distribution(s2, pi)
print("payoff distribution, player 1:", {v: round(p, 8) for v, p in d1.points})
print("payoff distribution, player 2:", {v: round(p, 8) for v, p in d2.points})
print("equal within 1e-8:", z.distributions_equal(d1, d2, tol=1e-8))
print()

print("Akin's lemma behind it all: the averaged Press-Dyson vector vanishes")
for player, strat in ((1, z.TFT), (2, opponent)):
    residual = z.akin_residual(z.press_dyson(strat, player), pi)
    print(f"  player {player}: pd . pi = {residual:.2e}")
