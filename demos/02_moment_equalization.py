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

# every moment and MGF value is the average of a payoff feature under pi
orders = range(1, 7)
F1 = z.payoff_features(m, [(k, 0) for k in orders])
F2 = z.payoff_features(m, [(0, k) for k in orders])
print("payoff moments of the two players:")
print(f"{'k':>3} {'<s1^k>':>14} {'<s2^k>':>14} {'difference':>12}")
for k, m1, m2 in zip(orders, z.feature_averages(F1, pi), z.feature_averages(F2, pi)):
    print(f"{k:>3} {m1:>14.8f} {m2:>14.8f} {m1 - m2:>12.2e}")
print()

h_grid = (-2.0, -0.5, 0.5, 2.0)
G1 = z.payoff_features(m, [("exp", 1, h) for h in h_grid])
G2 = z.payoff_features(m, [("exp", 2, h) for h in h_grid])
print("moment generating functions:")
print(f"{'h':>6} {'<e^(h s1)>':>16} {'<e^(h s2)>':>16} {'difference':>12}")
for h, g1, g2 in zip(h_grid, z.feature_averages(G1, pi), z.feature_averages(G2, pi)):
    print(f"{h:>6} {g1:>16.8f} {g2:>16.8f} {g1 - g2:>12.2e}")
print()

# a payoff distribution is a (support, probabilities) pair
d1 = z.payoff_distributions(s1, pi)
d2 = z.payoff_distributions(s2, pi)
for player, (support, probs) in ((1, d1), (2, d2)):
    shown = {v: round(p, 8) for v, p in zip(support.tolist(), probs.tolist())}
    print(f"payoff distribution, player {player}:", shown)
print("equal within 1e-8:", bool(z.distribution_stacks_equal(d1, d2, tol=1e-8)))
print()

print("Akin's lemma behind it all: the averaged Press-Dyson vector vanishes")
for player, strat in ((1, z.TFT), (2, opponent)):
    residual = z.akin_residual(z.press_dyson(strat, player), pi)
    print(f"  player {player}: pd . pi = {residual:.2e}")
