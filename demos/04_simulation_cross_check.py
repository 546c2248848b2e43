"""Seeded round-by-round play agrees with the exact chain analysis.

Simulation is the package's independent witness: it never touches the
linear algebra, yet its state frequencies and payoff moments land within
statistical error of the Cesaro limits.  Everything is driven by a named
PCG64 stream (two draws per round, player 1 first), so runs reproduce
bit for bit.
"""

import numpy as np

import zdlab as z

opponent = z.named_strategy("random:0.35")
cfg = z.SimulationConfig(rounds=10**6, seed=20240101, burn_in=10**3)

report = z.simulate(z.TFT, opponent, cfg)
print(f"PRNG: {report.prng}, seed {report.seed}, {report.counted_rounds} counted rounds")
print("empirical state frequencies:", np.round(report.frequencies, 6))

exact = z.cesaro_limit(z.transition_matrix(z.TFT, opponent), tol=1e-13)
print("exact long-run distribution:", np.round(exact.distribution, 6))
print()

comparison = z.empirical_vs_exact(z.TFT, opponent, cfg, tol_sigma=5.0)
print("per-state deviation vs 5-sigma-plus-resolution bound:")
for state in z.JointState:
    dev, bound = comparison.deviations[state], comparison.bounds[state]
    print(f"  {state.name}: {dev:.3e}  <=  {bound:.3e}")
print("within bounds:", comparison.passed)
print()

# payoff statistics of a run are the package's averages under its frequencies
print("empirical moment equality under TFT (exact in the limit):")
orders = (1, 2, 3)
features = z.payoff_features(z.DEFAULT_PAYOFFS, [(k, 0) for k in orders] + [(0, k) for k in orders])
moments1, moments2 = np.split(z.feature_averages(features, report.frequencies), 2)
for k, diff in zip(orders, (moments1 - moments2).tolist()):
    print(f"  k={k}: <s1^k> - <s2^k> = {diff:+.5f}")
print()

print("empirical payoff distributions, as (support, probabilities) tuples:")
for player in (1, 2):
    support, probs = z.payoff_distributions(z.payoff_vector(z.DEFAULT_PAYOFFS, player),
                                            report.frequencies)
    print(f"  player {player}:", {v: round(p, 6) for v, p in zip(support.tolist(), probs.tolist())})
print()

# every report field is a plain value, so == compares whole reports
rerun = z.simulate(z.TFT, opponent, cfg)
print("re-running with the same seed reproduces the report exactly:", rerun == report)

shifted = z.simulate(
    z.TFT, opponent,
    z.SimulationConfig(rounds=10**6, seed=20240101 + 1, burn_in=10**3),
)
print("next trial seed (base + 1) gives an independent stream:", shifted != report)
