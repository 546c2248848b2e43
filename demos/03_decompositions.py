"""Press-Dyson vectors in payoff bases: where TFT sits and where WSLS does.

A strategy is zero-determinant when its Press-Dyson vector lies in
span{1, s1, s2}.  TFT does, with payoff-independent coefficients; in fact
it also lies on the curve of every power and exponential transform of the
payoff vectors, which is what turns into moment and MGF equalities.
Win-Stay Lose-Shift does not -- but adding the product vector s1*s2 to the
basis captures it, at the price of payoff-dependent coefficients.
"""

import numpy as np

import zdlab as z

m = z.DEFAULT_PAYOFFS

print("=== TFT in the classical basis {1, s1, s2} ===")
pd_tft = z.press_dyson(z.TFT, 1)
print("press-dyson vector:", pd_tft.tolist())
result = z.decompose(pd_tft, z.BasisSpec.zd(m))
for label, value in result.coefficients.items():
    print(f"  coefficient on {z.format_label(label):>5}: {value:+.6f}")
print(f"  residual norm {result.residual_norm:.2e}  exact={result.exact}")
print()

print("the same vector re-emerges from every power of the payoffs:")
for k in range(1, 8):
    check = z.tft_power_identity(m, k)
    print(f"  k={k}: (s1^k - s2^k) * {check.coefficient:.3e}  max error {check.max_abs_error:.1e}")
print("and from every exponential transform:")
for h in (-1.0, -0.1, 0.1, 1.0):
    check = z.tft_exponential_identity(m, h)
    print(f"  h={h:+.1f}: coefficient {check.coefficient:+.4e}  max error {check.max_abs_error:.1e}")
print()

print("=== WSLS is not zero-determinant ===")
pd_wsls = z.press_dyson(z.WSLS, 1)
result = z.decompose(pd_wsls, z.BasisSpec.zd(m))
print("press-dyson vector:", pd_wsls.tolist())
print(f"best {'{1, s1, s2}'} fit leaves residual {result.residual_norm:.4f} (exact={result.exact})")
print()

print("=== ...but the four-vector basis (s1, s2, s1*s2, 1) captures it ===")
result = z.wsls_coefficients(m)
for label, value in result.coefficients.items():
    print(f"  coefficient on {z.format_label(label):>5}: {value:+.6f}")
print(f"  rank {result.rank}, residual {result.residual_norm:.2e}")

print()
print("those coefficients move with the payoffs (unlike TFT's):")
print(f"{'T':>5} {'alpha_s1':>10} {'alpha_s2':>10} {'alpha_s1s2':>11} {'gamma':>9}")
for t in (4.5, 5.0, 5.5):
    c = z.wsls_coefficients(z.PayoffMatrix(R=3, S=0, T=t, P=1)).coefficients
    print(f"{t:>5} {c[(1, 0)]:>10.5f} {c[(0, 1)]:>10.5f} {c[(1, 1)]:>11.5f} {c[(0, 0)]:>9.5f}")
print()

print("the enforced relation vanishes on real play: WSLS vs a random opponent")
rng = np.random.default_rng(3)
coeffs = z.wsls_coefficients(m).coefficients
for _ in range(3):
    opponent = z.MemoryOneStrategy(tuple(rng.random(4)))
    pi = z.cesaro_limit(z.transition_matrix(z.WSLS, opponent), tol=1e-13).distribution
    value = z.relation_value(coeffs, pi, m)
    print(f"  opponent {np.round(opponent.array, 3)} -> relation value {value:.2e}")
