"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Every random draw is seeded, so the whole suite is deterministic.
"""

import time
from decimal import Context, Decimal, Inexact
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zdlab as z
from zdlab.cli import main as cli_main

OPPONENT_SEED = 20260810
PAIR_SEED = 777
PAYOFF_SEED = 4242
MC_BASE_SEED = 1234
FOCAL_SEED = 2468

N_OPPONENTS = 1000
K_VALUES = tuple(range(1, 7))
H_GRID = (-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0)

# The module default, stated here: a k = 6 moment check multiplies
# distribution error by T^6, so the chain solves leave headroom.
LIMIT_TOL = 1e-13

# Criteria 1 and 2 bound the moment and MGF gaps, criterion 3 |pi_CD - pi_DC|
# and each outcome's probability gap between the two payoff distributions.
MOMENT_TOL = 1e-8
GAP_TOL = 1e-10
DISTRIBUTION_TOL = 1e-8

M = z.DEFAULT_PAYOFFS
S1 = z.payoff_vector(M, 1)
S2 = z.payoff_vector(M, 2)


def _check(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _random_strategies(n: int, seed: int) -> list[z.MemoryOneStrategy]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return [z.MemoryOneStrategy(tuple(rng.random(4))) for _ in range(n)]


def _tft_limit(opponent: z.MemoryOneStrategy) -> np.ndarray:
    chain = z.transition_matrix(z.TFT, opponent)
    limit = z.cesaro_limit(chain, tol=LIMIT_TOL)
    assert limit.converged
    return limit.distribution


@pytest.fixture(scope="module")
def tft_limits():
    return np.array([_tft_limit(opp) for opp in _random_strategies(N_OPPONENTS, OPPONENT_SEED)])


def _moment_gaps(pis) -> np.ndarray:
    """Criterion 1's measure under each distribution: max over k of |<s1^k> - <s2^k>|."""
    F1 = z.payoff_features(M, [(k, 0) for k in K_VALUES])
    F2 = z.payoff_features(M, [(0, k) for k in K_VALUES])
    return np.abs(z.feature_averages(F1, pis) - z.feature_averages(F2, pis)).max(axis=-1)


def _mgf_gaps(pis) -> np.ndarray:
    """Criterion 2's measure under each distribution: max over h of |<e^(h s1)> - <e^(h s2)>|."""
    F1 = z.payoff_features(M, [("exp", 1, h) for h in H_GRID])
    F2 = z.payoff_features(M, [("exp", 2, h) for h in H_GRID])
    return np.abs(z.feature_averages(F1, pis) - z.feature_averages(F2, pis)).max(axis=-1)


def _structural_gaps(pis) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 3's measures: |pi_CD - pi_DC|, and whether the payoff distributions agree."""
    gaps = np.abs(pis[..., z.JointState.CD] - pis[..., z.JointState.DC])
    d1 = z.payoff_distributions(S1, pis)
    d2 = z.payoff_distributions(S2, pis)
    return gaps, z.distribution_stacks_equal(d1, d2, tol=DISTRIBUTION_TOL)


def test_criterion_1_tft_moment_theorem():
    start = time.perf_counter()
    worst = 0.0
    for opponent in _random_strategies(N_OPPONENTS, OPPONENT_SEED):
        worst = max(worst, float(_moment_gaps(_tft_limit(opponent))))
    elapsed = time.perf_counter() - start
    _check(
        1,
        "TFT moment theorem",
        worst <= MOMENT_TOL and elapsed < 10.0,
        f"max |<s1^k> - <s2^k>| = {worst:.3e} over {N_OPPONENTS} opponents, "
        f"k=1..6, in {elapsed:.2f}s",
    )


def test_criterion_2_tft_mgf_theorem(tft_limits):
    worst = float(_mgf_gaps(tft_limits).max())
    _check(
        2,
        "TFT MGF theorem",
        worst <= MOMENT_TOL,
        f"max |<e^(h s1)> - <e^(h s2)>| = {worst:.3e} over the h grid",
    )


def test_criterion_3_structural_core(tft_limits):
    gaps, equal = _structural_gaps(tft_limits)
    worst_gap, all_equal = float(gaps.max()), bool(equal.all())
    _check(
        3,
        "structural core",
        worst_gap <= GAP_TOL and all_equal,
        f"max |pi_cd - pi_dc| = {worst_gap:.3e}; payoff distributions equal: {all_equal}",
    )


def test_criteria_1_to_3_fail_without_tft():
    # negative controls: with WSLS or a seeded random player in TFT's place,
    # every opponent breaks every tolerance of criteria 1 to 3
    focals = {"WSLS": z.WSLS, "random": _random_strategies(1, FOCAL_SEED)[0]}
    players = np.array([s.p for s in focals.values()])
    opponents = np.array([s.p for s in _random_strategies(N_OPPONENTS, OPPONENT_SEED)])
    chains = z.transition_matrices(players[:, None], opponents).reshape(-1, 4, 4)
    limits = z.cesaro_limits(chains, tol=LIMIT_TOL)
    assert limits.converged.all()
    pis = limits.distributions.reshape(len(focals), N_OPPONENTS, 4)
    gaps, equal = _structural_gaps(pis)
    for name, moment, mgf, gap, same in zip(focals, _moment_gaps(pis), _mgf_gaps(pis),
                                            gaps, equal):
        print(f"CONTROL 1-3 {name} focal player: smallest moment gap {moment.min():.3e}, "
              f"MGF gap {mgf.min():.3e}, |pi_cd - pi_dc| {gap.min():.3e}; "
              f"payoff distributions equal for {int(same.sum())} of {N_OPPONENTS}")
        assert (moment > MOMENT_TOL).all() and (mgf > MOMENT_TOL).all(), name
        assert (gap > GAP_TOL).all() and not same.any(), name


def _random_strict_payoffs(n: int, seed: int) -> list[z.PayoffMatrix]:
    rng = np.random.Generator(np.random.PCG64(seed))
    out: list[z.PayoffMatrix] = []
    while len(out) < n:
        s, p, r, t = np.sort(rng.uniform(-5.0, 10.0, size=4))
        if t > r > p > s and 2 * r > t + s:
            out.append(z.PayoffMatrix(R=r, S=s, T=t, P=p))
    return out


#: A TFT identity's coefficient must lie within C4 * kappa * u of its exact
#: value, u = 2^-53 and kappa the condition number of its denominator:
#: (|T|^k + |S|^k) / |T^k - S^k| for the power identity, and for the
#: exponential one (e^{hT} + e^{hS}) / |e^{hT} - e^{hS}| * (1 + |h| max(|T|, |S|)).
#: At the 101 payoff sets the worst was 2.1 kappa u (4.5u) for the power
#: identity and 0.71 kappa u (6.3u) for the exponential one.
C4 = 4.0
_EXACT = Context(prec=1000, traps=[Inexact])  # h * T and h * S without rounding
_DIGITS60 = Context(prec=60)


def _coefficient_errors(matrices, scale=1.0):
    """Worst |coefficient * scale / exact - 1| / (kappa u), power identity then exponential."""
    worst_power = worst_exp = 0.0
    for pm in matrices:
        T, S = Fraction(pm.T), Fraction(pm.S)
        for k in range(1, 11):
            exact = 1 / (T**k - S**k)
            kappa = (abs(T) ** k + abs(S) ** k) * abs(exact)
            error = abs(Fraction(z.tft_power_identity(pm, k).coefficient * scale) / exact - 1)
            worst_power = max(worst_power, float(error / kappa) * 2**53)
        widest = Decimal(max(abs(pm.T), abs(pm.S)))
        for h in H_GRID:
            e_t, e_s = (_DIGITS60.exp(_EXACT.multiply(Decimal(h), Decimal(x)))
                        for x in (pm.T, pm.S))
            exact = _DIGITS60.divide(1, e_t - e_s)
            kappa = (e_t + e_s) * abs(exact) * (1 + abs(Decimal(h)) * widest)
            coefficient = Decimal(z.tft_exponential_identity(pm, h).coefficient * scale)
            error = abs(_DIGITS60.subtract(_DIGITS60.divide(coefficient, exact), 1))
            worst_exp = max(worst_exp, float(error / kappa) * 2**53)
    return worst_power, worst_exp


def test_criterion_4_press_dyson_identities():
    matrices = [M] + _random_strict_payoffs(100, PAYOFF_SEED)
    worst_power = max(
        z.tft_power_identity(pm, k).max_abs_error for pm in matrices for k in range(1, 11)
    )
    worst_exp = max(
        z.tft_exponential_identity(pm, h).max_abs_error for pm in matrices for h in H_GRID
    )
    coef_power, coef_exp = _coefficient_errors(matrices)
    _check(
        4,
        "Press-Dyson identities",
        worst_power <= 1e-12 and worst_exp <= 1e-10 and max(coef_power, coef_exp) <= C4,
        f"power error {worst_power:.3e} (k=1..10), exponential error {worst_exp:.3e}, "
        f"coefficients within {coef_power:.2f} and {coef_exp:.2f} kappa u (bound {C4:g}), "
        f"{len(matrices)} payoff sets",
    )


def test_criterion_4_sees_a_coefficient_off_by_1e_10():
    # the coefficient check can fail: a relative error of 1e-10 breaks both bounds
    matrices = [M] + _random_strict_payoffs(100, PAYOFF_SEED)
    assert min(_coefficient_errors(matrices, scale=1 + 1e-10)) > C4


def test_criterion_5_akin_identity():
    rng_pairs = _random_strategies(2 * N_OPPONENTS, PAIR_SEED)
    pairs = list(zip(rng_pairs[:N_OPPONENTS], rng_pairs[N_OPPONENTS:]))
    pairs += [(z.TFT, z.TFT), (z.TFT, z.ALL_D), (z.WSLS, z.TFT)]
    worst = 0.0
    for s1, s2 in pairs:
        chain = z.transition_matrix(s1, s2)
        limit = z.cesaro_limit(chain, tol=LIMIT_TOL)
        assert limit.converged
        pi = limit.distribution
        worst = max(
            worst,
            abs(z.akin_residual(z.press_dyson(s1, 1), pi)),
            abs(z.akin_residual(z.press_dyson(s2, 2), pi)),
        )
    _check(
        5,
        "Akin identity",
        worst <= 1e-8,
        f"max |pd . pi| = {worst:.3e} over {len(pairs)} pairs, both players",
    )


def test_criterion_6_zd_boundary():
    tft_result = z.decompose(z.press_dyson(z.TFT, 1), z.BasisSpec.zd(M))
    c = tft_result.coefficients
    expected = 1.0 / (M.T - M.S)
    tft_ok = (
        tft_result.exact
        and abs(c[(0, 0)]) <= 1e-12
        and abs(c[(1, 0)] - expected) <= 1e-12
        and abs(c[(0, 1)] + expected) <= 1e-12
    )
    wsls_result = z.decompose(z.press_dyson(z.WSLS, 1), z.BasisSpec.zd(M))
    wsls_ok = (not wsls_result.exact) and wsls_result.residual_norm > 1e-6
    _check(
        6,
        "ZD boundary",
        tft_ok and wsls_ok,
        f"TFT coefficients (0, 1/(T-S), -1/(T-S)) exact: {tft_ok}; "
        f"WSLS residual {wsls_result.residual_norm:.3e} > 1e-6: {wsls_ok}",
    )


#: Criterion 7: each of WSLS's ``wsls4`` coefficients must lie within
#: C7 * kappa * u of its exact value, u = 2^-53 and kappa the infinity-norm
#: condition number of the exact basis matrix (33.5 to 38 on the T sweep).
#: The worst measured is 0.030 kappa u, at the default payoffs, now that each
#: basis is solved exactly and each table entry rounded once; it was 4.17
#: kappa u (148u, on the s1*s2 coefficient 3/28) from the SVD each basis took,
#: and 4.43 when decompose solved with lstsq on every call, so C7 went from 8 to 1.
C7 = 1.0
T_SWEEP = (4.5, 5.0, 5.5)  # R, S, P as in the default payoffs


def _det(A):
    """Determinant of a square list of Fractions by cofactor expansion along row 0."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * _det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)) if A[0][j])


def _cramer(A, b):
    """The exact solution x of A x = b by Cramer's rule."""
    d = _det(A)
    return [_det([row[:j] + [bj] + row[j + 1:] for row, bj in zip(A, b)]) / d
            for j in range(len(A))]


def _wsls_exact(pm):
    """WSLS's exact coefficients over (s1, s2, s1*s2, 1), the basis's det and kappa."""
    R, S, T, P = (Fraction(v) for v in pm.as_tuple())
    basis = [[x, y, x * y, Fraction(1)] for x, y in ((R, R), (S, T), (T, S), (P, P))]
    unit = [[Fraction(i == j) for i in range(4)] for j in range(4)]
    inverse_columns = [_cramer(basis, e) for e in unit]
    kappa = (max(sum(abs(v) for v in row) for row in basis)
             * max(sum(abs(col[i]) for col in inverse_columns) for i in range(4)))
    # WSLS cooperates after CC and DD: (1, 0, 0, 1) minus (1, 1, 0, 0) for a previous C
    return _cramer(basis, [Fraction(v) for v in (0, -1, 0, 1)]), _det(basis), kappa


def _wsls_coefficient_errors(scale=1.0):
    """Per payoff set of the T sweep: worst |coefficient * scale / exact - 1| / (kappa u)."""
    worst = []
    for t in T_SWEEP:
        pm = z.PayoffMatrix(R=3, S=0, T=t, P=1)
        exact, _, kappa = _wsls_exact(pm)
        result = z.wsls_coefficients(pm)
        assert tuple(result.coefficients) == ((1, 0), (0, 1), (1, 1), (0, 0))
        errors = [abs(Fraction(c * scale) / e - 1)
                  for c, e in zip(result.coefficients.values(), exact)]
        worst.append(float(max(errors) / kappa) * 2**53)
    return worst


def test_criterion_7_exact_reference():
    exact, det, kappa = _wsls_exact(M)
    R, S, T, P = (Fraction(v) for v in M.as_tuple())
    # columns (s1, s2, s1*s2, 1) are an odd permutation of (1, s1, s2, s1*s2)
    assert det == -(S - T) * (P - R) * ((S - P) * (R - T) + (T - P) * (R - S)) == -140
    assert exact == [Fraction(-51, 140), Fraction(-79, 140), Fraction(3, 28), Fraction(51, 28)]
    assert 35 < kappa < 36


def test_criterion_7_wsls_relation():
    result = z.wsls_coefficients(M)
    recon_err = float(np.max(np.abs(result.residual)))
    worst_relation = 0.0
    for opponent in _random_strategies(100, OPPONENT_SEED + 1):
        chain = z.transition_matrix(z.WSLS, opponent)
        limit = z.cesaro_limit(chain, tol=LIMIT_TOL)
        assert limit.converged
        worst_relation = max(
            worst_relation, abs(z.relation_value(result.coefficients, limit.distribution, M))
        )
    sweep = {
        tuple(z.wsls_coefficients(z.PayoffMatrix(R=3, S=0, T=t, P=1)).coefficients.values())
        for t in T_SWEEP
    }
    coefficient_error = max(_wsls_coefficient_errors())
    _check(
        7,
        "WSLS coefficients",
        coefficient_error <= C7 and recon_err <= 1e-12 and worst_relation <= 1e-8
        and len(sweep) == 3,
        f"coefficients within {coefficient_error:.2f} kappa u of Cramer's rule at "
        f"T = {', '.join(map(str, T_SWEEP))} (bound {C7:g}); max relation value "
        f"{worst_relation:.3e} over 100 opponents; {len(sweep)} distinct coefficient "
        f"vectors in the T sweep; reconstruction error {recon_err:.3e}, "
        f"as for any strategy, since wsls4 spans R^4",
    )


def test_criterion_7_sees_a_coefficient_off_by_1e_10():
    # the coefficient check can fail: a relative error of 1e-10 breaks the bound at every T
    assert min(_wsls_coefficient_errors(scale=1 + 1e-10)) > C7


def test_criterion_8_monte_carlo_cross_validation():
    opponents = _random_strategies(50, OPPONENT_SEED + 2)
    diff_values = (S1 - S2) ** 2
    within = 0
    pathwise_broken = []
    for i, opponent in enumerate(opponents):
        cfg = z.SimulationConfig(rounds=10**6, seed=MC_BASE_SEED + i, burn_in=10**3)
        report = z.simulate(z.TFT, opponent, cfg)
        # exact on every TFT path: #CD - #DC counts player 2's C->D minus D->C switches
        _, cd, dc, _ = report.state_counts
        if abs(cd - dc) > 1:
            pathwise_broken.append(i)
        mean_diff = float(np.dot(S1, report.frequencies) - np.dot(S2, report.frequencies))
        variance = float(np.dot(diff_values, report.frequencies)) - mean_diff**2
        stderr = np.sqrt(max(variance, 0.0) / report.counted_rounds)
        if abs(mean_diff) <= 5.0 * stderr:
            within += 1

    flagged_pairs = 0
    pair_pool = _random_strategies(20, PAIR_SEED + 2)
    for i in range(10):
        s1, s2 = pair_pool[2 * i], pair_pool[2 * i + 1]
        if not z.classify(z.transition_matrix(s1, s2)).ergodic:
            continue
        cfg = z.SimulationConfig(
            rounds=10**6, seed=MC_BASE_SEED + 100 + i, burn_in=10**3
        )
        comparison = z.empirical_vs_exact(s1, s2, cfg, tol_sigma=5.0)
        if not comparison.passed:
            flagged_pairs += 1
    _check(
        8,
        "Monte Carlo cross-validation",
        within >= 48 and flagged_pairs == 0 and not pathwise_broken,
        f"{within}/50 trials within 5 standard errors; "
        f"{flagged_pairs} ergodic pairs outside 5-sigma frequency bounds; "
        f"TFT runs with |#CD - #DC| > 1: {pathwise_broken}",
    )


def test_criterion_9_cli_determinism(tmp_path: Path):
    invocations = [
        ("verify", ["verify-tft", "--random", "5", "--seed", "11"], "csv"),
        ("simulate", ["simulate", "tft", "random:0.3", "--rounds", "2000", "--seed", "9"], "json"),
        ("sweep", ["sweep", "--wsls-coeffs", "--payoff-grid", "T=4.5,5.0,5.5"], "csv"),
    ]
    identical = True
    for name, argv, fmt in invocations:
        outputs = []
        for attempt in ("a", "b"):
            directory = tmp_path / f"{name}_{attempt}"
            directory.mkdir()
            out = directory / f"out.{fmt}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            produced = sorted(p for p in directory.iterdir())
            outputs.append([p.read_bytes() for p in produced])
        identical = identical and outputs[0] == outputs[1] and len(outputs[0]) >= 2
    _check(
        9,
        "CLI determinism",
        identical,
        "three seeded invocations, all produced files byte-identical across reruns",
    )
