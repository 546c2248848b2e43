"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Every random draw is seeded, so the whole suite is deterministic.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import zdlab as z
from zdlab.cli import main as cli_main

OPPONENT_SEED = 20260810
PAIR_SEED = 777
PAYOFF_SEED = 4242
MC_BASE_SEED = 1234

N_OPPONENTS = 1000
K_VALUES = tuple(range(1, 7))
H_GRID = (-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0)

# Tighter than the module default: a k = 6 moment check multiplies
# distribution error by T^6, so the chain solves leave headroom.
LIMIT_TOL = 1e-13

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
    return [(opp, _tft_limit(opp)) for opp in _random_strategies(N_OPPONENTS, OPPONENT_SEED)]


def test_criterion_1_tft_moment_theorem():
    start = time.perf_counter()
    worst = 0.0
    for opponent in _random_strategies(N_OPPONENTS, OPPONENT_SEED):
        pi = _tft_limit(opponent)
        for k in K_VALUES:
            worst = max(worst, abs(z.moment(S1, pi, k) - z.moment(S2, pi, k)))
    elapsed = time.perf_counter() - start
    _check(
        1,
        "TFT moment theorem",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |<s1^k> - <s2^k>| = {worst:.3e} over {N_OPPONENTS} opponents, "
        f"k=1..6, in {elapsed:.2f}s",
    )


def test_criterion_2_tft_mgf_theorem(tft_limits):
    worst = 0.0
    for _, pi in tft_limits:
        for h in H_GRID:
            worst = max(worst, abs(z.mgf(S1, pi, h) - z.mgf(S2, pi, h)))
    _check(
        2,
        "TFT MGF theorem",
        worst <= 1e-8,
        f"max |<e^(h s1)> - <e^(h s2)>| = {worst:.3e} over the h grid",
    )


def test_criterion_3_structural_core(tft_limits):
    worst_gap = 0.0
    all_equal = True
    for _, pi in tft_limits:
        worst_gap = max(worst_gap, abs(pi[z.JointState.CD] - pi[z.JointState.DC]))
        d1 = z.payoff_distributions(S1, pi)
        d2 = z.payoff_distributions(S2, pi)
        all_equal = all_equal and bool(z.distribution_stacks_equal(d1, d2, tol=1e-8))
    _check(
        3,
        "structural core",
        worst_gap <= 1e-10 and all_equal,
        f"max |pi_cd - pi_dc| = {worst_gap:.3e}; payoff distributions equal: {all_equal}",
    )


def _random_strict_payoffs(n: int, seed: int) -> list[z.PayoffMatrix]:
    rng = np.random.Generator(np.random.PCG64(seed))
    out: list[z.PayoffMatrix] = []
    while len(out) < n:
        s, p, r, t = np.sort(rng.uniform(-5.0, 10.0, size=4))
        if t > r > p > s and 2 * r > t + s:
            out.append(z.PayoffMatrix(R=r, S=s, T=t, P=p))
    return out


def test_criterion_4_press_dyson_identities():
    matrices = [M] + _random_strict_payoffs(100, PAYOFF_SEED)
    worst_power = max(
        z.tft_power_identity(pm, k).max_abs_error for pm in matrices for k in range(1, 11)
    )
    worst_exp = max(
        z.tft_exponential_identity(pm, h).max_abs_error for pm in matrices for h in H_GRID
    )
    _check(
        4,
        "Press-Dyson identities",
        worst_power <= 1e-12 and worst_exp <= 1e-10,
        f"power error {worst_power:.3e} (k=1..10), exponential error {worst_exp:.3e}, "
        f"{len(matrices)} payoff sets",
    )


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


def test_criterion_7_wsls_relation():
    result = z.wsls_coefficients(M)
    recon_err = float(np.max(np.abs(result.reconstruction() - z.press_dyson(z.WSLS, 1))))
    worst_relation = 0.0
    for opponent in _random_strategies(100, OPPONENT_SEED + 1):
        chain = z.transition_matrix(z.WSLS, opponent)
        limit = z.cesaro_limit(chain, tol=LIMIT_TOL)
        assert limit.converged
        worst_relation = max(
            worst_relation, abs(z.relation_value(result.coefficients, limit.distribution, M))
        )
    sweep = {
        tuple(z.wsls_coefficients(z.PayoffMatrix(R=3, S=0, T=t, P=1)).coefficient_vector)
        for t in (4.5, 5.0, 5.5)
    }
    _check(
        7,
        "WSLS relation",
        recon_err <= 1e-12 and worst_relation <= 1e-8 and len(sweep) == 3,
        f"reconstruction error {recon_err:.3e}; max relation value {worst_relation:.3e} "
        f"over 100 opponents; {len(sweep)} distinct coefficient vectors in the T sweep",
    )


def test_criterion_8_monte_carlo_cross_validation():
    opponents = _random_strategies(50, OPPONENT_SEED + 2)
    diff_values = (S1 - S2) ** 2
    within = 0
    pathwise_broken = []
    for i, opponent in enumerate(opponents):
        cfg = z.SimulationConfig(rounds=10**6, seed=z.derive_seed(MC_BASE_SEED, i), burn_in=10**3)
        report = z.simulate(z.TFT, opponent, cfg)
        # exact on every TFT path: #CD - #DC counts player 2's C->D minus D->C switches
        _, cd, dc, _ = report.state_counts
        if abs(cd - dc) > 1:
            pathwise_broken.append(i)
        mean_diff = report.moments[1][1] - report.moments[2][1]
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
            rounds=10**6, seed=z.derive_seed(MC_BASE_SEED, 100 + i), burn_in=10**3
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
