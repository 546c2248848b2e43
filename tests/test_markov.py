import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import zdlab as z

CC, CD, DC, DD = z.JointState


def _random_pairs(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n):
        yield (
            z.MemoryOneStrategy(tuple(rng.random(4))),
            z.MemoryOneStrategy(tuple(rng.random(4))),
        )


def _cesaro_brute(M, pi0, n):
    """Independent oracle: the literal running average (1/n) sum pi_t."""
    pi = np.array(pi0, dtype=float)
    acc = np.zeros(4)
    for _ in range(n):
        acc += pi
        pi = M @ pi
    return acc / n


def _stationary_solve(M):
    """Independent oracle for ergodic chains: M pi = pi and sum(pi) = 1.

    One equation of (M - I) pi = 0 is redundant and is replaced by the
    normalisation; the system is then nonsingular.
    """
    A = M - np.eye(4)
    A[-1] = 1.0
    return np.linalg.solve(A, [0.0, 0.0, 0.0, 1.0])


def _stationary_rational(M):
    """The same system as :func:`_stationary_solve`, solved in exact rationals.

    Free of rounding, so it stays exact where the chain mixes too slowly
    for any floating-point solve of (M - I) pi = 0.
    """
    A = [[Fraction(float(M[i, j])) - (i == j) for j in range(4)] for i in range(3)]
    A.append([Fraction(1)] * 4)
    b = [Fraction(0)] * 3 + [Fraction(1)]
    for c in range(4):
        p = next(r for r in range(c, 4) if A[r][c] != 0)
        A[c], A[p], b[c], b[p] = A[p], A[c], b[p], b[c]
        for r in range(4):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
                b[r] -= f * b[c]
    return np.array([float(b[i] / A[i][i]) for i in range(4)])


class TestClassify:
    def test_tft_vs_tft(self):
        s = z.classify(z.transition_matrix(z.TFT, z.TFT))
        assert s.classes == ((0,), (1, 2), (3,))
        assert s.recurrent == (True, True, True)
        assert s.periods == (1, 2, 1)
        assert not s.ergodic

    def test_random_half_pair_is_ergodic(self):
        half = z.named_strategy("random:0.5")
        s = z.classify(z.transition_matrix(half, half))
        assert s.ergodic
        assert s.classes == ((0, 1, 2, 3),)
        assert s.periods == (1,)

    def test_tft_vs_allc(self):
        s = z.classify(z.transition_matrix(z.TFT, z.ALL_C))
        assert s.recurrent_classes == ((0,),)
        assert s.transient_states == (1, 2, 3)
        assert s.ergodic

    def test_wsls_vs_tft_three_cycle(self):
        s = z.classify(z.transition_matrix(z.WSLS, z.TFT))
        assert s.recurrent_classes == ((0,), (1, 2, 3))
        assert s.periods == (1, 3)

    def test_identity_chain(self):
        s = z.classify(np.eye(4))
        assert len(s.recurrent_classes) == 4
        assert not s.ergodic


class TestCesaroLimit:
    def test_tft_vs_tft_cycle_average(self):
        M = z.transition_matrix(z.TFT, z.TFT)
        result = z.cesaro_limit(M, z.point_mass(CD))
        assert result.converged
        np.testing.assert_allclose(result.distribution, [0, 0.5, 0.5, 0], atol=1e-14)
        assert not result.unique

    def test_tft_vs_allc_absorption(self):
        M = z.transition_matrix(z.TFT, z.ALL_C)
        for pi0 in (None, z.point_mass(DD), np.full(4, 0.25)):
            result = z.cesaro_limit(M, pi0)
            assert result.converged
            np.testing.assert_allclose(result.distribution, [1, 0, 0, 0], atol=1e-12)

    def test_rank_one_chain(self):
        result = z.cesaro_limit(np.full((4, 4), 0.25))
        assert result.unique
        np.testing.assert_allclose(result.distribution, np.full(4, 0.25), atol=1e-12)

    def test_identity_chain_not_unique(self):
        result = z.cesaro_limit(np.eye(4))
        assert not result.unique
        assert result.residual == 0.0

    def test_ergodic_agreement_with_exact_solver(self):
        for s1, s2 in _random_pairs(1000, seed=7):
            M = z.transition_matrix(s1, s2)
            if not z.classify(M).ergodic:
                continue
            limit = z.cesaro_limit(M, tol=1e-12)
            oracle = _stationary_solve(M)
            assert limit.converged
            assert np.max(np.abs(limit.distribution - oracle)) <= 1e-11

    def test_matches_brute_force_running_average(self):
        for seed, (s1, s2) in enumerate(_random_pairs(5, seed=21)):
            M = z.transition_matrix(s1, s2)
            brute = _cesaro_brute(M, np.full(4, 0.25), 20000)
            limit = z.cesaro_limit(M)
            np.testing.assert_allclose(limit.distribution, brute, atol=1e-3)

    def test_brute_force_on_periodic_chain(self):
        M = z.transition_matrix(z.TFT, z.TFT)
        brute = _cesaro_brute(M, z.point_mass(CD), 20000)
        limit = z.cesaro_limit(M, z.point_mass(CD))
        np.testing.assert_allclose(limit.distribution, brute, atol=1e-3)

    def test_fixed_point_residual(self):
        for s1, s2 in _random_pairs(200, seed=3):
            M = z.transition_matrix(s1, s2)
            result = z.cesaro_limit(M, tol=1e-12)
            if result.converged:
                assert result.residual <= 1e-12

    def test_transient_states_carry_no_mass(self):
        for s1, s2 in [(z.TFT, z.ALL_C), (z.TFT, z.ALL_D), (z.WSLS, z.ALL_D)]:
            M = z.transition_matrix(s1, s2)
            structure = z.classify(M)
            limit = z.cesaro_limit(M)
            for state in structure.transient_states:
                assert limit.distribution[state] <= 1e-12

    def test_slow_mixing_sticky_chain(self):
        # two nearly absorbing states; from CC the imbalance between the two
        # basins decays at ~2e-10 per step.  The limit is about
        # (0.5, 2e-10, 2e-10, 0.5); rounding 1 - 1e-10 in the input moves
        # CC and DD by 2e-8, so the reference is an exact rational solve
        sticky = z.MemoryOneStrategy((1 - 1e-10, 0.5, 0.5, 1e-10))
        M = z.transition_matrix(sticky, sticky)
        result = z.cesaro_limit(M, z.point_mass(CC), tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.distribution, [0.5, 2e-10, 2e-10, 0.5], atol=1e-7)
        np.testing.assert_allclose(
            result.distribution, _stationary_rational(M), rtol=1e-9, atol=0
        )

    @pytest.mark.parametrize("leak", [1e-9, 1e-15])
    def test_tft_against_slowly_leaking_cycle(self, leak):
        # TFT vs custom:1,e,1-e,0: CC and DD absorb, while CD and DC swap
        # into each other and leak a = P(CD -> DD) and b = P(DC -> CC) per
        # step.  From the uniform start the limit is about (0.5, 0, 0, 0.5)
        opponent = z.parse_strategy(f"custom:1,{leak!r},{1 - leak!r},0")
        M = z.transition_matrix(z.TFT, opponent)
        a, b = M[DD, CD], M[CC, DC]
        to_dd = a * (2 - b) / (a + b - a * b)  # absorbed at DD from CD plus from DC
        expected = [0.25 + 0.25 * (2 - to_dd), 0.0, 0.0, 0.25 + 0.25 * to_dd]
        result = z.cesaro_limit(M)
        assert result.converged
        np.testing.assert_allclose(result.distribution, [0.5, 0, 0, 0.5], atol=1e-3)
        np.testing.assert_allclose(result.distribution, expected, rtol=1e-12, atol=0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            z.cesaro_limit(np.eye(4), tol=0.0)

    def test_iterations_reported(self):
        # the solve is finite: no iterations to report
        M = z.transition_matrix(z.TFT, z.ALL_C)
        result = z.cesaro_limit(M)
        assert result.converged and result.iterations == 0


def _batch_test_chains():
    """All 256 deterministic pairs, then seeded near-corner and interior pairs."""
    corners = [z.MemoryOneStrategy(bits) for bits in itertools.product((0.0, 1.0), repeat=4)]
    Ms = [z.transition_matrix(a, b) for a in corners for b in corners]
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(150):
        corner = rng.integers(0, 2, size=4)
        delta = 10.0 ** -rng.uniform(2, 12, size=4)
        near = z.MemoryOneStrategy(tuple(np.where(corner == 1, 1.0 - delta, delta)))
        interior = z.MemoryOneStrategy(tuple(rng.random(4)))
        Ms += [
            z.transition_matrix(z.TFT, near),
            z.transition_matrix(z.WSLS, near),
            z.transition_matrix(interior, near),
            z.transition_matrix(z.TFT, interior),
        ]
    return np.array(Ms)


BATCH_CHAINS = _batch_test_chains()
STARTS = {"uniform": None, **{s.name.lower(): z.point_mass(s) for s in z.JointState}}


class TestCesaroLimits:
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_batch_equals_single_chain_bit_for_bit(self, start):
        pi0 = STARTS[start]
        batch = z.cesaro_limits(BATCH_CHAINS, pi0, tol=1e-13)
        assert batch.distributions.shape == (len(BATCH_CHAINS), 4)
        for n, M in enumerate(BATCH_CHAINS):
            single = z.cesaro_limit(M, pi0, tol=1e-13)
            assert np.array_equal(batch.distributions[n], single.distribution)
            assert batch.residuals[n] == single.residual
            assert batch.converged[n] == single.converged
            assert batch.structures[n] == z.classify(M)
            assert batch.structures[n].unique == single.unique
            assert batch.unique[n] == single.unique

    def test_result_independent_of_batch_composition(self):
        rng = np.random.Generator(np.random.PCG64(5))
        order = rng.permutation(len(BATCH_CHAINS))
        whole = z.cesaro_limits(BATCH_CHAINS)
        shuffled = z.cesaro_limits(BATCH_CHAINS[order])
        part = z.cesaro_limits(BATCH_CHAINS[order[:37]])
        assert np.array_equal(shuffled.distributions, whole.distributions[order])
        assert np.array_equal(part.distributions, whole.distributions[order[:37]])

    def test_oracles_on_the_batch(self):
        pairs = list(_random_pairs(300, seed=8))
        Ms = np.array([z.transition_matrix(s1, s2) for s1, s2 in pairs])
        batch = z.cesaro_limits(Ms, tol=1e-12)
        assert batch.converged.all()
        for M, pi, structure in zip(Ms, batch.distributions, batch.structures):
            if structure.ergodic:
                assert np.max(np.abs(pi - _stationary_solve(M))) <= 1e-11
        periodic = z.transition_matrix(z.TFT, z.TFT)
        pi = z.cesaro_limits(periodic[None], z.point_mass(CD)).distributions[0]
        np.testing.assert_allclose(pi, _cesaro_brute(periodic, z.point_mass(CD), 20000), atol=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_residuals_are_in_order_sums(self, n):
        # bit for bit max_i |(M pi)_i - pi_i|, each (M pi)_i added first to
        # last, whatever the stack size and the CPU
        Ms = np.array([z.transition_matrix(s1, s2) for s1, s2 in _random_pairs(n, seed=13)])
        batch = z.cesaro_limits(Ms)
        for M, pi, residual in zip(Ms.tolist(), batch.distributions.tolist(), batch.residuals):
            Mpi = [((r[0] * pi[0] + r[1] * pi[1]) + r[2] * pi[2]) + r[3] * pi[3] for r in M]
            assert residual == max(abs(x - p) for x, p in zip(Mpi, pi))

    def test_distributions_read_only(self):
        batch = z.cesaro_limits(BATCH_CHAINS[:3])
        with pytest.raises(ValueError):
            batch.distributions[0, 0] = 1.0

    def test_bad_input(self):
        with pytest.raises(ValueError, match="tolerance"):
            z.cesaro_limits(np.eye(4)[None], tol=0.0)
        with pytest.raises(ValueError, match="4x4"):
            z.cesaro_limits(np.eye(4))
        with pytest.raises(ValueError, match="4 entries"):
            z.cesaro_limits(np.eye(4)[None], [1, 0, 0])
        with pytest.raises(ValueError, match="sum to"):
            z.cesaro_limits(np.eye(4)[None], [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            z.cesaro_limits(np.eye(4)[None], [1.5, -0.5, 0.0, 0.0])

    def test_nan_start_refused(self):
        # a NaN sum used to pass the tolerance test and give an all-NaN row
        with pytest.raises(ValueError, match="sum to .*nan"):
            z.cesaro_limits(np.eye(4)[None], [math.nan, 0.0, 0.0, 1.0])


class TestPerturbedStationary:
    def test_noise_makes_chain_ergodic(self):
        noisy = z.TFT.with_noise(1e-3)
        result = z.cesaro_limit(z.transition_matrix(noisy, noisy))
        assert result.unique
        assert result.residual <= 1e-12
