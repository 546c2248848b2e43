import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import zdlab as z
from zdlab import markov

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


#: Any double, with multiples of 2^-52 below 2 in magnitude (whose sums
#: round, so their order shows), ±0.0, subnormals, the ends of the range,
#: ±inf and nan drawn often.
_ENTRIES = st.integers(-2**53, 2**53).map(lambda k: k / 2**52) | st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.3e154, math.inf, -math.inf, math.nan])


def _same(x: float, y: float) -> bool:
    """Both nan, or the same bits."""
    return math.isnan(x) and math.isnan(y) or np.float64(x).tobytes() == np.float64(y).tobytes()


class TestFloatDot:
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=n, max_size=n), min_size=1, max_size=3)))
    @example([[(1.0, 1.0), (1e-16, 1.0), (1e-16, 1.0)]])  # 1.0 in order, 1 + 2^-52 last to first
    def test_one_dot_on_every_kind_of_entry(self, lanes):
        # G lanes of n (a, b) pairs: Python floats lane by lane, and (G,)
        # columns of all lanes at once, give the plain left-to-right loop's
        # bits; Fractions of finite inputs give the exact sum
        a, b = ([np.array([lane[j][i] for lane in lanes]) for j in range(len(lanes[0]))]
                for i in (0, 1))
        with np.errstate(all="ignore"):
            columns = markov.float_dot(a, b)
        for lane, column in zip(lanes, np.broadcast_to(columns, len(lanes)).tolist()):
            a, b = [x for x, _ in lane], [y for _, y in lane]
            loop = a[0] * b[0] if lane else 0.0
            for x, y in zip(a[1:], b[1:]):
                loop = loop + x * y
            assert _same(markov.float_dot(a, b), loop) and _same(column, loop)
            if all(map(math.isfinite, a + b)):
                exact = markov.float_dot([*map(Fraction, a)], [*map(Fraction, b)])
                assert exact == sum(map(Fraction.__mul__, map(Fraction, a), map(Fraction, b)))

    def test_unequal_lengths_are_an_error(self):
        for a, b in [([1.0], []), ([], [1.0]), ([1.0, 2.0], np.ones(3))]:
            with pytest.raises(ValueError, match="cannot pair"):
                markov.float_dot(a, b)


class TestClassify:
    @pytest.mark.parametrize("M", [
        np.ones(16), np.ones((2, 8)), np.ones((3, 4)), np.ones((4, 4, 1)), np.float64(1.0),
        np.stack([np.eye(4), np.full((4, 4), 0.25)]), [[0.25] * 4] * 3,
    ], ids=["16", "2x8", "3x4", "4x4x1", "scalar", "stack", "nested-3x4"])
    def test_one_chain_of_any_other_shape_is_an_error(self, M):
        # classify read any 16 numbers as a chain, and a stack's first chain
        # alone; cesaro_limit named the shape with a stack axis put in front
        message = rf"the chain must be of shape \(4, 4\), got shape {re.escape(str(np.shape(M)))}$"
        for entry in (z.classify, z.cesaro_limit):
            with pytest.raises(ValueError, match=message):
                entry(M)

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

    def test_matches_matrix_oracle_on_every_pair_pattern(self):
        # p1, p2 in {0, 1/2, 1}^4: each pair has its own support pattern
        grid = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=4)))
        Ms = z.transition_matrices(grid[:, None], grid[None, :]).reshape(-1, 4, 4)
        assert len(np.unique(markov._support_masks(Ms))) == len(Ms) == 6561
        A = (Ms.transpose(0, 2, 1) > 0).astype(np.int64)  # A[n, i, j]: an edge i -> j
        step = A + np.eye(4, dtype=np.int64)
        reach = (step @ step @ step) > 0  # every path on four states has at most three steps
        returns = np.empty((len(A), 16, 4), dtype=bool)  # returns[n, t - 1, i]: (A^t)[i, i] > 0
        walk = np.broadcast_to(np.eye(4, dtype=np.int64), A.shape)
        for t in range(16):
            walk = ((walk @ A) > 0).astype(np.int64)
            returns[:, t] = walk.diagonal(axis1=1, axis2=2) > 0
        for M, edge, path, back in zip(Ms, A.tolist(), reach.tolist(), returns.tolist()):
            classes = tuple(sorted(
                {tuple(j for j in range(4) if path[i][j] and path[j][i]) for i in range(4)}
            ))
            recurrent = tuple(
                not any(edge[i][j] for i in c for j in range(4) if j not in c) for c in classes
            )
            periods = tuple(
                math.gcd(*(t + 1 for t in range(16) if back[t][c[0]])) if r else None
                for c, r in zip(classes, recurrent)
            )
            ergodic = sum(recurrent) == 1 and all(p in (None, 1) for p in periods)
            assert z.classify(M) == markov.ChainStructure(classes, recurrent, periods, ergodic)


class TestCesaroLimit:
    @pytest.mark.parametrize("eps, converged", [(1e-11, False), (1e-12, False), (1e-13, True)])
    def test_default_tolerance_boundary(self, eps, converged):
        # scaling column 0 by 1 + eps leaves a residual of about 0.39 eps, so
        # DEFAULT_TOL (1e-13) lies between the cases at 1e-12 and at 1e-13
        M = np.array(z.transition_matrix(z.TFT, z.MemoryOneStrategy((0.9, 0.2, 0.6, 0.35))))
        M[:, 0] *= 1.0 + eps
        result = z.cesaro_limit(M)
        assert 0.3 * eps < result.residual < 0.5 * eps
        assert result.converged is converged
        assert z.cesaro_limit(M, tol=1e-10).converged

    def test_tft_vs_tft_cycle_average(self):
        M = z.transition_matrix(z.TFT, z.TFT)
        result = z.cesaro_limit(M, CD)
        assert result.converged
        np.testing.assert_allclose(result.distribution, [0, 0.5, 0.5, 0], atol=1e-14)
        assert not result.unique

    def test_tft_vs_allc_absorption(self):
        M = z.transition_matrix(z.TFT, z.ALL_C)
        for start in (None, DD, CD):
            result = z.cesaro_limit(M, start)
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
        brute = _cesaro_brute(M, np.eye(4)[CD], 20000)
        limit = z.cesaro_limit(M, CD)
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
        result = z.cesaro_limit(M, CC, tol=1e-12)
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

    @pytest.mark.parametrize("tol", [math.nan, -math.inf, "1e-8", None, True])
    def test_tolerance_is_a_positive_number(self, tol):
        # nan used to pass the guard and leave the chain unconverged; "1e-8" raised TypeError
        with pytest.raises(ValueError, match="tolerance must be"):
            z.cesaro_limit(np.eye(4), tol=tol)

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
STARTS = {"uniform": None, **{s.name.lower(): s for s in z.JointState}}


def _digest_chains():
    """A seeded family of 4,096 chains: corners, near-corners, mixed and interior pairs.

    After the 256 corner pairs, player 1 is a random corner and player 2 a
    corner moved by 2^-51 to 2^-3 (about 10^-15 to 10^-1) in each entry, a
    mix of exact 0s and 1s with interior entries, or an interior strategy;
    in the last 960 pairs both players are moved off their corners.
    """
    rng = np.random.Generator(np.random.PCG64(30))
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
    p1 = np.repeat(corners, 16, axis=0)  # the 256 corner pairs first
    p2 = np.tile(corners, (16, 1))
    n = 960
    own = corners[rng.integers(0, 16, size=(4, n))]
    corner = corners[rng.integers(0, 16, size=n)]
    # 2^-3 to 2^-50 by ldexp, which is exact: np.power's bits follow numpy's
    # CPU dispatch, and the family must be the same everywhere
    delta = np.ldexp(rng.uniform(0.5, 1.0, size=(n, 4)), -rng.integers(3, 51, size=(n, 4)))
    near = np.where(corner == 1.0, 1.0 - delta, delta)
    mixed = np.where(rng.random((n, 4)) < 0.5, corner, rng.random((n, 4)))
    interior = rng.random((n, 4))
    both_near = np.where(own[3] == 1.0, 1.0 - delta[::-1], delta[::-1])
    p1 = np.concatenate([p1, own[0], own[1], own[2], both_near])
    p2 = np.concatenate([p2, near, mixed, interior, near])
    return z.transition_matrices(p1, p2)


DIGEST_CHAINS = _digest_chains()


class TestCesaroLimits:
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_batch_equals_single_chain_bit_for_bit(self, start):
        initial = STARTS[start]
        batch = z.cesaro_limits(BATCH_CHAINS, initial, tol=1e-13)
        assert batch.distributions.shape == (len(BATCH_CHAINS), 4)
        for n, M in enumerate(BATCH_CHAINS):
            single = z.cesaro_limit(M, initial, tol=1e-13)
            assert np.array_equal(batch.distributions[n], single.distribution)
            assert batch.residuals[n] == single.residual
            assert batch.converged[n] == single.converged
            assert batch.structures[n] == z.classify(M)
            assert batch.structures[n].unique == single.unique
            assert batch.unique[n] == single.unique

    def test_digest_of_a_seeded_family(self):
        # the solver's bits, pinned: the SHA-256 of the distributions and
        # residuals of 4,096 chains from the uniform start and from CD. The
        # expected hex was captured at 4d32209, before the per-pattern plan
        # cache, and holds on OpenBLAS's Prescott kernels and on numpy's
        # baseline loops as well
        digest = hashlib.sha256()
        for initial in (None, CD):
            batch = z.cesaro_limits(DIGEST_CHAINS, initial)
            digest.update(batch.distributions.tobytes())
            digest.update(batch.residuals.tobytes())
        assert digest.hexdigest() == (
            "19c048105e33dda07ffcb2e89ecc5d0064ba46dcfa10b819b64d43bedef314a6")

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
        pi = z.cesaro_limits(periodic[None], CD).distributions[0]
        np.testing.assert_allclose(pi, _cesaro_brute(periodic, np.eye(4)[CD], 20000), atol=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_residuals_are_in_order_sums(self, n):
        # bit for bit max_i |(M pi)_i - pi_i|, each (M pi)_i added first to
        # last, whatever the stack size and the CPU
        Ms = np.array([z.transition_matrix(s1, s2) for s1, s2 in _random_pairs(n, seed=13)])
        batch = z.cesaro_limits(Ms)
        for M, pi, residual in zip(Ms.tolist(), batch.distributions.tolist(), batch.residuals):
            Mpi = [((r[0] * pi[0] + r[1] * pi[1]) + r[2] * pi[2]) + r[3] * pi[3] for r in M]
            assert residual == max(abs(x - p) for x, p in zip(Mpi, pi))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("stack", [1, 7, 200])
    def test_gth_accumulates_in_order(self, stack, n):
        # an irreducible block of n states holding all the start's mass, the
        # other states absorbing: bit for bit the numpy reference, whose
        # back-substitution adds x_i P[i, k] over i < k in order; one chain
        # runs on Python floats and a stack on numpy columns
        def reference(P):
            for k in range(n - 1, 0, -1):
                P[:, :k, k] /= P[:, k, :k].sum(axis=1, keepdims=True)
                P[:, :k, :k] += P[:, :k, k, None] * P[:, k, None, :k]
            x = np.ones((len(P), n))
            for k in range(1, n):  # x_0 P[0, k] + x_1 P[1, k] + ..., in that order
                x[:, k] = x[:, 0] * P[:, 0, k]
                for i in range(1, k):
                    x[:, k] += x[:, i] * P[:, i, k]
            pi = np.zeros((len(P), 4))
            pi[:, :n] = x / x.sum(axis=1, keepdims=True)
            return pi / pi.sum(axis=1, keepdims=True)

        rng = np.random.Generator(np.random.PCG64(100 * stack + n))
        chain = np.eye(4)
        chain[:n, :n] = 0.5
        plan = markov._classify_mask(int(markov._support_masks(chain.T[None])[0]))
        assert [len(members) for _, members in plan.blocks] == [n] + [1] * (4 - n)
        for _ in range(10):
            # rates over many decades, rows scaled to sum to one
            P = np.tile(np.eye(4), (stack, 1, 1))
            P[:, :n, :n] = 10.0 ** -rng.uniform(0, 12, size=(stack, n, n))
            P /= P.sum(axis=2, keepdims=True)
            columns = P.transpose(1, 2, 0).copy()
            entries = P[0].tolist() if stack == 1 else [list(row) for row in columns]
            pi = markov._solve(entries, [1.0, 0.0, 0.0, 0.0], plan)
            assert np.array_equal(np.transpose(pi).reshape(stack, 4), reference(P.copy()))

    def test_floats_and_columns_agree_bit_for_bit(self):
        # pairs whose entries are 0, 1 or interior reach 6,561 patterns: a seeded
        # 600 of them, two chains each at different interior values, solved as
        # one batch (numpy columns) and one chain at a time (Python floats)
        rng = np.random.Generator(np.random.PCG64(22))
        kinds = np.array(list(itertools.product(range(3), repeat=8)))
        kinds = kinds[rng.choice(len(kinds), 600, replace=False)].repeat(2, axis=0)
        probs = np.where(kinds == 2, rng.uniform(0.01, 0.99, kinds.shape), kinds)
        Ms = z.transition_matrices(probs[:, :4], probs[:, 4:])
        for initial in STARTS.values():
            batch = z.cesaro_limits(Ms, initial)
            for n, M in enumerate(Ms):
                single = z.cesaro_limit(M, initial)
                assert batch.distributions[n].tobytes() == single.distribution.tobytes()
                assert batch.residuals[n].tobytes() == np.float64(single.residual).tobytes()

    def test_within_8u_of_the_exact_limit(self):
        # the solver on Fractions of the float matrix's entries gives that
        # chain's exact limit: no diagonal entry affects it, and exact sums
        # and quotients round nowhere. The float limits have its exact
        # zeros, and every other entry is within 8 units of roundoff (over the
        # whole family the worst is 3.9u on the first 3,136 chains and 5.3u on
        # the last 960, where both players are near a corner)
        rng = np.random.Generator(np.random.PCG64(36))
        chains = DIGEST_CHAINS[rng.choice(len(DIGEST_CHAINS), 250, replace=False)]
        bound = Fraction(8, 2**53)
        for initial in (None, CD):
            start = {None: [0.25] * 4, CD: [0.0, 1.0, 0.0, 0.0]}[initial]
            batch = z.cesaro_limits(chains, initial)
            for M, pi in zip(chains, batch.distributions.tolist()):
                plan = markov._classify_mask(int(markov._support_masks(M[None])[0]))
                P = [[Fraction(M[j, i]) for j in plan.order] for i in plan.order]
                exact = markov._solve(P, [Fraction(start[i]) for i in plan.order], plan)
                for got, want in zip(pi, exact):
                    assert (got == 0) == (want == 0)
                    assert abs(Fraction(got) - want) <= bound * want

    def test_underflowed_pivot_is_nan_alone_and_in_a_group(self):
        # DD's only exit, to CC, is 6.9e-222 x 1.65e-277, which underflows to 0
        # in state reduction: Python floats would raise on the 0/0 that numpy
        # makes nan, so a chain alone and the same chain in a group must both
        # give the nan limit and converged False, with no warning
        opponent = z.MemoryOneStrategy(
            (1.0, 1.6529904979871975e-277, 2.5229163606581356e-208, 6.883960322160164e-222))
        M = z.transition_matrix(z.TFT, opponent)
        interior = [z.transition_matrix(z.TFT, s) for s, _ in _random_pairs(4, seed=36)]
        single = z.cesaro_limit(M)
        assert np.isnan(single.distribution).all() and math.isnan(single.residual)
        assert not single.converged
        for stack, at in [([M], [0]), (interior[:2] + [M] + interior[2:], [2]),
                          ([M] + interior + [M], [0, 5])]:
            batch = z.cesaro_limits(np.array(stack))
            for n, chain in enumerate(stack):
                alone = z.cesaro_limit(chain)
                assert batch.distributions[n].tobytes() == alone.distribution.tobytes()
                assert batch.residuals[n].tobytes() == np.float64(alone.residual).tobytes()
                assert batch.converged[n] == (n not in at)

    @pytest.mark.parametrize("entry", [(1, 0), (0, 0)], ids=["off-support", "support"])
    def test_non_finite_entry_is_not_converged(self, entry):
        # TFT against TFT with one nan entry: off its support the limit is
        # still the uniform one, but max|M pi - pi| must read nan, never the
        # largest of the other gaps, alone, in a group and in a mixed stack
        bad = z.transition_matrix(z.TFT, z.TFT).copy()
        bad[entry] = math.nan
        alone = z.cesaro_limit(bad)
        assert math.isnan(alone.residual) and not alone.converged
        interior = [z.transition_matrix(s1, s2) for s1, s2 in _random_pairs(3, seed=5)]
        other = z.transition_matrix(z.TFT, z.ALL_D).copy()
        other[2, 3] = math.nan  # a second pattern, so one bad chain is alone in the mixed stack
        for stack, at in [([bad], [0]), ([bad, bad], [0, 1]),
                          ([bad, interior[0], bad, other] + interior[1:], [0, 2, 3])]:
            batch = z.cesaro_limits(np.array(stack))
            assert np.isnan(batch.residuals[at]).all()
            assert batch.converged.tolist() == [n not in at for n in range(len(stack))]

    def test_distributions_read_only(self):
        batch = z.cesaro_limits(BATCH_CHAINS[:3])
        with pytest.raises(ValueError):
            batch.distributions[0, 0] = 1.0
        with pytest.raises(ValueError):
            batch.unique[0] = False

    @pytest.mark.parametrize("chain", [np.full((4, 4), 0.25), np.eye(4)], ids=["full", "identity"])
    def test_shared_tables_read_only(self, chain):
        # a cached plan serves every later call: a write into it would change
        # the results of every call after it (each call builds its own start)
        plan = markov._classify_mask(int(markov._support_masks(chain[None])[0]))
        with pytest.raises(TypeError):  # the order is a tuple
            plan.order[0] = 3

    def test_nested_lists_solve_as_the_array(self):
        chains = np.asarray(BATCH_CHAINS[:5])
        from_lists, from_array = z.cesaro_limits(chains.tolist()), z.cesaro_limits(chains)
        np.testing.assert_array_equal(from_lists.distributions, from_array.distributions)
        assert from_lists.unique.tolist() == from_array.unique.tolist()

    def test_bad_input(self):
        with pytest.raises(ValueError, match="tolerance"):
            z.cesaro_limits(np.eye(4)[None], tol=0.0)
        with pytest.raises(ValueError, match="4x4"):
            z.cesaro_limits(np.eye(4))

    def test_start_is_a_state_or_uniform(self, bad_start):
        # the solver refuses every start the simulator refuses, with its message
        with pytest.raises(ValueError) as expected:
            z.SimulationConfig(initial=bad_start)
        for solve in (lambda: z.cesaro_limits(np.eye(4)[None], bad_start),
                      lambda: z.cesaro_limit(np.eye(4), bad_start)):
            with pytest.raises(ValueError) as excinfo:
                solve()
            assert str(excinfo.value) == str(expected.value)


class TestPerturbedStationary:
    def test_noise_makes_chain_ergodic(self):
        noisy = z.TFT.with_noise(1e-3)
        result = z.cesaro_limit(z.transition_matrix(noisy, noisy))
        assert result.unique
        assert result.residual <= 1e-12
