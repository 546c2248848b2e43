import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import zdlab as z
from zdlab import pressdyson
from zdlab.moments import K_CAP

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategy_vectors = st.tuples(probability, probability, probability, probability)
#: The state seen from the other player's side: CD <-> DC, stated here apart from the code.
SWAP = (0, 2, 1, 3)
#: Permissive payoffs R = S = P = 0, at which the s1*s2 column of wsls4 is zero.
ZERO_COLUMN_PAYOFFS = z.PayoffMatrix(0, 0, 5, 0, permissive=True)


def _solve_exact(columns, target):
    """Independent oracle: rational Gaussian elimination on a 4x4 system."""
    n = 4
    M = [
        [Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


class TestPressDyson:
    def test_tft(self):
        assert z.press_dyson(z.TFT, 1).tolist() == [0, -1, 1, 0]

    def test_allc(self):
        assert z.press_dyson(z.ALL_C, 1).tolist() == [0, 0, 1, 1]

    def test_wsls(self):
        assert z.press_dyson(z.WSLS, 1).tolist() == [0, -1, 0, 1]

    def test_tft_as_player_two(self):
        # player 2's TFT copies player 1's action, so the vector mirrors
        assert z.press_dyson(z.TFT, 2).tolist() == [0, 1, -1, 0]

    def test_bad_player(self):
        with pytest.raises(ValueError):
            z.press_dyson(z.TFT, 0)

    def test_read_only_float_array(self):
        pd = z.press_dyson(z.WSLS, 2)
        assert isinstance(pd, np.ndarray) and pd.dtype == float and pd.shape == (4,)
        assert not pd.flags.writeable
        with pytest.raises(ValueError):
            pd[0] = 1.0

    @given(strategy_vectors, st.sampled_from([1, 2]))
    def test_antisymmetry_of_action_components(self, p, player):
        # the defection component, computed from scratch, is exactly -v
        s = z.MemoryOneStrategy(p)
        v = z.press_dyson(s, player)
        own_prev_d = [
            1.0 - ((1.0, 1.0, 0.0, 0.0)[i] if player == 1 else (1.0, 0.0, 1.0, 0.0)[i])
            for i in range(4)
        ]
        coop = [s.p[i] if player == 1 else s.p[SWAP[i]] for i in range(4)]
        d_component = np.array([(1.0 - c) - d for c, d in zip(coop, own_prev_d)])
        np.testing.assert_allclose(d_component, -v, atol=1e-15)

    @given(strategy_vectors)
    def test_sign_pattern(self, p):
        v = z.press_dyson(z.MemoryOneStrategy(p), 1)
        assert -1 <= v[0] <= 0 and -1 <= v[1] <= 0  # own previous action C
        assert 0 <= v[2] <= 1 and 0 <= v[3] <= 1  # own previous action D


class TestAkinResidual:
    def test_tft_vs_allc_stationary(self):
        pd = z.press_dyson(z.TFT, 1)
        assert z.akin_residual(pd, [1, 0, 0, 0]) == 0.0

    def test_tft_cycle_average(self):
        pd = z.press_dyson(z.TFT, 1)
        assert z.akin_residual(pd, [0, 0.5, 0.5, 0]) == 0.0

    def test_detects_non_stationary_distribution(self):
        pd = z.press_dyson(z.TFT, 1)
        assert z.akin_residual(pd, np.eye(4)[z.JointState.CD]) == -1.0

    def test_is_an_in_order_sum(self, random_strategies):
        # bit for bit ((d0*p0 + d1*p1) + d2*p2) + d3*p3, whatever the CPU
        rng = np.random.Generator(np.random.PCG64(12))
        for strategy in random_strategies(200, seed=12):
            pd = z.press_dyson(strategy, 2).tolist()
            pi = rng.dirichlet(np.ones(4)).tolist()
            expected = ((pd[0] * pi[0] + pd[1] * pi[1]) + pd[2] * pi[2]) + pd[3] * pi[3]
            assert z.akin_residual(pd, pi) == expected

    def test_length_mismatch_is_an_error(self):
        # never a sum over the shorter vector's states alone
        pd = z.press_dyson(z.TFT, 1)
        for pi in ([0.5, 0.5, 0.0], [0.2, 0.2, 0.2, 0.2, 0.2]):
            with pytest.raises(ValueError, match="cannot pair"):
                z.akin_residual(pd, pi)
        with pytest.raises(ValueError, match="cannot pair 3 terms with 4"):
            z.akin_residual([0.0, -1.0, 1.0], np.full(4, 0.25))

    def test_vanishes_on_cesaro_limits(self, random_strategies):
        focals = [z.TFT, z.WSLS, z.ALL_C, z.ALL_D]
        for opponent in random_strategies(1000, seed=11):
            for focal in focals:
                M = z.transition_matrix(focal, opponent)
                pi = z.cesaro_limit(M, tol=1e-13).distribution
                assert abs(z.akin_residual(z.press_dyson(focal, 1), pi)) <= 1e-8
                assert abs(z.akin_residual(z.press_dyson(opponent, 2), pi)) <= 1e-8

    def test_vanishes_on_slow_mixing_chains(self):
        # opponents 10^-U(2,9) away from a corner of {0,1}^4 against TFT,
        # WSLS and interior focal players: reducible, periodic and slowly
        # mixing chains, where an iterative long-run solve stalls
        rng = np.random.default_rng(0)
        for i in range(200):
            corner = rng.integers(0, 2, size=4)
            delta = 10.0 ** -rng.uniform(2, 9, size=4)
            opponent = z.MemoryOneStrategy(tuple(np.where(corner == 1, 1.0 - delta, delta)))
            focal = (z.TFT, z.WSLS, z.MemoryOneStrategy(tuple(rng.random(4))))[i % 3]
            limit = z.cesaro_limit(z.transition_matrix(focal, opponent), tol=1e-13)
            assert limit.converged
            assert abs(z.akin_residual(z.press_dyson(focal, 1), limit.distribution)) <= 1e-9
            assert abs(z.akin_residual(z.press_dyson(opponent, 2), limit.distribution)) <= 1e-9


class TestBasisSpec:
    def test_zd_vectors(self, m):
        basis = z.BasisSpec.zd(m)
        assert basis.labels == ((0, 0), (1, 0), (0, 1))
        np.testing.assert_array_equal(basis.matrix[:, 0], np.ones(4))
        np.testing.assert_array_equal(basis.matrix[:, 1], [3, 0, 5, 1])
        np.testing.assert_array_equal(basis.matrix[:, 2], [3, 5, 0, 1])

    def test_monomial_counts_by_total_degree(self, m):
        for degree, count in [(0, 1), (1, 3), (2, 6), (3, 10)]:
            assert len(z.BasisSpec.monomial(m, degree).labels) == count
        labels = z.BasisSpec.monomial(m, 2).labels
        assert labels == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_monomial_vector_values(self, m):
        basis = z.BasisSpec.monomial(m, 2)
        np.testing.assert_array_equal(basis.matrix[:, basis.labels.index((1, 1))], [9, 0, 0, 1])
        np.testing.assert_array_equal(basis.matrix[:, basis.labels.index((0, 0))], np.ones(4))

    @pytest.mark.filterwarnings("error")
    def test_monomial_overflow_is_a_range_error(self, m):
        # a degree above the precision cap is refused, however small the payoffs
        message = r"max_total_degree must lie in \[0, 20\] \(the precision cap K_CAP\), got 500"
        with pytest.raises(ValueError, match=message):
            z.BasisSpec.monomial(m, 500)
        with pytest.raises(ValueError, match="precision cap"):
            z.BasisSpec.monomial(z.PayoffMatrix(R=0.3, S=0, T=0.5, P=0.1), K_CAP + 1)

    def test_monomial_overflow_builds_no_row_beyond_it(self, m, monkeypatch):
        requested = []

        def recording(payoffs, labels):
            requested.extend(labels)
            return z.payoff_features(payoffs, labels)

        monkeypatch.setattr(pressdyson, "payoff_features", recording)
        with pytest.raises(ValueError, match="precision cap"):
            z.BasisSpec.monomial(m, K_CAP + 1)
        assert requested == []

    def test_monomial_overflow_under_the_cap_is_a_range_error(self):
        # below the cap a power beyond double precision is payoff_features' OverflowError
        huge = z.PayoffMatrix(R=3e19, S=0, T=5e19, P=1e19)
        with pytest.raises(OverflowError, match=r"s1\^16\*s2\^0 overflows double precision at k=16"):
            z.BasisSpec.monomial(huge, K_CAP)
        assert len(z.BasisSpec.monomial(huge, 15).labels) == 136

    @pytest.mark.parametrize("degree", [True, 2.0, np.float64(2), "2"],
                             ids=["bool", "float", "float64", "str"])
    def test_monomial_degree_is_an_integer(self, m, degree):
        # True used to build a degree-1 basis "monomial:True"; the others raised TypeError
        with pytest.raises(ValueError, match=r"max_total_degree must lie in \[0, 20\]"):
            z.BasisSpec.monomial(m, degree)

    def test_exponential_basis(self, m):
        basis = z.BasisSpec.exponential(m, 0.5)
        assert basis.labels == ((0, 0), ("exp", 1, 0.5), ("exp", 2, 0.5))
        np.testing.assert_allclose(basis.matrix[:, 1], np.exp(0.5 * np.array([3, 0, 5, 1])))
        with pytest.raises(ValueError):
            z.BasisSpec.exponential(m, 0.0)
        message = r"e\^\(h\*s1\) overflows double precision at h=142\.0$"
        with pytest.raises(OverflowError, match=message):
            z.BasisSpec.exponential(m, 142.0)  # e^710 is not a finite double
        assert z.BasisSpec.exponential(m, -1000.0).matrix[1, 1:].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("h, kind", [(np.float64(0.5), "exp:0.5"), (2, "exp:2"),
                                         (Fraction(-1), "exp:-1"), (Fraction(1, 4), "exp:0.25")])
    def test_exponential_accepts_any_real_h(self, m, table_caches, h, kind):
        basis = z.BasisSpec.exponential(m, h)
        assert basis.kind == kind
        assert basis.labels == ((0, 0), ("exp", 1, float(h)), ("exp", 2, float(h)))
        assert all(type(label[2]) is float for label in basis.labels[1:])
        assert z.BasisSpec.exponential(m, float(h)) is basis

    @pytest.mark.parametrize("h", [10**400, -10**400, "0.5", b"0.5", True, np.array(True),
                                   np.array(-1.0), np.array(0.25)],
                             ids=["1e400", "-1e400", "str", "bytes", "bool", "bool_array",
                                  "array_-1", "array_0.25"])
    def test_exponential_refuses_h_that_is_not_a_finite_real(self, m, h):
        # 10**400 used to raise OverflowError; text and bools used to build a basis;
        # a 0-d array used to be read as its number, unlike everywhere else
        with pytest.raises(ValueError):
            z.BasisSpec.exponential(m, h)
        with pytest.raises(ValueError):
            z.tft_exponential_identity(m, h)

    @pytest.mark.parametrize("h, accepted", [
        (2, True), (0.5, True), (np.float64(-1.5), True), (Fraction(1, 4), True),
        (np.array(0.5), False), (np.array(2), False), ("0.5", False), (b"0.5", False),
        (True, False), (math.nan, False), (math.inf, False), (-math.inf, False),
        (10**400, False),
    ], ids=["int", "float", "float64", "fraction", "array", "int_array", "str", "bytes",
            "bool", "nan", "inf", "-inf", "1e400"])
    def test_every_exponential_entry_reads_h_one_way(self, m, h, accepted):
        # the basis, the TFT identity and an ("exp", p, h) label accept and refuse the same h
        entries = [lambda h: z.BasisSpec.exponential(m, h).labels,
                   lambda h: z.tft_exponential_identity(m, h),
                   lambda h: z.payoff_features(m, [("exp", 1, h), ("exp", 2, h)]).tolist()]
        for entry in entries:
            if accepted:
                assert entry(h) == entry(float(h))
            else:
                with pytest.raises(ValueError):
                    entry(h)

    def test_constructors_share_read_only_instances(self, m, table_caches):
        for build in (z.BasisSpec.zd, z.BasisSpec.wsls4, lambda m: z.BasisSpec.monomial(m, 3),
                      lambda m: z.BasisSpec.exponential(m, 0.5)):
            basis = build(m)
            assert build(z.PayoffMatrix(3, 0, 5, 1)) is basis
            assert build(z.PayoffMatrix(3, 0, 5.5, 1)) is not basis
            for array in (basis.matrix, basis._scale, basis._equilibrated):
                assert not array.flags.writeable
        assert z.BasisSpec.custom(m, [(0, 0)]) is not z.BasisSpec.custom(m, [(0, 0)])

    def test_custom_basis(self, m):
        basis = z.BasisSpec.custom(m, [(1, 0), (0, 0)])
        assert basis.labels == ((1, 0), (0, 0))
        np.testing.assert_array_equal(basis.matrix, [[3, 1], [0, 1], [5, 1], [1, 1]])
        with pytest.raises(ValueError):
            z.BasisSpec.custom(m, [])
        with pytest.raises(ValueError, match="label"):
            z.BasisSpec.custom(m, ["s1"])
        # a custom decomposition reads back as an enforced relation
        basis = z.BasisSpec.custom(m, [(1, 0), (0, 1), ("exp", 1, 0.5)])
        result = z.decompose(z.press_dyson(z.TFT, 1), basis)
        assert result.exact
        M = z.transition_matrix(z.TFT, z.named_strategy("custom:0.9,0.2,0.6,0.3"))
        pi = z.cesaro_limit(M).distribution
        assert abs(z.relation_value(result.coefficients, pi, m)) <= 1e-12

    def test_format_label(self):
        assert z.format_label((0, 0)) == "1"
        assert z.format_label((1, 0)) == "s1"
        assert z.format_label((0, 1)) == "s2"
        assert z.format_label((1, 1)) == "s1*s2"
        assert z.format_label((2, 3)) == "s1^2*s2^3"
        assert z.format_label(("exp", 2, -0.5)) == "exp(-0.5*s2)"
        for label in ("s1", [1, 0]):
            with pytest.raises(ValueError, match="not a payoff feature label"):
                z.format_label(label)

    @pytest.mark.parametrize("label", [("exp", 1), (1.5, 0), (True, 0), (-1, 2), (2, "a"),
                                       "s1", [1, 0], (np.array(["exp"]), 1, 0.5)],
                             ids=["exp_without_h", "fractional_order", "bool_order",
                                  "negative_order", "text_order", "str", "list", "array_tag"])
    def test_format_label_refuses_what_payoff_features_refuses(self, m, label):
        # format_label used to print s1^1.5, s1 and s2^2, raise TypeError on
        # ("exp", 1) and (2, "a"), and print the rest with str()
        with pytest.raises(ValueError) as refused:
            z.payoff_features(m, [label])
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            z.format_label(label)


class TestDecompose:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_target_that_is_not_finite_is_an_error(self, m, bad):
        # it used to give NaN coefficients and exact False, as if outside the span
        for basis in (z.BasisSpec.zd(m), z.BasisSpec.wsls4(m)):
            with pytest.raises(ValueError, match="target must be finite"):
                z.decompose([bad, -1.0, 1.0, 0.0], basis)

    @pytest.mark.parametrize("d, rank", [(1e-7, 2), (1e-8, 2), (1e-9, 1)])
    def test_rank_tolerance_boundary(self, d, rank):
        # s1 and s2 differ by d at CD and DC: a relative singular value of
        # about 0.41 d, so RANK_TOL (1e-9) lies between the cases at 1e-8 and 1e-9
        basis = z.BasisSpec.custom(z.PayoffMatrix(1, 1, 1 + d, 0, permissive=True),
                                   [(1, 0), (0, 1)])
        assert z.decompose(z.press_dyson(z.TFT, 1), basis).rank == rank

    def test_tft_is_zd(self, m):
        result = z.decompose(z.press_dyson(z.TFT, 1), z.BasisSpec.zd(m))
        assert result.exact and result.rank == 3
        c = result.coefficients
        assert c[(0, 0)] == pytest.approx(0.0, abs=1e-12)
        assert c[(1, 0)] == pytest.approx(1 / 5, abs=1e-12)
        assert c[(0, 1)] == pytest.approx(-1 / 5, abs=1e-12)

    def test_wsls_is_not_zd(self, m):
        result = z.decompose(z.press_dyson(z.WSLS, 1), z.BasisSpec.zd(m))
        assert not result.exact
        # the exact projection residual has norm sqrt(1/2) at these payoffs:
        # the residual vector is (1/2, -1/3, -1/3, 1/6)
        assert result.residual_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)
        np.testing.assert_allclose(
            result.residual, [0.5, -1 / 3, -1 / 3, 1 / 6], atol=1e-12
        )

    def test_normal_equations_oracle_agrees(self, m):
        # independent route: solve B^T B x = B^T pd directly
        basis = z.BasisSpec.zd(m)
        pd = z.press_dyson(z.WSLS, 1)
        B = basis.matrix
        x = np.linalg.solve(B.T @ B, B.T @ pd)
        result = z.decompose(z.press_dyson(z.WSLS, 1), basis)
        np.testing.assert_allclose(list(result.coefficients.values()), x, atol=1e-10)

    @settings(max_examples=60)
    @given(strategy_vectors)
    def test_reconstruction_identity(self, p):
        pd = z.press_dyson(z.MemoryOneStrategy(p), 1)
        for basis in (
            z.BasisSpec.zd(z.DEFAULT_PAYOFFS),
            z.BasisSpec.monomial(z.DEFAULT_PAYOFFS, 3),
            z.BasisSpec.wsls4(z.DEFAULT_PAYOFFS),
            z.BasisSpec.exponential(z.DEFAULT_PAYOFFS, 0.5),
        ):
            result = z.decompose(pd, basis)
            reconstruction = basis.matrix @ list(result.coefficients.values())
            np.testing.assert_allclose(reconstruction + result.residual, pd, atol=1e-12)

    def test_monomial_degree_three_spans(self, m, random_strategies):
        basis = z.BasisSpec.monomial(m, 3)
        for s in random_strategies(1000, seed=13):
            result = z.decompose(z.press_dyson(s, 1), basis)
            assert result.rank == 4
            assert result.residual_norm <= 1e-10

    @pytest.mark.parametrize("degree", [8, 12, 20])
    def test_high_degree_monomial_bases_stay_exact(self, m, degree):
        # every monomial basis of degree >= 2 spans R^4; unequilibrated
        # columns (5^20 against 1) used to hide that from the rank test
        basis = z.BasisSpec.monomial(m, degree)
        result = z.decompose(z.press_dyson(z.WSLS, 1), basis)
        assert result.rank == 4
        assert result.exact
        assert result.residual_norm <= z.pressdyson.EXACT_TOL
        if degree == 20:
            assert z.decompose(z.press_dyson(z.TFT, 1), basis).rank == 4

    def test_zero_column_keeps_its_place(self):
        # at R = S = P = 0 the s1*s2 column is zero: it keeps scale 1 instead
        # of dividing by its zero norm
        basis = z.BasisSpec.wsls4(ZERO_COLUMN_PAYOFFS)
        assert not basis.matrix[:, basis.labels.index((1, 1))].any()
        result = z.decompose(z.press_dyson(z.TFT, 1), basis)
        assert result.exact and result.rank == 3
        assert result.coefficients[(1, 1)] == 0.0

    @pytest.mark.parametrize("build", [
        lambda m: z.BasisSpec.wsls4(ZERO_COLUMN_PAYOFFS), z.BasisSpec.zd, z.BasisSpec.wsls4,
        lambda m: z.BasisSpec.monomial(m, 12), lambda m: z.BasisSpec.exponential(m, 0.5),
    ], ids=["zero-column", "zd", "wsls4", "monomial:12", "exp:0.5"])
    def test_matches_equilibration_on_every_call(self, m, table_caches, build):
        # the scales a basis computes once give decompose the bits of
        # equilibrating on every call
        def per_call(target, B):
            with np.errstate(over="ignore"):
                scale = np.linalg.norm(B, axis=0)
                for j in np.flatnonzero(np.isinf(scale)).tolist():
                    peak = np.max(np.abs(B[:, j]))
                    scale[j] = peak * np.linalg.norm(B[:, j] / peak)
            scale[scale == 0.0] = 1.0
            coef, _, rank, _ = np.linalg.lstsq(B / scale, target, rcond=z.pressdyson.RANK_TOL)
            coef = coef / scale
            return coef, target - B @ coef, rank

        basis = build(m)
        rng = np.random.default_rng(8)
        for target in [z.press_dyson(z.TFT, 1), z.press_dyson(z.WSLS, 1)] + list(rng.random((20, 4))):
            result = z.decompose(target, basis)
            coef, residual, rank = per_call(np.asarray(target, dtype=float), basis.matrix)
            np.testing.assert_array_equal(
                np.array(list(result.coefficients.values())).view(np.int64), coef.view(np.int64))
            np.testing.assert_array_equal(result.residual.view(np.int64), residual.view(np.int64))
            assert result.rank == rank

    @pytest.mark.parametrize("build, power", [
        (z.BasisSpec.zd, 530), (z.BasisSpec.zd, -665), (z.BasisSpec.wsls4, -333),
        (lambda m: z.BasisSpec.monomial(m, 3), 180), (lambda m: z.BasisSpec.monomial(m, 3), -200),
    ], ids=["zd*2^530", "zd*2^-665", "wsls4*2^-333", "monomial:3*2^180", "monomial:3*2^-200"])
    def test_payoffs_times_a_power_of_two_move_no_bit(self, m, build, power):
        # each column's squares overflow or underflow at the scaled payoffs;
        # its scale still takes the power of two exactly, so the equilibrated
        # basis, rank and residual keep their bits and each coefficient
        # divides by the column's power of two
        basis = build(m)
        scaled = build(z.PayoffMatrix(*(math.ldexp(v, power) for v in m.as_tuple())))
        degrees = np.array([sum(label) for label in basis.labels])
        np.testing.assert_array_equal(scaled._scale, np.ldexp(basis._scale, power * degrees))
        np.testing.assert_array_equal(scaled._equilibrated, basis._equilibrated)
        for target in (z.press_dyson(z.TFT, 1), z.press_dyson(z.WSLS, 1)):
            result, moved = z.decompose(target, basis), z.decompose(target, scaled)
            assert (moved.rank, moved.exact) == (result.rank, result.exact)
            np.testing.assert_array_equal(moved.residual, result.residual)
            np.testing.assert_array_equal(
                list(moved.coefficients.values()),
                np.ldexp(list(result.coefficients.values()), -power * degrees))

    @pytest.mark.parametrize("payoffs, basis, strategy, rank", [
        ((3e-200, 0, 5e-200, 1e-200), z.BasisSpec.zd, z.TFT, 3),
        ((3e160, 0, 5e160, 1e160), z.BasisSpec.zd, z.TFT, 3),
        ((3e-100, 0, 5e-100, 1e-100), z.BasisSpec.wsls4, z.WSLS, 4),
        ((3e-150, 0, 5e-150, 1e-150), z.BasisSpec.wsls4, z.WSLS, 4),
    ], ids=["zd*1e-200", "zd*1e160", "wsls4*1e-100", "wsls4*1e-150"])
    def test_rescaled_payoffs_keep_the_span(self, payoffs, basis, strategy, rank):
        # columns whose squares underflowed kept scale 1 and fell below the
        # rank threshold: TFT read rank 1 over zd at 1e-200, WSLS rank 3 over
        # wsls4 at 1e-100, both inexact
        result = z.decompose(z.press_dyson(strategy, 1), basis(z.PayoffMatrix(*payoffs)))
        assert result.exact and result.rank == rank

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4, unique=True),
           st.floats(-60.0, 60.0), st.sampled_from(["zd", "wsls4", "monomial:3", "exp"]))
    def test_scale_is_the_plain_norm_while_squares_are_normal(self, values, decade, kind):
        # dividing by the peak's power of two first is exact, so wherever no
        # square of a column underflows or overflows, its scale is the norm
        # the basis took before, np.linalg.norm of the column itself
        S, P, R, T = (v * 10.0**decade for v in sorted(values))
        assume(T > R > P > S and 2 * R > T + S and T >= np.finfo(float).tiny)
        m = z.PayoffMatrix(R, S, T, P)
        basis = {"zd": z.BasisSpec.zd, "wsls4": z.BasisSpec.wsls4,
                 "monomial:3": lambda m: z.BasisSpec.monomial(m, 3),
                 "exp": lambda m: z.BasisSpec.exponential(m, 1.0 / T)}[kind](m)
        with np.errstate(under="ignore", over="ignore"):
            squares = basis.matrix**2
            plain = np.linalg.norm(basis.matrix, axis=0)
        normal = (np.isfinite(squares.sum(axis=0))
                  & ((squares >= np.finfo(float).tiny) | (basis.matrix == 0)).all(axis=0))
        plain[plain == 0.0] = 1.0
        np.testing.assert_array_equal(basis._scale[normal], plain[normal])
        np.testing.assert_array_equal(basis._equilibrated[:, normal],
                                      basis.matrix[:, normal] / plain[normal])

    def test_decompose_accepts_raw_arrays(self, m):
        for target in (np.array([0.0, -1.0, 1.0, 0.0]), [0, -1, 1, 0]):
            assert z.decompose(target, z.BasisSpec.zd(m)).exact

    def test_residual_is_read_only(self, m):
        result = z.decompose(z.press_dyson(z.WSLS, 1), z.BasisSpec.zd(m))
        with pytest.raises(ValueError):
            result.residual[0] = 0.0

    @pytest.mark.parametrize("eps, exact", [(1e-11, False), (1e-13, True)])
    def test_exact_tol_decides_a_residual_off_the_span(self, m, eps, exact):
        # (-3, 2, 2, -1) is orthogonal to 1, s1 = (3, 0, 5, 1) and s2 = (3, 5, 0, 1),
        # so TFT's vector plus eps times that unit normal leaves a residual of eps
        assert not (z.BasisSpec.zd(m).matrix.T @ [-3, 2, 2, -1]).any()
        normal = np.array([-3.0, 2.0, 2.0, -1.0]) / np.sqrt(18.0)
        result = z.decompose(z.press_dyson(z.TFT, 1) + eps * normal, z.BasisSpec.zd(m))
        assert result.residual_norm == pytest.approx(eps, rel=1e-2)
        assert result.exact is exact

    def test_exactness_has_one_threshold(self, m):
        result = z.decompose(z.press_dyson(z.WSLS, 1), z.BasisSpec.zd(m))
        assert result.exact == (result.residual_norm <= z.pressdyson.EXACT_TOL)
        with pytest.raises(TypeError):
            z.decompose(z.press_dyson(z.WSLS, 1), z.BasisSpec.zd(m), tol=1.0)
        with pytest.raises(TypeError):
            z.wsls_coefficients(m, tol=1.0)


class TestTftPowerIdentity:
    def test_k_one(self, m):
        check = z.tft_power_identity(m, 1)
        assert check.coefficient == pytest.approx(1 / 5)
        assert check.max_abs_error == 0.0

    def test_k_three(self, m):
        check = z.tft_power_identity(m, 3)
        assert check.coefficient == pytest.approx(1 / 125)
        assert check.max_abs_error == 0.0

    def test_degenerate_even_power(self):
        m = z.PayoffMatrix(R=1, S=-2, T=2, P=0, permissive=True)
        with pytest.raises(ValueError, match="k=2"):
            z.tft_power_identity(m, 2)
        # odd powers are fine for T = -S
        assert z.tft_power_identity(m, 3).max_abs_error == 0.0

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_small_payoffs_keep_their_denominator(self, k):
        # T^k - S^k = (5e-6)^k is far from vanishing next to T^k and S^k = 0,
        # but the guard used to compare it with 1e-12 as well and refused it
        m = z.PayoffMatrix(3e-6, 0, 5e-6, 1e-6)
        check = z.tft_power_identity(m, k)
        assert check.coefficient == pytest.approx(5e-6**-k, rel=1e-14)
        assert check.max_abs_error == 0.0

    def test_subnormal_denominator_vanishes(self):
        # (5e-80)^4 is subnormal, so 1 / (T^4 - S^4) would overflow
        m = z.PayoffMatrix(3e-80, 0, 5e-80, 1e-80)
        assert math.isfinite(z.tft_power_identity(m, 3).coefficient)
        with pytest.raises(ValueError, match="degenerate denominator: .* at k=4$"):
            z.tft_power_identity(m, 4)

    def test_bad_k(self, m):
        for k in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                z.tft_power_identity(m, k)

    def test_overflow_is_a_range_error(self, m):
        assert z.tft_power_identity(m, 441).max_abs_error == 0.0
        with pytest.raises(OverflowError, match="k=442"):
            z.tft_power_identity(m, 442)  # 5^442 > the largest double

    @pytest.mark.filterwarnings("error")
    def test_overflow_of_any_payoff_power_is_a_range_error(self):
        # R dominates: R^320 overflows while T^320 and S^320 do not
        m = z.PayoffMatrix(R=10, S=0, T=5, P=1, permissive=True)
        assert z.tft_power_identity(m, 300).max_abs_error == 0.0
        with pytest.raises(OverflowError, match="k=320"):
            z.tft_power_identity(m, 320)
        # T = -S: T^k and S^k are finite, but T^k - S^k is not
        m = z.PayoffMatrix(R=1, S=-2, T=2, P=0, permissive=True)
        assert z.tft_power_identity(m, 1021).max_abs_error == 0.0
        with pytest.raises(OverflowError, match="k=1023"):
            z.tft_power_identity(m, 1023)


class TestTftExponentialIdentity:
    # 2e-13 and -3e-13 sit just above the degeneracy guard at the default payoffs
    @pytest.mark.parametrize("h", [1.0, -2.0, 0.1, -0.1, 2e-13, -3e-13])
    def test_small_errors(self, m, h):
        assert z.tft_exponential_identity(m, h).max_abs_error <= 1e-12

    def test_h_zero_rejected(self, m):
        # the degeneracy guard refuses it: e^{0T} - e^{0S} is zero
        with pytest.raises(ValueError, match="degenerate denominator: .* at h=0.0$"):
            z.tft_exponential_identity(m, 0.0)

    @pytest.mark.parametrize("h", [1e-300, -1e-300, 1e-13])
    def test_vanishing_denominator_rejected(self, m, h):
        # e^{hT} - e^{hS} rounds to (nearly) zero: refused, not divided by
        with pytest.raises(ValueError, match=f"degenerate denominator: .* at h={h}$"):
            z.tft_exponential_identity(m, h)

    def test_overflow_guard(self, m):
        # e^{141 * 5} is finite, e^{142 * 5} is not
        assert z.tft_exponential_identity(m, 141.0).coefficient == 1.0 / np.exp(705.0)
        message = r"e\^\(h\*s1\) overflows double precision at h=142\.0$"
        with pytest.raises(OverflowError, match=message):
            z.tft_exponential_identity(m, 142.0)

    @pytest.mark.parametrize("h", [-150.0, -800.0, -1e300])
    def test_underflow_is_the_rounded_value(self, m, h):
        # e^{hT} rounds to 0 and e^{hS} = 1: the coefficient is -1 exactly;
        # each of these h used to be refused as out of range
        assert z.tft_exponential_identity(m, h) == (-1.0, 0.0)

    def test_h_that_is_not_a_number_is_named_h(self, m):
        with pytest.raises(ValueError) as excinfo:
            z.tft_exponential_identity(m, "x")
        assert str(excinfo.value) == "h must be a number, got 'x'"


class TestWslsCoefficients:
    def test_exact_solution_at_default_payoffs(self, m):
        result = z.wsls_coefficients(m)
        assert result.exact and result.rank == 4
        assert result.residual_norm <= 1e-12

        # frozen values from the rational-elimination oracle below
        expected = {
            (1, 0): Fraction(-51, 140),
            (0, 1): Fraction(-79, 140),
            (1, 1): Fraction(3, 28),
            (0, 0): Fraction(51, 28),
        }
        for label, value in expected.items():
            assert result.coefficients[label] == pytest.approx(float(value), abs=1e-12)

        columns = [[3, 0, 5, 1], [3, 5, 0, 1], [9, 0, 0, 1], [1, 1, 1, 1]]
        oracle = _solve_exact(columns, [0, -1, 0, 1])
        assert oracle == [expected[(1, 0)], expected[(0, 1)], expected[(1, 1)], expected[(0, 0)]]

    def test_reconstruction(self, m):
        coefficients = list(z.wsls_coefficients(m).coefficients.values())
        np.testing.assert_allclose(
            z.BasisSpec.wsls4(m).matrix @ coefficients, [0, -1, 0, 1], atol=1e-12
        )

    def test_coefficients_depend_on_payoffs(self):
        a, b = (np.array(list(z.wsls_coefficients(pm).coefficients.values()))
                for pm in (z.DEFAULT_PAYOFFS, z.PayoffMatrix(R=3, S=0, T=4.5, P=1)))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_degenerate_payoffs_flagged(self):
        # R = P makes the CC and DD rows of the basis coincide
        m = z.PayoffMatrix(R=1, S=0, T=5, P=1, permissive=True)
        result = z.wsls_coefficients(m)
        assert result.rank < 4
        assert not result.exact
