import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import zdlab as z
from zdlab import game
from zdlab.moments import K_CAP

CYCLE = np.array([0.0, 0.5, 0.5, 0.0])  # TFT-vs-TFT average over the CD/DC cycle


def _in_order(xs, ys) -> float:
    """sum x*y in Python floats, added first to last (``sum`` compensates since 3.12)."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total = total + x * y
    return total


def _worst_share_of_the_bound(F, pis) -> Fraction:
    """The largest error of a ``feature_averages`` entry over its proved bound."""
    u = Fraction(1, 2**53)
    gamma = [k * u / (1 - k * u) for k in range(5)]
    underflow = 4 * Fraction(1, 2**1075) * (1 + gamma[3])
    worst = Fraction(0)
    for pi, averages in zip(pis.tolist(), z.feature_averages(F, pis).tolist()):
        for f, got in zip(F.tolist(), averages):
            products = [Fraction(x) * Fraction(p) for x, p in zip(f, pi)]
            bound = gamma[4] * sum(map(abs, products)) + underflow
            worst = max(worst, abs(Fraction(got) - sum(products)) / bound)
    return worst


class TestFeatureAverages:
    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_every_entry_is_the_plain_dot(self, n):
        # bit for bit whatever the stack size and the CPU: a BLAS dot's
        # rounding follows the kernel it loads and the stack size
        rng = np.random.Generator(np.random.PCG64(n))
        pis = rng.dirichlet(np.ones(4), size=n)
        F = np.concatenate([
            z.payoff_features(z.DEFAULT_PAYOFFS, [(k, 0) for k in range(1, 21)]),
            z.payoff_features(z.DEFAULT_PAYOFFS, [("exp", 2, h) for h in (-2.0, -0.1, 0.3, 1.5)]),
            rng.normal(size=(6, 4)),
        ])
        averages = z.feature_averages(F, pis)
        assert averages.shape == (n, len(F))
        expected = np.array([[_in_order(f, pi) for f in F.tolist()] for pi in pis.tolist()])
        np.testing.assert_array_equal(averages, expected)
        np.testing.assert_array_equal(z.feature_averages(F, pis[0]), expected[0])
        np.testing.assert_array_equal(z.feature_averages(F.tolist(), pis.tolist()), expected)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4),
           st.lists(st.one_of(
               st.tuples(st.integers(0, K_CAP), st.integers(0, K_CAP)).filter(
                   lambda k: sum(k) <= K_CAP),
               st.tuples(st.just("exp"), st.sampled_from([1, 2]), st.floats(-80.0, 80.0))),
               min_size=1, max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
    def test_within_the_proved_bound_of_the_exact_sum(self, payoffs, labels, draws):
        # each average is four products added first to last, so it lies
        # within gamma_4 * sum|f_s pi_s| of the exact sum, gamma_4 = 4u/(1 - 4u),
        # plus 4 * 2^-1075 * (1 + gamma_3) for products that underflow (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2002, section 3.1);
        # the worst seen is 0.94 of it over 20,000 seeded random cases of this
        # form, and 0.67 over 20,000 drawn by this test
        m = z.PayoffMatrix(*payoffs, permissive=True)
        F = z.payoff_features(m, labels)
        weights, p1, p2 = draws[:4], draws[4:8], draws[8:]
        assume(sum(weights) > 0)
        limit = z.cesaro_limit(z.transition_matrix(z.MemoryOneStrategy(tuple(p1)),
                                                   z.MemoryOneStrategy(tuple(p2))))
        assume(np.isfinite(limit.distribution).all())
        pis = np.array([np.divide(weights, sum(weights)), limit.distribution])
        assert _worst_share_of_the_bound(F, pis) <= 1

    def test_length_mismatch_is_an_error(self, m):
        # never an average over the shorter row's states alone
        F = z.payoff_features(m, [(1, 0), (2, 0)])
        for pi in ([0.5, 0.5, 0.0], [0.2, 0.2, 0.2, 0.2, 0.2]):
            with pytest.raises(ValueError, match=rf"distributions .* got shape \({len(pi)},\)$"):
                z.feature_averages(F, pi)
            with pytest.raises(ValueError, match=rf"shape \({len(pi)},\)$"):
                z.relation_value({(1, 0): 1.0}, pi, m)
        for pi in ([0.5, 0.5], [[0.5, 0.5, 0.0]], 1.0):
            with pytest.raises(ValueError, match="4 payoffs against probabilities"):
                z.payoff_distributions([1.0, 2.0, 3.0, 4.0], pi)

    def test_shapes_that_are_not_payoff_features_are_an_error(self):
        # features are rows over the four joint states, and a distribution
        # ends in one probability per state: a (2, 3) stack of rows against a
        # 3-vector is not an average, nor is a lone (4,) row one feature
        for F, pi, shape in [(np.ones((2, 3)), np.ones(3), r"features .* \(2, 3\)"),
                             (np.ones(4), CYCLE, r"features .* \(4,\)"),
                             (np.ones((1, 2, 4)), CYCLE, r"features .* \(1, 2, 4\)"),
                             (np.ones((2, 4)), 0.25, r"distributions .* \(\)"),
                             (np.ones((2, 4)), np.ones((4, 1)), r"distributions .* \(4, 1\)")]:
            with pytest.raises(ValueError, match=shape + "$"):
                z.feature_averages(F, pi)

    @pytest.mark.parametrize("k_max", [0, -1, 21, 2.0, True])
    def test_moment_orders_validated(self, k_max):
        # simulate and verify-tft build their moment rows through one check;
        # argparse cannot pass 2.0 or True
        with pytest.raises(ValueError, match="moment order"):
            z.moments.moment_orders(k_max)

    def test_mgf_range_guard(self, m):
        with pytest.raises(OverflowError):
            z.payoff_features(m, [("exp", 1, 0.5), ("exp", 1, 200.0)])


class TestMoment:
    """The k-th moment of player 1's payoff is the average of the ``(k, 0)`` feature."""

    def test_first_moment_on_cycle(self, m):
        assert z.feature_averages(z.payoff_features(m, [(1, 0)]), CYCLE)[0] == pytest.approx(2.5)

    def test_second_moment_on_cycle(self, m):
        assert z.feature_averages(z.payoff_features(m, [(2, 0)]), CYCLE)[0] == pytest.approx(12.5)

    def test_point_mass(self, m):
        v = z.payoff_vector(m, 1)
        F = z.payoff_features(m, [(1, 0), (2, 0), (3, 0)])
        for state in z.JointState:
            averages = z.feature_averages(F, np.eye(4)[state])
            assert averages.tolist() == [v[state] ** k for k in (1, 2, 3)]

    def test_order_validation(self, m):
        # features and relations read their labels by one grammar
        for read in (lambda: z.payoff_features(m, [(1.5, 0)]),
                     lambda: z.relation_value({(1.5, 0): 1.0}, CYCLE, m)):
            with pytest.raises(ValueError) as excinfo:
                read()
            assert str(excinfo.value) == "not a payoff feature label: (1.5, 0)"

    def test_precision_cap(self):
        assert z.moments.moment_orders(20)[-1] == 20
        with pytest.raises(ValueError, match="exceeds the precision cap 20"):
            z.moments.moment_orders(21)


class TestCrossMoment:
    """A cross moment is the average of a ``(k1, k2)`` payoff feature."""

    def test_zero_orders_give_normalisation(self, m):
        ones = z.payoff_features(m, [(0, 0)])
        for pi in (CYCLE, np.full(4, 0.25), np.eye(4)[0]):
            assert z.feature_averages(ones, pi)[0] == pytest.approx(1.0)

    def test_product_average_on_cycle(self, m):
        # s1*s2 is (9, 0, 0, 1) pointwise, so the cycle average vanishes
        assert z.feature_averages(z.payoff_features(m, [(1, 1)]), CYCLE)[0] == 0.0


class TestMgf:
    """An MGF value is the average of an ``("exp", player, h)`` feature."""

    def test_h_zero_is_one(self, m):
        ones = z.payoff_features(m, [("exp", 1, 0.0)])
        for pi in (CYCLE, np.full(4, 0.25)):
            assert z.feature_averages(ones, pi)[0] == pytest.approx(1.0)

    def test_cycle_value(self, m):
        expected = (1.0 + math.e**5) / 2.0
        F = z.payoff_features(m, [("exp", 1, 1.0), ("exp", 2, 1.0)])
        np.testing.assert_allclose(z.feature_averages(F, CYCLE), [expected, expected])

    def test_overflow_guard(self, m):
        # e^{150 * 5} is not a finite double, while e^{-150 * 5} underflows to 0.0
        message = r"^payoff exponential e\^\(h\*s1\) overflows double precision at h=150\.0$"
        with pytest.raises(OverflowError, match=message):
            z.payoff_features(m, [("exp", 1, 150.0)])
        features = z.payoff_features(m, [("exp", 1, -150.0)])
        assert z.feature_averages(features, CYCLE).tolist() == [0.5]

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_h_rejected(self, m, h):
        with pytest.raises(ValueError, match="label"):
            z.payoff_features(m, [("exp", 1, h)])


class TestRelationValue:
    def test_tft_first_order_relation(self, m):
        coeffs = {(0, 0): 0.0, (1, 0): 0.2, (0, 1): -0.2}
        assert z.relation_value(coeffs, CYCLE, m) == pytest.approx(0.0, abs=1e-15)

    def test_wsls_relation_on_cesaro_limits(self, m, random_strategies):
        coeffs = z.wsls_coefficients(m).coefficients
        for opponent in random_strategies(10, seed=4):
            M = z.transition_matrix(z.WSLS, opponent)
            pi = z.cesaro_limit(M, tol=1e-13).distribution
            assert abs(z.relation_value(coeffs, pi, m)) <= 1e-8

    def test_exponential_labels(self, m):
        # coefficients of the TFT exponential identity: the relation is
        # [<e^{h s1}> - <e^{h s2}>] / (e^{hT} - e^{hS}) = 0
        h = 0.5
        c = 1.0 / (math.exp(h * m.T) - math.exp(h * m.S))
        coeffs = {("exp", 1, h): c, ("exp", 2, h): -c}
        assert z.relation_value(coeffs, CYCLE, m) == pytest.approx(0.0, abs=1e-15)

    def test_every_value_is_an_in_order_sum(self, m):
        # bit for bit: each average, then the coefficients against them
        rng = np.random.Generator(np.random.PCG64(11))
        labels = [(0, 0), (1, 0), (0, 1), (1, 1), (3, 2), ("exp", 1, 0.4), ("exp", 2, -1.5)]
        F = z.payoff_features(m, labels).tolist()
        for pi in rng.dirichlet(np.ones(4), size=200).tolist():
            coeffs = dict(zip(labels, rng.normal(size=len(labels)).tolist()))
            averages = [_in_order(f, pi) for f in F]
            assert z.relation_value(coeffs, pi, m) == _in_order(list(coeffs.values()), averages)

    @pytest.mark.parametrize("pi", [np.full((2, 4), 0.25), np.full((4, 1), 0.25), 0.25],
                             ids=["2x4", "4x1", "scalar"])
    def test_pi_that_is_not_one_distribution_is_an_error(self, m, pi):
        # a stack of distributions or a column names its shape; it used to be a
        # TypeError or a pairing of one term with four
        shape = re.escape(str(np.shape(pi)))
        message = rf"^the distribution must be of shape \(4,\), got shape {shape}$"
        for coeffs in ({(1, 0): 1.0, (0, 1): 2.0}, {}):
            with pytest.raises(ValueError, match=message):
                z.relation_value(coeffs, pi, m)

    def test_empty_relation_is_zero(self, m):
        assert z.relation_value({}, CYCLE, m) == 0.0

    def test_all_zero_coefficients(self, m):
        assert z.relation_value({(1, 0): 0.0, (0, 1): 0.0}, CYCLE, m) == 0.0

    def test_precision_cap(self, m):
        # K_CAP bounds the orders that --k-max and monomial:D generate, not
        # those a relation names: (15, 15) is a cross moment of order 30
        assert z.relation_value({(20, 0): 1.0}, CYCLE, m) == pytest.approx((1 + 5.0**20) / 2)
        for label, value in [((21, 0), 5.0**21 / 2), ((0, 21), 5.0**21 / 2), ((15, 15), 0.0)]:
            assert z.relation_value({label: 1.0}, CYCLE, m) == value
        message = r"^payoff power s1\^500\*s2\^0 overflows double precision at k=500$"
        with pytest.raises(OverflowError, match=message):
            z.relation_value({(500, 0): 1.0}, CYCLE, m)

    @pytest.mark.parametrize("k", [21, 100, 441])
    def test_tft_power_relations_read_back(self, m, random_strategies, k):
        # TFT lies in the span of s1^k and s2^k for every k; every decomposition
        # reads back, however high its order
        result = z.decompose(z.press_dyson(z.TFT, 1), z.BasisSpec.custom(m, [(k, 0), (0, k)]))
        assert result.exact and result.rank == 2
        for opponent in random_strategies(20, seed=k):
            pi = z.cesaro_limit(z.transition_matrix(z.TFT, opponent)).distribution
            assert abs(z.relation_value(result.coefficients, pi, m)) <= 1e-15

    def test_unknown_label_rejected(self, m):
        with pytest.raises(ValueError, match="label"):
            z.relation_value({"s1": 1.0}, CYCLE, m)


class _Int(int):
    pass


#: The integer rule: an int, a numpy integer or an int subclass (an IntEnum
#: too) is an integer; a bool, a numpy bool, a float, a Fraction, a string
#: and None are not, even when equal to 1.
INTEGERS = [1, np.int64(1), np.uint8(1), z.JointState.CD, _Int(1)]
NOT_INTEGERS = [True, np.bool_(True), 1.0, Fraction(1), "1", None]


class TestIntegerRule:
    @pytest.mark.parametrize("x", INTEGERS, ids=repr)
    def test_accepted(self, x, m):
        assert game._is_int(x)
        assert game.feature_label((x, 0)) == (1, 0)
        assert game.feature_label((0, x)) == (0, 1)
        assert game.feature_label(("exp", x, 0.5)) == ("exp", 1, 0.5)
        assert [type(k) for k in game.feature_label((x, x))] == [int, int]
        assert (z.relation_value({(x, 0): 2.0, (0, x): -1.0}, CYCLE, m)
                == z.relation_value({(1, 0): 2.0, (0, 1): -1.0}, CYCLE, m))

    @pytest.mark.parametrize("x", NOT_INTEGERS, ids=repr)
    def test_refused(self, x, m):
        assert not game._is_int(x)
        for label in [(x, 0), (0, x), ("exp", x, 0.5)]:
            with pytest.raises(ValueError) as excinfo:
                game.feature_label(label)
            assert str(excinfo.value) == f"not a payoff feature label: {label!r}"
        for label in [(x, 0), (0, x), (x, 21)]:
            with pytest.raises(ValueError) as excinfo:
                z.relation_value({label: 1.0}, CYCLE, m)
            assert str(excinfo.value) == f"not a payoff feature label: {label!r}"

    @pytest.mark.parametrize("label", [(-1, 0), (0, -1), (21, -1), (-1, 21)], ids=repr)
    def test_relation_refuses_a_negative_order(self, label, m):
        # by the label grammar, whatever the other order
        with pytest.raises(ValueError) as excinfo:
            z.relation_value({(0, 0): 1.0, label: 1.0}, CYCLE, m)
        assert str(excinfo.value) == f"not a payoff feature label: {label!r}"

    @pytest.mark.parametrize("label, value", [
        ((0, 21), 1.0 + 5.0**21 / 2),
        ((15, 15), 1.0),
        ((np.uint8(200), np.uint8(100)), 1.0),
        ((np.uint8(10), np.uint8(250)), 1.0),
        ((np.uint8(10), np.uint8(11)), 1.0),
    ], ids=["0-21", "15-15", "uint8-200-100", "uint8-10-250", "uint8-10-11"])
    def test_relation_reads_any_order(self, label, value, m):
        # uint8 orders read as Python ints; (15, 15) is a cross moment of order 30
        assert z.relation_value({(0, 0): 1.0, label: 1.0}, CYCLE, m) == value


class TestPayoffDistribution:
    def test_cycle_distribution(self, m):
        support, probs = z.payoff_distributions(z.payoff_vector(m, 1), CYCLE)
        assert support.tolist() == [0.0, 1.0, 3.0, 5.0]
        assert probs.tolist() == [0.5, 0.0, 0.0, 0.5]

    def test_both_players_identical_on_cycle(self, m):
        support1, probs1 = z.payoff_distributions(z.payoff_vector(m, 1), CYCLE)
        support2, probs2 = z.payoff_distributions(z.payoff_vector(m, 2), CYCLE)
        assert support1.tolist() == support2.tolist()
        assert probs1.tolist() == probs2.tolist()

    def test_point_mass(self, m):
        support, probs = z.payoff_distributions(z.payoff_vector(m, 1), np.eye(4)[0])
        assert support.tolist() == [0.0, 1.0, 3.0, 5.0]
        assert probs.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_equal_values_aggregate(self):
        v = np.array([1.0, 1.0, 3.0, 5.0])
        support, probs = z.payoff_distributions(v, np.array([0.1, 0.2, 0.3, 0.4]))
        assert support.tolist() == [1.0, 3.0, 5.0]
        assert probs.tolist() == pytest.approx([0.3, 0.3, 0.4])

    def test_probabilities_sum_to_one(self, m):
        _, probs = z.payoff_distributions(z.payoff_vector(m, 1), np.full(4, 0.25))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPayoffDistributions:
    def test_stack_matches_single_distributions(self, m):
        rng = np.random.Generator(np.random.PCG64(9))
        pis = rng.dirichlet(np.ones(4), size=50)
        pis[:5, 1] = 0.0
        for player in (1, 2):
            v = z.payoff_vector(m, player)
            support, probs = z.payoff_distributions(v, pis)
            assert support.tolist() == sorted(v.tolist())
            assert probs.shape == (50, 4)
            for pi, row in zip(pis, probs.tolist()):
                single_support, single = z.payoff_distributions(v, pi)
                assert single_support.tolist() == support.tolist()
                assert single.tolist() == row

    def test_tied_values_merge_in_payoff_order(self):
        # equal payoffs are one outcome, summed in state order; a payoff one
        # ulp above 1.0 is an outcome of its own (1.0 + 1e-13 used to join 1.0)
        above = np.nextafter(1.0, 2.0)
        v = np.array([2.0, 1.0, 2.0, above])
        support, probs = z.payoff_distributions(v, [[0.1, 0.2, 0.3, 0.4]])
        assert support.tolist() == [1.0, above, 2.0]
        assert probs.tolist() == [[0.2, 0.4, 0.1 + 0.3]]

    @pytest.mark.parametrize("gap", [np.nextafter(0.0, 1.0), 1e-12, 2e-12, 1e-10])
    def test_distinct_values_are_distinct_outcomes(self, gap):
        # however close, two distinct payoffs are two outcomes (a gap of
        # 1e-12 or less used to merge them)
        support, probs = z.payoff_distributions([0.0, gap, 1.0, 2.0], np.full(4, 0.25))
        assert support.tolist() == [0.0, gap, 1.0, 2.0]
        assert probs.tolist() == [0.25] * 4

    @given(
        st.lists(st.floats(-1e200, 1e200) | st.sampled_from([0.0, 1.0, 3.0]),
                 min_size=4, max_size=4),
        st.floats(1e-15, 1e15),
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), min_size=1, max_size=3),
    )
    def test_outcomes_do_not_depend_on_the_payoff_scale(self, x, a, pis):
        # a > 0 keeps the order of the payoffs; while it keeps them finite
        # and as many distinct, the outcomes are a times x's, with the bits
        # of x's probabilities
        x = np.array(x)
        y = a * x
        assume(np.isfinite(y).all() and len(set(y.tolist())) == len(set(x.tolist())))
        support_x, probs_x = z.payoff_distributions(x, pis)
        support_y, probs_y = z.payoff_distributions(y, pis)
        assert support_y.tolist() == (a * support_x).tolist()
        assert probs_y.tobytes() == probs_x.tobytes()


class TestDistributionsEqual:
    def test_reflexive(self, m):
        d = z.payoff_distributions(z.payoff_vector(m, 1), CYCLE)
        assert z.distribution_stacks_equal(d, d, tol=0.0)

    def test_distinct_point_masses(self, m):
        d_r = z.payoff_distributions(z.payoff_vector(m, 1), np.eye(4)[0])
        d_p = z.payoff_distributions(z.payoff_vector(m, 1), np.eye(4)[3])
        assert not z.distribution_stacks_equal(d_r, d_p, tol=1e-6)

    def test_probability_tolerance(self):
        a = ([1.0, 2.0], [0.5, 0.5])
        b = ([1.0, 2.0], [0.5 + 1e-9, 0.5 - 1e-9])
        assert z.distribution_stacks_equal(a, b, tol=1e-8)
        assert not z.distribution_stacks_equal(a, b, tol=1e-10)

    def test_support_mismatch(self):
        a = ([1.0], [1.0])
        b = ([1.0, 2.0], [0.5, 0.5])
        assert not z.distribution_stacks_equal(a, b, tol=1e-6)

    def test_negligible_extra_support_point_tolerated(self):
        a = ([1.0], [1.0])
        b = ([1.0, 2.0], [1.0 - 1e-12, 1e-12])
        assert z.distribution_stacks_equal(a, b, tol=1e-8)

    @pytest.mark.parametrize("tol, message", [
        (math.nan, "tol must be nonnegative, got nan"),  # used to find every pair unequal
        (-1, "tol must be nonnegative, got -1.0"),  # likewise
        (-math.inf, "tol must be nonnegative, got -inf"),
        (True, "tol must be a number, got True"),  # used to be read as 1
        ("1e-8", "tol must be a number, got '1e-8'"),  # used to raise numpy's UFuncTypeError
    ], ids=["nan", "negative", "-inf", "bool", "str"])
    def test_tol_is_a_nonnegative_real_number(self, m, tol, message):
        d = z.payoff_distributions(z.payoff_vector(m, 1), CYCLE)
        with pytest.raises(ValueError) as excinfo:
            z.distribution_stacks_equal(d, d, tol)
        assert str(excinfo.value) == message


GRID = (-1.0, 0.0, 1.0, 2.5, 3.0, 5.0, 7.0)
PROBABILITIES = st.sampled_from([0.0, 1e-9, 0.25, 0.5, 1.0, math.nan]) | st.floats(0.0, 1.0)


@st.composite
def _distribution_pairs(draw):
    """Two payoff distributions on grid supports, one or both stacked.

    Each of b's probabilities is, one time in four, drawn afresh, and
    otherwise a's probability of the same value (zero where a lacks it)
    plus a small offset, so that equal and nearly equal pairs are common.
    """
    n = draw(st.integers(1, 4))
    rows = draw(st.sampled_from([(n, None), (None, n), (n, n)]))
    xa, xb = (sorted(draw(st.lists(st.sampled_from(GRID), min_size=1, unique=True)))
              for _ in rows)
    pa = np.array([[draw(PROBABILITIES) for _ in xa] for _ in range(rows[0] or 1)])
    copied = dict(zip(xa, pa[0]))
    pb = np.array([
        [copied.get(x, 0.0) + draw(st.sampled_from([0.0, 0.0, 1e-9, 0.1]))
         if draw(st.integers(0, 3)) else draw(PROBABILITIES) for x in xb]
        for _ in range(rows[1] or 1)
    ])
    return (xa, pa if rows[0] else pa[0]), (xb, pb if rows[1] else pb[0])


def _reference_stacks_equal(a, b, tol):
    """Per distribution: each side's probability summed per exact value, compared."""
    (xa, pa), (xb, pb) = a, b
    pa, pb = np.atleast_2d(pa), np.atleast_2d(pb)
    equal = []
    for i in range(max(len(pa), len(pb))):
        totals = [{}, {}]
        for side, (x, p) in enumerate([(xa, pa[i % len(pa)]), (xb, pb[i % len(pb)])]):
            for value, q in zip(x, p):
                totals[side][value] = totals[side].get(value, 0.0) + q
        equal.append(all(abs(totals[0].get(v, 0.0) - totals[1].get(v, 0.0)) <= tol
                         for v in totals[0].keys() | totals[1].keys()))
    return equal


class TestDistributionStacksEqual:
    @given(_distribution_pairs(), st.sampled_from([0.0, 1e-8, 0.3]))
    def test_matches_per_value_reference(self, pair, tol):
        a, b = pair
        got = z.distribution_stacks_equal(a, b, tol)
        assert got.tolist() == _reference_stacks_equal(a, b, tol)

    def test_stack_matches_single_pairs(self, m):
        rng = np.random.default_rng(5)
        pis = rng.dirichlet(np.ones(4), size=50)
        pis[:10, 1] = pis[:10, 2]  # some pairs where TFT-like symmetry holds
        pis[:10] /= pis[:10].sum(axis=1, keepdims=True)
        pis[10:12] = [np.eye(4)[0], np.eye(4)[3]]
        s1, s2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)
        stacked = z.distribution_stacks_equal(
            z.payoff_distributions(s1, pis), z.payoff_distributions(s2, pis), tol=1e-8
        )
        single = [
            bool(z.distribution_stacks_equal(
                z.payoff_distributions(s1, pi), z.payoff_distributions(s2, pi), tol=1e-8
            ))
            for pi in pis
        ]
        assert stacked.tolist() == single
        assert stacked[:12].all() and not stacked[12:].all()

    def test_differing_supports_are_merged(self):
        a = ([1.0, 2.0], [[0.5, 0.5], [1.0, 0.0], [1.0 - 1e-12, 1e-12]])
        b = ([1.0, 3.0], [[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
        assert z.distribution_stacks_equal(a, b, tol=1e-8).tolist() == [False, True, True]

    @pytest.mark.parametrize("value", [np.nextafter(1.0, 2.0), 1.0 + 1e-13])
    def test_distinct_values_are_two_outcomes(self, value):
        # the outcome rule of payoff_distributions, between two distributions:
        # 1.0 and a value one ulp or 1e-13 above it used to be one outcome
        a = ([1.0], [[1.0]])
        b = ([value], [[1.0]])
        assert z.distribution_stacks_equal(a, b, tol=0.0).tolist() == [False]


class TestDistributionsEqualIsTheGapTest:
    """Why verify-tft's ``dist_equal`` is its CD/DC balance test, so the verdict needs no gap term.

    At strict payoffs the four values are distinct, however close, so
    comparing the two players' payoff distributions under TFT makes four
    outcomes.  The S outcome sums pi_CD + (-pi_DC), the same single
    rounding as the gap pi_CD - pi_DC; the T outcome is its exact negative;
    the R and P outcomes cancel exactly.
    """

    @pytest.mark.parametrize("payoffs", [
        (3, 0, 5, 1), (4, -1, 6, 0), (3.3, 0.1, 5.7, 1.2),
        (3e-13, 0, 5e-13, 1e-13),  # used to be one outcome, equal whatever the gap
    ])
    @pytest.mark.parametrize("start", [None, z.JointState.DC], ids=["uniform", "dc"])
    def test_equal_distributions_iff_the_gap_is_within_tol(self, payoffs, start):
        m = z.PayoffMatrix(*payoffs)
        rng = np.random.Generator(np.random.PCG64(12))
        opponents = rng.random((2000, 4))
        corner = rng.random((200, 4)) < 0.5  # some opponents with entries 0 and 1
        opponents[:200][corner] = rng.integers(0, 2, corner.sum())
        Ms = z.transition_matrices(z.TFT.array, opponents)
        pis = z.cesaro_limits(Ms, start).distributions
        gaps = pis[:, z.JointState.CD] - pis[:, z.JointState.DC]
        d1 = z.payoff_distributions(z.payoff_vector(m, 1), pis)
        d2 = z.payoff_distributions(z.payoff_vector(m, 2), pis)
        for tol in (0.0, 1e-17, 1e-16, 1e-12, 1e-8):
            gap_test = np.abs(gaps) <= tol
            assert z.distribution_stacks_equal(d1, d2, tol).tolist() == gap_test.tolist()
        assert 0 < (gaps == 0).sum() < len(gaps)  # at tol 0 both verdicts occur


class TestStructuralTftEquality:
    def test_cd_dc_symmetry_propagates(self, m, random_strategies):
        # one full-pipeline sample; the acceptance suite covers 1000
        opponent = random_strategies(1, seed=99)[0]
        M = z.transition_matrix(z.TFT, opponent)
        pi = z.cesaro_limit(M, tol=1e-13).distribution
        assert abs(pi[z.JointState.CD] - pi[z.JointState.DC]) <= 1e-10
        d1 = z.payoff_distributions(z.payoff_vector(m, 1), pi)
        d2 = z.payoff_distributions(z.payoff_vector(m, 2), pi)
        assert z.distribution_stacks_equal(d1, d2, tol=1e-8)
