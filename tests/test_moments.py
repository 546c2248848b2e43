import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zdlab as z

CYCLE = np.array([0.0, 0.5, 0.5, 0.0])  # TFT-vs-TFT average over the CD/DC cycle


class TestMoment:
    def test_first_moment_on_cycle(self, m):
        assert z.moment(z.payoff_vector(m, 1), CYCLE, 1) == pytest.approx(2.5)

    def test_second_moment_on_cycle(self, m):
        assert z.moment(z.payoff_vector(m, 1), CYCLE, 2) == pytest.approx(12.5)

    def test_point_mass(self, m):
        v = z.payoff_vector(m, 1)
        for state in z.JointState:
            for k in (1, 2, 3):
                assert z.moment(v, z.point_mass(state), k) == v[state] ** k

    def test_order_validation(self, m):
        v = z.payoff_vector(m, 1)
        with pytest.raises(ValueError):
            z.moment(v, CYCLE, 0)
        with pytest.raises(ValueError):
            z.moment(v, CYCLE, 1.5)

    def test_precision_cap(self, m):
        v = z.payoff_vector(m, 1)
        with pytest.raises(ValueError, match="cap"):
            z.moment(v, CYCLE, 21)
        assert z.moment(v, CYCLE, 21, k_cap=25) > 0  # cap is configurable


class TestCrossMoment:
    def test_zero_orders_give_normalisation(self, m):
        v1, v2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)
        for pi in (CYCLE, np.full(4, 0.25), z.point_mass(0)):
            assert z.cross_moment(v1, v2, pi, 0, 0) == pytest.approx(1.0)

    def test_product_average_on_cycle(self, m):
        v1, v2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)
        # s1*s2 is (9, 0, 0, 1) pointwise, so the cycle average vanishes
        assert z.cross_moment(v1, v2, CYCLE, 1, 1) == 0.0

    def test_reduces_to_moment(self, m):
        v1, v2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        for k in range(1, 7):
            assert z.cross_moment(v1, v2, pi, k, 0) == z.moment(v1, pi, k)

    @given(st.integers(min_value=1, max_value=10))
    def test_consistency_with_ones_vector(self, k):
        v = z.payoff_vector(z.DEFAULT_PAYOFFS, 1)
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        assert z.moment(v, pi, k) == z.cross_moment(v, z.ones_vector(), pi, k, 0)


class TestMgf:
    def test_h_zero_is_one(self, m):
        for pi in (CYCLE, np.full(4, 0.25)):
            assert z.mgf(z.payoff_vector(m, 1), pi, 0.0) == pytest.approx(1.0)

    def test_cycle_value(self, m):
        expected = (1.0 + math.e**5) / 2.0
        assert z.mgf(z.payoff_vector(m, 1), CYCLE, 1.0) == pytest.approx(expected)
        assert z.mgf(z.payoff_vector(m, 2), CYCLE, 1.0) == pytest.approx(expected)

    def test_overflow_guard(self, m):
        with pytest.raises(OverflowError):
            z.mgf(z.payoff_vector(m, 1), CYCLE, 150.0)


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

    def test_all_zero_coefficients(self, m):
        assert z.relation_value({(1, 0): 0.0, (0, 1): 0.0}, CYCLE, m) == 0.0

    def test_unknown_label_rejected(self, m):
        with pytest.raises(ValueError, match="label"):
            z.relation_value({"s1": 1.0}, CYCLE, m)


class TestPayoffDistribution:
    def test_cycle_distribution(self, m):
        dist = z.payoff_distribution(z.payoff_vector(m, 1), CYCLE)
        assert dist.points == ((0.0, 0.5), (5.0, 0.5))

    def test_both_players_identical_on_cycle(self, m):
        d1 = z.payoff_distribution(z.payoff_vector(m, 1), CYCLE)
        d2 = z.payoff_distribution(z.payoff_vector(m, 2), CYCLE)
        assert d1 == d2

    def test_point_mass(self, m):
        dist = z.payoff_distribution(z.payoff_vector(m, 1), z.point_mass(0))
        assert dist.points == ((3.0, 1.0),)
        assert dist.as_dict() == {3.0: 1.0}

    def test_equal_values_aggregate(self):
        v = z.PayoffVector((1.0, 1.0, 3.0, 5.0), "v")
        dist = z.payoff_distribution(v, np.array([0.1, 0.2, 0.3, 0.4]))
        assert dist.values == (1.0, 3.0, 5.0)
        assert dist.probabilities == pytest.approx((0.3, 0.3, 0.4))

    def test_probabilities_sum_to_one(self, m):
        dist = z.payoff_distribution(z.payoff_vector(m, 1), np.full(4, 0.25))
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


class TestDistributionsEqual:
    def test_reflexive(self, m):
        d = z.payoff_distribution(z.payoff_vector(m, 1), CYCLE)
        assert z.distributions_equal(d, d, tol=0.0)

    def test_distinct_point_masses(self, m):
        d_r = z.payoff_distribution(z.payoff_vector(m, 1), z.point_mass(0))
        d_p = z.payoff_distribution(z.payoff_vector(m, 1), z.point_mass(3))
        assert not z.distributions_equal(d_r, d_p, tol=1e-6)

    def test_probability_tolerance(self):
        a = z.PayoffDistribution(((1.0, 0.5), (2.0, 0.5)))
        b = z.PayoffDistribution(((1.0, 0.5 + 1e-9), (2.0, 0.5 - 1e-9)))
        assert z.distributions_equal(a, b, tol=1e-8)
        assert not z.distributions_equal(a, b, tol=1e-10)

    def test_support_mismatch(self):
        a = z.PayoffDistribution(((1.0, 1.0),))
        b = z.PayoffDistribution(((1.0, 0.5), (2.0, 0.5)))
        assert not z.distributions_equal(a, b, tol=1e-6)

    def test_negligible_extra_support_point_tolerated(self):
        a = z.PayoffDistribution(((1.0, 1.0),))
        b = z.PayoffDistribution(((1.0, 1.0 - 1e-12), (2.0, 1e-12)))
        assert z.distributions_equal(a, b, tol=1e-8)


class TestStructuralTftEquality:
    def test_cd_dc_symmetry_propagates(self, m, random_strategies):
        # one full-pipeline sample; the acceptance suite covers 1000
        opponent = random_strategies(1, seed=99)[0]
        M = z.transition_matrix(z.TFT, opponent)
        pi = z.cesaro_limit(M, tol=1e-13).distribution
        assert abs(pi[z.JointState.CD] - pi[z.JointState.DC]) <= 1e-10
        d1 = z.payoff_distribution(z.payoff_vector(m, 1), pi)
        d2 = z.payoff_distribution(z.payoff_vector(m, 2), pi)
        assert z.distributions_equal(d1, d2, tol=1e-8)
