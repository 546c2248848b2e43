import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zdlab as z
from zdlab.game import SWAP

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategy_vectors = st.tuples(probability, probability, probability, probability)


class TestPayoffMatrix:
    def test_default_values(self):
        assert z.DEFAULT_PAYOFFS.as_tuple() == (3.0, 0.0, 5.0, 1.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordering"):
            z.PayoffMatrix(R=3, S=0, T=2.9, P=1)
        with pytest.raises(ValueError, match="2R"):
            z.PayoffMatrix(R=3, S=0, T=6, P=1)  # 2R = T + S exactly

    def test_permissive_allows_broken_ordering(self):
        m = z.PayoffMatrix(R=1, S=0, T=5, P=1, permissive=True)
        assert m.R == m.P

    def test_permissive_still_requires_t_neq_s(self):
        with pytest.raises(ValueError, match="T != S"):
            z.PayoffMatrix(R=1, S=2, T=2, P=1, permissive=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            z.PayoffMatrix(R=3, S=0, T=float("inf"), P=1)


class TestPayoffVectors:
    def test_player1_reads_off_rstp(self, m):
        assert z.payoff_vector(m, 1).tolist() == [3, 0, 5, 1]

    def test_player2_swaps_s_and_t(self, m):
        assert z.payoff_vector(m, 2).tolist() == [3, 5, 0, 1]

    def test_result_is_read_only(self, m):
        v = z.payoff_vector(m, 1)
        assert v.shape == (4,) and v.dtype == float
        with pytest.raises(ValueError):
            v[0] = 2.0

    def test_bad_player(self, m):
        with pytest.raises(ValueError):
            z.payoff_vector(m, 3)

    def test_players_agree_on_symmetric_outcomes(self, m):
        v1, v2 = z.payoff_vector(m, 1), z.payoff_vector(m, 2)
        assert v1[z.JointState.CC] == v2[z.JointState.CC]
        assert v1[z.JointState.DD] == v2[z.JointState.DD]

    def test_power_transform(self, m):
        np.testing.assert_array_equal(z.payoff_features(m, [(2, 0)])[0], [9, 0, 25, 1])
        np.testing.assert_array_equal(z.payoff_features(m, [(0, 3)])[0], [27, 125, 0, 1])

    def test_power_one_is_identity(self, m):
        F = z.payoff_features(m, [(1, 0), (0, 1)])
        np.testing.assert_array_equal(F[0], z.payoff_vector(m, 1))
        np.testing.assert_array_equal(F[1], z.payoff_vector(m, 2))

    def test_malformed_labels_rejected(self, m):
        for label in [(1.5, 0), (-1, 0), (0, -2), (True, 0), (1, 2, 3), ("exp", 3, 1.0),
                      ("exp", 1, math.nan), ("exp", 1, "h"), "s1", 1]:
            with pytest.raises(ValueError, match="label"):
                z.payoff_features(m, [label])

    @given(st.integers(min_value=1, max_value=10))
    def test_power_matches_repeated_multiplication(self, k):
        v = z.payoff_vector(z.DEFAULT_PAYOFFS, 1)
        expected = np.ones(4)
        for _ in range(k):
            expected = expected * v
        np.testing.assert_allclose(
            z.payoff_features(z.DEFAULT_PAYOFFS, [(k, 0)])[0], expected, rtol=1e-12
        )

    @pytest.mark.filterwarnings("error")
    def test_power_overflow_is_a_range_error(self, m):
        with pytest.raises(OverflowError, match="s1\\^442.*overflows double precision"):
            z.payoff_features(m, [(1, 0), (442, 0)])
        assert np.isfinite(z.payoff_features(m, [(441, 0)])).all()

    def test_exp_transform(self, m):
        F = z.payoff_features(m, [("exp", 1, 1.0), ("exp", 2, -1.0)])
        np.testing.assert_allclose(
            F[0], [math.e**3, 1.0, math.e**5, math.e], rtol=1e-15
        )
        np.testing.assert_allclose(
            F[1], [math.e**-3, math.e**-5, 1.0, math.e**-1], rtol=1e-15
        )
        with pytest.raises(OverflowError, match="exponential range"):
            z.payoff_features(m, [("exp", 2, 141.0)])  # 141 * 5 > 700

    def test_exp_zero_gives_ones(self, m):
        np.testing.assert_array_equal(z.payoff_features(m, [("exp", 1, 0.0)])[0], np.ones(4))

    def test_exp_small_h_approaches_linear_difference(self, m):
        # [e^{h s1} - e^{h s2}] / (e^{hT} - e^{hS}) -> [s1 - s2] / (T - S)
        h = 1e-6
        phi1, phi2 = z.payoff_features(m, [("exp", 1, h), ("exp", 2, h)])
        lhs = (phi1 - phi2) / (math.exp(h * m.T) - math.exp(h * m.S))
        rhs = (z.payoff_vector(m, 1) - z.payoff_vector(m, 2)) / (m.T - m.S)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    def test_pointwise_product(self, m):
        np.testing.assert_array_equal(z.payoff_features(m, [(1, 1)])[0], [9, 0, 0, 1])

    def test_ones_vector(self, m):
        np.testing.assert_array_equal(z.payoff_features(m, [(0, 0)])[0], np.ones(4))


class TestStrategies:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("tft", (1, 0, 1, 0)),
            ("wsls", (1, 0, 0, 1)),
            ("all_c", (1, 1, 1, 1)),
            ("all_d", (0, 0, 0, 0)),
            ("random:0.3", (0.3, 0.3, 0.3, 0.3)),
            ("custom:0.1,0.2,0.3,0.4", (0.1, 0.2, 0.3, 0.4)),
        ],
    )
    def test_named(self, name, expected):
        assert z.named_strategy(name).p == expected

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            z.named_strategy("grim")

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            z.named_strategy("random:1.5")
        with pytest.raises(ValueError):
            z.MemoryOneStrategy((0.0, 0.0, -0.1, 0.0))

    def test_parse_json_object(self):
        s = z.parse_strategy('{"p_cc": 1, "p_cd": 0, "p_dc": 0.5, "p_dd": 0}')
        assert s.p == (1.0, 0.0, 0.5, 0.0)
        s = z.parse_strategy({"p_cc": 1, "p_cd": 0, "p_dc": 1, "p_dd": 0})
        assert s == z.TFT

    def test_parse_inline(self):
        assert z.parse_strategy("0.9,0.1,0.8,0.2").p == (0.9, 0.1, 0.8, 0.2)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            z.parse_strategy("0.9,0.1,0.8")
        with pytest.raises(ValueError):
            z.parse_strategy('{"p_cc": 1}')
        with pytest.raises(ValueError):
            z.parse_strategy("{not json")

    def test_with_noise(self):
        s = z.TFT.with_noise(0.1)
        np.testing.assert_allclose(s.array, [0.95, 0.05, 0.95, 0.05])
        assert z.TFT.with_noise(0.0) is z.TFT
        with pytest.raises(ValueError):
            z.TFT.with_noise(0.6)


class TestJointState:
    def test_index_order(self):
        assert [s.value for s in z.JointState] == [0, 1, 2, 3]
        assert z.JointState["C" + "D"] is z.JointState.CD

    def test_actions_roundtrip(self):
        # the name spells the actions, player 1's first; its D is the high bit
        for s in z.JointState:
            assert z.JointState[s.name] is s
            assert s == 2 * (s.name[0] == "D") + (s.name[1] == "D")

    def test_swap(self):
        # SWAP views each state from the other player's side: CD <-> DC
        assert [z.JointState(SWAP[s]).name for s in z.JointState] == ["CC", "DC", "CD", "DD"]


def _conditional(s: z.MemoryOneStrategy, player: int, action: str, prev: int) -> float:
    """Independent brute-force oracle for one player's action probability."""
    own_frame = prev if player == 1 else SWAP[prev]
    coop = s.p[own_frame]
    return coop if action == "C" else 1.0 - coop


class TestTransitionMatrix:
    def test_tft_vs_allc_from_cd(self):
        M = z.transition_matrix(z.TFT, z.ALL_C)
        assert M[z.JointState.DC, z.JointState.CD] == 1.0

    def test_uniform_random_pair(self):
        half = z.named_strategy("random:0.5")
        np.testing.assert_array_equal(z.transition_matrix(half, half), np.full((4, 4), 0.25))

    def test_tft_vs_tft_two_cycle(self):
        M = z.transition_matrix(z.TFT, z.TFT)
        assert M[z.JointState.DC, z.JointState.CD] == 1.0
        assert M[z.JointState.CD, z.JointState.DC] == 1.0

    def test_result_is_read_only(self):
        M = z.transition_matrix(z.TFT, z.TFT)
        with pytest.raises(ValueError):
            M[0, 0] = 2.0

    @given(strategy_vectors, strategy_vectors)
    def test_columns_are_stochastic(self, p1, p2):
        M = z.transition_matrix(z.MemoryOneStrategy(p1), z.MemoryOneStrategy(p2))
        np.testing.assert_allclose(M.sum(axis=0), np.ones(4), atol=1e-12)
        assert np.all(M >= 0.0) and np.all(M <= 1.0)

    @given(strategy_vectors, strategy_vectors)
    def test_entries_factorise(self, p1, p2):
        s1, s2 = z.MemoryOneStrategy(p1), z.MemoryOneStrategy(p2)
        M = z.transition_matrix(s1, s2)
        for prev in range(4):
            for a1 in "CD":
                for a2 in "CD":
                    to = z.JointState[a1 + a2]
                    expected = _conditional(s1, 1, a1, prev) * _conditional(s2, 2, a2, prev)
                    assert M[to, prev] == pytest.approx(expected, abs=1e-15)

    @given(strategy_vectors, strategy_vectors)
    def test_player_swap_symmetry(self, p1, p2):
        s1, s2 = z.MemoryOneStrategy(p1), z.MemoryOneStrategy(p2)
        perm = [0, 2, 1, 3]
        M = z.transition_matrix(s1, s2)
        swapped = z.transition_matrix(s2, s1)
        np.testing.assert_allclose(swapped[np.ix_(perm, perm)], M, atol=1e-15)

    def test_stack_matches_single_pairs(self):
        # one focal strategy against a stack of opponents, and stacks on both sides
        rng = np.random.Generator(np.random.PCG64(4))
        p1, p2 = rng.random((2, 50, 4))
        p2[:10] = rng.integers(0, 2, size=(10, 4))
        Ms = z.transition_matrices(z.TFT.array, p2)
        both = z.transition_matrices(p1, p2)
        assert Ms.shape == both.shape == (50, 4, 4)
        for n in range(50):
            s2 = z.MemoryOneStrategy(tuple(p2[n]))
            np.testing.assert_array_equal(Ms[n], z.transition_matrix(z.TFT, s2))
            np.testing.assert_array_equal(
                both[n], z.transition_matrix(z.MemoryOneStrategy(tuple(p1[n])), s2)
            )
