import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import zdlab as z

#: The state seen from the other player's side: CD <-> DC, stated here apart from the code.
SWAP = (0, 2, 1, 3)

#: Test ids of 10**400, Fraction(10**400) and -10**400, real numbers past the double range.
BEYOND_DOUBLE = ["int", "fraction", "negative_int"]

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

    def test_permissive_accepts_t_equal_s(self):
        # any four finite payoffs build; each operation checks what it needs
        m = z.PayoffMatrix(R=1, S=2, T=2, P=1, permissive=True)
        assert m.as_tuple() == (1.0, 2.0, 2.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            z.PayoffMatrix(R=3, S=0, T=float("inf"), P=1)

    @pytest.mark.parametrize("value", [None, [5]])
    def test_non_numeric_rejected(self, value):
        with pytest.raises(ValueError, match="payoff T must be a number"):
            z.PayoffMatrix(R=3, S=0, T=value, P=1)

    @pytest.mark.parametrize("name, value", [("R", "3"), ("S", False), ("P", True),
                                             ("T", np.True_)])
    def test_strings_and_bools_are_not_payoffs(self, name, value):
        # float() reads all four as numbers
        payoffs = {"R": 3, "S": 0, "T": 5, "P": 1} | {name: value}
        with pytest.raises(ValueError, match=re.escape(f"payoff {name} must be a number, "
                                                       f"got {value!r}")):
            z.PayoffMatrix(**payoffs)

    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4))
    def test_every_payoff_but_negative_zero_keeps_its_bits(self, payoffs):
        m = z.PayoffMatrix(*payoffs, permissive=True)
        expected = [0.0 if v == 0.0 else v for v in payoffs]
        assert np.array(m.as_tuple()).view(np.int64).tolist() == \
            np.array(expected).view(np.int64).tolist()

    def test_any_real_number_is_a_payoff(self):
        m = z.PayoffMatrix(R=Fraction(3), S=np.int8(0), T=np.float32(5.0), P=1)
        assert m.as_tuple() == (3.0, 0.0, 5.0, 1.0)
        assert all(type(v) is float for v in m.as_tuple())

    @pytest.mark.parametrize("value, shown", [(10**400, "inf"), (Fraction(10**400), "inf"),
                                              (-10**400, "-inf")], ids=BEYOND_DOUBLE)
    def test_numbers_beyond_double_range_are_not_finite(self, value, shown):
        # each used to raise OverflowError("... too large ...") from float()
        with pytest.raises(ValueError) as excinfo:
            z.PayoffMatrix(R=value, S=0, T=5, P=1)
        assert str(excinfo.value) == f"payoff R must be finite, got {shown}"


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
        # the tag must be the text "exp": a one-element array equal to it used to
        # pass, and a longer one raised numpy's ambiguous-truth error
        for label in [(1.5, 0), (-1, 0), (0, -2), (True, 0), (1, 2, 3), ("exp", 3, 1.0),
                      ("exp", 1, math.nan), ("exp", 1, "h"), "s1", 1, ("exp", 1, 10**400),
                      (np.array(["exp"]), 1, 0.5), (np.array([1, 2]), 1, 0.5)]:
            with pytest.raises(ValueError, match="label"):
                z.payoff_features(m, [label])

    @pytest.mark.parametrize("label", [(True, 0), (1.0, 0), (0, False), ("exp", 1.0, 0.5),
                                       ("exp", True, 0.5)])
    def test_labels_equal_to_cached_ones_rejected(self, m, table_caches, label):
        # each compares equal to (1, 0), (0, 0) or ("exp", 1, 0.5), whose rows
        # the warm cache holds
        with pytest.raises(ValueError, match="label"):
            z.payoff_features(m, [label])

    @given(st.lists(
        st.one_of(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            st.tuples(st.just("exp"), st.sampled_from([1, 2]),
                      st.floats(-100.0, 100.0, allow_nan=False)),
        ),
        min_size=1, max_size=8,
    ))
    def test_cached_rows_are_read_only_and_keep_their_bits(self, labels):
        m = z.DEFAULT_PAYOFFS
        z.game._feature_rows.cache_clear()
        cold = z.payoff_features(m, labels)
        warm = z.payoff_features(m, labels)
        as_numpy = [tuple(np.int64(x) if type(x) is int else x for x in label)
                    for label in labels]
        for rows in (cold, warm, z.payoff_features(m, as_numpy)):
            assert not rows.flags.writeable
            assert rows.shape == (len(labels), 4)
            np.testing.assert_array_equal(rows.view(np.int64), cold.view(np.int64))

    def test_a_negative_zero_payoff_is_zero(self, table_caches):
        # -0.0 is read as 0.0, so the two matrices share their tables
        zero = z.PayoffMatrix(3.0, 0.0, 5.0, 1.0)
        for S in (-0.0, 0.0, -0.0):
            m = z.PayoffMatrix(3.0, S, 5.0, 1.0)
            assert not np.signbit(m.S)
            row = z.payoff_features(m, [(1, 0)])
            assert row is z.payoff_features(zero, [(1, 0)])
            assert not np.signbit(row[0, 1])
            assert z.BasisSpec.zd(m) is z.BasisSpec.zd(zero)

    @pytest.mark.parametrize("text", ["-0", "-0.0", " -0e9 ", "-1e-400", "0"])
    def test_a_typed_negative_zero_is_zero(self, text):
        # read_number follows PayoffMatrix's rule; "-0" used to read as -0.0
        value = z.game.read_number(text, "x")
        assert value == 0.0 and not np.signbit(value)

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

    @pytest.mark.parametrize("k", [2**53 + 1, 10**400], ids=["2^53+1", "10^400"])
    def test_power_order_above_2_53_is_refused(self, k):
        # numpy raises s to k as a double, which rounds 2^53 + 1 to the even
        # 2^53, so that (-1)^k would read 1, and cannot hold 10^400 at all
        m = z.PayoffMatrix(R=0.5, S=-1, T=0.75, P=0.25, permissive=True)
        assert z.payoff_features(m, [(2**53, 0), (0, 2**53)]).tolist() == [[0, 1, 0, 0], [0, 0, 1, 0]]
        for label in [(k, 0), (0, k), (k, k)]:
            with pytest.raises(ValueError) as excinfo:
                z.payoff_features(m, [label])
            assert str(excinfo.value) == f"payoff power order {k} exceeds 2^53"

    @pytest.mark.parametrize("label, message", [
        ((10**5000, 0), "payoff power order <int of 16610 bits> exceeds 2^53"),
        ((-10**5000, 0), "not a payoff feature label: (-<int of 16610 bits>, 0)"),
        (("exp", 1, 10**5000), "not a payoff feature label: ('exp', 1, <int of 16610 bits>)"),
    ], ids=["order", "negative_order", "exp_h"])
    def test_a_label_too_long_to_print_is_named(self, label, message):
        # each message used to format the int, which Python refuses past 4300
        # digits by default, so the refusal was "Exceeds the limit" instead
        with pytest.raises(ValueError) as excinfo:
            z.game.feature_label(label)
        assert str(excinfo.value) == message

    def test_exp_transform(self, m):
        F = z.payoff_features(m, [("exp", 1, 1.0), ("exp", 2, -1.0)])
        np.testing.assert_allclose(
            F[0], [math.e**3, 1.0, math.e**5, math.e], rtol=1e-15
        )
        np.testing.assert_allclose(
            F[1], [math.e**-3, math.e**-5, 1.0, math.e**-1], rtol=1e-15
        )
        # e^705 is finite and e^710 is not; the refusal names the feature
        assert z.payoff_features(m, [("exp", 2, 141.0)])[0, 1] == np.exp(705.0)
        with pytest.raises(OverflowError, match=r"^payoff exponential e\^\(h\*s2\) "
                           r"overflows double precision at h=142\.0$"):
            z.payoff_features(m, [("exp", 1, 0.5), ("exp", 2, 142.0)])

    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
           st.sampled_from((1, 2)), st.sampled_from((1.0, -1.0)), st.floats(-3.0, 3.0))
    def test_exp_is_refused_exactly_when_not_finite(self, payoffs, player, sign, u):
        # the feature is numpy's own e^{h s}, an underflow included, whatever the
        # caller's np.seterr, and it is refused exactly when that is not a finite
        # double; a guessed bound on h times the largest payoff used to refuse finite ones
        m, h = z.PayoffMatrix(*payoffs, permissive=True), sign * 10.0**u
        with np.errstate(over="ignore", under="ignore"):
            expected = np.exp(h * z.payoff_vector(m, player))
        with np.errstate(all="raise"):
            if not np.isfinite(expected).all():
                message = f"payoff exponential e^(h*s{player}) overflows double precision at h={h}"
                with pytest.raises(OverflowError, match=re.escape(message) + "$"):
                    z.payoff_features(m, [("exp", player, h)])
            else:
                rows = z.payoff_features(m, [("exp", player, h)])
                assert rows[0].view(np.int64).tolist() == expected.view(np.int64).tolist()

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

    @pytest.mark.parametrize("entry", [None, [1]])
    def test_non_numeric_probability_rejected(self, entry):
        with pytest.raises(ValueError, match="must be numbers"):
            z.MemoryOneStrategy((entry, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("p", [0.5, None])
    def test_probabilities_that_are_not_iterable_are_rejected(self, p):
        with pytest.raises(ValueError, match=re.escape(
                f"cooperation probabilities must be numbers: {p!r}")):
            z.MemoryOneStrategy(p)

    @pytest.mark.parametrize("p", [("1", 0, True, 0), (1, 0, True, 0), ("1", 0, 0, 0),
                                   (np.False_, 0, 0, 0), "1000"])
    def test_strings_and_bools_are_not_probabilities(self, p):
        # float() reads each entry as a number, and "1000" as four of them
        with pytest.raises(ValueError, match=re.escape(
                f"cooperation probabilities must be numbers: {p!r}")):
            z.MemoryOneStrategy(p)

    def test_any_real_number_is_a_probability(self):
        s = z.MemoryOneStrategy((Fraction(1, 2), np.int64(1), np.float32(0.25), 0))
        assert s.p == (0.5, 1.0, 0.25, 0.0)
        assert all(type(x) is float for x in s.p)

    @pytest.mark.parametrize("entry, shown", [(10**400, "inf"), (Fraction(10**400), "inf"),
                                              (-10**400, "-inf")], ids=BEYOND_DOUBLE)
    def test_probability_beyond_double_range_is_out_of_range(self, entry, shown):
        # each used to raise OverflowError from float()
        with pytest.raises(ValueError) as excinfo:
            z.MemoryOneStrategy((0.5, entry, 0, 0))
        assert str(excinfo.value) == f"cooperation probability {shown} outside [0, 1]"

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="exactly four"):
            z.MemoryOneStrategy((0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="four probabilities"):
            z.named_strategy("custom:1,2")

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

    def test_strategy_object_keys_and_values(self):
        tft = {"p_cc": 1, "p_cd": 0, "p_dc": 1, "p_dd": 0}
        numpy_tft = {"p_cc": np.int64(1), "p_cd": np.float64(0.0), "p_dc": 1.0, "p_dd": 0}
        assert z.parse_strategy(numpy_tft) == z.TFT
        # each of these used to parse as TFT
        refused = {
            "p_cc is True": {**tft, "p_cc": True},
            "p_cd is '0'": {**tft, "p_cd": "0"},
            "p_dd is np.True_": {**tft, "p_dd": np.True_},
            "unknown strategy key 'p_typo'": {**tft, "p_typo": 5},
        }
        for message, spec in refused.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                z.parse_strategy(spec)
        with pytest.raises(ValueError, match="strategy key 'p_dc' is named twice"):
            z.parse_strategy('{"p_cc": 1, "p_cd": 0, "p_dc": 1, "p_dd": 0, "p_dc": 1}')

    def test_with_noise(self):
        s = z.TFT.with_noise(0.1)
        np.testing.assert_allclose(s.array, [0.95, 0.05, 0.95, 0.05])
        assert z.TFT.with_noise(0.0) is z.TFT
        with pytest.raises(ValueError):
            z.TFT.with_noise(0.6)

    @pytest.mark.parametrize("eps, message", [
        (10**400, "noise must lie in [0, 1/2], got inf"),  # was an OverflowError
        (Fraction(-10**400), "noise must lie in [0, 1/2], got -inf"),
        ("0.1", "noise must be a number, got '0.1'"),  # used to return a noisy TFT
        (True, "noise must be a number, got True"),
        (None, "noise must be a number, got None"),  # was a TypeError
    ], ids=["int", "fraction", "str", "bool", "none"])
    def test_noise_is_a_real_number_in_range(self, eps, message):
        with pytest.raises(ValueError) as excinfo:
            z.TFT.with_noise(eps)
        assert str(excinfo.value) == message


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
