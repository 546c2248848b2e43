import tracemalloc

import numpy as np
import pytest

import zdlab as z
from zdlab import montecarlo

CC, CD, DC, DD = z.JointState


def sequential_counts(s1, s2, cfg):
    """State counts from a plain round-by-round loop over simulate's stream.

    The stream layout: one uniform for the uniform start unless the start
    is a JointState, then two uniforms per round, player 1's first.  The
    start is drawn by the cumulative rule, not by simulate's ``int(4 * u)``.
    """
    p1 = list(s1.with_noise(cfg.noise).p)
    cc, cd, dc, dd = s2.with_noise(cfg.noise).p
    p2 = [cc, dc, cd, dd]  # player 2 sees CD and DC swapped
    stream = np.random.Generator(np.random.PCG64(cfg.seed))
    if isinstance(cfg.initial, z.JointState):
        state = int(cfg.initial)
    else:
        first = stream.random()
        state = min(sum(c <= first for c in (0.25, 0.5, 0.75, 1.0)), 3)
    counts = [0, 0, 0, 0]
    for t, (a, b) in enumerate(stream.random((cfg.rounds, 2)).tolist()):
        state = 2 * (a >= p1[state]) + (b >= p2[state])
        if t >= cfg.burn_in:
            counts[state] += 1
    return tuple(counts)


CHUNK = montecarlo._CHUNK_ROUNDS
MIXED = "0.9,0.2,0.6,0.35"

# (strategy1, strategy2, rounds, burn_in, initial, noise)
KERNEL_CASES = {
    "one round": ("tft", MIXED, 1, 0, None, 0.0),
    "below one block": ("tft", MIXED, 7, 2, CD, 0.0),
    "one chunk": ("wsls", MIXED, CHUNK, 0, None, 0.0),
    "one chunk plus one": ("tft", MIXED, CHUNK + 1, 1000, None, 0.0),
    "burn-in across a block boundary": ("tft", MIXED, 10_000, 137, DC, 0.0),
    "burn-in across a chunk boundary": (MIXED, "tft", CHUNK + 3000, CHUNK + 1234, None, 0.01),
    "deterministic": ("wsls", "0,1,1,0", 5000, 3, None, 0.0),
    "noise one half": ("all_c", "all_d", 20_000, 10, CC, 0.5),
    "near-deterministic": ("tft", "1,1e-9,0.999999999,0", 50_000, 0, None, 0.0),
    # equal thresholds in several states, and thresholds 0 and 1, which
    # every uniform passes or none does
    "tied thresholds": ("custom:0.5,0.5,0.2,0.5", "custom:0,1,0,1", 20_000, 5, None, 0.0),
    # the entry states' prefix scan doubles its shift up to the block count:
    # exactly 2^9 blocks of 32, then 2^9 + 1 with a padded last block, then a
    # fourth chunk of one round, a scan of a single block
    "512 blocks": ("tft", MIXED, 16_384, 3, None, 0.0),
    "513 blocks": (MIXED, "wsls", 16_385, 40, DD, 0.0),
    "one-round fourth chunk": ("tft", MIXED, 3 * CHUNK + 1, 2 * CHUNK + 5, None, 0.0),
}


class TestConfig:
    def test_defaults(self):
        cfg = z.SimulationConfig()
        assert cfg.rounds == 10**6 and cfg.burn_in == 10**3
        assert cfg.noise == 0.0 and cfg.initial is None
        assert z.SimulationConfig(initial=CD).initial is CD

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            z.SimulationConfig(rounds=1000, burn_in=1000)

    def test_noise_range(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(noise=0.7)
        with pytest.raises(ValueError):
            z.SimulationConfig(noise=-0.1)

    @pytest.mark.parametrize("noise, message", [
        (10**400, "noise must lie in [0, 1/2], got inf"),  # was an OverflowError
        ("0.1", "noise must be a number, got '0.1'"),  # was a TypeError
        (False, "noise must be a number, got False"),  # used to run noiseless
    ], ids=["int", "str", "bool"])
    def test_noise_is_a_real_number(self, noise, message):
        with pytest.raises(ValueError) as excinfo:
            z.SimulationConfig(noise=noise)
        assert str(excinfo.value) == message

    def test_seed_range(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            z.SimulationConfig(seed=2**64)
        z.SimulationConfig(seed=2**64 - 1)  # largest valid seed

    def test_seed_too_long_to_print_is_named_by_its_bits(self):
        # the message used to format the int itself: Python's 4300-digit limit error
        with pytest.raises(ValueError, match=r"^seed must be a 64-bit unsigned integer, "
                                             r"got <int of 16610 bits>$"):
            z.montecarlo.check_seed(10**5000)

    def test_start_is_a_state_or_uniform(self, bad_start):
        # a start is a JointState, or None for the uniform draw; True used to
        # start every run in CD, False and a NaN distribution in CC
        message = f"initial must be a JointState or None, got {bad_start!r}"
        with pytest.raises(ValueError) as excinfo:
            z.SimulationConfig(initial=bad_start)
        assert str(excinfo.value) == message

    def test_messages_show_python_floats(self):
        # numpy 2 scalars used to print as np.float64(...) in these messages
        cases = [
            (lambda: z.SimulationConfig(noise=np.float64(0.7)),
             "noise must lie in [0, 1/2], got 0.7"),
            (lambda: z.cesaro_limits(np.eye(4)[None], tol=np.float64(-1)),
             "tolerance must be positive, got -1.0"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == message
        assert type(z.SimulationConfig(noise=np.float64(0.1)).noise) is float

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(rounds=0)

    def test_zero_rounds_is_named_before_the_empty_sample(self):
        with pytest.raises(ValueError, match="^rounds must be positive, got 0$"):
            z.SimulationConfig(rounds=0, burn_in=0)

    @pytest.mark.parametrize("fields", [
        {"rounds": 1e4, "burn_in": 10},
        {"burn_in": 10.0},
        {"seed": 1.5},
        {"rounds": True, "burn_in": 0},
    ])
    def test_integer_fields_must_be_integers(self, fields):
        # each of these used to construct; floats then failed deep inside
        # simulate, and rounds=True simulated one round
        with pytest.raises(ValueError, match="must be an integer"):
            z.SimulationConfig(**fields)

    def test_numpy_integers_accepted(self):
        cfg = z.SimulationConfig(rounds=np.int64(100), seed=np.uint64(5), burn_in=np.int32(3))
        assert (cfg.rounds, cfg.seed, cfg.burn_in) == (100, 5, 3)
        assert type(cfg.rounds) is int
        assert z.simulate(z.TFT, z.WSLS, cfg).counted_rounds == 97


class TestSimulate:
    def test_deterministic_reports(self):
        cfg = z.SimulationConfig(rounds=5000, seed=123, burn_in=100)
        first = z.simulate(z.TFT, z.named_strategy("random:0.4"), cfg)
        second = z.simulate(z.TFT, z.named_strategy("random:0.4"), cfg)
        assert first == second
        assert first.prng == z.PRNG_ID == "numpy.random.PCG64"

    def test_reports_compare_by_value(self):
        # uniform start and noise: every report field is a plain value
        cfg = z.SimulationConfig(rounds=3000, seed=17, initial=None, burn_in=50, noise=0.05)
        report = z.simulate(z.TFT, z.WSLS, cfg)
        rerun = z.simulate(z.TFT, z.WSLS, cfg)
        assert rerun == report
        assert hash(rerun) == hash(report)  # TypeError if any field is mutable

    def test_tft_vs_alld_path(self):
        # from CC the deterministic path is CD, DD, DD, ...
        cfg = z.SimulationConfig(rounds=1000, seed=7, initial=CC, burn_in=0)
        report = z.simulate(z.TFT, z.ALL_D, cfg)
        assert report.state_counts == (0, 1, 0, 999)
        assert report.frequencies[DD] >= 0.997

    def test_fair_coin_pair_frequencies(self):
        half = z.named_strategy("random:0.5")
        cfg = z.SimulationConfig(rounds=10**6, seed=2024, burn_in=0)
        report = z.simulate(half, half, cfg)
        for f in report.frequencies:
            assert abs(f - 0.25) < 0.002  # 5 sigma of a binomial at n = 1e6

    def test_counts_match_counted_rounds(self):
        cfg = z.SimulationConfig(rounds=4000, seed=5, burn_in=250)
        report = z.simulate(z.WSLS, z.TFT, cfg)
        assert sum(report.state_counts) == report.counted_rounds == 3750
        assert sum(report.frequencies) == pytest.approx(1.0, abs=1e-15)

    def test_noise_applied(self):
        # noise 0.5 turns ALL_C into state-independent cooperation at 0.75
        cfg = z.SimulationConfig(rounds=10**5, seed=31, burn_in=0, noise=0.5)
        report = z.simulate(z.ALL_C, z.ALL_C, cfg)
        for f, expected in zip(report.frequencies, (9 / 16, 3 / 16, 3 / 16, 1 / 16)):
            assert abs(f - expected) < 0.01

    @pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
    def test_counts_match_sequential_loop(self, case):
        name1, name2, rounds, burn_in, initial, noise = case
        s1, s2 = z.parse_strategy(name1), z.parse_strategy(name2)
        cfg = z.SimulationConfig(
            rounds=rounds, seed=4321, initial=initial, burn_in=burn_in, noise=noise
        )
        assert z.simulate(s1, s2, cfg).state_counts == sequential_counts(s1, s2, cfg)

    @pytest.mark.parametrize("initial", [None, DC], ids=["uniform", "DC"])
    def test_short_runs_match_sequential_loop(self, initial):
        # every block shape from one round to 70, with a padded last block
        # wherever the rounds are not a multiple of the block length
        s1, s2 = z.TFT, z.parse_strategy(MIXED)
        for rounds in range(1, 71):
            cfg = z.SimulationConfig(rounds=rounds, seed=rounds, initial=initial,
                                     burn_in=rounds // 2)
            assert z.simulate(s1, s2, cfg).state_counts == sequential_counts(s1, s2, cfg), rounds

    @pytest.mark.parametrize("ends", [False, True], ids=["interior", "with 0 and 1"])
    @pytest.mark.parametrize("k2", [1, 2, 3, 4])
    @pytest.mark.parametrize("k1", [1, 2, 3, 4])
    def test_every_count_of_distinct_thresholds(self, k1, k2, ends):
        # each player's rank runs over its distinct thresholds, so every
        # count of them, 1 to 4, gives a different set of round codes
        rng = np.random.Generator(np.random.PCG64(10 * k1 + k2 + 100 * ends))
        strategies = []
        for k in (k1, k2):
            values = rng.random(k).tolist()
            if ends:  # 0 and 1 are passed by every uniform or by none
                values[:2] = [0.0, 1.0][:k]
            p = values + rng.choice(values, 4 - k).tolist()
            rng.shuffle(p)
            assert len(set(p)) == k
            strategies.append(z.MemoryOneStrategy(tuple(p)))
        cfg = z.SimulationConfig(rounds=5000, seed=k1 * k2, burn_in=11)
        assert z.simulate(*strategies, cfg).state_counts == sequential_counts(*strategies, cfg)

    @pytest.mark.parametrize("t", [0, CHUNK + 777], ids=["first round", "second chunk"])
    def test_threshold_equal_to_a_drawn_uniform(self, t):
        # u >= p holds when u == p: set a threshold to a uniform the stream
        # draws at round t, in the state the path is in just before it
        seed = 99
        u = np.random.Generator(np.random.PCG64(seed)).random((t + 1, 2))[t]
        if t == 0:  # round 0 leaves the initial state CC
            s1 = z.MemoryOneStrategy((u[0], 0.2, 0.6, 0.35))
            s2 = z.parse_strategy(MIXED)
        else:  # one threshold per player, so the state does not matter
            s1 = z.MemoryOneStrategy((u[0],) * 4)
            s2 = z.MemoryOneStrategy((u[1],) * 4)
        cfg = z.SimulationConfig(rounds=t + 2000, seed=seed, initial=CC, burn_in=0)
        assert z.simulate(s1, s2, cfg).state_counts == sequential_counts(s1, s2, cfg)

    def test_composition_table(self):
        # after[m, c] is map m applied after map c; a map's code holds the
        # image of state s in bits 2s and 2s+1
        decode = [[code >> 2 * s & 3 for s in range(4)] for code in range(256)]
        expected = [[sum(m[c[s]] << 2 * s for s in range(4)) for c in decode] for m in decode]
        assert montecarlo._composition_table().tolist() == expected
        assert decode[montecarlo._IDENTITY] == [0, 1, 2, 3]
        assert not montecarlo._composition_table().flags.writeable  # one table per process

    def test_memory_is_bounded_by_the_chunk(self):
        # the uniforms of 2e6 rounds alone take 32 MB; the kernel draws them
        # 2^14 rounds at a time and keeps two bytes per round of a 2^17-round
        # chunk (peak 1.6 MB on a first call, which builds the composition
        # table, 0.8 MB after)
        cfg = z.SimulationConfig(rounds=2 * 10**6, seed=3, burn_in=0)
        tracemalloc.start()
        try:
            z.simulate(z.TFT, z.named_strategy("random:0.4"), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestMomentConsistency:
    def test_tft_equalises_empirical_moments(self, m, random_strategies):
        # 50 random opponents, 1e6 rounds: <s1^k> - <s2^k> stays within five
        # standard errors of zero for k = 1, 2, 3.  The error is estimated
        # from the empirical per-round variance, which ignores the chain's
        # autocorrelation, so the seeded run tolerates two excursions per k
        # (the same allowance the acceptance criterion uses).
        v1 = z.payoff_vector(m, 1)
        v2 = z.payoff_vector(m, 2)
        within = {1: 0, 2: 0, 3: 0}
        for i, opponent in enumerate(random_strategies(50, seed=606)):
            cfg = z.SimulationConfig(rounds=10**6, seed=51000 + i, burn_in=10**3)
            report = z.simulate(z.TFT, opponent, cfg)
            # exact on every path: under TFT, #CD - #DC is player 2's C->D
            # switches minus their D->C switches
            assert abs(report.state_counts[CD] - report.state_counts[DC]) <= 1, i
            freq = np.array(report.frequencies)
            for k in (1, 2, 3):
                diff = v1**k - v2**k
                mean = float(np.dot(diff, freq))
                variance = float(np.dot(diff**2, freq)) - mean**2
                stderr = np.sqrt(max(variance, 0.0) / report.counted_rounds)
                if abs(mean) <= 5.0 * stderr:
                    within[k] += 1
        for k, count in within.items():
            assert count >= 48, f"k={k}: only {count}/50 trials within 5 SE"


class TestEmpiricalVsExact:
    def test_ergodic_pair_not_flagged(self, random_strategies):
        s1, s2 = random_strategies(2, seed=17)
        cfg = z.SimulationConfig(rounds=10**5, seed=1000 + 3, burn_in=100)
        comparison = z.empirical_vs_exact(s1, s2, cfg, tol_sigma=5.0)
        assert comparison.passed
        assert comparison.flagged == ()

    def test_tft_cycle_from_cd(self):
        cfg = z.SimulationConfig(rounds=10**4, seed=8, initial=CD, burn_in=0)
        comparison = z.empirical_vs_exact(z.TFT, z.TFT, cfg, tol_sigma=5.0)
        freq = comparison.simulation.frequencies
        assert freq[CC] == 0.0 and freq[DD] == 0.0
        assert abs(freq[CD] - 0.5) <= 1.0 / cfg.rounds
        assert abs(freq[DC] - 0.5) <= 1.0 / cfg.rounds
        np.testing.assert_allclose(comparison.exact.distribution, [0, 0.5, 0.5, 0], atol=1e-13)
        assert comparison.passed  # the 1/n counting-resolution term absorbs parity

    @pytest.mark.parametrize("tol_sigma", [np.nan, -5.0, 0.0, np.inf, "5", True])
    def test_tol_sigma_is_a_positive_finite_number(self, tol_sigma):
        # at nan every bound was nan, nothing was flagged and the gate passed;
        # at -5 every bound was negative
        cfg = z.SimulationConfig(rounds=5000, seed=0, burn_in=0)
        with pytest.raises(ValueError, match="tol_sigma must be"):
            z.empirical_vs_exact(z.TFT, z.TFT, cfg, tol_sigma)

    def test_noise_continuity(self, random_strategies):
        # empirical frequencies at eps = 1e-3 stay within 10*eps of the
        # noiseless exact stationary distribution
        s1, s2 = random_strategies(2, seed=23)
        eps = 1e-3
        cfg = z.SimulationConfig(rounds=10**6, seed=77, burn_in=1000, noise=eps)
        report = z.simulate(s1, s2, cfg)
        limit = z.cesaro_limit(z.transition_matrix(s1, s2))
        deviation = np.max(np.abs(np.array(report.frequencies) - limit.distribution))
        assert deviation <= 10 * eps

    def test_flags_wrong_exact_reference(self):
        # sanity: a mismatched chain would be flagged (different strategies)
        s1 = z.named_strategy("random:0.9")
        cfg = z.SimulationConfig(rounds=10**5, seed=5, burn_in=100)
        report = z.simulate(s1, s1, cfg)
        other = z.cesaro_limit(z.transition_matrix(z.ALL_D, z.ALL_D)).distribution
        assert np.max(np.abs(np.array(report.frequencies) - other)) > 0.5
