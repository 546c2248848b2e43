import itertools
import math
import tracemalloc

import numpy as np
import pytest

import zdlab as z
from zdlab import montecarlo

CC, CD, DC, DD = z.JointState


def sequential_counts(s1, s2, cfg):
    """State counts from a plain round-by-round loop over simulate's stream.

    The stream layout: one uniform for the initial-state draw unless the
    initial state is a JointState, then two uniforms per round, player 1's
    first.
    """
    p1 = list(s1.with_noise(cfg.noise).p)
    cc, cd, dc, dd = s2.with_noise(cfg.noise).p
    p2 = [cc, dc, cd, dd]  # player 2 sees CD and DC swapped
    stream = np.random.Generator(np.random.PCG64(cfg.seed))
    if isinstance(cfg.initial, z.JointState):
        state = int(cfg.initial)
    else:
        first = stream.random()
        cumulative = itertools.accumulate(cfg.initial_distribution().tolist())
        state = min(sum(c <= first for c in cumulative), 3)
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
    "one chunk": ("wsls", MIXED, CHUNK, 0, (0.1, 0.2, 0.3, 0.4), 0.0),
    "one chunk plus one": ("tft", MIXED, CHUNK + 1, 1000, None, 0.0),
    "burn-in across a block boundary": ("tft", MIXED, 10_000, 137, DC, 0.0),
    "burn-in across a chunk boundary": (MIXED, "tft", CHUNK + 3000, CHUNK + 1234, None, 0.01),
    "deterministic": ("wsls", "0,1,1,0", 5000, 3, None, 0.0),
    "noise one half": ("all_c", "all_d", 20_000, 10, CC, 0.5),
    "near-deterministic": ("tft", "1,1e-9,0.999999999,0", 50_000, 0, None, 0.0),
    # equal thresholds in several states, and thresholds 0 and 1, which
    # every uniform passes or none does
    "tied thresholds": ("custom:0.5,0.5,0.2,0.5", "custom:0,1,0,1", 20_000, 5, None, 0.0),
}


class TestConfig:
    def test_defaults(self):
        cfg = z.SimulationConfig()
        assert cfg.rounds == 10**6 and cfg.burn_in == 10**3
        assert cfg.noise == 0.0 and cfg.initial is None

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            z.SimulationConfig(rounds=1000, burn_in=1000)

    def test_noise_range(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(noise=0.7)
        with pytest.raises(ValueError):
            z.SimulationConfig(noise=-0.1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            z.SimulationConfig(seed=2**64)
        z.SimulationConfig(seed=2**64 - 1)  # largest valid seed

    def test_initial_forms(self):
        assert z.SimulationConfig(initial=CD).initial is CD
        assert z.SimulationConfig(initial=2).initial is DC
        cfg = z.SimulationConfig(initial=(0.25, 0.25, 0.25, 0.25))
        np.testing.assert_array_equal(cfg.initial_distribution(), np.full(4, 0.25))
        with pytest.raises(ValueError):
            z.SimulationConfig(initial=(0.5, 0.5, 0.5, 0.5))

    def test_nan_initial_refused(self):
        # accepted before, and simulate then started every run in CC
        with pytest.raises(ValueError, match="sum to .*nan"):
            z.SimulationConfig(rounds=10, burn_in=0, initial=(math.nan, 0.0, 0.0, 1.0))

    def test_messages_show_python_floats(self):
        # numpy 2 scalars used to print as np.float64(...) in these messages
        cases = [
            (lambda: z.SimulationConfig(rounds=10, burn_in=0, initial=(math.nan, 0, 0, 1)),
             "probabilities sum to nan, not 1"),
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

    @pytest.mark.parametrize("initial", [True, False])
    def test_bool_initial_refused(self, initial):
        # True used to start every run in CD and False in CC
        message = f"initial must be a state or distribution, not {initial}"
        with pytest.raises(ValueError, match=message):
            z.SimulationConfig(initial=initial)

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            z.SimulationConfig(rounds=0)

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

    def test_memory_is_bounded_by_the_chunk(self):
        # the uniforms of 2e6 rounds alone take 32 MB; the kernel draws them
        # chunk by chunk
        cfg = z.SimulationConfig(rounds=2 * 10**6, seed=3, burn_in=0)
        tracemalloc.start()
        try:
            z.simulate(z.TFT, z.named_strategy("random:0.4"), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
