import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zdlab as z
from zdlab import cli
from zdlab.cli import main

# Provenance.  Five cases were re-captured when every average over states
# became a first-to-last sum: the dev_* cells of verify-tft's random_300,
# random_40_options and verify_random_10000, and the moments of simulate's
# epsilon and long_uniform.  Their bytes are what the BLAS-dot code printed on
# OpenBLAS's Haswell kernels, and every kernel now prints them.  Only
# decompose_monomial_csv and sweep_wsls_grid still go through LAPACK, and
# they hold the bits of the SkylakeX (AVX-512) kernels.

#: Seeded ``simulate --out`` invocations and the JSON and CSV bytes they wrote.
SIMULATE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "simulate_cli.json").read_text())
#: Seeded ``verify-tft --out`` invocations with their exit code, stderr and
#: output bytes (plus the manifest sidecar of CSV runs), captured from the
#: per-opponent solver that preceded the batched one; ``random_25_json``, the
#: one JSON run of random opponents and of their ``random[i]`` labels, was
#: captured later, from the batched solver.
VERIFY_GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_tft_cli.json").read_text())
#: CSV tables of every command, captured from the row-by-row ``csv.writer``
#: that preceded the one-template writer: exit code, stdout and stderr of runs
#: printing to stdout, and the sha256 of the table and manifest of an --out run.
CSV_GOLDEN = json.loads((Path(__file__).parent / "golden" / "csv_cli.json").read_text())


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _module_env() -> dict:
    """The environment of a fresh ``python -m zdlab`` importing this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestVerifyTft:
    def test_all_c_opponent_passes(self, capsys):
        code, out, err = _run(["verify-tft", "--opponent", "all_c"], capsys)
        assert code == 0
        header, rows = _read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["pi_cc"]) == 1.0
        assert float(row["dev_k1"]) == 0.0
        assert row["pass"] == "true"
        assert "1/1 opponents passed" in err

    def test_tft_opponent_from_cd(self, capsys):
        code, out, _ = _run(
            ["verify-tft", "--opponent", "tft", "--initial", "cd"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        row = dict(zip(header, rows[0]))
        assert (float(row["pi_cd"]), float(row["pi_dc"])) == (0.5, 0.5)
        assert float(row["pi_cd_minus_pi_dc"]) == 0.0
        assert row["unique"] == "false"  # TFT vs TFT has three recurrent classes

    def test_chain_structure_surfaced_when_not_unique(self, capsys):
        code, out, _ = _run(
            ["verify-tft", "--opponent", "tft", "--initial", "cd",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["unique"] is False
        classes = {tuple(c["states"]): (c["recurrent"], c["period"])
                   for c in row["chain_classes"]}
        assert classes[("cd", "dc")] == (True, 2)
        assert classes[("cc",)] == (True, 1)

    def test_random_opponents(self, capsys):
        code, out, _ = _run(["verify-tft", "--random", "25", "--seed", "42"], capsys)
        assert code == 0
        _, rows = _read_csv(out)
        assert len(rows) == 25

    def test_flagship_thousand_opponents(self, capsys):
        code, out, err = _run(["verify-tft", "--random", "1000", "--seed", "42"], capsys)
        assert code == 0
        assert "1000/1000 opponents passed" in err
        _, rows = _read_csv(out)
        assert len(rows) == 1000 and all(r[-1] == "true" for r in rows)

    def test_json_format(self, capsys):
        code, out, _ = _run(
            ["verify-tft", "--opponent", "wsls", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["manifest"]["command"] == "verify-tft"
        assert payload["manifest"]["payoffs"] == {"R": 3.0, "S": 0.0, "T": 5.0, "P": 1.0}

    def test_slowly_leaking_cycle_passes(self, capsys):
        # CD and DC swap into each other and leak 1e-9 per step to CC and DD
        code, out, err = _run(
            ["verify-tft", "--opponent", "custom:1,1e-9,0.999999999,0"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["converged"] == "true"
        assert (float(row["pi_cd"]), float(row["pi_dc"])) == (0.0, 0.0)
        assert abs(float(row["pi_cc"]) - 0.5) <= 1e-6

    def test_zero_random_is_usage_error(self, capsys):
        code, _, err = _run(["verify-tft", "--random", "0"], capsys)
        assert code == 2

    def test_manifest_on_stderr_for_csv_stdout(self, capsys):
        _, _, err = _run(["verify-tft", "--opponent", "all_d"], capsys)
        manifest = json.loads(err.split("verify-tft:")[0])
        assert manifest["tool"] == "zdlab"

    @pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
    def test_outputs_match_golden_files(self, name, tmp_path, capsys):
        golden = VERIFY_GOLDEN[name]
        out = tmp_path / ("run.json" if "--format" in golden["argv"] else "run.csv")
        code, _, err = _run(golden["argv"] + ["--out", str(out)], capsys)
        assert (code, err) == (golden["exit_code"], golden["stderr"])
        assert out.read_bytes() == golden["output"].encode()
        if "manifest" in golden:
            assert out.with_suffix(".manifest.json").read_bytes() == golden["manifest"].encode()

    @pytest.mark.parametrize("argv", [
        ["verify-tft", "--random", "5", "--k-max", "-1"],
        ["verify-tft", "--random", "5", "--k-max", "0"],
        ["verify-tft", "--random", "5", "--k-max", "21"],
        ["simulate", "tft", "wsls", "--rounds", "100", "--k-max", "-1"],
        ["simulate", "tft", "wsls", "--rounds", "100", "--k-max", "0"],
        ["simulate", "tft", "wsls", "--rounds", "100", "--k-max", "25"],
        ["verify-tft", "--random", "5", "--k-max", "25"],
        ["simulate", "tft", "wsls", "--rounds", "100", "--k-max", "21"],
    ])
    def test_k_max_out_of_range_is_usage_error(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 2 and out == ""
        k_max = int(argv[-1])
        if k_max < 1:
            assert err == f"error: need at least one moment order, got k_max={k_max}\n"
        else:
            assert err == "error: moment order 21 exceeds the precision cap 20\n"


class TestVerifyTftVerdict:
    """Each term of verify-tft's ``pass`` counts: a fault planted in one row's term fails that row.

    The moment term is pinned by the golden case ``random_40_options``.
    """

    ARGV = ["verify-tft", "--random", "5", "--seed", "1", "--h-grid", "0.5"]

    def _verdicts(self, capsys) -> dict:
        code, out, err = _run(self.ARGV, capsys)
        header, rows = _read_csv(out)
        assert (code, "4/5 opponents passed" in err) == (1, True)
        assert [row[-1] for row in rows] == ["false"] + ["true"] * 4
        return dict(zip(header, rows[0]))

    def test_unconverged_limit_fails(self, capsys, monkeypatch):
        def first_unconverged(*args, **kwargs):
            limits = z.cesaro_limits(*args, **kwargs)
            return limits._replace(converged=np.arange(len(limits.converged)) > 0)

        monkeypatch.setattr(cli, "cesaro_limits", first_unconverged)
        assert self._verdicts(capsys)["converged"] == "false"

    def test_unequal_distributions_fail(self, capsys, monkeypatch):
        def first_unequal(a, b, tol):
            return z.distribution_stacks_equal(a, b, tol) & (np.arange(5) > 0)

        monkeypatch.setattr(cli, "distribution_stacks_equal", first_unequal)
        assert self._verdicts(capsys)["dist_equal"] == "false"

    def test_mgf_deviation_fails(self, capsys, monkeypatch):
        # the columns are player 1's moments, player 2's, then each player's MGF
        def offset_first_mgf(F, pis):
            averages = z.feature_averages(F, pis)
            averages[0, -2] += 1.0
            return averages

        monkeypatch.setattr(cli, "feature_averages", offset_first_mgf)
        row = self._verdicts(capsys)
        assert float(row["dev_h_0.5"]) > 0.5
        assert max(float(row[f"dev_k{k}"]) for k in range(1, 7)) <= 1e-8


class TestDecompose:
    def test_tft_zd(self, capsys):
        code, out, _ = _run(["decompose", "tft"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["coefficients"]["s1"] == pytest.approx(0.2, abs=1e-12)
        assert payload["coefficients"]["s2"] == pytest.approx(-0.2, abs=1e-12)
        assert payload["coefficients"]["1"] == pytest.approx(0.0, abs=1e-12)

    def test_wsls_zd_inexact(self, capsys):
        code, out, _ = _run(["decompose", "wsls", "--basis", "zd"], capsys)
        assert code == 0  # degeneracy and misfit are data, not errors
        payload = json.loads(out)
        assert payload["exact"] is False
        assert payload["residual_norm"] > 1e-6

    def test_wsls_wsls4_exact(self, capsys):
        code, out, _ = _run(["decompose", "wsls", "--basis", "wsls4"], capsys)
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["coefficients"]["s1"] == pytest.approx(-51 / 140, abs=1e-12)
        assert payload["coefficients"]["s2"] == pytest.approx(-79 / 140, abs=1e-12)
        assert payload["coefficients"]["s1*s2"] == pytest.approx(3 / 28, abs=1e-12)
        assert payload["coefficients"]["1"] == pytest.approx(51 / 28, abs=1e-12)

    def test_monomial_basis_spans_generic_strategies(self, capsys):
        code, out, _ = _run(
            ["decompose", "0.3,0.4,0.5,0.6", "--basis", "monomial:3"], capsys
        )
        assert code == 0
        assert json.loads(out)["exact"] is True

    def test_exponential_basis_contains_tft_only(self, capsys):
        code, out, _ = _run(["decompose", "tft", "--basis", "exp:0.5"], capsys)
        assert code == 0 and json.loads(out)["exact"] is True
        code, out, _ = _run(
            ["decompose", "0.3,0.4,0.5,0.6", "--basis", "exp:0.5"], capsys
        )
        assert code == 0 and json.loads(out)["exact"] is False

    def test_underflowing_exponential_basis_contains_tft(self, capsys):
        # at -800 each e^{h s} but e^0 underflows to 0.0; this basis used to be refused
        code, out, _ = _run(["decompose", "tft", "--basis", "exp:-800"], capsys)
        result = json.loads(out)
        assert (code, result["exact"], result["rank"]) == (0, True, 3)
        code, out, _ = _run(["decompose", "wsls", "--basis", "exp:-800"], capsys)
        assert code == 0 and json.loads(out)["exact"] is False

    def test_degenerate_bases_report_rank_one(self, capsys):
        # exp:0 has three columns of ones and monomial:0 one; neither is an error
        for basis in ("exp:0", "monomial:0"):
            code, out, _ = _run(["decompose", "tft", "--basis", basis], capsys)
            result = json.loads(out)
            assert (code, result["rank"], result["exact"]) == (0, 1, False)

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "d.csv"
        code, _, _ = _run(
            ["decompose", "tft", "--format", "csv", "--out", str(out_file)], capsys
        )
        assert code == 0
        header, rows = _read_csv(out_file.read_text())
        assert header[:2] == ["label", "coefficient"]
        assert len(rows) == 3
        assert (tmp_path / "d.manifest.json").exists()

    def test_exponential_basis_out_of_range(self, capsys):
        code, _, err = _run(["decompose", "tft", "--basis", "exp:142"], capsys)
        assert code == 2
        assert err == ("error: payoff exponential e^(h*s1) overflows double precision "
                       "at h=142.0\n")

    def test_monomial_basis_out_of_range(self):
        # a subprocess, so numpy warnings and LAPACK messages would show on stderr
        result = subprocess.run(
            [sys.executable, "-m", "zdlab", "decompose", "wsls", "--basis", "monomial:500"],
            capture_output=True,
            text=True,
            env=_module_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: max_total_degree must lie in [0, 20] (the precision cap K_CAP), got 500\n"
        )

    def test_unknown_basis(self, capsys):
        code, _, err = _run(["decompose", "tft", "--basis", "fourier"], capsys)
        assert code == 2 and "basis" in err

    def test_unknown_strategy(self, capsys):
        code, _, _ = _run(["decompose", "grim"], capsys)
        assert code == 2

    def test_huge_payoffs_keep_tft_exact(self, capsys):
        # column norms above 1e154 used to overflow, which zeroed the columns
        code, out, _ = _run(["decompose", "tft", "--payoffs", "1e160,0,1.5e160,1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["rank"], payload["exact"]) == (3, True)
        assert payload["coefficients"]["s1"] == pytest.approx(1 / 1.5e160)
        assert payload["coefficients"]["s2"] == pytest.approx(-1 / 1.5e160)


class TestSimulate:
    def test_tft_vs_alld(self, capsys):
        code, out, _ = _run(
            ["simulate", "tft", "all_d", "--rounds", "1000", "--seed", "7",
             "--initial", "cc"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["frequencies"][3] >= 0.997
        assert payload["report"]["prng"] == "numpy.random.PCG64"

    def test_byte_identical_outputs(self, capsys, tmp_path):
        argv = ["simulate", "tft", "random:0.3", "--rounds", "2000", "--seed", "9"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
    def test_outputs_match_golden_files(self, name, tmp_path):
        # captured from the round-by-round kernel; "long_uniform" spans three
        # chunks of 2**17 uniforms and burns in past the first two
        golden = SIMULATE_GOLDEN[name]
        out = tmp_path / "run.json"
        assert main(golden["argv"] + ["--out", str(out)]) == 0
        assert out.read_bytes() == golden["json"].encode()
        assert out.with_suffix(".csv").read_bytes() == golden["csv"].encode()

    def test_moments_and_histograms_derive_from_frequencies(self, capsys):
        # the same feature averages and payoff distributions verify-tft takes
        # of an exact long-run distribution, here of the run's frequencies
        code, out, _ = _run(["simulate", "tft", "random:0.3", "--rounds", "2000",
                             "--seed", "11", "--payoffs", "4,0,6,1", "--k-max", "3"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        freq = report["frequencies"]
        m = z.PayoffMatrix(R=4, S=0, T=6, P=1)
        for p in (1, 2):
            v = z.payoff_vector(m, p)
            assert report["moments"][f"player{p}"] == {
                str(k): float(np.dot(v**k, freq)) for k in (1, 2, 3)
            }
            support, probs = z.payoff_distributions(v, freq)
            assert report["histograms"][f"player{p}"] == [
                [x, q] for x, q in zip(support.tolist(), probs.tolist()) if q != 0.0
            ]
        assert report["histograms"]["player1"] == [
            [x, freq[s]] for x, s in zip((0.0, 1.0, 4.0, 6.0), (1, 3, 0, 2)) if freq[s] != 0.0
        ]

    def test_histograms_keep_payoffs_closer_than_1e_12_apart(self, capsys):
        # four distinct payoffs are four outcomes at any scale; 1e-12 apart
        # they used to merge into the one outcome [[0.0, 1.0]]
        code, out, _ = _run(["simulate", "tft", "random:0.5", "--payoffs", "3e-13,0,5e-13,1e-13",
                             "--rounds", "1000", "--seed", "1"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["state_counts"] == [262, 244, 244, 250]
        for p in (1, 2):
            assert report["histograms"][f"player{p}"] == [
                [0.0, 0.244], [1e-13, 0.25], [3e-13, 0.262], [5e-13, 0.244]
            ]

    def test_csv_summary_sidecar(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        main(["simulate", "wsls", "tft", "--rounds", "500", "--out", str(out_file)])
        header, rows = _read_csv((tmp_path / "run.csv").read_text())
        assert header == ["state", "count", "frequency"]
        assert [r[0] for r in rows] == ["cc", "cd", "dc", "dd"]
        assert sum(int(r[1]) for r in rows) == 500

    def test_csv_out_is_usage_error(self, capsys, tmp_path):
        # the state-occupancy table beside the report would overwrite it; run.CSV
        # used to pass, and its table run.csv is the report itself on a
        # case-insensitive file system
        for name in ("run.csv", "run.CSV", "run.Csv"):
            out = tmp_path / name
            code, stdout, err = _run(
                ["simulate", "tft", "wsls", "--rounds", "100", "--out", str(out)], capsys
            )
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and str(out) in err
            assert list(tmp_path.iterdir()) == []

    def test_typed_negative_zero_is_zero(self, capsys):
        # a typed number reads -0 as 0, as a payoff does; this used to record -0.0
        code, out, _ = _run(["simulate", "tft", "tft", "--rounds", "10", "--epsilon=-0"], capsys)
        assert code == 0
        epsilon = json.loads(out)["manifest"]["parameters"]["epsilon"]
        assert (epsilon, math.copysign(1.0, epsilon)) == (0.0, 1.0)

    def test_epsilon_out_of_range(self, capsys):
        code, _, err = _run(["simulate", "tft", "all_d", "--epsilon", "0.7"], capsys)
        assert code == 2 and "noise" in err

    def test_burn_in_must_leave_rounds(self, capsys):
        code, _, err = _run(
            ["simulate", "tft", "all_d", "--rounds", "100", "--burn-in", "100"], capsys
        )
        assert code == 2 and "empty sample" in err

    def test_format_is_a_usage_error(self, capsys):
        # simulate writes only JSON (and its CSV state table beside --out)
        code, stdout, err = _run(
            ["simulate", "tft", "wsls", "--rounds", "100", "--format", "csv"], capsys
        )
        assert (code, stdout) == (2, "")
        assert "unrecognized arguments: --format csv" in err


class TestSweep:
    def test_wsls_payoff_dependence(self, capsys):
        code, out, _ = _run(
            ["sweep", "--wsls-coeffs", "--payoff-grid", "T=4.5,5.0,5.5"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert len(rows) == 3
        coeff_cols = [header.index(c) for c in ("alpha_s1", "alpha_s2", "alpha_s1s2", "gamma")]
        vectors = {tuple(row[i] for i in coeff_cols) for row in rows}
        assert len(vectors) == 3  # three distinct coefficient vectors

    def test_degenerate_grid_point_is_isolated(self, capsys):
        # R = P = 1 is constructible only permissively and drops the rank
        code, out, _ = _run(
            ["sweep", "--wsls-coeffs", "--payoff-grid", "R=1.0,3.0"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("rank")] == "3"
        assert rows[0][header.index("exact")] == "false"
        assert rows[1][header.index("rank")] == "4"

    def test_t_equal_s_grid_point_reports_its_rank(self, capsys):
        # T = S = 0 is a permissive matrix like any other; its basis loses rank
        code, out, _ = _run(
            ["sweep", "--wsls-coeffs", "--payoff-grid", "T=0.0,5.0;S=0.0"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert len(rows) == 2
        assert [rows[0][header.index(c)] for c in ("rank", "exact", "error")] == ["3", "false", ""]
        assert rows[1][header.index("error")] == ""

    def test_overflowing_grid_point_reported_in_row(self, capsys):
        # s1*s2 overflows at T = 1e200, S = -1e200; that used to abort the sweep
        code, out, _ = _run(
            ["sweep", "--wsls-coeffs", "--payoff-grid", "T=5,1e200;S=-1e200,0"], capsys
        )
        assert code == 0
        header, rows = _read_csv(out)
        errors = [row[header.index("error")] for row in rows]
        assert errors[:2] + errors[3:] == [""] * 3 and "overflows" in errors[2]
        assert rows[2][:4] == ["3", "-9.9999999999999997e+199", "9.9999999999999997e+199", "1"]
        assert rows[3][header.index("exact")] == "true"

    def test_tft_k_range(self, capsys):
        code, out, _ = _run(["sweep", "--tft-k-range", "1:10"], capsys)
        assert code == 0
        header, rows = _read_csv(out)
        assert len(rows) == 10
        assert all(float(r[header.index("max_abs_error")]) <= 1e-12 for r in rows)

    def test_tft_k_range_past_2_53_is_refused(self, capsys):
        # k = 2^53 + 1 is odd, so the exact coefficient 1/(T^k - S^k) is +1 here;
        # numpy would round k to the even 2^53 and print -1
        k = 2**53
        argv = ["sweep", "--tft-k-range", f"{k}:{k + 1}", "--payoffs", "0.5,-1,0.75,0.25"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert _read_csv(out)[1] == [
            [str(k), "-1", "0", ""],
            [str(k + 1), "", "", f"payoff power order {k + 1} exceeds 2^53"],
        ]

    def test_tft_k_range_at_small_payoffs(self, capsys):
        # T^k - S^k is 1.25e-16 at k = 3, far from vanishing next to T^3 and
        # S^3 = 0; an absolute floor of 1e-12 used to refuse k = 3 to 5
        argv = ["sweep", "--tft-k-range", "1:5", "--payoffs", "3e-6,0,5e-6,1e-6"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        header, rows = _read_csv(out)
        assert [r[header.index("error")] for r in rows] == [""] * 5
        for k, row in enumerate(rows, start=1):
            assert float(row[header.index("coefficient")]) == pytest.approx(5e-6**-k, rel=1e-14)

    def test_tft_k_range_overflow_is_a_row_error(self, capsys):
        code, out, _ = _run(["sweep", "--tft-k-range", "440:442"], capsys)
        assert code == 0
        header, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["440", "441", "442"]
        assert rows[1][header.index("error")] == ""
        assert "overflows" in rows[2][header.index("error")]
        assert rows[2][header.index("coefficient")] == ""

    def test_h_range(self, capsys):
        # values starting with '-' need the = form, as usual with argparse
        code, out, _ = _run(["sweep", "--h-range=-2,-1,-0.5,0.5,1,2"], capsys)
        assert code == 0
        _, rows = _read_csv(out)
        assert len(rows) == 6
        header, _ = _read_csv(out)
        coeff = float(rows[0][header.index("coefficient")])
        assert coeff == pytest.approx(1.0 / (np.exp(-10.0) - 1.0))

    def test_h_range_refuses_exactly_the_non_finite_exponentials(self, capsys):
        # e^{141 * 5} is finite and e^{142 * 5} is not; for h < 0 every e^{h s}
        # is a double or underflows to 0.0.  Each of the first three used to be
        # an error cell, refused by a guessed bound
        code, out, _ = _run(["sweep", "--h-range=-800,-150,141,142,900"], capsys)
        assert code == 0
        header, rows = _read_csv(out)
        assert [row[:3] for row in rows[:3]] == [
            ["-800", "-1", "0"], ["-150", "-1", "0"], ["141", "6.6433977979979511e-307", "0"]]
        assert [row[header.index("error")] for row in rows] == [""] * 3 + [
            f"payoff exponential e^(h*s1) overflows double precision at h={h}"
            for h in ("142.0", "900.0")]

    def test_h_range_vanishing_denominator_is_a_row_error(self, capsys):
        # e^{hT} - e^{hS} rounds to zero: an error cell, not a traceback
        code, out, _ = _run(["sweep", "--h-range", "1e-300,1"], capsys)
        assert code == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("coefficient")] == ""
        assert rows[0][header.index("error")] == (
            "degenerate denominator: e^{hT} - e^{hS} vanishes at h=1e-300"
        )
        assert rows[1][header.index("error")] == ""

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = _run(["sweep", "--wsls-coeffs", "--payoff-grid", ""], capsys)
        assert code == 2
        code, _, _ = _run(["sweep", "--tft-k-range", "5:1"], capsys)
        assert code == 2
        code, _, _ = _run(["sweep", "--h-range", ""], capsys)
        assert code == 2

    def test_exactly_one_mode_required(self, capsys):
        code, _, _ = _run(["sweep"], capsys)
        assert code == 2
        code, _, _ = _run(
            ["sweep", "--tft-k-range", "1:3", "--h-range", "1"], capsys
        )
        assert code == 2

    def test_payoff_grid_ignores_spacing_case_and_empty_chunks(self, capsys):
        plain = _run(["sweep", "--wsls-coeffs", "--payoff-grid", "T=4.5,5;R=3"], capsys)
        loose = _run(["sweep", "--wsls-coeffs", "--payoff-grid", " t=4.5,5 ; ; R=3;"], capsys)
        assert plain[:2] == loose[:2] and plain[0] == 0
        assert len(_read_csv(plain[1])[1]) == 2

    def test_json_format(self, capsys):
        code, out, _ = _run(
            ["sweep", "--tft-k-range", "1:3", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert [row["k"] for row in payload["rows"]] == [1, 2, 3]


def _reference_csv(header, columns) -> str:
    """The row-by-row writer that preceded the one-template one."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    for row in zip(*cells):
        writer.writerow([cli._fmt(cell) for cell in row])
    return buffer.getvalue()


_TEXT = st.text(st.sampled_from('ab1 ,"\r\n%é'), max_size=6) | st.sampled_from(
    ["", '""', ",", '"', "\r\n", "%s", "%%"]
)
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
_FLOAT_CELLS = _FLOATS | _FLOATS.map(np.float64)
_CELLS = _FLOAT_CELLS | st.integers(-10**20, 10**20) | st.booleans() | st.none() | _TEXT


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 4))
    width = draw(st.integers(1, 5))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=rows, max_size=rows))

    columns = []
    kinds = st.sampled_from(["mixed", "floats", "float_array", "bool_array"])
    for kind in draw(st.lists(kinds, min_size=width, max_size=width)):
        if kind == "mixed":
            columns.append(cells(_CELLS))
        elif kind == "floats":
            columns.append(tuple(cells(_FLOAT_CELLS)))
        elif kind == "float_array":
            columns.append(np.array(cells(_FLOATS), dtype=float))
        else:
            columns.append(np.array(cells(st.booleans()), dtype=bool))
    return draw(st.lists(_TEXT, min_size=width, max_size=width)), columns


class TestCsvOutput:
    @pytest.mark.parametrize("name", sorted(CSV_GOLDEN))
    def test_outputs_match_golden_files(self, name, tmp_path, capsys):
        golden = CSV_GOLDEN[name]
        if "stdout" in golden:
            expected = (golden["exit_code"], golden["stdout"], golden["stderr"])
            assert _run(golden["argv"], capsys) == expected
            return
        out = tmp_path / "run.csv"
        code, stdout, err = _run(golden["argv"] + ["--out", str(out)], capsys)
        assert (code, stdout, err) == (golden["exit_code"], "", golden["stderr"])
        manifest = out.with_suffix(".manifest.json")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["output_sha256"]
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == golden["manifest_sha256"]

    @given(_tables())
    def test_writer_matches_csv_module(self, table):
        header, columns = table
        assert cli._csv_text(header, columns) == _reference_csv(header, columns)


#: Commands writing ``--out`` (file name, then argv) and the suffixes of the
#: files beside it: the manifest sidecar of a CSV table, simulate's state table.
OUT_CASES = {
    "verify-tft csv": ("run.csv", ["verify-tft", "--random", "5", "--seed", "3"],
                       [".manifest.json"]),
    "sweep csv": ("run.csv", ["sweep", "--tft-k-range", "1:4"], [".manifest.json"]),
    "decompose json": ("run.json", ["decompose", "wsls", "--basis", "wsls4"], []),
    "decompose csv": ("run.csv", ["decompose", "wsls", "--basis", "wsls4", "--format", "csv"],
                      [".manifest.json"]),
    "verify-tft json": ("run.json", ["verify-tft", "--random", "5", "--seed", "3",
                                     "--format", "json"], []),
    "sweep h-range": ("run.csv", ["sweep", "--h-range=-2,-1,0.5,1,2"], [".manifest.json"]),
    "simulate": ("run.json", ["simulate", "tft", "random:0.3", "--rounds", "2000",
                              "--seed", "9"], [".csv"]),
}


class TestOutFiles:
    """``--out`` and the files beside it are rewritten in place and cut to length."""

    @pytest.mark.parametrize("case", sorted(OUT_CASES))
    def test_rewrite_over_longer_junk_matches_fresh_run(self, case, tmp_path, capsys):
        name, argv, suffixes = OUT_CASES[case]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        reused.mkdir()
        paths = [Path(name)] + [Path(name).with_suffix(s) for s in suffixes]
        assert _run(argv + ["--out", str(fresh / name)], capsys)[0] == 0
        expected = {p: (fresh / p).read_bytes() for p in paths}
        for p in paths:
            (reused / p).write_bytes(b"junk\n" * (len(expected[p]) + 1000))
        assert _run(argv + ["--out", str(reused / name)], capsys)[0] == 0
        assert {p: (reused / p).read_bytes() for p in paths} == expected

    @pytest.mark.parametrize("name, argv, suffixes", [
        ("run.json", ["decompose", "tft"], []),
        ("run.csv", ["sweep", "--tft-k-range", "1:5"], [".manifest.json"]),
    ], ids=["decompose", "sweep"])
    def test_negative_zero_payoff_writes_the_zero_payoff_bytes(self, name, argv, suffixes,
                                                              tmp_path, capsys):
        paths = [Path(name)] + [Path(name).with_suffix(s) for s in suffixes]
        written = []
        for payoffs in ("3,-0,5,1", "3,0,5,1"):
            (tmp_path / payoffs).mkdir()
            out = tmp_path / payoffs / name
            assert _run(argv + ["--payoffs", payoffs, "--out", str(out)], capsys)[0] == 0
            written.append({p: (tmp_path / payoffs / p).read_bytes() for p in paths})
        assert written[0] == written[1]

    def test_inode_mode_and_symlink_kept(self, tmp_path, capsys):
        argv = ["verify-tft", "--random", "5", "--seed", "3"]
        fresh = tmp_path / "fresh.csv"
        assert _run(argv + ["--out", str(fresh)], capsys)[0] == 0
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"junk\n" * 10**4)
        target.chmod(0o640)
        link.symlink_to(target)
        inode = target.stat().st_ino
        assert _run(argv + ["--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and link.resolve() == target
        assert (target.stat().st_ino, target.stat().st_mode & 0o777) == (inode, 0o640)
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("argv", [
        ["verify-tft", "--random", "5"],
        ["decompose", "tft"],
        ["simulate", "tft", "wsls", "--rounds", "100"],
    ])
    def test_directory_out_is_usage_error(self, argv, tmp_path, capsys):
        before = os.listdir("/proc/self/fd")
        code, stdout, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(os.listdir("/proc/self/fd")) == len(before)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_non_regular_target(self, capsys):
        # a device cannot be cut to length; CSV commands and simulate would
        # also write a sidecar beside it, so only a JSON decompose goes there
        code, stdout, err = _run(
            ["decompose", "tft", "--format", "json", "--out", os.devnull], capsys
        )
        assert (code, stdout, err) == (0, "", "")


class TestWhatTheBytesDependOn:
    """Each outside dependency of the output bytes, pinned on its own.

    A golden file that moves says only that some byte moved; these say
    which dependency moved it.
    """

    #: The first raw 64-bit output of PCG64 seeded through numpy's SeedSequence.
    FIRST_RAW = {0: 0xA30FEBCFD9C2825F, 1: 0x8306BDF37922E4FF,
                 2024: 0xAD0348563DD4CAE8, 2**64 - 1: 0xAE163A7A8C47568F}

    @pytest.mark.parametrize("seed", sorted(FIRST_RAW))
    def test_seeded_pcg64_stream(self, seed):
        assert int(np.random.PCG64(seed).random_raw()) == self.FIRST_RAW[seed]

    @pytest.mark.parametrize("seed", sorted(FIRST_RAW))
    def test_generator_random_is_the_top_53_bits(self, seed):
        raw = np.random.PCG64(seed).random_raw(4096)
        doubles = np.random.Generator(np.random.PCG64(seed)).random(4096)
        expected = (raw >> np.uint64(11)).astype(float) * 2.0**-53
        np.testing.assert_array_equal(doubles.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("value, json_text, csv_text", [
        (5e-324, "5e-324", "4.9406564584124654e-324"),
        (0.1, "0.1", "0.10000000000000001"),
        (float(2**53 + 1), "9007199254740992.0", "9007199254740992"),
    ], ids=["subnormal", "0.1", "2^53+1"])
    def test_float_text(self, value, json_text, csv_text):
        # json.dumps writes repr, the shortest text that reads back; a CSV
        # cell is %.17g, by the table template and by the one-cell path alike
        assert json.dumps(value) == json_text
        assert cli._fmt(value) == csv_text
        assert cli._csv_text(["x"], [np.array([value])]) == f"x\r\n{csv_text}\r\n"


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "zdlab", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "zdlab" in result.stdout

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "zdlab", "simulate", "tft"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2

    def test_cached_parser_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # one process reuses the parser; each run must write what a fresh one writes
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        verify = ["verify-tft", "--random", "50", "--seed", "4", "--out", "A.csv"]
        for argv in [
            ["simulate", "tft"],
            verify,
            ["simulate", "tft", "wsls", "--rounds", "2000", "--seed", "5", "--out", "B.json"],
            verify,
        ]:
            result = subprocess.run(
                [sys.executable, "-m", "zdlab", *argv],
                capture_output=True, cwd=fresh, env=_module_env(),
            )
            code, stdout, err = _run(argv, capsys)
            assert (code, stdout.encode(), err.encode()) == (
                result.returncode, result.stdout, result.stderr
            )
            assert {p.name: p.read_bytes() for p in here.iterdir()} == {
                p.name: p.read_bytes() for p in fresh.iterdir()
            }

    def test_malformed_payoffs(self, capsys):
        code, _, err = _run(["decompose", "tft", "--payoffs", "3,0,5"], capsys)
        assert code == 2 and "payoffs" in err

    @pytest.mark.parametrize("argv", [
        ["verify-tft", "--opponent", "tft", "--tol", "nan"],
        ["verify-tft", "--opponent", "tft", "--h-grid", "0.5,inf"],
        ["verify-tft", "--opponent", "tft", "--payoffs", "3,0,nan,1"],
        ["simulate", "tft", "all_d", "--epsilon", "nan"],
        ["sweep", "--wsls-coeffs", "--payoff-grid", "T=5,nan"],
        ["sweep", "--h-range", "nan"],
        ["decompose", "tft", "--basis", "exp:-inf"],
    ])
    def test_non_finite_number_is_usage_error(self, argv, capsys):
        code, _, err = _run(argv, capsys)
        assert code == 2 and "expected a finite number" in err

    @pytest.mark.parametrize("argv, message", [
        (["decompose", '{"p_cc": null, "p_cd": 0, "p_dc": 0, "p_dd": 0}'], "must be numbers"),
        (["decompose", '{"p_cc": [1], "p_cd": 0, "p_dc": 0, "p_dd": 0}'], "must be numbers"),
        (["verify-tft", "--opponent", "tft", "--tol", "-1"], "--tol must be positive"),
        (["verify-tft", "--opponent", "tft", "--tol", "0"], "--tol must be positive"),
        (["verify-tft", "--opponent", "tft", "--h-grid", ","], "--h-grid is empty"),
        (["sweep", "--wsls-coeffs", "--payoff-grid", "X=1"], "unknown payoff symbol"),
        (["sweep", "--wsls-coeffs", "--payoff-grid", "T="], "--payoff-grid T is empty"),
        (["sweep", "--wsls-coeffs"], "requires --payoff-grid"),
        (["simulate", "tft", "all_d", "--burn-in", "-1"], "burn_in must be nonnegative"),
        (["decompose", "tft", "--basis", "monomial:-1"], "max_total_degree"),
        # one deviation used to overwrite the other under the shared label
        (["verify-tft", "--opponent", "wsls", "--h-grid", "1.0000001,1.0000002", "--format",
          "json"], "--h-grid values 1.0000001 and 1.0000002 share a label"),
        # a repeated value used to repeat a column and merge its JSON key
        (["verify-tft", "--opponent", "wsls", "--h-grid", "1,1"],
         "--h-grid values 1.0 and 1.0 share a label"),
        # the second T axis used to override the first, dropping T = 4.5 and 5.5
        (["sweep", "--wsls-coeffs", "--payoff-grid", "T=4.5,5.5;T=6"],
         "payoff symbol T is named twice"),
        # the identity sweeps used to ignore the grid and print T = 5's values
        (["sweep", "--tft-k-range", "1:2", "--payoff-grid", "T=9"],
         "--payoff-grid goes with --wsls-coeffs only"),
        (["sweep", "--h-range", "0.5", "--payoff-grid", "T=9"],
         "--payoff-grid goes with --wsls-coeffs only"),
        # each of these four used to decompose as TFT
        (["decompose", '{"p_cc": true, "p_cd": false, "p_dc": true, "p_dd": false}'],
         "strategy values must be numbers: p_cc is True"),
        (["decompose", '{"p_cc": "1", "p_cd": "0", "p_dc": "1", "p_dd": "0"}'],
         "strategy values must be numbers: p_cc is '1'"),
        (["decompose", '{"p_cc": 1, "p_cd": 0, "p_dc": 1, "p_dd": 0, "p_typo": 5}'],
         "unknown strategy key 'p_typo'"),
        # the last p_cc used to win, giving [0.0, 0.0, 1.0, 0.0]
        (["decompose", '{"p_cc": 1, "p_cd": 0, "p_dc": 1, "p_dd": 0, "p_cc": 0}'],
         "strategy key 'p_cc' is named twice"),
        # a 400-digit integer used to end in "int too large to convert to float"
        (["decompose", '{"p_cc": 1' + "0" * 400 + ', "p_cd": 0, "p_dc": 1, "p_dd": 0}'],
         "cooperation probability inf outside [0, 1]"),
        # these two used to print int()'s "invalid literal for int() with base 10"
        (["decompose", "tft", "--basis", "monomial:x"],
         "--basis monomial:D needs an integer D, got 'monomial:x'"),
        (["sweep", "--tft-k-range", "a:3"],
         "--tft-k-range A:B needs integers A and B, got 'a:3'"),
        # these seven used to print float()'s "could not convert string to float"
        (["decompose", "tft", "--payoffs", "3,0,x,1"], "--payoffs expects a number, got 'x'"),
        (["decompose", "tft", "--basis", "exp:x"], "--basis exp:h expects a number, got 'x'"),
        (["verify-tft", "--opponent", "tft", "--h-grid", "a"],
         "--h-grid expects a number, got 'a'"),
        (["sweep", "--h-range", "a"], "--h-range expects a number, got 'a'"),
        (["sweep", "--wsls-coeffs", "--payoff-grid", "T=x"],
         "--payoff-grid T expects a number, got 'x'"),
        (["decompose", "random:x"], "strategy 'random:x' expects a number, got 'x'"),
        (["decompose", "1,0,1,x"], "strategy 'custom:1,0,1,x' expects a number, got 'x'"),
        # argparse named these two as "argument --tol: invalid float value: 'x'"
        (["verify-tft", "--opponent", "tft", "--tol", "x"], "--tol expects a number, got 'x'"),
        (["simulate", "tft", "all_d", "--epsilon", "x"], "--epsilon expects a number, got 'x'"),
        # argparse holds sweep's mode rule, as it holds verify-tft's --opponent/--random rule
        (["sweep"], "one of the arguments --wsls-coeffs --tft-k-range --h-range is required"),
        (["sweep", "--h-range", "1", "--tft-k-range", "1:2"],
         "argument --tft-k-range: not allowed with argument --h-range"),
        # these two used to read "empty --h-range" and "empty value list for T in --payoff-grid"
        (["sweep", "--h-range=,"], "error: --h-range is empty"),
        (["sweep", "--wsls-coeffs", "--payoff-grid", "T=;R=3"], "error: --payoff-grid T is empty"),
        # verify-tft used to run with seed 2**64 and print numpy's message for -1
        (["verify-tft", "--random", "2", "--seed", "18446744073709551616"],
         "error: seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        (["verify-tft", "--random", "2", "--seed", "-1"],
         "error: seed must be a 64-bit unsigned integer, got -1"),
        (["simulate", "tft", "wsls", "--seed", "-1"],
         "error: seed must be a 64-bit unsigned integer, got -1"),
        # these two used to print the single row k = 3, as if B were A
        (["sweep", "--tft-k-range", "3:"],
         "--tft-k-range A:B needs integers A and B, got '3:'"),
        (["sweep", "--tft-k-range", "3"],
         "--tft-k-range A:B needs integers A and B, got '3'"),
        # -0 used to write its own column dev_h_-0 beside dev_h_0
        (["verify-tft", "--opponent", "tft", "--h-grid=-0,0"],
         "--h-grid values 0.0 and 0.0 share a label"),
    ])
    def test_invalid_input_is_usage_error(self, argv, message, capsys):
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "") and message in err
