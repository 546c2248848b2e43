"""Command-line entry points: verify-tft, decompose, simulate, sweep.

Every command echoes a run manifest sufficient to reproduce it exactly.
JSON outputs embed the manifest; CSV outputs are accompanied by it (a
`.manifest.json` sidecar next to --out, or stderr when writing to stdout).
Seeded invocations are fully deterministic: repeating one produces
byte-identical files.  Exit codes: 0 success / all checks passed,
1 verification failure, 2 usage error.

CSV cells, as Python's csv module writes them: `%.17g` floats, `true`/`false`,
an empty cell for none, quotes (doubled inside) only around `,`, `"`, CR or LF,
CRLF line ends.  `simulate --out` must not end in `.csv`: that is its state table.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .game import (
    JointState,
    PayoffMatrix,
    named_strategy,
    parse_strategy,
    payoff_features,
    payoff_vector,
    read_number,
    transition_matrices,
)
from .markov import cesaro_limits
from .moments import (
    distribution_stacks_equal,
    feature_averages,
    moment_orders,
    payoff_distributions,
)
from .montecarlo import PRNG_ID, SimulationConfig, check_seed, simulate
from .pressdyson import (
    BasisSpec,
    decompose,
    format_label,
    press_dyson,
    tft_exponential_identity,
    tft_power_identity,
    wsls_coefficients,
)

__all__ = ["main"]

DEFAULT_H_GRID = "-2,-1,-0.5,-0.1,0.1,0.5,1,2"


def _fmt(value) -> str:
    """One CSV cell; floats carry 17 significant digits for round-tripping."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _integer(text: str, usage: str) -> int:
    """One integer from the command line; anything else is the usage error ``usage``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(usage) from None


def _parse_payoffs(text: str) -> PayoffMatrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--payoffs expects R,S,T,P, got {text!r}")
    r, s, t, p = (read_number(x, "--payoffs") for x in parts)
    return PayoffMatrix(R=r, S=s, T=t, P=p)


def _parse_initial(text: str):
    return None if text == "uniform" else JointState[text.upper()]


def _parse_floats(text: str, option: str) -> list[float]:
    values = [read_number(x, option) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise ValueError(f"{option} is empty")
    return values


def _parse_basis(text: str, m: PayoffMatrix) -> BasisSpec:
    key = text.strip().lower()
    if key == "zd":
        return BasisSpec.zd(m)
    if key == "wsls4":
        return BasisSpec.wsls4(m)
    if key.startswith("monomial:"):
        usage = f"--basis monomial:D needs an integer D, got {text!r}"
        return BasisSpec.monomial(m, _integer(key.split(":", 1)[1], usage))
    if key.startswith("exp:"):
        return BasisSpec.exponential(m, read_number(key.split(":", 1)[1], "--basis exp:h"))
    raise ValueError(
        f"--basis must be zd, monomial:D, exp:h or wsls4; got {text!r}"
    )


def _payoff_dict(m: PayoffMatrix) -> dict:
    return {"R": m.R, "S": m.S, "T": m.T, "P": m.P}


def _manifest(command: str, m: PayoffMatrix, parameters: dict, prng: str | None) -> dict:
    return {
        "tool": "zdlab",
        "version": __version__,
        "command": command,
        "payoffs": _payoff_dict(m),
        "parameters": parameters,
        "prng": prng,
    }


def _write_text(text: str, out: str | Path | None) -> None:
    """Write ``text`` to stdout, or over the file ``out`` in place.

    Every file the CLI writes goes through here, opened without ``O_TRUNC``
    and cut to length after the write if it is a regular file: truncating a
    non-empty file to zero makes ext4 (``auto_da_alloc``) start writeback on
    close, and the next truncating open of it waits for that writeback.
    """
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="",
                  opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _emit_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", out)


def _quote(text: str, empty: str) -> str:
    """A cell quoted only where csv's default dialect quotes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or empty


def _csv_text(header: list[str], columns: list) -> str:
    """A CSV table from columns (sequences, 1-d float or bool arrays) by one `%`."""
    empty = '""' if len(header) == 1 else ""  # a bare lone blank cell reads back as no row
    specs, cells = [], []
    for values in columns:
        kind = values.dtype.kind if isinstance(values, np.ndarray) else None
        if kind == "b":
            spec, values = "%s", np.where(values, "true", "false").tolist()
        elif kind == "f":
            spec, values = "%.17g", values.tolist()
        else:
            spec, values = "%s", [_quote(_fmt(v), empty) for v in values]
        specs.append(spec)
        cells.append(values)
    template = (",".join(specs) + "\r\n") * (len(cells[0]) if cells else 0)
    head = ",".join(_quote(name, empty) for name in header) + "\r\n"
    return head + template % tuple(itertools.chain.from_iterable(zip(*cells)))


def _emit_csv(header: list[str], columns: list, out: str | None, manifest: dict) -> None:
    _write_text(_csv_text(header, columns), out)
    manifest_text = json.dumps(manifest, indent=2) + "\n"
    if out is None:
        sys.stderr.write(manifest_text)
    else:
        _write_text(manifest_text, Path(out).with_suffix(".manifest.json"))


def _moment_features(m: PayoffMatrix, k_max: int, h_grid=()) -> tuple[list, np.ndarray]:
    """The moment orders, and feature rows of player 1's moments, player 2's, then MGFs."""
    orders = moment_orders(k_max)
    return orders, payoff_features(m, [(k, 0) for k in orders] + [(0, k) for k in orders]
                                   + [("exp", p, h) for p in (1, 2) for h in h_grid])


def cmd_verify_tft(args: argparse.Namespace) -> int:
    m = _parse_payoffs(args.payoffs)
    tol = read_number(args.tol, "--tol")
    if tol <= 0:
        raise ValueError(f"--tol must be positive, got {tol!r}")
    check_seed(args.seed)
    initial = _parse_initial(args.initial)
    h_grid = _parse_floats(args.h_grid, "--h-grid")
    h_labels = [format(h, "g") for h in h_grid]  # one output column or key each
    for i, label in enumerate(h_labels):
        if label in h_labels[:i]:
            first = h_grid[h_labels.index(label)]
            raise ValueError(f"--h-grid values {first!r} and {h_grid[i]!r} share a label")

    if args.opponent is not None:
        opponents = np.array([parse_strategy(args.opponent).p])
        prng = None
    else:
        if args.random < 1:
            raise ValueError(f"--random needs at least one opponent, got {args.random}")
        rng = np.random.Generator(np.random.PCG64(args.seed))
        opponents = rng.random((args.random, 4))
        prng = PRNG_ID

    orders, features = _moment_features(m, args.k_max, h_grid)
    Ms = transition_matrices(named_strategy("tft").array, opponents)
    limits = cesaro_limits(Ms, initial)
    pis = limits.distributions
    averages = feature_averages(features, pis)
    splits = np.cumsum([len(orders), len(orders), len(h_grid)])
    moments1, moments2, mgf1, mgf2 = np.split(averages, splits, axis=1)
    dev_k = np.abs(moments1 - moments2)
    dev_h = np.abs(mgf1 - mgf2)
    gaps = pis[:, JointState.CD] - pis[:, JointState.DC]
    dist_equal = distribution_stacks_equal(
        payoff_distributions(payoff_vector(m, 1), pis),
        payoff_distributions(payoff_vector(m, 2), pis),
        tol,
    )
    passed = (
        limits.converged
        & dist_equal
        & (dev_k <= tol).all(axis=1)
        & (dev_h <= tol).all(axis=1)
    )
    passed_count = int(passed.sum())
    all_passed = passed_count == len(opponents)

    parameters = {
        "opponent": args.opponent,
        "random": args.random,
        "seed": args.seed,
        "k_max": args.k_max,
        "h_grid": h_grid,
        "tol": tol,
        "initial": args.initial,
    }
    manifest = _manifest("verify-tft", m, parameters, prng)
    if args.format == "json":
        labels = ([args.opponent] if args.opponent is not None
                  else [f"random[{i}]" for i in range(len(opponents))])
        columns = zip(
            labels, opponents.tolist(), pis.tolist(), limits.converged.tolist(),
            limits.unique.tolist(), limits.structures, dev_k.tolist(), dev_h.tolist(),
            gaps.tolist(), dist_equal.tolist(), passed.tolist(),
        )
        json_rows = []
        for label, p, pi, converged, unique, structure, dk, dh, gap, equal, ok in columns:
            json_row = {
                "opponent": label,
                "opponent_p": p,
                "pi": pi,
                "converged": converged,
                "unique": unique,
                "moment_deviations": {str(k): d for k, d in zip(orders, dk)},
                "mgf_deviations": dict(zip(h_labels, dh)),
                "pi_cd_minus_pi_dc": gap,
                "distributions_equal": equal,
                "passed": ok,
            }
            if not unique:
                # several invariant measures exist; show which states commune
                json_row["chain_classes"] = [
                    {"states": [JointState(s).name.lower() for s in members],
                     "recurrent": recurrent, "period": period}
                    for members, recurrent, period in zip(
                        structure.classes, structure.recurrent, structure.periods
                    )
                ]
            json_rows.append(json_row)
        _emit_json({"manifest": manifest, "rows": json_rows, "all_passed": all_passed},
                   args.out)
    else:
        header = (
            ["opp_p_cc", "opp_p_cd", "opp_p_dc", "opp_p_dd",
             "pi_cc", "pi_cd", "pi_dc", "pi_dd", "converged", "unique"]
            + [f"dev_k{k}" for k in orders]
            + [f"dev_h_{label}" for label in h_labels]
            + ["pi_cd_minus_pi_dc", "dist_equal", "pass"]
        )
        _emit_csv(header, [*opponents.T, *pis.T, limits.converged, limits.unique, *dev_k.T,
                           *dev_h.T, gaps, dist_equal, passed], args.out, manifest)
    print(
        f"verify-tft: {passed_count}/{len(opponents)} opponents passed (tol {tol:g})",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _parse_payoffs(args.payoffs)
    strategy = parse_strategy(args.strategy)
    basis = _parse_basis(args.basis, m)
    pd = press_dyson(strategy, 1)
    result = decompose(pd, basis)
    labels = [format_label(label) for label in basis.labels]
    parameters = {"strategy": args.strategy, "basis": args.basis}
    manifest = _manifest("decompose", m, parameters, None)
    if args.format == "csv":
        header = ["label", "coefficient", "residual_norm", "rank", "exact"]
        n = len(labels)
        columns = [labels, list(result.coefficients.values()),
                   [result.residual_norm] * n, [result.rank] * n, [result.exact] * n]
        _emit_csv(header, columns, args.out, manifest)
    else:
        payload = {
            "manifest": manifest,
            "strategy_p": list(strategy.p),
            "press_dyson": pd.tolist(),
            "basis": {"kind": basis.kind, "labels": labels},
            "coefficients": dict(zip(labels, result.coefficients.values())),
            "residual": [float(x) for x in result.residual],
            "residual_norm": result.residual_norm,
            "rank": result.rank,
            "exact": result.exact,
        }
        _emit_json(payload, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.out is not None and Path(args.out).suffix.lower() == ".csv":
        raise ValueError(f"simulate --out {args.out}: .csv is the state table's suffix")
    m = _parse_payoffs(args.payoffs)
    s1 = parse_strategy(args.strategy1)
    s2 = parse_strategy(args.strategy2)
    cfg = SimulationConfig(
        rounds=args.rounds,
        seed=args.seed,
        initial=_parse_initial(args.initial),
        burn_in=args.burn_in,
        noise=read_number(args.epsilon, "--epsilon"),
    )
    orders, features = _moment_features(m, args.k_max)
    report = simulate(s1, s2, cfg)
    freq = report.frequencies
    moments = np.split(feature_averages(features, freq), 2)
    histograms = [np.column_stack(payoff_distributions(payoff_vector(m, p), freq)) for p in (1, 2)]
    parameters = {
        "strategy1": args.strategy1,
        "strategy2": args.strategy2,
        "rounds": args.rounds,
        "seed": args.seed,
        "epsilon": cfg.noise,
        "initial": args.initial,
        "burn_in": args.burn_in,
        "k_max": args.k_max,
    }
    manifest = _manifest("simulate", m, parameters, PRNG_ID)
    payload = {
        "manifest": manifest,
        "report": {
            "state_counts": list(report.state_counts),
            "frequencies": list(report.frequencies),
            "moments": {f"player{p}": dict(zip(map(str, orders), a.tolist()))
                        for p, a in zip((1, 2), moments)},
            "histograms": {f"player{p}": [[x, q] for x, q in a.tolist() if q != 0.0]
                           for p, a in zip((1, 2), histograms)},
            "rounds": report.rounds,
            "counted_rounds": report.counted_rounds,
            "seed": report.seed,
            "prng": report.prng,
        },
    }
    _emit_json(payload, args.out)
    if args.out is not None:
        header = ["state", "count", "frequency"]
        columns = [["cc", "cd", "dc", "dd"], report.state_counts, report.frequencies]
        _write_text(_csv_text(header, columns), Path(args.out).with_suffix(".csv"))
    return 0


def _parse_payoff_grid(text: str, base: PayoffMatrix) -> list[PayoffMatrix]:
    """Expand a grid spec like 'T=4.5,5.0,5.5;R=3' into permissive payoff matrices."""
    axes: list[tuple[str, list[float]]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, values = chunk.partition("=")
        name = name.strip().upper()
        if name not in ("R", "S", "T", "P"):
            raise ValueError(f"unknown payoff symbol {name!r} in --payoff-grid")
        if name in dict(axes):
            raise ValueError(f"payoff symbol {name} is named twice in --payoff-grid")
        axes.append((name, _parse_floats(values, f"--payoff-grid {name}")))
    if not axes:
        raise ValueError("empty --payoff-grid")
    points: list[PayoffMatrix] = []
    for combo in itertools.product(*(values for _, values in axes)):
        values = _payoff_dict(base) | {name: v for (name, _), v in zip(axes, combo)}
        points.append(PayoffMatrix(permissive=True, **values))
    return points


def cmd_sweep(args: argparse.Namespace) -> int:
    if (args.payoff_grid is None) == args.wsls_coeffs:
        raise ValueError("--wsls-coeffs requires --payoff-grid" if args.wsls_coeffs
                         else "--payoff-grid goes with --wsls-coeffs only; use --payoffs")
    base = _parse_payoffs(args.payoffs)

    if args.wsls_coeffs:
        points = _parse_payoff_grid(args.payoff_grid, base)
        header = ["R", "S", "T", "P", "alpha_s1", "alpha_s2", "alpha_s1s2",
                  "gamma", "residual_norm", "rank", "exact", "error"]
        rows: list[list] = []
        for point in points:
            try:
                result = wsls_coefficients(point)
            except (ValueError, OverflowError) as exc:
                rows.append([point.R, point.S, point.T, point.P] + [None] * 7 + [str(exc)])
                continue
            rows.append([point.R, point.S, point.T, point.P, *result.coefficients.values(),
                         result.residual_norm, result.rank, result.exact, None])
        parameters = {"mode": "wsls-coeffs", "payoff_grid": args.payoff_grid}
    else:
        if args.tft_k_range is not None:
            lo, _, hi = args.tft_k_range.partition(":")
            usage = f"--tft-k-range A:B needs integers A and B, got {args.tft_k_range!r}"
            k_lo, k_hi = _integer(lo, usage), _integer(hi, usage)
            if k_hi < k_lo or k_lo < 1:
                raise ValueError(f"empty or invalid k range {args.tft_k_range!r}")
            values, identity, column = range(k_lo, k_hi + 1), tft_power_identity, "k"
            parameters = {"mode": "tft-k-range", "k_range": args.tft_k_range}
        else:
            values = _parse_floats(args.h_range, "--h-range")
            identity, column = tft_exponential_identity, "h"
            parameters = {"mode": "h-range", "h_range": args.h_range}
        header = [column, "coefficient", "max_abs_error", "error"]
        rows = []
        for x in values:
            try:
                check = identity(base, x)
                rows.append([x, check.coefficient, check.max_abs_error, None])
            except (ValueError, OverflowError) as exc:
                rows.append([x, None, None, str(exc)])

    manifest = _manifest("sweep", base, parameters, None)
    if args.format == "json":
        json_rows = [
            {name: cell for name, cell in zip(header, row)} for row in rows
        ]
        _emit_json({"manifest": manifest, "rows": json_rows}, args.out)
    else:
        _emit_csv(header, list(zip(*rows)), args.out, manifest)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdlab",
        description="Memory-one strategy laboratory for the repeated prisoner's dilemma.",
    )
    parser.add_argument("--version", action="version", version=f"zdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str | None) -> None:
        p.add_argument("--payoffs", default="3,0,5,1", metavar="R,S,T,P",
                       help="payoff values (default 3,0,5,1)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default: stdout)")
        if default_format is not None:  # simulate writes JSON and its CSV state table
            p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("verify-tft",
                       help="check that TFT equalises the two players' payoff "
                            "moments, MGFs and payoff distributions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--opponent", default=None, metavar="SPEC",
                       help="a single opponent strategy")
    group.add_argument("--random", type=int, default=None, metavar="N",
                       help="number of random opponents")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--k-max", type=int, default=6, dest="k_max")
    p.add_argument("--h-grid", default=DEFAULT_H_GRID, dest="h_grid")
    p.add_argument("--tol", default="1e-8")
    p.add_argument("--initial", default="uniform",
                   choices=("cc", "cd", "dc", "dd", "uniform"))
    add_common(p, "csv")
    p.set_defaults(func=cmd_verify_tft)

    p = sub.add_parser("decompose",
                       help="decompose a strategy's Press-Dyson vector over a basis")
    p.add_argument("strategy", metavar="STRATEGY")
    p.add_argument("--basis", default="zd",
                   help="zd | monomial:D | exp:h | wsls4 (default zd)")
    add_common(p, "json")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="seeded round-by-round simulation")
    p.add_argument("strategy1", metavar="STRATEGY1")
    p.add_argument("strategy2", metavar="STRATEGY2")
    p.add_argument("--rounds", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="0",
                   help="trembling-hand noise mixed into both strategies")
    p.add_argument("--initial", default="uniform",
                   choices=("cc", "cd", "dc", "dd", "uniform"))
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in",
                   help="simulated rounds discarded from statistics (default 0)")
    p.add_argument("--k-max", type=int, default=6, dest="k_max")
    add_common(p, None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate identities over a grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wsls-coeffs", action="store_true", dest="wsls_coeffs",
                       help="WSLS basis coefficients over a payoff grid")
    group.add_argument("--tft-k-range", default=None, dest="tft_k_range",
                       metavar="A:B", help="power-identity check for k in A..B")
    group.add_argument("--h-range", default=None, dest="h_range", metavar="LIST",
                       help="exponential-identity check on listed h values")
    p.add_argument("--payoff-grid", default=None, dest="payoff_grid",
                   metavar="SPEC", help="e.g. 'T=4.5,5.0,5.5;R=3'")
    add_common(p, "csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
