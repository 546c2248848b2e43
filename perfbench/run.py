"""zdlab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``verify-random``, ``simulate-long`` and
``paper-pipeline``.  The package is imported from ``src/`` of the
repository that holds this script; nothing under ``src/`` is modified.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:
``setup_s`` (median start-up of a fresh ``python -m zdlab --version``),
``items_per_s``, ``op_p50_s``, ``op_p90_s``, ``pass_ratio`` (share of ops
meeting every numerical tolerance, ``1 - failed_ratio``) and
``peak_rss_mb``.  Times are in reference seconds: each wall time is scaled
by a calibration chunk timed beside it (``calibrate.py``), so that a shared
host's swings in speed do not show as changes of the program.  ``--trace 1`` first runs half the time untraced, then
wraps zdlab's public functions (``tracer.py``) and runs the same ops again,
reporting per-op self time, calls and counters per layer plus the tracing
overhead.  Spans are written to ``.perfbench_out/`` at the repository root.

Before timing, each run checks ``simulate`` against a plain sequential loop
and runs op 0 once; op 0's output bytes must match on every rerun.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run that cannot find the
package exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# One BLAS thread, here and in the fresh interpreters that time set-up: on a
# host with few cores the BLAS pool's start-up races the import and makes
# set-up time swing.  Every matrix the workloads hand to BLAS is a few
# rows by a few columns, too small for BLAS to split across threads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy  # noqa: E402

from calibrate import REF_CHUNK_S, chunk_seconds  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, kernel_oracle_error  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Fresh-interpreter starts timed before and again after the timed loop, so
# the median of set-up time spans the whole run, not one moment of it.
SETUP_REPEATS = 5
# Seconds of ops between two calibrations, and the share of that time the
# calibration runs chunks for (at least one chunk).
CALIBRATE_EVERY_S = 0.25
CALIBRATE_SHARE = 0.1
# Op 0 is repeated for at least this long before timing, so lazy set-up and
# the processor's ramp-up after idle fall outside the measurement.
WARMUP_S = 1.0


def setup_times(n: int) -> list[float]:
    """Times of ``n`` fresh interpreters running ``python -m zdlab --version``.

    Each start's wall time is scaled by the calibration chunks run just
    before and just after it (see ``calibrate.py``).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "zdlab", "--version"]
    times = []
    before = chunk_seconds()
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith(b"zdlab "):
            raise RuntimeError(f"`python -m zdlab --version` failed: {proc.stderr!r}")
        after = chunk_seconds()
        times.append(wall * 2 * REF_CHUNK_S / (before + after))
        before = after
    return times


class Phase:
    """The ops of one timed loop.

    ``durations`` are in reference seconds, ``wall`` in wall seconds.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.wall: list[float] = []
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []  # the first few messages
        self.passed = 0
        self.counters: dict[str, float] = {}

    @property
    def ops(self) -> int:
        return len(self.durations)

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.durations)


def run_op(workload, i: int) -> OpResult:
    try:
        return workload.op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return OpResult(0, error=f"op {i} raised {type(exc).__name__}: {exc}")


def warm_up(workload, problems: list[str]) -> bytes:
    """Run op 0 for at least ``WARMUP_S``; return its output bytes."""
    first = run_op(workload, 0)
    if first.error is not None:
        problems.append(first.error)
        return first.output
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        if run_op(workload, 0).output != first.output:
            problems.append("op 0 output bytes differ between warm-up runs")
            break
    return first.output


def timed_loop(workload, seconds: float, reference: bytes, tracer: Tracer | None) -> Phase:
    """Run ops for ``seconds``, calibrating after ``CALIBRATE_EVERY_S`` of ops.

    Each calibration runs chunks for ``CALIBRATE_SHARE`` of the op time
    before it; the ops between two calibrations are scaled by their mean.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    pending: list[float] = []
    before = chunk_seconds(CALIBRATE_SHARE * CALIBRATE_EVERY_S)

    def flush() -> None:
        nonlocal before
        after = chunk_seconds(CALIBRATE_SHARE * sum(pending))
        scale = 2 * REF_CHUNK_S / (before + after)
        phase.wall += pending
        phase.durations += [d * scale for d in pending]
        pending.clear()
        before = after

    next_chunk = time.perf_counter() + CALIBRATE_EVERY_S
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        result = run_op(workload, i)
        t1 = time.perf_counter()
        pending.append(t1 - t0)
        if t1 >= next_chunk:
            flush()
            next_chunk = time.perf_counter() + CALIBRATE_EVERY_S
        phase.items += result.items
        if result.error is None and i == 0 and result.output != reference:
            result.error = "op 0 output bytes differ between runs"
        phase.passed += result.passed and result.error is None
        if result.error is not None:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(result.error)
        for key, value in result.counters.items():
            phase.counters[key] = phase.counters.get(key, 0) + value
        i += 1
    if pending:
        flush()
    return phase


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(z, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "zdlab": z.__version__,
        "commit": commit(),
    }


def end_to_end(phase: Phase, setup_s: float) -> dict:
    d = phase.durations
    p90 = statistics.quantiles(d, n=10, method="inclusive")[-1] if len(d) > 1 else d[0]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (phase.items_per_s, "1/s"),
        "op_p50_s": (statistics.median(d), "s"),
        "op_p90_s": (p90, "s"),
        "pass_ratio": (phase.passed / phase.ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PER_LAYER_UNITS = {
    "calls": "calls/op", "self_s": "s/op", "self_share": "ratio", "steps": "steps/op",
    "unconverged": "ratio", "max_residual": "1", "nonergodic_ratio": "ratio",
    "inexact": "ratio", "rounds": "rounds/op", "ns_per_round": "ns",
    "alloc_peak_mb": "MB", "gate_flagged_ratio": "ratio", "output_bytes": "B/op",
    "sloc": "lines", "overhead": "ratio", "op_s": "s", "outside_share": "ratio",
    "spans_per_op": "spans/op",
}


def line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase) -> dict:
    op_s = sum(traced.wall) / traced.ops
    values = tracer.layer_metrics(traced.ops, op_s)
    values["markov.nonergodic_ratio"] = traced.counters.get("markov.nonergodic", 0) / traced.ops
    values["cli.output_bytes"] = traced.counters.get("cli.output_bytes", 0) / traced.ops
    for layer in LAYERS:
        values[f"{layer}.sloc"] = line_count(SRC / "zdlab" / f"{layer}.py")
    values["src.sloc"] = sum(line_count(path) for path in (SRC / "zdlab").glob("*.py"))
    values["trace.op_s"] = op_s
    values["trace.outside_share"] = 1.0 - sum(values[f"{layer}.self_share"] for layer in LAYERS)
    values["trace.overhead"] = untraced.items_per_s / traced.items_per_s - 1.0
    return {
        name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
        for name, value in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "zdlab" / "__init__.py").is_file():
        print(f"error: no zdlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zdlab as z
    import zdlab.cli  # noqa: F401  (the package does not import its CLI)

    if Path(z.__file__).resolve().parent != SRC / "zdlab":
        print(f"error: imported zdlab from {z.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = metadata(z, args)
    # the first start warms the file cache
    setup = [] if args.trace else setup_times(SETUP_REPEATS + 1)[1:]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](z, args.seed, tmp)
        problems = [p for p in (kernel_oracle_error(z, args.seed),) if p is not None]
        reference = warm_up(workload, problems)
        if args.trace:
            untraced = timed_loop(workload, args.seconds / 2, reference, None)
            tracer = Tracer()
            tracer.install(z)
            traced = timed_loop(workload, args.seconds / 2, reference, tracer)
            metrics = per_layer(tracer, untraced, traced)
            # one more op 0 under tracemalloc, outside the per-op figures above
            tracer.op = -1
            tracemalloc.start()
            rerun = run_op(workload, 0)
            tracemalloc.stop()
            if rerun.output != reference:
                problems.append("op 0 output bytes differ under tracemalloc")
            metrics["montecarlo.simulate.alloc_peak_mb"] = (tracer.alloc_peak / 2**20, "MB")
            tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
            phases = [untraced, traced]
        else:
            phase = timed_loop(workload, args.seconds, reference, None)
            setup += setup_times(SETUP_REPEATS)
            metrics = end_to_end(phase, statistics.median(setup))
            phases = [phase]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    failed_ratio = 1.0 - sum(p.passed for p in phases) / attempted
    correct = not failed and not problems

    print(json.dumps({"metadata": meta}))
    print(f"{args.workload}: {attempted} ops, {sum(p.items for p in phases)} items, "
          f"op latencies over {phases[-1].ops} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    wall = phases[-1].wall
    print(f"  {'wall op_p50_s':40s} {statistics.median(wall):.6g} s "
          f"(unscaled; machine ran the calibration chunk at "
          f"{sum(wall) / sum(phases[-1].durations):.3g}x the reference time)")
    print(f"  {'failed_ratio':40s} {failed_ratio:.6g} ratio "
          "(ops that raised, broke an invariant or missed a tolerance)")
    print(f"  failed ops: {failed}; kernel oracle and op-0 rerun: "
          f"{'; '.join(problems) if problems else 'identical'}")
    for error in errors:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
