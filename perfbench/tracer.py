"""Span tracing of zdlab's public functions, installed from outside the package.

Every function in a module's ``__all__``, the ``BasisSpec`` constructors and
``MemoryOneStrategy.with_noise`` are replaced by a wrapper that records a
span (name, start, end, parent span, op id).  The wrapper is rebound in the
defining module, in every zdlab module that imported the name with
``from .x import y``, and in the ``zdlab`` namespace, so internal calls go
through it too.  Spans live in compact arrays and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("game", "markov", "pressdyson", "moments", "montecarlo", "cli")


def _cesaro(counts, result):
    counts["markov.cesaro_limit.steps"] += result.iterations
    counts["markov.cesaro_limit.unconverged"] += not result.converged
    counts["markov.cesaro_limit.max_residual"] = max(
        counts["markov.cesaro_limit.max_residual"], result.residual
    )


def _decompose(counts, result):
    counts["pressdyson.decompose.inexact"] += not result.exact


def _simulate(counts, result):
    counts["montecarlo.rounds"] += result.rounds


def _gate(counts, result):
    counts["montecarlo.gate_flagged"] += bool(result.flagged)


# Counters read from return values, keyed by span name.
_CALL_HOOKS = {
    "markov.cesaro_limit": _cesaro,
    "pressdyson.decompose": _decompose,
    "montecarlo.simulate": _simulate,
    "montecarlo.empirical_vs_exact": _gate,
}


class Tracer:
    """In-memory span store plus per-name self time, calls and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peak = 0

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = _CALL_HOOKS.get(name)
        measure_alloc = name == "montecarlo.simulate"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            alloc = measure_alloc and tracemalloc.is_tracing()
            if alloc:
                tracemalloc.reset_peak()
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.end[idx] = t1
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if alloc:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap zdlab's public functions and rebind them wherever they are named."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for public in module.__all__:
                original = getattr(module, public)
                if not inspect.isfunction(original):
                    continue
                wrapped = self.wrap(f"{layer}.{public}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
        basis = package.pressdyson.BasisSpec
        for ctor in ("zd", "monomial", "exponential", "wsls4", "custom"):
            fn = basis.__dict__[ctor].__func__
            setattr(basis, ctor, classmethod(self.wrap(f"pressdyson.BasisSpec.{ctor}", fn)))
        strategy = package.game.MemoryOneStrategy
        strategy.with_noise = self.wrap(
            "game.MemoryOneStrategy.with_noise", strategy.__dict__["with_noise"]
        )

    def layer_metrics(self, n_ops: int, op_s: float) -> dict[str, float]:
        """Per-op layer figures; ``op_s`` is the mean traced op time."""
        per_op = 1.0 / max(n_ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.names if n.split(".", 1)[0] == layer]
            self_s = sum(self.self_s[n] for n in names) * per_op
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names) * per_op
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.self_share"] = self_s / op_s if op_s > 0 else 0.0

        def fn_self(name):
            return self.self_s[name] * per_op

        def ratio(count, name):
            return self.counts[count] / self.calls[name] if self.calls[name] else 0.0

        out["game.transition_matrix.self_s"] = fn_self("game.transition_matrix")
        out["markov.classify.self_s"] = fn_self("markov.classify")
        out["markov.cesaro_limit.self_s"] = fn_self("markov.cesaro_limit")
        out["markov.cesaro_limit.steps"] = self.counts["markov.cesaro_limit.steps"] * per_op
        out["markov.cesaro_limit.unconverged"] = ratio(
            "markov.cesaro_limit.unconverged", "markov.cesaro_limit")
        out["markov.cesaro_limit.max_residual"] = self.counts["markov.cesaro_limit.max_residual"]
        out["moments.mgf.self_s"] = fn_self("moments.mgf")
        out["moments.moment.self_s"] = fn_self("moments.moment")
        out["pressdyson.basis.self_s"] = sum(
            fn_self(n) for n in self.names if n.startswith("pressdyson.BasisSpec."))
        out["pressdyson.decompose.self_s"] = fn_self("pressdyson.decompose")
        out["pressdyson.decompose.inexact"] = ratio(
            "pressdyson.decompose.inexact", "pressdyson.decompose")
        simulate_s = self.self_s["montecarlo.simulate"]
        rounds = self.counts["montecarlo.rounds"]
        out["montecarlo.simulate.self_s"] = simulate_s * per_op
        out["montecarlo.rounds"] = rounds * per_op
        out["montecarlo.ns_per_round"] = simulate_s / rounds * 1e9 if rounds else 0.0
        out["montecarlo.empirical_vs_exact.self_s"] = fn_self("montecarlo.empirical_vs_exact")
        out["montecarlo.gate_flagged_ratio"] = ratio(
            "montecarlo.gate_flagged", "montecarlo.empirical_vs_exact")
        out["trace.spans_per_op"] = len(self.start) * per_op
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
