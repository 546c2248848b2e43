"""A fixed chunk of reference work, timed beside the ops to gauge machine speed.

On a shared host the same code runs up to a third slower for stretches of
seconds to minutes, when neighbours load the cores and caches.  Timing this
chunk next to the ops measures that slowdown as it happens; ``run.py``
multiplies each op's wall time by ``REF_CHUNK_S / chunk time`` measured
beside it.  The result is in reference seconds: the wall time the op would
take on a machine that runs the chunk in ``REF_CHUNK_S`` seconds.

The chunk mixes what zdlab's hot paths do: interpreted float loops over
Python lists, small numpy linear algebra and matrix products, and
float-to-text formatting into a dict.  It uses
numpy only, never zdlab, so a change to the package cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Wall time of one chunk on a 2-vCPU Intel Xeon VM at its fastest (Python
# 3.11, numpy 2.4); it only sets the scale of the reported figures.
REF_CHUNK_S = 0.02

_RNG = np.random.default_rng(20121207)
_MATRICES = [_RNG.random((4, 4)) + 4.0 * np.eye(4) for _ in range(16)]
_ONES = np.ones(4)
_UNIFORMS = _RNG.random(40_000).tolist()  # small, to leave peak memory alone
_SCANS = 5
_SOLVES = 300


def _work() -> int:
    state = 0
    counts = [0, 0, 0, 0]
    u = _UNIFORMS
    for _ in range(_SCANS):
        for t in range(0, len(u), 2):
            state = 2 * (u[t] >= 0.3 + 0.1 * state) + (u[t + 1] >= 0.5)
            counts[state] += 1
    rows = {}
    for k in range(_SOLVES):
        m = _MATRICES[k % 16]
        x = np.linalg.solve(m, _ONES)
        y = m @ x
        total = 0.0
        for v in y.tolist():
            total += v * v
        rows[k] = ",".join(f"{v:.17g}" for v in x.tolist()) + f",{total:.17g}"
    return sum(counts) + len(rows)


def chunk_seconds(at_least: float = 0.0) -> float:
    """Mean wall time of one chunk, over chunks run for at least ``at_least`` s."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        _work()
        runs += 1
        spent = time.perf_counter() - t0
        if spent >= at_least:
            return spent / runs
