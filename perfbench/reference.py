"""A fixed reference computation that gauges the host's current speed.

On a shared host the same program's time drifts by a quarter or more over
minutes, as other tenants load the cores; user and system CPU time drift
with it, so they cannot tell the program's cost from the host's.  The
benchmark therefore times this computation in the child, around the
program's commands, and reports their time in units of it.  It is CPython
bytecode over dicts and ints and numpy scalar arithmetic on a complex
matrix, the two parts whose speed tracked all three workloads' best over
minutes of drift; small numpy array operations and JSON formatting tracked
worse.  It uses no ergolab code, so no change to the program moves it;
changing it makes figures incomparable.  It allocates almost nothing and
loads no module, so it leaves the child's peak resident set as the program
makes it.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = np.exp(1j * np.outer(np.arange(64.0), np.arange(1.0, 65.0)))

# Passes per call: about 0.1 s on a 2-core x86-64 VM.
PASSES = 20


def _pass() -> int:
    m = _MATRIX
    acc = 0j
    for a in range(64):
        for b in range(64):
            acc += m[a, b] * m[b, a]
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 251] = counts.get(i % 251, 0) + i
    return len(counts) + int(acc.real != 0)


def seconds() -> float:
    """Wall time of one reference run."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _pass()
    return time.perf_counter() - start
