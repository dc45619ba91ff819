"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs it before and after every timed piece of work and scales
that work's wall time by ``REF_S`` over the reference's time around it.  On
a shared host whose speed swings by 1.5x or more over tens of seconds, the
scaled time moves far less than the wall time, because both slow down
together.  The task is the benchmark's own code, never the program's, so a
change to the program cannot move it.

It has three parts of about equal time, the kinds of work the workloads
do: a breadth-first search over a dict graph (``percolation2d``, registry
bookkeeping), small-integer dict arithmetic (interpreter overhead), and
Philox normals normalized row by row (``geometry`` sampling).
"""

from __future__ import annotations

import time

import numpy as np

# The reference's median wall time on the baseline host (2 vCPUs reported
# as "Intel(R) Xeon(R) Processor", Python 3.11, numpy 2.4).  Scaled times
# read as seconds on that host at its usual speed.
REF_S = 0.22

_N = 110
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_GRAPH = {
    (i, j): [((i + di) % _N, (j + dj) % _N) for di, dj in _STEPS]
    for i in range(_N)
    for j in range(_N)
}


def _bfs() -> int:
    seen = {(0, 0)}
    queue = [(0, 0)]
    for v in queue:
        for w in _GRAPH[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _dict_arith() -> int:
    d = {}
    for i in range(250_000):
        k = i % 1000
        d[k] = d.get(k, 0) + i * 3 // 7
    return len(d)


def _normals() -> float:
    g = np.random.Generator(np.random.Philox(7))
    total = 0.0
    for _ in range(3):
        x = g.standard_normal((20_000, 45))
        x /= np.sqrt((x * x).sum(axis=1))[:, None]
        total += float(x[:, 0].sum())
    return total


def reference_s() -> float:
    """Wall time of one reference task."""
    t0 = time.perf_counter()
    for _ in range(5):
        _bfs()
    _dict_arith()
    _normals()
    return time.perf_counter() - t0
