"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was built on runs the same Python code at one of a
few speeds (about 1.0, 0.8, 0.7 and 0.6 of the fastest), switching every
few tens of seconds to minutes with load elsewhere on the host.  A 25 s
run often lies wholly in one of them, so raw timings of one code version
spread by a third between runs.  The benchmark therefore scales every
timing it reports by NOMINAL_S / (time of `kernel()` measured right around
it), giving seconds at the speed where `kernel()` takes NOMINAL_S.  The
kernel is a fixed pure-Python sparse subset DP of the benchmark's own, the
same kind of work as the solvers, and never touches `expdeg`, so a change
to the program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

# kernel() time at the fastest speed of the 2-vCPU Xeon VM used to build
# the benchmark (Python 3.11).
NOMINAL_S = 0.0120
_N = 22
# Generalised Petersen graph GP(11, 3): cubic on 22 vertices, fixed weights.
_EDGES = [(i, (i + 1) % 11) for i in range(11)] + [(i, 11 + i) for i in range(11)] + [
    (11 + i, 11 + (i + 3) % 11) for i in range(11)]
_ADJ = [[] for _ in range(_N)]
for _u, _v in _EDGES:
    _w = 1 + (7 * _u + 3 * _v) % 13
    _ADJ[_u].append((_v, _w))
    _ADJ[_v].append((_u, _w))


def kernel() -> int:
    """Cheapest Hamiltonian paths from vertex 0 by a layered sparse DP."""
    layer = {(1, 0): 0}
    for _ in range(_N - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (mask, u), cost in layer.items():
            for v, w in _ADJ[u]:
                if not (mask >> v) & 1:
                    key = (mask | 1 << v, v)
                    c = cost + w
                    if c < nxt.get(key, 1 << 30):
                        nxt[key] = c
        layer = nxt
    return len(layer)


def measure(repeats: int = 3) -> float:
    """Fastest of `repeats` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
