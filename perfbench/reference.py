"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-40% over minutes as other tenants come and go; that drift moves every job
of a workload alike.  ``run.py`` times this loop between jobs and divides each
job's and each set-up probe's time by the loop's time around it, so that
``wall_ref_s`` and ``setup_s`` show the program's cost at one fixed host
speed, ``REF_NOMINAL_S`` seconds per loop.

The loop mixes what the workloads spend their time on: interpreter-bound
integer arithmetic, products of object arrays of Python ints (the large-prime
and rational paths) and small int64 products reduced mod p.  It takes about
10 ms, runs with the garbage collector off so that objects the jobs left alive
do not change its cost, and depends on nothing in superlie.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# seconds the loop takes at the reference host speed: its median over several
# minutes on the 2-vCPU x86-64 VM the benchmark was tuned on (Python 3.11,
# numpy 2.4); wall_ref_s and setup_s are in seconds at that speed
REF_NOMINAL_S = 0.010

_P = 2**31 - 1
_OBJ = np.arange(1, 401, dtype=object).reshape(20, 20)
_INT = np.arange(1, 401, dtype=np.int64).reshape(20, 20)


def _loop() -> int:
    s = 0
    for i in range(56000):
        s = (s * 31 + i) % 1000003
    c = _OBJ
    for _ in range(8):
        c = c.dot(_OBJ) % _P
    d = _INT
    for _ in range(140):
        d = (d @ _INT) % 7
    return s + int(c[0, 0]) + int(d[0, 0])


def reference_seconds() -> float:
    """Seconds one run of the reference loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
