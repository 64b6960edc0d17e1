"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by up to 2x
within seconds (other tenants on the same cores), which swamps the
run-to-run spread of any wall-clock figure.  Before every job the worker
times this fixed kernel; run.py scales each job's latency by
NOMINAL_S / (median probe time around the job), which reports times as
if the machine ran at the speed where the probe takes NOMINAL_S.

The kernel mixes the two kinds of work paritylab does, GF(2) row
reduction on packed ints with tuples and dicts, and small numpy
array operations, so it slows down by about as much as the jobs do.  It
shares no code with paritylab, so a change to paritylab cannot move it;
the cyclic garbage collector is off while it runs, so the size of
paritylab's heap cannot either.  Changing this kernel or NOMINAL_S
changes every scaled figure: it is part of the benchmark's definition.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.002
_XS = np.arange(64)


def _rref(rows: list[int]) -> tuple[int, ...]:
    basis: list[int] = []
    for v in rows:
        for b in basis:
            if (v >> ((b & -b).bit_length() - 1)) & 1:
                v ^= b
        if v:
            p = (v & -v).bit_length() - 1
            basis = [b ^ v if (b >> p) & 1 else b for b in basis]
            basis.append(v)
    basis.sort(key=lambda b: (b & -b).bit_length() - 1)
    return tuple(basis)


def speed_probe() -> float:
    """Seconds the fixed kernel takes now (about 2-3 ms)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict[tuple[int, ...], int] = {}
        x = 12345
        for _ in range(300):
            rows = []
            for _ in range(5):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                rows.append(x & 63 or 1)
            key = _rref(rows)
            seen[key] = seen.get(key, 0) + 1
        acc = np.zeros(64)
        for a in range(64):
            acc += np.where((_XS & a) == 0, _XS, 0.0)
        return time.perf_counter() - t0
    finally:
        gc.enable()
