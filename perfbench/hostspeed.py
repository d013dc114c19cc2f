"""Host-speed probe: times are reported at a reference host speed.

The benchmark was built on a shared 2-vCPU host whose speed drifts by a
third to a half within minutes and jitters from second to second, in CPU
time as well as wall time.  A fixed piece of pure-Python work, the probe,
slows down and speeds up with it: over 90 s in which one dmfv verdict's
time moved between 84 and 146 ms, the ratio of the verdict's time to the
probe's, taken over 5 s windows, stayed within about 5%.  The benchmark
therefore times the probe between verdicts and scales each verdict by
PROBE_REF_MS over the mean of the two probe times around it.  Over eight
passes of one pool that brought the pass-to-pass spread of the median
verdict from 0.06-0.24 (as measured) to about 0.02 (pin-shuttle and
cyber-paths); a median over a window of nine probes did about half as well.
The probe lives in the benchmark, not in dmfv, so a change to dmfv moves
only the verdicts.
"""

from __future__ import annotations

import gc
import json
import time

PROBE_REF_MS = 6.0     # the probe's time on the reference host


def probe() -> int:
    """Time the probe in ns: building, copying and scanning a dict of cell
    tuples, a set comprehension and a JSON dump, the kinds of work dmfv
    does.  It makes no cycles and runs with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        cells = {}
        for i in range(3000):
            cells[(i % 60, i // 60)] = ("X", i)
        found = 0
        for _ in range(6):
            copy = dict(cells)
            for (r, c) in copy:
                if (r + 1, c) in copy:
                    found += 1
            found += len({k for k in copy if k[0] & 1})
        found += len(json.dumps([{"a": i, "b": str(i)} for i in range(500)]))
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def at_reference_speed(ns: list[int], probes: list[int]) -> list[float]:
    """Each time ``ns[j]`` scaled by PROBE_REF_MS over the mean of the probe
    times taken just before and just after it, ``probes[j]`` and
    ``probes[j + 1]``."""
    assert len(probes) == len(ns) + 1
    return [t * PROBE_REF_MS * 2e6 / (probes[j] + probes[j + 1]) for j, t in enumerate(ns)]
