"""A fixed reference burst run between passes, to cancel machine drift.

The sandbox is a shared 2-core microVM whose speed drifts by up to 50 %
over minutes (the same burst read 28 ms and 42 ms twenty minutes apart;
CPU time drifts with wall time, so it is the core that slows, not the
scheduler taking it away).  Ten runs of raw wall time then spread
10-25 % between their quartiles, wider than any usable bound.  The
harness therefore runs this burst after every pass of the measured
window and reports the timings of an untraced run *at reference machine
speed*:

    speed           = NOMINAL_BURST_S / mean burst seconds of the window
    reported time   = raw time x speed        (ops_per_s: raw / speed)

The burst is the same work whatever the workload and however long its
ops take, runs warm (back-to-back iterations, no op in between) and
with the cyclic GC off, so the size of the workload's heap does not
enter it: bursts run after passes of ``udf_scan``, ``sql_short`` and
``serve_replay`` interleaved in one process read 41.4, 43.8 and 42.8 ms
(42.4 ms after idling).  The burst and ``NOMINAL_BURST_S`` are part of
the benchmark's definition and must not change; the raw figures and
``speed`` stay in ``results.json`` (``info``).
"""

from __future__ import annotations

import gc
import time

#: Seconds one burst takes on the reference sandbox in its fastest
#: state.  Only a scale: it fixes what "reference speed" means, so that
#: raw and reported figures agree there.
NOMINAL_BURST_S = 0.055
_ROUNDS = 120
_ITERATIONS = 900


def burst() -> float:
    """Run the reference burst once; returns its wall seconds.

    Each round allocates, builds and splits strings, fills dicts and
    sorts, like the program does; a pure arithmetic loop slows down far
    less than the workloads when a neighbour thrashes the cache.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        total = 0
        table: dict[int, int] = {}
        rows = []
        for index in range(_ITERATIONS):
            total += index * index
            table[index & 255] = total
            rows.append((index, str(total), total & 255))
        words = " ".join(row[1] for row in rows).split()
        rows.sort(key=lambda row: row[2])
        table.update((len(word), index) for index, word in enumerate(words))
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed
