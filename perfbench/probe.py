"""Speed probe: how fast this CPU runs Python right now.

The shared host this benchmark was built on changes speed by up to 2x over
seconds to minutes, for every kind of code at once, and the changes are
common to all code running within a few milliseconds of each other.  The
probe exploits that: a SIGALRM interval timer runs a fixed pure-Python
kernel every PERIOD_S on the measured thread itself (Python runs signal
handlers between bytecodes), so the kernel samples the same machine state
as the work around it.  A measured interval is then reported as

    (wall time - probe time inside it) * NOMINAL_S / (mean probe kernel time)

i.e. the time the work would have taken with the kernel at NOMINAL_S
(`scaled`); latencies are divided by the speed alone.  The kernel uses only
the standard library, never parksim, and runs with the cyclic garbage
collector off, so neither the program's code nor the size of its heap can
move it.  Workers start the probe once parksim is imported.

Interpreter start-up and imports are work of another kind (a fresh process,
cold caches, native code), and the kernel does not track how fast the
machine does it.  So a process's start-up, from its spawn to the probe's
start, is scaled by `startup_reference` instead: a fresh interpreter that
imports what parksim imports from outside itself (the standard library and
numpy) but never parksim, timed right before the process is spawned.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import signal
import subprocess
import sys
import time

PERIOD_S = 0.005
WARMUP_RUNS = 20     # before timing: the interpreter specialises the kernel's code
NOMINAL_S = 0.0003   # the kernel's median time on the reference host (2 vCPU VM)
REFERENCE_IMPORTS = "import argparse, dataclasses, enum, json, logging, socket, threading, numpy"
REFERENCE_NOMINAL_S = 0.18   # about startup_reference's median on the reference host


def kernel() -> int:
    """Fixed mix of heap, dict, tuple and json work, ~0.3 ms."""
    heap: list = []
    counts: dict = {}
    out = 0
    for i in range(80):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i, ("slot", i)))
        counts[i % 61] = counts.get(i % 61, 0) + i
        if len(heap) > 32:
            t, seq, payload = heapq.heappop(heap)
            out += len(json.dumps({"t": t, "kind": payload[0], "seq": seq}))
    return out


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean kernel time / NOMINAL_S over the (end time, duration) samples
    ending in [start, end], or the nearest sample if none did: 1.0 at
    nominal speed, 2.0 at half speed.  Times are time.perf_counter(), which
    on Linux is CLOCK_MONOTONIC and so comparable between processes."""
    lo = bisect.bisect_left(samples, start, key=lambda sample: sample[0])
    hi = bisect.bisect_right(samples, end, key=lambda sample: sample[0])
    if hi <= lo:
        lo, hi = max(0, lo - 1), min(len(samples), lo + 1)
    window = samples[lo:hi]
    return sum(duration for _, duration in window) / len(window) / NOMINAL_S


def startup_reference() -> float:
    """Seconds from spawning a fresh interpreter that runs REFERENCE_IMPORTS
    until the imports are done."""
    code = REFERENCE_IMPORTS + "; import time; print(time.perf_counter())"
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(out.stdout) - start


def setup_time(samples: list[tuple[float, float]], spawn_t: float, probe_start: float,
               ready_t: float, reference_s: float) -> float:
    """Set-up from process spawn to ready_t at nominal speed: start-up and
    imports up to probe_start scaled by the start-up reference timed just
    before the spawn (`reference_s`), plus the scaled set-up work."""
    startup = (probe_start - spawn_t) * REFERENCE_NOMINAL_S / reference_s
    return startup + scaled(samples, probe_start, ready_t)


def scaled(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """The interval [start, end] at nominal speed, the probe's own runs
    inside it left out."""
    lo = bisect.bisect_left(samples, start, key=lambda sample: sample[0])
    hi = bisect.bisect_right(samples, end, key=lambda sample: sample[0])
    own = sum(duration for _, duration in samples[lo:hi])
    return (end - start - own) / speed(samples, start, end)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (end time, duration)
        self.total = 0.0                               # probe time so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # With the cyclic GC off, a collection that the kernel's allocations
        # would trigger runs later in program code and is charged to it,
        # instead of scanning the program's heap inside a probe sample.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if gc_was_enabled:
            gc.enable()
        self.total += end - start
        self.samples.append((end, end - start))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP_RUNS):
            kernel()
        self._sample(None, None)  # so even the shortest interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        return speed(self.samples, start, end)

    def scaled(self, start: float, end: float) -> float:
        return scaled(self.samples, start, end)
