#!/usr/bin/env python3
"""Time BrokerCore.handle per packet type on the `fanout` workload, in process.

    python3 scripts/broker_phases.py [--seed 1] [--jobs 20]

Run from anywhere in a parksim checkout. It builds `perfbench/fanout.py`'s
`Rig` (imported, not changed), runs its set-up (2,055 retained publishes,
then 200 sessions connecting and subscribing) and then `--jobs` of its jobs
(200 publishes and 8 reconnects each), checking every delivery and replay
as the benchmark does. Every `handle` call is timed on its own and filed
under its packet type; a SUBSCRIBE whose outputs hold a PUBLISH is filed as
`SUBSCRIBE+replay`. For the set-up, the jobs and both together it prints,
per type, the calls, the total seconds, the microseconds per call and that
figure over the PUBACK microseconds per call of the same process; the
`SUBSCRIBE+replay` rows add the replay copies (the PUBLISHes those
SUBSCRIBEs returned) and the microseconds per copy, and the other rows
print `-` there. The ratios compare builds run on different machines or
at different machine speeds better than the raw times do. A cyclic-GC
pause lands on whichever call's allocation set it off, so a change that
allocates less in one packet type would move time into the others: every
time is therefore net of the collections that ran inside the call (timed
through `gc.callbacks`), and the last two columns give, per type, the
collections that ran inside its calls and their seconds. The timer's own
cost is in every figure: a handler that does nothing times at about 0.2 us
a call on a 2-vCPU host. Exits 1 if any delivery or replay was wrong.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import fanout  # noqa: E402
from parksim import broker, codec  # noqa: E402

PHASES = ("setup", "jobs")


class GcTimer:
    """Adds up, through `gc.callbacks`, the collections run and their seconds
    while it is installed."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> GcTimer:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class HandleTimer:
    """Wraps `core.handle` so that each call's time, net of the collections
    `gc_timer` saw inside it, adds to `totals[phase][kind]` ([calls, seconds,
    replay copies, collections, collection seconds]) for the current
    `phase`."""

    def __init__(self, core, gc_timer: GcTimer) -> None:
        self.phase = PHASES[0]
        self.totals = {phase: defaultdict(lambda: [0, 0.0, 0, 0, 0.0]) for phase in PHASES}
        handle, clock = core.handle, time.perf_counter

        def timed(conn_id, packet, now):
            collections, gc_s = gc_timer.collections, gc_timer.seconds
            start = clock()
            outputs = handle(conn_id, packet, now)
            elapsed = clock() - start
            collections = gc_timer.collections - collections
            gc_s = gc_timer.seconds - gc_s
            kind = type(packet).__name__.upper()
            copies = 0
            if kind == "SUBSCRIBE":
                copies = sum(isinstance(o, broker.Send) and isinstance(o.packet, codec.Publish)
                             for o in outputs)
                if copies:
                    kind = "SUBSCRIBE+replay"
            cell = self.totals[self.phase][kind]
            cell[0] += 1
            cell[1] += elapsed - gc_s
            cell[2] += copies
            cell[3] += collections
            cell[4] += gc_s
            return outputs

        core.handle = timed


def run(seed: int, jobs: int) -> tuple[dict, list[str]]:
    """({phase: {kind: [calls, seconds net of GC, replay copies, collections,
    collection seconds]}} with an "all" phase added, the rig's problems) of
    one run."""
    rig = fanout.Rig(codec, broker, seed)
    with GcTimer() as gc_timer:
        timer = HandleTimer(rig.core, gc_timer)
        rig.setup()
        timer.phase = "jobs"
        for _ in range(jobs):
            for n in range(fanout.JOB_PUBLISHES):
                topic, payload = fanout.next_message(rig.rng)
                rig.check_publish(topic, payload, rig.publish(topic, payload))
                if n % fanout.RECONNECT_EVERY == fanout.RECONNECT_EVERY - 1:
                    index = rig.rng.choice(rig.strata[n // fanout.RECONNECT_EVERY])
                    rig.check_replay(index, rig.reconnect(index))
    totals = timer.totals
    both = totals["all"] = defaultdict(lambda: [0, 0.0, 0, 0, 0.0])
    for phase in PHASES:
        for kind, cell in totals[phase].items():
            for i, value in enumerate(cell):
                both[kind][i] += value
    return totals, rig.problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=20)
    args = parser.parse_args(argv)
    totals, problems = run(args.seed, args.jobs)
    puback_calls, puback_s = totals["all"]["PUBACK"][:2]
    puback_us = puback_s / puback_calls * 1e6
    print(f"{'phase':<6} {'packet':<17} {'calls':>8} {'total_s':>9} {'us/call':>9} {'/PUBACK':>8}"
          f" {'copies':>8} {'us/copy':>8} {'gcs':>5} {'gc_s':>7}")
    for phase, kinds in totals.items():
        for kind in sorted(kinds):
            calls, seconds, copies, collections, gc_s = kinds[kind]
            us = seconds / calls * 1e6
            per_copy = (f"{copies:>8} {seconds / copies * 1e6:>8.3f}" if copies
                        else f"{'-':>8} {'-':>8}")
            print(f"{phase:<6} {kind:<17} {calls:>8} {seconds:>9.4f} {us:>9.2f} {us / puback_us:>8.2f}"
                  f" {per_copy} {collections:>5} {gc_s:>7.4f}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
