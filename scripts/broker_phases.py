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
at different machine speeds better than the raw times do. The timer's own
cost is in every figure: a handler that does nothing times at about 0.2 us
a call on a 2-vCPU host. Exits 1 if any delivery or replay was wrong.
"""

from __future__ import annotations

import argparse
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


class HandleTimer:
    """Wraps `core.handle` so that each call's time adds to
    `totals[phase][kind]` ([calls, seconds, replay copies]) for the current
    `phase`."""

    def __init__(self, core) -> None:
        self.phase = PHASES[0]
        self.totals = {phase: defaultdict(lambda: [0, 0.0, 0]) for phase in PHASES}
        handle, clock = core.handle, time.perf_counter

        def timed(conn_id, packet, now):
            start = clock()
            outputs = handle(conn_id, packet, now)
            elapsed = clock() - start
            kind = type(packet).__name__.upper()
            copies = 0
            if kind == "SUBSCRIBE":
                copies = sum(isinstance(o, broker.Send) and isinstance(o.packet, codec.Publish)
                             for o in outputs)
                if copies:
                    kind = "SUBSCRIBE+replay"
            cell = self.totals[self.phase][kind]
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += copies
            return outputs

        core.handle = timed


def run(seed: int, jobs: int) -> tuple[dict, list[str]]:
    """({phase: {kind: [calls, seconds, replay copies]}} with an "all" phase
    added, the rig's problems) of one run."""
    rig = fanout.Rig(codec, broker, seed)
    timer = HandleTimer(rig.core)
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
    both = totals["all"] = defaultdict(lambda: [0, 0.0, 0])
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
    puback_calls, puback_s, _ = totals["all"]["PUBACK"]
    puback_us = puback_s / puback_calls * 1e6
    print(f"{'phase':<6} {'packet':<17} {'calls':>8} {'total_s':>9} {'us/call':>9} {'/PUBACK':>8}"
          f" {'copies':>8} {'us/copy':>8}")
    for phase, kinds in totals.items():
        for kind in sorted(kinds):
            calls, seconds, copies = kinds[kind]
            us = seconds / calls * 1e6
            per_copy = (f"{copies:>8} {seconds / copies * 1e6:>8.3f}" if copies
                        else f"{'-':>8} {'-':>8}")
            print(f"{phase:<6} {kind:<17} {calls:>8} {seconds:>9.4f} {us:>9.2f} {us / puback_us:>8.2f}"
                  f" {per_copy}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
