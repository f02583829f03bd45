"""Launch `parksim broker` on 127.0.0.1:<ephemeral> for the `tcp` workload.

    python3 perfbench/broker_child.py STATS_FILE [--trace SPANS_FILE]

Run from the root of a checkout.  Runs the real `parksim broker` command
until SIGINT under the speed probe (see probe.py; it starts once parksim
is imported), then writes its own
resource usage over the serving period, peak RSS, peak live thread count
and the probe's samples to STATS_FILE.  With --trace, the
codec and BrokerCore entry points are wrapped before the server starts and
the spans are written to SPANS_FILE on exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import tracer as tracing
from probe import SpeedProbe


def main(argv: list[str]) -> int:
    stats_path = argv[0]
    spans_path = argv[2] if len(argv) > 2 and argv[1] == "--trace" else None
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from parksim import cli

    probe = SpeedProbe()
    tracer = tracing.start(spans_path, probe)

    with probe:
        probe_start = time.perf_counter()
        peak_threads = threading.active_count()
        start_thread = threading.Thread.start

        def counting_start(thread):
            nonlocal peak_threads
            start_thread(thread)
            peak_threads = max(peak_threads, threading.active_count())

        threading.Thread.start = counting_start

        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            code = cli.main(["broker", "--bind", "127.0.0.1:0"])
        except KeyboardInterrupt:
            # the stop arrived before the server loop began handling it
            code = 0
        after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.write(spans_path)
    with open(stats_path, "w", encoding="utf-8") as out:
        json.dump({
            "exit_code": code,
            "user_s": after.ru_utime - before.ru_utime,
            "sys_s": after.ru_stime - before.ru_stime,
            "rss_mib": after.ru_maxrss / 1024.0,
            "peak_threads": peak_threads,
            "probe_start": probe_start,
            "probe": probe.samples,
        }, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
