"""Span recorder for traced runs.

`install(tracer)` wraps the public entry points of each `parksim` module in
place (module attributes and class attributes), so the program's own code
is left untouched and callers inside the package reach the wrappers through
their normal `module.function` / `instance.method` lookups.  Spans are kept
in memory, one list per process, and written out as TSV when the traced
process ends; `summarize()` turns a spans file plus counters into
per-layer totals and self times.

A span's self time is its duration minus the time covered by its direct
child spans.  Each thread keeps its own stack, so spans recorded on the TCP
broker's connection threads nest correctly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

# (module, attribute or Class.method, span name).  The span name's prefix
# before the first '.' is the layer.
SPANNED = (
    ("sim", "Simulation.run", "sim.run"),
    ("sim", "SimReport.write", "sim.write"),
    ("sim", "SimReport.events_jsonl", "sim.events_jsonl"),
    ("sim", "render_report", "sim.render_report"),
    ("controller", "Controller.handle", "controller.handle"),
    ("broker", "BrokerCore.handle", "broker.handle"),
    ("broker", "BrokerCore.redeliver", "broker.redeliver"),
    ("codec", "encode_packet", "codec.encode"),
    ("codec", "decode_packet", "codec.decode"),
    ("client", "ClientEngine.handle_packet", "client.handle_packet"),
    ("client", "ClientEngine.publish_packet", "client.publish_packet"),
    ("sensors", "sample_env", "sensors.sample_env"),
    ("sensors", "sample_mq2", "sensors.sample_mq2"),
    ("stochastic", "next_arrival", "stochastic.next_arrival"),
    ("telemetry", "Aggregator.add_records", "telemetry.add_records"),
    ("telemetry", "Aggregator.rows", "telemetry.rows"),
    ("telemetry", "Aggregator.summary", "telemetry.summary"),
    ("scenario", "load_scenario", "scenario.load"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """Span around `fn`; `count(tracer, args, result)` adds counters."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(dict(self.counters)) + "\n")
            for i, name in enumerate(self.names):
                out.write(f"{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")


# -- counters taken at the same boundaries as the spans ------------------------

def _count_encode(tracer, args, result):
    tracer.counters["codec.encode_bytes"] += len(result)


def _count_decode(tracer, args, result):
    tracer.counters["codec.decode_bytes_copied"] += len(args[0])


def _count_redeliver(tracer, args, result):
    tracer.counters["broker.redelivered_frames"] += len(result)


def _count_env(tracer, args, result):
    tracer.counters["sensors.bumps"] += len(args[2])


def _count_samples(tracer, args, result):
    tracer.counters["telemetry.samples"] += len(args[0].samples)


COUNTERS = {
    "codec.encode": _count_encode,
    "codec.decode": _count_decode,
    "broker.redeliver": _count_redeliver,
    "sensors.sample_env": _count_env,
    "telemetry.rows": _count_samples,
    "telemetry.summary": _count_samples,
}


def install(tracer: Tracer) -> None:
    """Wrap the parksim entry points listed in SPANNED, plus counters."""
    import importlib

    for module_name, attr, span in SPANNED:
        module = importlib.import_module(f"parksim.{module_name}")
        owner, _, method = attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = getattr(target, method)
        setattr(target, method, tracer.wrap(span, original, COUNTERS.get(span)))

    from parksim import broker, codec, telemetry

    # Inflight entries each redelivery pass has to look at.
    redeliver = broker.BrokerCore.redeliver

    def scanning_redeliver(self, now):
        tracer.counters["broker.inflight_scanned"] += sum(
            len(s.inflight) for s in self.sessions.values())
        return redeliver(self, now)

    broker.BrokerCore.redeliver = functools.wraps(redeliver)(scanning_redeliver)

    # topic_matches is called hundreds of times per publish; count only, so
    # the span bookkeeping does not swamp the broker's own time.
    topic_matches = codec.topic_matches

    def counted_matches(topic_filter, topic):
        matched = topic_matches(topic_filter, topic)
        tracer.counters["broker.topic_match_calls"] += 1
        if matched:
            tracer.counters["broker.topic_matches"] += 1
        return matched

    codec.topic_matches = counted_matches

    init = telemetry.Aggregator.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.counters["telemetry.aggregations"] += 1

    telemetry.Aggregator.__init__ = functools.wraps(init)(counted_init)


def start(spans_path: str | None, probe) -> Tracer | None:
    """For a traced run (`spans_path` given): a Tracer, installed, whose
    span times leave out the speed probe's own runs."""
    if spans_path is None:
        return None
    tracer = Tracer(clock=lambda: time.perf_counter() - probe.total)
    install(tracer)
    return tracer


# -- reading spans back ----------------------------------------------------------

def summarize(paths: list[str]) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Per span name: count, total and self time; plus the summed counters
    of every spans file.  No wrapped entry point calls itself, so a span
    name's total is the plain sum of its durations."""
    per_name: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    counters: dict[str, float] = defaultdict(float)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for key, value in json.loads(handle.readline()).items():
                counters[key] += value
            rows = [line.rstrip("\n").split("\t") for line in handle]
        durations = [float(end) - float(start) for _, start, end, _ in rows]
        child_time = [0.0] * len(rows)
        for i, row in enumerate(rows):
            parent = int(row[3])
            if parent >= 0:
                child_time[parent] += durations[i]
        for i, row in enumerate(rows):
            entry = per_name[row[0]]
            entry["count"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
    return dict(per_name), dict(counters)
