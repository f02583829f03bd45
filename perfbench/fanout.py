"""The `fanout` workload's worker: BrokerCore.handle driven in-process.

    python3 perfbench/fanout.py SEED SECONDS [--trace SPANS_FILE]

Run from the root of a checkout.  No sockets and no simulator: the worker
plays a controller that publishes retained qos-1 status messages and 200
subscriber sessions that ack every delivery, and it times the broker core
from outside.  The expected recipients of every publish and the expected
retained replay of every subscribe come from the worker's own filter table
and matcher, never from the broker.  The last stdout line is a JSON object
the orchestrator reads.  Operation times are scaled by the speed probe
(see probe.py).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import sys
import time

import tracer as tracing
from probe import SpeedProbe

SLOTS = 2048
SESSIONS = 200
# Filter kinds in fixed proportions (400 = 200 sessions x 2).  parksim's own
# subscribers (the simulated dashboard, `parksim watch`) use `parking/#`;
# the other kinds stand for per-slot displays and per-topic dashboards, and
# their proportions are this benchmark's choice, not a measurement.  The
# seed only decides which session holds which, and which slot a single-slot
# filter names, so the fan-out width does not drift with the seed.
FILTER_MIX = (
    ("parking/#", 40),
    ("parking/slot/+/status", 60),
    ("parking/slot/{k}/status", 160),
    ("parking/env/+", 50),
    ("parking/gate/#", 50),
    ("parking/fan/state", 40),
)
OTHER_TOPICS = (
    "parking/summary", "parking/gate/entrance", "parking/gate/exit",
    "parking/env/temperature", "parking/env/humidity", "parking/gas/ppm", "parking/fan/state",
)
# The controller's publishes by topic, as counted in the publish records of
# a lot2048-lossy simulation (seed 1) with its start-up publishes (every
# slot, summary, both gates, fan) left out.  Each car gives 2 slot flips,
# 2 summaries and up to 4 gate changes; env and gas follow their sample
# periods; the fan never switches without a gas injection.
PUBLISH_MIX = (
    ("parking/slot/{k}/status", 9181),
    ("parking/summary", 9193),
    ("parking/gate/entrance", 7309),
    ("parking/gate/exit", 6957),
    ("parking/gas/ppm", 1440),
    ("parking/env/temperature", 360),
    ("parking/env/humidity", 360),
)
PUBLISH_TOPICS = [pattern for pattern, _ in PUBLISH_MIX]
PUBLISH_CUM_WEIGHTS = list(itertools.accumulate(weight for _, weight in PUBLISH_MIX))
JOB_PUBLISHES = 200
RECONNECT_EVERY = 25     # so 8 reconnects per job
CONTROLLER = "facility-controller"


def matches(topic_filter: str, topic: str) -> bool:
    """Reference MQTT 3.1.1 matcher, independent of parksim.codec."""
    flevels = topic_filter.split("/")
    tlevels = topic.split("/")
    for i, flevel in enumerate(flevels):
        if flevel == "#":
            return True
        if i >= len(tlevels) or (flevel != "+" and flevel != tlevels[i]):
            return False
    return len(flevels) == len(tlevels)


def filter_table(rng: random.Random) -> list[tuple[str, str]]:
    filters = []
    for pattern, count in FILTER_MIX:
        for _ in range(count):
            filters.append(pattern.format(k=rng.randrange(1, SLOTS + 1)))
    rng.shuffle(filters)
    pairs = [[filters[i], filters[i + 1]] for i in range(0, len(filters), 2)]
    for pair in pairs:
        if pair[0] == pair[1]:  # one SUBSCRIBE must not name a filter twice
            other = next(p for p in pairs if pair[0] not in p)
            pair[1], other[1] = other[1], pair[1]
    return [tuple(pair) for pair in pairs]


def next_message(rng: random.Random) -> tuple[str, bytes]:
    """One controller-shaped publish, topics drawn in PUBLISH_MIX proportions."""
    pattern = rng.choices(PUBLISH_TOPICS, cum_weights=PUBLISH_CUM_WEIGHTS)[0]
    if "{k}" in pattern:
        return pattern.format(k=rng.randrange(1, SLOTS + 1)), rng.choice((b"0", b"1"))
    if pattern == "parking/summary":
        return pattern, f"{rng.randrange(SLOTS + 1)}/{SLOTS}".encode()
    if "/gate/" in pattern:
        return pattern, rng.choice((b"open", b"closed"))
    return pattern, f"{rng.uniform(0, 100):.1f}".encode()


class Rig:
    def __init__(self, codec, broker_mod, seed: int):
        self.codec = codec
        self.core = broker_mod.BrokerCore()
        self.Send = broker_mod.Send
        self.rng = random.Random(seed)
        self.filters = filter_table(self.rng)
        # Replay sizes differ a thousandfold between sessions, so each job
        # reconnects one session from each eighth of the sessions ordered by
        # replay size: every job then does a like amount of replay work.  A
        # filter that matches the nonexistent slot 0 matches every slot.
        def replay_size(topic_filter: str) -> int:
            return (SLOTS * matches(topic_filter, "parking/slot/0/status")
                    + sum(matches(topic_filter, t) for t in OTHER_TOPICS))

        by_replay = sorted(range(SESSIONS), key=lambda i: sum(map(replay_size, self.filters[i])))
        reconnects = JOB_PUBLISHES // RECONNECT_EVERY
        self.strata = [by_replay[k * SESSIONS // reconnects:(k + 1) * SESSIONS // reconnects]
                       for k in range(reconnects)]
        self.retained: dict[str, bytes] = {}
        self.next_pid = 0
        self.now = 0.0
        self.problems: list[str] = []

    def _pid(self) -> int:
        self.next_pid = self.next_pid % 0xFFFF + 1
        return self.next_pid

    def _ack_all(self, outputs) -> list:
        """Ack every qos-1 delivery to a subscriber; returns the deliveries."""
        codec = self.codec
        delivered = []
        for out in outputs:
            if isinstance(out, self.Send) and isinstance(out.packet, codec.Publish) \
                    and out.conn_id != CONTROLLER:
                delivered.append(out)
                if out.packet.qos == 1:
                    self.core.handle(out.conn_id, codec.PubAck(packet_id=out.packet.packet_id), self.now)
        return delivered

    def setup(self) -> None:
        codec = self.codec
        self.core.handle(CONTROLLER, codec.Connect(client_id=CONTROLLER), self.now)
        for slot in range(1, SLOTS + 1):
            self.publish(f"parking/slot/{slot}/status", self.rng.choice((b"0", b"1")))
        for topic in OTHER_TOPICS:
            self.publish(topic, b"0")
        for index in range(SESSIONS):
            self.subscribe(index)

    def publish(self, topic: str, payload: bytes):
        codec = self.codec
        self.now += 0.001
        packet = codec.Publish(topic=topic, payload=payload, qos=1, retain=True, packet_id=self._pid())
        outputs = self.core.handle(CONTROLLER, packet, self.now)
        delivered = self._ack_all(outputs)
        self.retained[topic] = payload
        return delivered

    def check_publish(self, topic: str, payload: bytes, delivered) -> bool:
        expected = {f"s{i}" for i, pair in enumerate(self.filters)
                    if matches(pair[0], topic) or matches(pair[1], topic)}
        got = [out.conn_id for out in delivered]
        if len(got) != len(expected) or set(got) != expected or any(
                out.packet.topic != topic or out.packet.payload != payload for out in delivered):
            self.problems.append(f"publish {topic}: {len(got)} deliveries, expected {len(expected)}")
            return False
        return True

    def subscribe(self, index: int):
        codec = self.codec
        conn = f"s{index}"
        self.now += 0.001
        self.core.handle(conn, codec.Connect(client_id=conn), self.now)
        subscribe = codec.Subscribe(packet_id=self._pid(), filters=tuple((f, 1) for f in self.filters[index]))
        return self._ack_all(self.core.handle(conn, subscribe, self.now))

    def reconnect(self, index: int):
        self.core.handle(f"s{index}", self.codec.Disconnect(), self.now)
        return self.subscribe(index)

    def check_replay(self, index: int, delivered) -> bool:
        pair = self.filters[index]
        expected = {t for t in self.retained if matches(pair[0], t) or matches(pair[1], t)}
        got = {(out.packet.topic, out.packet.payload) for out in delivered}
        if got != {(t, self.retained[t]) for t in expected} or any(
                not out.packet.retain for out in delivered):
            self.problems.append(f"subscribe s{index}: replayed {len(got)} topics, expected {len(expected)}")
            return False
        return True


def main(argv: list[str]) -> int:
    seed, seconds = int(argv[0]), float(argv[1])
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    clock = time.perf_counter
    job_s, publish_us, subscribe_ms, raw_job_s = [], [], [], []
    attempted = failed = 0
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from parksim import broker, codec

    probe = SpeedProbe()
    tracer = tracing.start(spans_path, probe)

    with probe:
        probe_start = clock()
        rig = Rig(codec, broker, seed)
        rig.setup()
        ready_t = clock()

        def timed(operation, *args):
            """(result, seconds) of one operation, the probe's runs left out."""
            before, start = probe.total, clock()
            result = operation(*args)
            return result, clock() - start - (probe.total - before)

        deadline = clock() + seconds
        while not job_s or clock() < deadline:
            # a job's time is the sum of its timed operations; the output
            # checks between them are not part of it
            publishes, subscribes = [], []
            job_start = clock()
            for n in range(JOB_PUBLISHES):
                topic, payload = next_message(rig.rng)
                delivered, elapsed = timed(rig.publish, topic, payload)
                publishes.append(elapsed)
                attempted += 1
                failed += not rig.check_publish(topic, payload, delivered)
                if n % RECONNECT_EVERY == RECONNECT_EVERY - 1:
                    index = rig.rng.choice(rig.strata[n // RECONNECT_EVERY])
                    delivered, elapsed = timed(rig.reconnect, index)
                    subscribes.append(elapsed)
                    attempted += 1
                    failed += not rig.check_replay(index, delivered)
            speed = probe.speed(job_start, clock())
            raw_job_s.append(sum(publishes) + sum(subscribes))
            job_s.append(raw_job_s[-1] / speed)
            publish_us += [t / speed * 1e6 for t in publishes]
            subscribe_ms += [t / speed * 1e3 for t in subscribes]
    if tracer is not None:
        tracer.write(spans_path)
    print(json.dumps({
        "probe_start": probe_start,
        "ready_t": ready_t,
        "probe": [sample for sample in probe.samples if sample[0] <= ready_t],
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_s": job_s,
        "raw_job_s": raw_job_s,
        "publish_us": publish_us,
        "subscribe_ms": subscribe_ms,
        "attempted": attempted,
        "failed": failed,
        "problems": rig.problems[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
