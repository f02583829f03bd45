"""The `tcp` workload: a real broker process and a one-thread load generator.

The generator holds two loopback connections -- a publisher and a
`parking/#` subscriber, qos 1 on both legs -- and multiplexes them with
select() in a single thread, so the load shape does not depend on how many
cores the machine has.  It speaks MQTT 3.1.1 with its own few frame
builders below, independent of parksim.codec, so the code under test never
times or checks itself.

Each payload carries a sequence number.  The subscriber must see every one
exactly once and in order: a gap is a lost message (failed), a repeat is
counted as a duplicate.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time

import probe

TOPICS = 64          # parking/slot/<1..64>/status, retained
RECV_CHUNK = 1 << 16
DRAIN_TIMEOUT_S = 5.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


class BrokerGone(Exception):
    """The broker closed a connection or sent something unexpected."""


# -- wire format ---------------------------------------------------------------

def _frame(first: int, body: bytes) -> bytes:
    length, encoded = len(body), bytearray()
    while True:
        byte, length = length & 0x7F, length >> 7
        encoded.append(byte | (0x80 if length else 0))
        if not length:
            return bytes([first]) + bytes(encoded) + body


def _str(text: str) -> bytes:
    raw = text.encode()
    return len(raw).to_bytes(2, "big") + raw


def connect_frame(client_id: str) -> bytes:
    # protocol "MQTT" level 4, clean session, keep-alive 0
    return _frame(0x10, _str("MQTT") + b"\x04\x02\x00\x00" + _str(client_id))


def subscribe_frame(packet_id: int, topic_filter: str) -> bytes:
    return _frame(0x82, packet_id.to_bytes(2, "big") + _str(topic_filter) + b"\x01")


def publish_frame(topic: str, packet_id: int, payload: bytes) -> bytes:
    # qos 1, retain
    return _frame(0x33, _str(topic) + packet_id.to_bytes(2, "big") + payload)


def puback_frame(packet_id: int) -> bytes:
    return b"\x40\x02" + packet_id.to_bytes(2, "big")


class FrameReader:
    """Splits a byte stream into (packet type, flags, body) frames."""

    def __init__(self) -> None:
        self.buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        self.buf += data
        frames, pos, buf = [], 0, self.buf
        while True:
            length, shift, i = 0, 0, pos + 1
            while i < len(buf):
                byte = buf[i]
                length |= (byte & 0x7F) << shift
                shift += 7
                i += 1
                if not byte & 0x80:
                    break
            else:
                break
            if i + length > len(buf):
                break
            frames.append((buf[pos] >> 4, buf[pos] & 0x0F, bytes(buf[i:i + length])))
            pos = i + length
        del buf[:pos]
        return frames


def parse_publish(flags: int, body: bytes) -> tuple[str, int, bytes]:
    topic_len = int.from_bytes(body[:2], "big")
    topic = body[2:2 + topic_len].decode()
    rest = body[2 + topic_len:]
    if flags & 0x06:
        return topic, int.from_bytes(rest[:2], "big"), rest[2:]
    return topic, 0, rest


# -- broker process ---------------------------------------------------------------

def start_broker(workdir: str, tag: str, trace: bool):
    """Start broker_child.py; returns (process, port, spawn time, files)."""
    stats = os.path.join(workdir, f"broker-{tag}.json")
    log = os.path.join(workdir, f"broker-{tag}.log")
    spans = os.path.join(workdir, f"spans-{tag}.tsv")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "broker_child.py"), stats]
    if trace:
        cmd += ["--trace", spans]
    spawn_t = time.perf_counter()
    with open(log, "wb") as log_handle:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log_handle)
    deadline = spawn_t + START_TIMEOUT_S
    while True:
        with open(log, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("broker listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    return proc, port, spawn_t, {"stats": stats, "log": log, "spans": spans}
        if proc.poll() is not None or time.perf_counter() > deadline:
            stop_broker(proc)
            raise BrokerGone(f"broker did not start; see {log}")
        time.sleep(0.002)


def stop_broker(proc) -> bool:
    """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
        return proc.returncode == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


# -- generator -------------------------------------------------------------------

class Generator:
    def __init__(self, port: int, seed: int):
        self.rng = random.Random(seed)
        self.readers: dict[socket.socket, FrameReader] = {}
        self.pub = self._connect(port, "bench-pub")
        self.sub = self._connect(port, "bench-sub")
        self.sub.sendall(subscribe_frame(1, "parking/#"))
        self._await(self.sub, 9)  # SUBACK
        self.next_seq = 0        # next sequence number to publish
        self.expected = 0        # next sequence number the subscriber should see
        self.delivered = 0
        self.duplicates = 0
        self.lost = 0
        self.pubacks = 0
        self.on_deliver = None   # callback(seq, recv_t)

    def _connect(self, port: int, client_id: str) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(connect_frame(client_id))
        self.readers[sock] = FrameReader()
        frame = self._await(sock, 2)  # CONNACK
        if frame[2][1] != 0:
            raise BrokerGone(f"CONNACK refused {client_id}: code {frame[2][1]}")
        return sock

    def _await(self, sock, ptype: int):
        reader = self.readers[sock]
        while True:
            data = sock.recv(RECV_CHUNK)
            if not data:
                raise BrokerGone("connection closed during handshake")
            for frame in reader.feed(data):
                if frame[0] == ptype:
                    return frame
                raise BrokerGone(f"expected packet type {ptype}, got {frame[0]}")

    def close(self) -> None:
        for sock in (self.pub, self.sub):
            try:
                sock.sendall(b"\xe0\x00")  # DISCONNECT
            except OSError:
                pass
            sock.close()

    @property
    def outstanding(self) -> int:
        return self.next_seq - self.expected

    def publish(self, count: int) -> None:
        out = bytearray()
        for _ in range(count):
            seq = self.next_seq
            self.next_seq += 1
            topic = f"parking/slot/{self.rng.randrange(1, TOPICS + 1)}/status"
            out += publish_frame(topic, seq % 0xFFFF + 1, b"%d" % seq)
        self.pub.sendall(out)

    def pump(self, timeout: float) -> None:
        """Wait up to `timeout` for input and handle everything that arrived."""
        readable, _, _ = select.select((self.pub, self.sub), (), (), timeout)
        now = time.perf_counter()
        for sock in readable:
            data = sock.recv(RECV_CHUNK)
            if not data:
                raise BrokerGone("broker closed a connection")
            acks = bytearray()
            for ptype, flags, body in self.readers[sock].feed(data):
                if sock is self.pub and ptype == 4:
                    self.pubacks += 1
                elif sock is self.sub and ptype == 3:
                    _, packet_id, payload = parse_publish(flags, body)
                    acks += puback_frame(packet_id)
                    self._deliver(int(payload), now)
                else:
                    raise BrokerGone(f"unexpected packet type {ptype}")
            if acks:
                self.sub.sendall(acks)

    def _deliver(self, seq: int, now: float) -> None:
        if seq < self.expected:
            self.duplicates += 1
            return
        if seq > self.expected:
            self.lost += seq - self.expected
        self.expected = seq + 1
        self.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(seq, now)

    def drain(self) -> None:
        """Wait for every published message and PUBACK; the rest are lost."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while (self.outstanding or self.pubacks < self.next_seq) and time.perf_counter() < deadline:
            self.pump(0.05)
        self.lost += self.outstanding
        self.expected = self.next_seq

    def closed_loop(self, seconds: float, window: int, batch: int) -> dict:
        """Keep `window` messages in flight; stamp every `batch` deliveries."""
        marks = [time.perf_counter()]
        count = 0

        def on_deliver(seq, now):
            nonlocal count
            count += 1
            if count == batch:
                marks.append(now)
                count = 0

        self.on_deliver = on_deliver
        start = marks[0]
        delivered_before = self.delivered
        end = start + seconds
        # past `seconds` if need be, until a batch after the warm-up one is timed
        while time.perf_counter() < end or (len(marks) < 3 and time.perf_counter() < end + DRAIN_TIMEOUT_S):
            if self.outstanding < window:
                self.publish(window - self.outstanding)
            self.pump(1.0)
        end = time.perf_counter()
        delivered = self.delivered - delivered_before
        self.on_deliver = None
        self.drain()
        # the first batch warms up and is left out
        return {"batches": list(zip(marks[1:], marks[2:])), "delivered": delivered}

    def open_loop(self, seconds: float, rate: float) -> dict:
        """Publish on a fixed schedule; latency runs from each message's due time."""
        total = int(seconds * rate)
        first = self.next_seq
        start = time.perf_counter() + 0.01
        deliveries: list[tuple[float, float]] = []   # (due, received)
        late_ms: list[float] = []

        def on_deliver(seq, now):
            if seq >= first:
                deliveries.append((start + (seq - first) / rate, now))

        self.on_deliver = on_deliver
        sent = 0
        while sent < total:
            now = time.perf_counter()
            due_count = min(total, math.floor((now - start) * rate) + 1) - sent
            if due_count > 0:
                for i in range(sent, sent + due_count):
                    late_ms.append((now - (start + i / rate)) * 1e3)
                self.publish(due_count)
                sent += due_count
            self.pump(max(0.0, start + sent / rate - time.perf_counter()))
        self.drain()
        self.on_deliver = None
        return {"deliveries": deliveries, "late_ms": late_ms}


def run_broker_session(workdir: str, tag: str, seed: int, seconds: float, trace: bool,
                       window: int, batch: int, rate: float) -> dict:
    """One broker process: set up, closed loop, open loop, shut down.  With
    `seconds` 0 it only sets up (a set-up sample).

    Set-up, batch times and latencies are scaled by the broker's speed probe
    at the time they were taken (see probe.py); raw figures are kept too."""
    result = {"attempted": 0, "failed": 0, "problems": []}

    def fail(message: str) -> None:
        result["problems"].append(message)
        result["failed"] = max(result["failed"], 1)
        result["attempted"] = max(result["attempted"], result["failed"])

    reference_s = probe.startup_reference()
    try:
        proc, port, spawn_t, files = start_broker(workdir, tag, trace)
    except BrokerGone as exc:
        fail(f"broker session {tag}: {exc}")
        return result
    closed = opened = None
    try:
        gen = Generator(port, seed)
        ready_t = time.perf_counter()
        try:
            if seconds:
                closed = gen.closed_loop(seconds / 2, window, batch)
                opened = gen.open_loop(seconds / 2, rate)
        finally:
            gen.close()
        result["attempted"] = gen.next_seq
        result["failed"] = gen.lost + (gen.next_seq - gen.pubacks)
        result["duplicates"] = gen.duplicates
        if result["failed"]:
            result["problems"].append(f"{gen.lost} lost, {gen.next_seq - gen.pubacks} PUBACKs missing")
    except (OSError, BrokerGone) as exc:
        fail(f"broker session {tag}: {exc}")
    finally:
        if not stop_broker(proc):
            fail(f"broker {tag} did not exit cleanly")
    try:
        with open(files["stats"], encoding="utf-8") as handle:
            result["broker"] = json.load(handle)
    except (OSError, ValueError):
        fail(f"broker {tag} wrote no stats")
        return result
    if result["failed"]:
        return result
    samples = result["broker"].pop("probe")
    result["setup_s"] = probe.setup_time(samples, spawn_t, result["broker"].pop("probe_start"), ready_t,
                                         reference_s)
    if not seconds:
        return result
    if not closed["batches"]:
        fail(f"broker session {tag}: closed loop too short for one batch")
        return result
    result["batch_s"] = [probe.scaled(samples, start, end) for start, end in closed["batches"]]
    result["raw_batch_s"] = [end - start for start, end in closed["batches"]]
    result["closed_delivered"] = closed["delivered"]
    result["latency_ms"] = [(received - due) * 1e3 / probe.speed(samples, received - 0.05, received)
                            for due, received in opened["deliveries"]]
    result["raw_latency_ms"] = [(received - due) * 1e3 for due, received in opened["deliveries"]]
    result["late_ms"] = opened["late_ms"]
    result["spans"] = files["spans"] if trace else None
    return result
