"""TCP transport for the broker core and a blocking MQTT client.

Connection reader threads decode frames incrementally and feed the shared
BrokerCore under one lock, so broker state transitions stay serialized no
matter how many sockets are live. A housekeeping thread runs redelivery and
keep-alive sweeps on the monotonic clock.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time

from . import codec
from .broker import BrokerCore, Close, Send
from .client import ClientEngine

log = logging.getLogger(__name__)

SWEEP_PERIOD_S = 0.5
READ_CHUNK = 4096


class BrokerServer:
    def __init__(self, host: str = "0.0.0.0", port: int = 1883,
                 core: BrokerCore | None = None):
        self.core = core or BrokerCore()
        self._lock = threading.Lock()
        self._conns: dict[str, socket.socket] = {}
        self._send_locks: dict[str, threading.Lock] = {}
        self._conn_counter = 0
        self._stopping = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.address = self._listener.getsockname()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        accept = threading.Thread(target=self._accept_loop, name="mqtt-accept", daemon=True)
        sweep = threading.Thread(target=self._sweep_loop, name="mqtt-sweep", daemon=True)
        accept.start()
        sweep.start()
        self._threads += [accept, sweep]
        log.info("broker listening on %s:%d", *self.address)

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns.items())
        for _, sock in conns:
            _quiet_close(sock)

    def serve_forever(self) -> None:
        try:
            self.start()
            while not self._stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- internals ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._conn_counter += 1
                conn_id = f"tcp-{self._conn_counter}"
                self._conns[conn_id] = sock
                self._send_locks[conn_id] = threading.Lock()
            log.debug("connection %s from %s:%d", conn_id, *peer)
            reader = threading.Thread(
                target=self._read_loop, args=(conn_id, sock),
                name=f"mqtt-{conn_id}", daemon=True,
            )
            reader.start()

    def _read_loop(self, conn_id: str, sock: socket.socket) -> None:
        buffer = bytearray()
        try:
            while not self._stopping.is_set():
                try:
                    chunk = sock.recv(READ_CHUNK)
                except OSError:
                    break
                if not chunk:
                    break
                buffer.extend(chunk)
                while True:
                    try:
                        decoded = codec.decode_packet(buffer)
                    except codec.ProtocolError as exc:
                        log.warning("%s: protocol error: %s", conn_id, exc)
                        return
                    if decoded is None:
                        break
                    packet, consumed = decoded
                    del buffer[:consumed]
                    with self._lock:
                        outputs = self.core.handle(conn_id, packet, time.monotonic())
                    self._dispatch(outputs)
        finally:
            with self._lock:
                self.core.connection_closed(conn_id)
                self._conns.pop(conn_id, None)
                self._send_locks.pop(conn_id, None)
            _quiet_close(sock)
            log.debug("connection %s closed", conn_id)

    def _sweep_loop(self) -> None:
        while not self._stopping.wait(SWEEP_PERIOD_S):
            now = time.monotonic()
            with self._lock:
                outputs = self.core.redeliver(now) + self.core.keepalive_sweep(now)
            self._dispatch(outputs)

    def _dispatch(self, outputs: list[Send | Close]) -> None:
        for output in outputs:
            if isinstance(output, Send):
                self._send(output.conn_id, output.packet)
            else:
                with self._lock:
                    sock = self._conns.pop(output.conn_id, None)
                    self._send_locks.pop(output.conn_id, None)
                    self.core.connection_closed(output.conn_id)
                if sock is not None:
                    _quiet_close(sock)

    def _send(self, conn_id: str, packet: codec.MqttPacket) -> None:
        with self._lock:
            sock = self._conns.get(conn_id)
            send_lock = self._send_locks.get(conn_id)
        if sock is None or send_lock is None:
            return
        data = codec.encode_packet(packet)
        try:
            with send_lock:
                sock.sendall(data)
        except OSError as exc:
            log.debug("send to %s failed: %s", conn_id, exc)


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ConnectionError_(Exception):
    """Could not reach or handshake with the broker."""


class MqttConnection:
    """Blocking MQTT client over TCP; received messages land in `messages`."""

    def __init__(self, host: str, port: int, client_id: str,
                 keep_alive_s: int = 30, connect_timeout_s: float = 5.0):
        self.engine = ClientEngine(client_id=client_id, keep_alive_s=keep_alive_s,
                                   on_message=self._on_message)
        self.messages: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self._connack = threading.Event()
        try:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        except OSError as exc:
            raise ConnectionError_(f"cannot connect to {host}:{port}: {exc}") from exc
        self._sock.settimeout(0.5)
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, name="mqtt-client-read", daemon=True)
        self._reader.start()
        self._send(self.engine.connect_packet())
        if not self._connack.wait(connect_timeout_s):
            self.close()
            raise ConnectionError_(f"no CONNACK from {host}:{port}")
        if not self.engine.connected:
            code = self.engine.connack_code
            self.close()
            raise ConnectionError_(f"broker refused connection (code {code})")
        if keep_alive_s > 0:
            pinger = threading.Thread(target=self._ping_loop, name="mqtt-client-ping", daemon=True)
            pinger.start()

    def _on_message(self, topic: str, payload: bytes, retain: bool, dup: bool) -> None:
        self.messages.put((topic, payload, retain))

    def subscribe(self, topic_filter: str, qos: int = 0) -> None:
        self._send(self.engine.subscribe_packet([(topic_filter, qos)]))

    def publish(self, topic: str, payload: bytes, qos: int = 0, retain: bool = False) -> None:
        self._send(self.engine.publish_packet(topic, payload, qos=qos, retain=retain))

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            if self.engine.connected:
                try:
                    self._send(self.engine.disconnect_packet())
                except OSError:
                    pass
            _quiet_close(self._sock)

    def _send(self, packet: codec.MqttPacket) -> None:
        data = codec.encode_packet(packet)
        with self._send_lock:
            self._sock.sendall(data)

    def _ping_loop(self) -> None:
        interval = max(self.engine.keep_alive_s / 2.0, 1.0)
        while not self._closed.wait(interval):
            try:
                self._send(self.engine.ping_packet())
            except OSError:
                return

    def _read_loop(self) -> None:
        buffer = bytearray()
        while not self._closed.is_set():
            try:
                chunk = self._sock.recv(READ_CHUNK)
            except socket.timeout:
                continue
            except OSError:
                break
            if not chunk:
                break
            buffer.extend(chunk)
            while True:
                try:
                    decoded = codec.decode_packet(buffer)
                except codec.ProtocolError as exc:
                    log.warning("client: protocol error from broker: %s", exc)
                    self.close()
                    return
                if decoded is None:
                    break
                packet, consumed = decoded
                del buffer[:consumed]
                if isinstance(packet, codec.ConnAck):
                    self.engine.handle_packet(packet)
                    self._connack.set()
                    continue
                for response in self.engine.handle_packet(packet):
                    try:
                        self._send(response)
                    except OSError:
                        return
