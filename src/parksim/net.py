"""TCP transport for the broker core, and a blocking MQTT client.

BrokerServer drives the sans-IO BrokerCore from one `selectors` loop on one
daemon thread. The listener, every connection and a wake-up socketpair are
registered with the same selector, so only that thread ever touches the
core and no lock is needed. Sockets are non-blocking:

- Inbound, each connection's codec.FrameSplitter decodes every complete
  frame of a recv() in place and hands the packets to the core in order.
- Outbound, each connection keeps a bytearray. Frames the core produces are
  appended in the order it produced them, and every connection with bytes
  pending gets one send() per loop pass. EVENT_WRITE is registered only
  while bytes remain after that send.
- A peer whose pending bytes exceed MAX_OUTBOUND_BYTES is a slow consumer:
  it is disconnected, counted in `slow_consumer_closes`, and the core is
  told through connection_closed, so it cannot stall anyone else.
- Redelivery and keep-alive share the core's one timer on the monotonic
  clock: the select timeout is the time left until core.next_deadline(),
  and a pass that reaches it calls core.tick(). With no deadline, select
  blocks until a socket is ready.

stop() may be called from any thread: it wakes the loop through the
socketpair and waits for it to close every socket.

MqttConnection starts no thread: the thread that owns a connection drives
it. publish() sends at once; poll() waits on the socket, answers what came
in (PUBACK for qos 1), collects messages in a list, and sends a PINGREQ once
max(keep_alive_s / 2, 1) s have passed since the last send.
"""

from __future__ import annotations

import logging
import math
import selectors
import socket
import threading
import time

from . import codec
from .broker import BrokerCore, BrokerOutput, Close
from .client import ClientEngine

log = logging.getLogger(__name__)

READ_CHUNK = 1 << 16
# Outbound bytes a connection may have pending before it counts as a slow
# consumer and is disconnected.
MAX_OUTBOUND_BYTES = 1 << 20

_READ = selectors.EVENT_READ
_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


class _Conn:
    __slots__ = ("conn_id", "sock", "frames", "out", "writing")

    def __init__(self, conn_id: str, sock: socket.socket):
        self.conn_id = conn_id
        self.sock = sock
        self.frames = codec.FrameSplitter()
        self.out = bytearray()
        self.writing = False  # EVENT_WRITE registered


class BrokerServer:
    def __init__(self, host: str = "0.0.0.0", port: int = 1883,
                 core: BrokerCore | None = None):
        self.core = core or BrokerCore()
        self.slow_consumer_closes = 0
        self._conns: dict[str, _Conn] = {}
        # connections with outbound bytes to send at the end of this pass
        self._pending: dict[str, _Conn] = {}
        self._conn_counter = 0
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ)
        self._selector.register(self._wake_r, _READ)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, name="mqtt-broker", daemon=True)
        self._thread.start()
        log.info("broker listening on %s:%d", *self.address)

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # already closed, or a wake-up is already queued
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join()
        self._close_all()

    def serve_forever(self) -> None:
        try:
            self.start()
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- the loop ----------------------------------------------------------

    def _serve(self) -> None:
        select, core = self._selector.select, self.core
        try:
            while not self._stopping.is_set():
                # Any deadline a pass sets lies in the future, so the one read
                # before select can only make tick() early, never late; an
                # early tick finds nothing due and the next pass reads again.
                deadline = core.next_deadline()
                timeout = None if deadline is None else max(deadline - time.monotonic(), 0.0)
                for key, mask in select(timeout):
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        else:
                            self._wake_r.recv(4096)
                    elif self._conns.get(conn.conn_id) is conn:
                        if mask & selectors.EVENT_READ:
                            self._read(conn)
                        if mask & selectors.EVENT_WRITE:
                            self._pending[conn.conn_id] = conn
                if deadline is not None:
                    now = time.monotonic()
                    if now >= deadline:
                        self._dispatch(core.tick(now))
                self._flush()
        finally:
            self._stopping.set()
            self._close_all()

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("accept failed: %s", exc)
                return
            sock.setblocking(False)
            self._conn_counter += 1
            conn = _Conn(f"tcp-{self._conn_counter}", sock)
            self._conns[conn.conn_id] = conn
            self._selector.register(sock, _READ, conn)
            log.debug("connection %s from %s:%d", conn.conn_id, *peer)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        now = time.monotonic()
        try:
            for packet in conn.frames.feed(data):
                self._dispatch(self.core.handle(conn.conn_id, packet, now))
                if conn.conn_id not in self._conns:
                    return
        except Exception:
            log.exception("%s: failed to handle a packet", conn.conn_id)
            self._close(conn)
            return
        if conn.frames.error is not None:
            log.warning("%s: protocol error: %s", conn.conn_id, conn.frames.error)
            self._close(conn)

    def _dispatch(self, outputs: list[BrokerOutput]) -> None:
        conns = self._conns
        for output in outputs:
            conn = conns.get(output.conn_id)
            if conn is None:
                continue
            if type(output) is Close:
                self._close(conn)
                continue
            conn.out += codec.encode_packet(output.packet)
            if len(conn.out) > MAX_OUTBOUND_BYTES:
                self.slow_consumer_closes += 1
                log.warning("%s: slow consumer, %d bytes pending; disconnecting",
                            conn.conn_id, len(conn.out))
                self._close(conn, flush=False)
            elif not conn.writing:
                self._pending[conn.conn_id] = conn

    def _flush(self) -> None:
        """One send() per connection with bytes pending."""
        pending, self._pending = self._pending, {}
        for conn in pending.values():
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                log.debug("send to %s failed: %s", conn.conn_id, exc)
                self._close(conn, flush=False)
                continue
            del conn.out[:sent]
            if conn.writing != bool(conn.out):
                conn.writing = not conn.writing
                self._selector.modify(conn.sock, _READ_WRITE if conn.writing else _READ, conn)

    def _close(self, conn: _Conn, flush: bool = True) -> None:
        """Forget `conn`, tell the core, and close the socket after one last
        try at sending what is pending when `flush` is set."""
        if self._conns.pop(conn.conn_id, None) is None:
            return
        self._pending.pop(conn.conn_id, None)
        self._selector.unregister(conn.sock)
        if flush and conn.out:
            try:
                conn.sock.send(conn.out)
            except OSError:
                pass
        self.core.connection_closed(conn.conn_id)
        _quiet_close(conn.sock)
        log.debug("connection %s closed", conn.conn_id)

    def _close_all(self) -> None:
        for conn in list(self._conns.values()):
            self._close(conn, flush=False)
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._selector.close()


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
    """Blocking MQTT client over TCP, driven by its owner's thread through
    poll(); received messages land in `messages` as (topic, payload, retain)."""

    def __init__(self, host: str, port: int, client_id: str,
                 keep_alive_s: int = 30, connect_timeout_s: float = 5.0):
        self.engine = ClientEngine(client_id=client_id, keep_alive_s=keep_alive_s,
                                   on_message=self._on_message)
        self.messages: list[tuple[str, bytes, bool]] = []
        self.closed = False  # close() ran, or poll() found the broker side gone
        self._ping_every = max(keep_alive_s / 2.0, 1.0) if keep_alive_s > 0 else math.inf
        self._frames = codec.FrameSplitter()
        try:
            # sends keep this timeout; poll() waits in the selector instead
            self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        except OSError as exc:
            raise ConnectionError_(f"cannot connect to {host}:{port}: {exc}") from exc
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, _READ)
        try:
            self._send(self.engine.connect_packet())
        except OSError as exc:  # the broker already closed the socket
            self.close()
            raise ConnectionError_(f"lost {host}:{port} before CONNECT: {exc}") from exc
        deadline = time.monotonic() + connect_timeout_s
        while self.engine.connack_code is None and time.monotonic() < deadline:
            if not self.poll(deadline - time.monotonic()):
                break
        if self.engine.connack_code is None:
            self.close()
            raise ConnectionError_(f"no CONNACK from {host}:{port}")
        if not self.engine.connected:
            code = self.engine.connack_code
            self.close()
            raise ConnectionError_(f"broker refused connection (code {code})")

    def _on_message(self, topic: str, payload: bytes, retain: bool, dup: bool) -> None:
        self.messages.append((topic, payload, retain))

    def subscribe(self, topic_filter: str, qos: int = 0) -> None:
        self._send(self.engine.subscribe_packet([(topic_filter, qos)]))

    def publish(self, topic: str, payload: bytes, qos: int = 0, retain: bool = False) -> None:
        self._send(self.engine.publish_packet(topic, payload, qos=qos, retain=retain))

    def poll(self, timeout: float = 0.0) -> bool:
        """Wait up to `timeout` seconds for bytes from the broker and handle
        them, sending a PINGREQ whenever one falls due meanwhile. Returns
        after the first read, or once `timeout` has passed; False once the
        connection is closed."""
        deadline = time.monotonic() + timeout
        try:
            while not self.closed:
                now = time.monotonic()
                ping_at = self._last_send + self._ping_every
                if now >= ping_at:
                    self._send(self.engine.ping_packet())
                elif self._selector.select(min(deadline, ping_at) - now):
                    self._read()
                    break
                elif time.monotonic() >= deadline:
                    break
        except OSError:
            # the broker hung up or the socket failed: no DISCONNECT can follow
            self.engine.connected = False
            self.close()
        return not self.closed

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.engine.connected:
            try:
                self._send(self.engine.disconnect_packet())
            except OSError:
                pass
        self._selector.close()
        _quiet_close(self._sock)

    def _send(self, packet: codec.MqttPacket) -> None:
        self._sock.sendall(codec.encode_packet(packet))
        self._last_send = time.monotonic()

    def _read(self) -> None:
        chunk = self._sock.recv(READ_CHUNK)
        if not chunk:
            raise ConnectionResetError("the broker closed the connection")
        for packet in self._frames.feed(chunk):
            for response in self.engine.handle_packet(packet):
                self._send(response)
        if self._frames.error is not None:
            log.warning("client: protocol error from broker: %s", self._frames.error)
            self.close()
