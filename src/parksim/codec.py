"""MQTT 3.1.1 wire codec for the subset this system speaks.

Supported packets: CONNECT, CONNACK, PUBLISH (QoS 0/1), PUBACK, SUBSCRIBE,
SUBACK, UNSUBSCRIBE, UNSUBACK, PINGREQ, PINGRESP, DISCONNECT. QoS 2, wills,
username/password and session resumption are out of scope; CONNECT frames
that request them decode fine but are flagged so the broker can refuse them
with return code 0x01.

decode_packet() is incremental: it returns None while the buffer holds only
a prefix of a frame, and raises ProtocolError for bytes that can never
become a valid frame. It reads the fixed header in place and copies only
the frame body, so it can be handed a memoryview slice of a larger receive
buffer. The remaining-length cap is enforced before any payload allocation.
FrameSplitter turns one connection's byte stream into packets on top of it.
frame_size() gives the length encode_packet() would produce for a PUBLISH,
after the same checks, without building the frame. A QoS 0 PUBLISH must
not set DUP (MQTT-3.3.1-2): neither side encodes one, and decoding one is a
protocol error.

Packets are immutable `values.Value` classes: slotted, built positionally
or by keyword, read-only, equal only to a packet of the same type with the
same fields. Decoding builds them positionally.
"""

from __future__ import annotations

import struct

from .values import Value

# Protocol ceiling for the remaining-length varint.
MAX_REMAINING_LENGTH = 268_435_455
# What we actually accept on a connection; facility messages are tiny.
DEFAULT_REMAINING_LENGTH_CAP = 256 * 1024

_CONNECT, _CONNACK, _PUBLISH, _PUBACK = 1, 2, 3, 4
_SUBSCRIBE, _SUBACK, _UNSUBSCRIBE, _UNSUBACK = 8, 9, 10, 11
_PINGREQ, _PINGRESP, _DISCONNECT = 12, 13, 14


class ProtocolError(Exception):
    """Malformed or out-of-subset bytes on the wire."""


class EncodeError(Exception):
    """Packet violates its invariants and cannot be serialized."""


class Connect(Value, defaults={"keep_alive_s": 0, "clean_session": True,
                               "requests_unsupported": False}):
    # requests_unsupported is set on decode when the frame asks for wills,
    # auth, QoS-2 wills, a persistent session, or a protocol other than
    # MQTT level 4.
    __slots__ = ("client_id", "keep_alive_s", "clean_session", "requests_unsupported")


class ConnAck(Value, defaults={"return_code": 0}):
    __slots__ = ("return_code",)


class Publish(Value, defaults={"payload": b"", "qos": 0, "retain": False, "dup": False,
                               "packet_id": None}):
    __slots__ = ("topic", "payload", "qos", "retain", "dup", "packet_id")


class PubAck(Value):
    __slots__ = ("packet_id",)


class Subscribe(Value):
    __slots__ = ("packet_id", "filters")  # filters: ((filter, qos), ...)


class SubAck(Value):
    __slots__ = ("packet_id", "granted")  # granted: (qos, ...)


class Unsubscribe(Value):
    __slots__ = ("packet_id", "filters")  # filters: (filter, ...)


class UnsubAck(Value):
    __slots__ = ("packet_id",)


class PingReq(Value):
    __slots__ = ()


class PingResp(Value):
    __slots__ = ()


class Disconnect(Value):
    __slots__ = ()


MqttPacket = (
    Connect | ConnAck | Publish | PubAck | Subscribe | SubAck
    | Unsubscribe | UnsubAck | PingReq | PingResp | Disconnect
)


def validate_topic(topic: str) -> None:
    """Publish topics: non-empty, no wildcard characters, no U+0000."""
    if not topic:
        raise ValueError("topic must be non-empty")
    if "+" in topic or "#" in topic:
        raise ValueError(f"topic must not contain wildcards: {topic!r}")
    if "\0" in topic:
        raise ValueError(f"topic must not contain U+0000: {topic!r}")


def validate_filter(topic_filter: str) -> None:
    """Subscription filters: '+' alone in a level, '#' alone in the last level,
    no U+0000."""
    if not topic_filter:
        raise ValueError("topic filter must be non-empty")
    if "\0" in topic_filter:
        raise ValueError(f"topic filter must not contain U+0000: {topic_filter!r}")
    levels = topic_filter.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise ValueError(f"'#' must be the whole final level: {topic_filter!r}")
        elif "+" in level and level != "+":
            raise ValueError(f"'+' must occupy a whole level: {topic_filter!r}")


def topic_matches(topic_filter: str, topic: str) -> bool:
    """Level-wise filter match per MQTT rules.

    A wildcard in the first level never matches a topic starting with '$'
    (MQTT 3.1.1 section 4.7.2), so '#' does not see '$SYS/...' topics.
    """
    validate_filter(topic_filter)
    flevels = topic_filter.split("/")
    tlevels = topic.split("/")
    if topic.startswith("$") and flevels[0] in ("+", "#"):
        return False
    for i, flevel in enumerate(flevels):
        if flevel == "#":
            return True
        if i >= len(tlevels):
            return False
        if flevel != "+" and flevel != tlevels[i]:
            return False
    return len(tlevels) == len(flevels)


def encode_varint(n: int) -> bytes:
    """Base-128 little-endian with continuation bit, 1..4 bytes."""
    if not 0 <= n <= MAX_REMAINING_LENGTH:
        raise EncodeError(f"varint out of range: {n}")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf: bytes | bytearray | memoryview, start: int = 0) -> tuple[int, int] | None:
    """Reads the varint at buf[start:]; returns (value, bytes consumed), or
    None if the buffer is too short.

    Raises ProtocolError for a 5th continuation byte or a non-minimal
    encoding (trailing 0x00 groups).
    """
    value = 0
    for i in range(4):
        if start + i >= len(buf):
            return None
        byte = buf[start + i]
        value |= (byte & 0x7F) << (7 * i)
        if not byte & 0x80:
            if i > 0 and byte == 0:
                raise ProtocolError("overlong varint encoding")
            return value, i + 1
    raise ProtocolError("varint longer than 4 bytes")


def _mqtt_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise EncodeError(f"string too long for wire format ({len(data)} bytes)")
    return struct.pack(">H", len(data)) + data


def _check_packet_id(packet_id: int) -> None:
    if not 1 <= packet_id <= 0xFFFF:
        raise EncodeError(f"packet_id must be in 1..65535, got {packet_id}")


def free_packet_id(start: int, *in_use) -> int | None:
    """The first packet id from `start` on, wrapping from 65535 to 1, that
    none of the `in_use` collections holds, looking at most once at each
    id; None when all 65,535 are taken. An id stays taken until its
    exchange completes (MQTT 3.1.1 §2.3.1)."""
    pid = start
    while True:
        for used in in_use:
            if pid in used:
                break
        else:
            return pid
        pid = pid % 0xFFFF + 1
        if pid == start:
            return None


def _check_publish(packet: Publish) -> None:
    try:
        validate_topic(packet.topic)
    except ValueError as exc:
        raise EncodeError(str(exc)) from exc
    if packet.qos not in (0, 1):
        raise EncodeError(f"qos must be 0 or 1, got {packet.qos}")
    if packet.qos == 1:
        if packet.packet_id is None:
            raise EncodeError("qos 1 publish requires a packet_id")
        _check_packet_id(packet.packet_id)
    elif packet.packet_id is not None:
        raise EncodeError("qos 0 publish must not carry a packet_id")
    elif packet.dup:
        raise EncodeError("qos 0 publish must not set DUP")  # MQTT-3.3.1-2


def frame_size(packet: Publish) -> int:
    """len(encode_packet(packet)) for a PUBLISH, after the same checks,
    without serializing it."""
    _check_publish(packet)
    topic_len = len(packet.topic.encode("utf-8"))
    if topic_len > 0xFFFF:
        raise EncodeError(f"string too long for wire format ({topic_len} bytes)")
    remaining = 2 + topic_len + (2 if packet.qos == 1 else 0) + len(packet.payload)
    if remaining > MAX_REMAINING_LENGTH:
        raise EncodeError(f"varint out of range: {remaining}")
    varint_len = 1 if remaining < 0x80 else 2 if remaining < 0x4000 else 3 if remaining < 0x200000 else 4
    return 1 + varint_len + remaining


def encode_packet(packet: MqttPacket) -> bytes:
    """Serialize to the MQTT 3.1.1 wire layout."""
    if isinstance(packet, Connect):
        if packet.requests_unsupported:
            raise EncodeError("cannot encode CONNECT with unsupported features")
        if not 0 <= packet.keep_alive_s <= 0xFFFF:
            raise EncodeError(f"keep_alive_s out of range: {packet.keep_alive_s}")
        flags = 0x02 if packet.clean_session else 0x00
        body = (
            _mqtt_string("MQTT")
            + bytes([4, flags])
            + struct.pack(">H", packet.keep_alive_s)
            + _mqtt_string(packet.client_id)
        )
        return _frame(_CONNECT, 0, body)

    if isinstance(packet, ConnAck):
        if not 0 <= packet.return_code <= 5:
            raise EncodeError(f"CONNACK return code out of range: {packet.return_code}")
        return _frame(_CONNACK, 0, bytes([0, packet.return_code]))

    if isinstance(packet, Publish):
        _check_publish(packet)
        flags = (int(packet.dup) << 3) | (packet.qos << 1) | int(packet.retain)
        body = _mqtt_string(packet.topic)
        if packet.qos == 1:
            body += struct.pack(">H", packet.packet_id)
        body += bytes(packet.payload)
        return _frame(_PUBLISH, flags, body)

    if isinstance(packet, PubAck):
        _check_packet_id(packet.packet_id)
        return _frame(_PUBACK, 0, struct.pack(">H", packet.packet_id))

    if isinstance(packet, Subscribe):
        _check_packet_id(packet.packet_id)
        if not packet.filters:
            raise EncodeError("SUBSCRIBE needs at least one filter")
        body = struct.pack(">H", packet.packet_id)
        for topic_filter, qos in packet.filters:
            try:
                validate_filter(topic_filter)
            except ValueError as exc:
                raise EncodeError(str(exc)) from exc
            if qos not in (0, 1):
                raise EncodeError(f"requested qos must be 0 or 1, got {qos}")
            body += _mqtt_string(topic_filter) + bytes([qos])
        return _frame(_SUBSCRIBE, 0x02, body)

    if isinstance(packet, SubAck):
        _check_packet_id(packet.packet_id)
        if any(code not in (0, 1) for code in packet.granted):
            raise EncodeError("granted qos codes must be 0 or 1")
        return _frame(_SUBACK, 0, struct.pack(">H", packet.packet_id) + bytes(packet.granted))

    if isinstance(packet, Unsubscribe):
        _check_packet_id(packet.packet_id)
        if not packet.filters:
            raise EncodeError("UNSUBSCRIBE needs at least one filter")
        body = struct.pack(">H", packet.packet_id)
        for topic_filter in packet.filters:
            try:
                validate_filter(topic_filter)
            except ValueError as exc:
                raise EncodeError(str(exc)) from exc
            body += _mqtt_string(topic_filter)
        return _frame(_UNSUBSCRIBE, 0x02, body)

    if isinstance(packet, UnsubAck):
        _check_packet_id(packet.packet_id)
        return _frame(_UNSUBACK, 0, struct.pack(">H", packet.packet_id))

    if isinstance(packet, PingReq):
        return _frame(_PINGREQ, 0, b"")
    if isinstance(packet, PingResp):
        return _frame(_PINGRESP, 0, b"")
    if isinstance(packet, Disconnect):
        return _frame(_DISCONNECT, 0, b"")

    raise EncodeError(f"unknown packet type: {type(packet).__name__}")


def _frame(ptype: int, flags: int, body: bytes) -> bytes:
    return bytes([(ptype << 4) | flags]) + encode_varint(len(body)) + body


def decode_packet(
    buf: bytes | bytearray | memoryview,
    max_remaining_length: int = DEFAULT_REMAINING_LENGTH_CAP,
) -> tuple[MqttPacket, int] | None:
    """Decode one packet from the front of `buf`.

    Returns (packet, bytes_consumed), or None when more bytes are needed.
    Raises ProtocolError when the buffer can never become a valid frame.
    Only the frame body is copied out of `buf`.
    """
    if not buf:
        return None
    first = buf[0]
    ptype = first >> 4
    flags = first & 0x0F
    if ptype in (0, 15):
        raise ProtocolError(f"reserved packet type {ptype}")
    varint = decode_varint(buf, 1)
    if varint is None:
        return None
    remaining, varint_len = varint
    if remaining > max_remaining_length:
        raise ProtocolError(f"remaining length {remaining} exceeds cap {max_remaining_length}")
    total = 1 + varint_len + remaining
    if len(buf) < total:
        return None
    body = bytes(buf[1 + varint_len : total])
    return _decode_body(ptype, flags, body), total


class FrameSplitter:
    """Splits one connection's inbound byte stream into packets.

    feed() appends the bytes just received, decodes every complete frame in
    place (a memoryview plus an offset, through the module's decode_packet)
    and trims the consumed prefix once per call; a partial frame stays
    buffered for the next call. When the stream holds bytes that can never
    form a frame, feed() still returns the packets before them and sets
    `error`; the stream is dead from then on and later calls return [].
    """

    def __init__(self) -> None:
        self.error: ProtocolError | None = None
        self._buf = bytearray()

    def feed(self, data: bytes | bytearray | memoryview) -> list[MqttPacket]:
        if self.error is not None:
            return []
        buf = self._buf
        buf += data
        packets: list[MqttPacket] = []
        pos = 0
        view = memoryview(buf)
        try:
            while pos < len(buf):
                decoded = decode_packet(view[pos:])
                if decoded is None:
                    break
                packet, consumed = decoded
                packets.append(packet)
                pos += consumed
        except ProtocolError as exc:
            self.error = exc
        finally:
            view.release()
        if self.error is not None:
            # the error's traceback may still hold a slice of the old buffer
            self._buf = bytearray()
        else:
            del buf[:pos]
        return packets


class _Cursor:
    """Reads typed fields out of a completed packet body."""

    def __init__(self, body: bytes):
        self.body = body
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.body):
            raise ProtocolError("packet body truncated")
        chunk = self.body[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 string: {exc}") from exc

    def rest(self) -> bytes:
        chunk = self.body[self.pos :]
        self.pos = len(self.body)
        return chunk

    def done(self) -> None:
        if self.pos != len(self.body):
            raise ProtocolError(f"{len(self.body) - self.pos} trailing bytes in packet body")

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.body)


def _require_flags(flags: int, expected: int, name: str) -> None:
    if flags != expected:
        raise ProtocolError(f"invalid fixed-header flags 0x{flags:X} for {name}")


def _decode_body(ptype: int, flags: int, body: bytes) -> MqttPacket:
    cur = _Cursor(body)

    if ptype == _CONNECT:
        _require_flags(flags, 0, "CONNECT")
        proto_name = cur.string()
        proto_level = cur.take(1)[0]
        connect_flags = cur.take(1)[0]
        if connect_flags & 0x01:
            raise ProtocolError("CONNECT reserved flag bit set")
        keep_alive = cur.u16()
        client_id = cur.string()
        clean_session = bool(connect_flags & 0x02)
        will = bool(connect_flags & 0x04)
        username = bool(connect_flags & 0x80)
        password = bool(connect_flags & 0x40)
        if will:
            cur.string()  # will topic
            cur.take(cur.u16())  # will message
        if username:
            cur.string()
        if password:
            cur.take(cur.u16())
        cur.done()
        unsupported = (
            proto_name != "MQTT"
            or proto_level != 4
            or will
            or username
            or password
            or not clean_session
        )
        return Connect(client_id, keep_alive, clean_session, unsupported)

    if ptype == _CONNACK:
        _require_flags(flags, 0, "CONNACK")
        ack_flags = cur.take(1)[0]
        code = cur.take(1)[0]
        cur.done()
        if ack_flags not in (0, 1):
            raise ProtocolError(f"invalid CONNACK flags byte 0x{ack_flags:X}")
        if code > 5:
            raise ProtocolError(f"CONNACK return code {code} out of range")
        return ConnAck(code)

    if ptype == _PUBLISH:
        dup = bool(flags & 0x08)
        qos = (flags >> 1) & 0x03
        retain = bool(flags & 0x01)
        if qos == 3:
            raise ProtocolError("publish qos bits set to 3")
        if qos == 2:
            raise ProtocolError("qos 2 is outside the supported subset")
        if qos == 0 and dup:
            raise ProtocolError("qos 0 publish with DUP set")  # MQTT-3.3.1-2
        topic = cur.string()
        try:
            validate_topic(topic)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        packet_id = None
        if qos == 1:
            packet_id = cur.u16()
            if packet_id == 0:
                raise ProtocolError("packet_id 0 is not allowed")
        payload = cur.rest()
        return Publish(topic, payload, qos, retain, dup, packet_id)

    if ptype == _PUBACK:
        _require_flags(flags, 0, "PUBACK")
        packet_id = cur.u16()
        cur.done()
        if packet_id == 0:
            raise ProtocolError("packet_id 0 is not allowed")
        return PubAck(packet_id)

    if ptype == _SUBSCRIBE:
        _require_flags(flags, 0x02, "SUBSCRIBE")
        packet_id = cur.u16()
        if packet_id == 0:
            raise ProtocolError("packet_id 0 is not allowed")
        filters = []
        while not cur.exhausted:
            topic_filter = cur.string()
            qos = cur.take(1)[0]
            try:
                validate_filter(topic_filter)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            if qos > 1:
                raise ProtocolError(f"requested qos {qos} is outside the supported subset")
            filters.append((topic_filter, qos))
        if not filters:
            raise ProtocolError("SUBSCRIBE carries no filters")
        return Subscribe(packet_id, tuple(filters))

    if ptype == _SUBACK:
        _require_flags(flags, 0, "SUBACK")
        packet_id = cur.u16()
        if packet_id == 0:
            raise ProtocolError("packet_id 0 is not allowed")
        granted = tuple(cur.rest())
        if not granted:
            raise ProtocolError("SUBACK carries no return codes")
        if any(code not in (0, 1) for code in granted):
            raise ProtocolError("SUBACK return code outside the supported subset")
        return SubAck(packet_id, granted)

    if ptype == _UNSUBSCRIBE:
        _require_flags(flags, 0x02, "UNSUBSCRIBE")
        packet_id = cur.u16()
        if packet_id == 0:
            raise ProtocolError("packet_id 0 is not allowed")
        filters = []
        while not cur.exhausted:
            topic_filter = cur.string()
            try:
                validate_filter(topic_filter)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            filters.append(topic_filter)
        if not filters:
            raise ProtocolError("UNSUBSCRIBE carries no filters")
        return Unsubscribe(packet_id, tuple(filters))

    if ptype == _UNSUBACK:
        _require_flags(flags, 0, "UNSUBACK")
        packet_id = cur.u16()
        cur.done()
        if packet_id == 0:
            raise ProtocolError("packet_id 0 is not allowed")
        return UnsubAck(packet_id)

    if ptype == _PINGREQ:
        _require_flags(flags, 0, "PINGREQ")
        cur.done()
        return PingReq()

    if ptype == _PINGRESP:
        _require_flags(flags, 0, "PINGRESP")
        cur.done()
        return PingResp()

    if ptype == _DISCONNECT:
        _require_flags(flags, 0, "DISCONNECT")
        cur.done()
        return Disconnect()

    raise ProtocolError(f"unhandled packet type {ptype}")
