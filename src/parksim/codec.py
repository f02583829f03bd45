"""MQTT 3.1.1 wire codec for the subset this system speaks.

Supported packets: CONNECT, CONNACK, PUBLISH (QoS 0/1), PUBACK, SUBSCRIBE,
SUBACK, UNSUBSCRIBE, UNSUBACK, PINGREQ, PINGRESP, DISCONNECT. QoS 2, wills,
username/password and session resumption are out of scope; CONNECT frames
that request them decode fine but are flagged so the broker can refuse them
with return code 0x01. A CONNECT whose Will QoS or Will Retain bits are
set without the Will Flag, or whose Will QoS is 3, is malformed
(MQTT-3.1.2-13 to -15), and so is one whose Password Flag is set without
the User Name Flag (MQTT-3.1.2-22). A SUBSCRIBE may request QoS 2 (the broker grants
1); a requested QoS above 2 is malformed (MQTT-3.8.3-4).

Each direction is one table lookup. decode_packet() parses the fixed header
once (one byte of remaining length is the common case) and hands
`_DECODERS[packet type]` the flags, the buffer and the body's bounds. The
decoders read every field in place, so the buffer may be bytes, a
bytearray or a memoryview slice of a larger receive buffer, and copy out
only the topic or filter strings and the payload. encode_packet() looks up
`_ENCODERS[type(packet)]`; PUBACK is one struct pack and PUBLISH is built
in one join.

decode_packet() is incremental: it returns None while the buffer holds only
a prefix of a frame, and raises ProtocolError for bytes that can never
become a valid frame. The remaining-length cap is enforced before any
payload allocation. FrameSplitter turns one connection's byte stream into
packets on top of it. A QoS 0 PUBLISH must not set DUP (MQTT-3.3.1-2):
neither side encodes one, and decoding one is a protocol error.

Packets are immutable `values.Value` classes: slotted, built positionally
or by keyword, read-only, equal only to a packet of the same type with the
same fields. Decoding builds them positionally.
"""

from __future__ import annotations

import struct
from typing import Callable

from .values import Value

# Protocol ceiling for the remaining-length varint.
MAX_REMAINING_LENGTH = 268_435_455
# What we actually accept on a connection; facility messages are tiny.
REMAINING_LENGTH_CAP = 256 * 1024

_CONNECT, _CONNACK, _PUBLISH, _PUBACK = 1, 2, 3, 4
_SUBSCRIBE, _SUBACK, _UNSUBSCRIBE, _UNSUBACK = 8, 9, 10, 11
_PINGREQ, _PINGRESP, _DISCONNECT = 12, 13, 14

Buffer = bytes | bytearray | memoryview


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


def decode_varint(buf: Buffer, start: int = 0) -> tuple[int, int] | None:
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


# -- encoding ------------------------------------------------------------------

_U16 = struct.Struct(">H").pack
# A first byte, a one-byte remaining length and a 16-bit field: a whole
# PUBACK or UNSUBACK, or the head of a PUBLISH under 128 bytes of body.
_BBH = struct.Struct(">BBH").pack


def _mqtt_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise EncodeError(f"string too long for wire format ({len(data)} bytes)")
    return _U16(len(data)) + data


def _check_packet_id(packet_id: int) -> None:
    if not 1 <= packet_id <= 0xFFFF:
        raise EncodeError(f"packet_id must be in 1..65535, got {packet_id}")


def _check_filter(topic_filter: str) -> None:
    try:
        validate_filter(topic_filter)
    except ValueError as exc:
        raise EncodeError(str(exc)) from exc


def _fixed_header(first: int, remaining: int) -> bytes:
    if remaining < 0x80:
        return bytes((first, remaining))
    return bytes((first,)) + encode_varint(remaining)


def _frame(first: int, body: bytes) -> bytes:
    return _fixed_header(first, len(body)) + body


def _encode_publish(packet: Publish) -> bytes:
    try:
        validate_topic(packet.topic)
    except ValueError as exc:
        raise EncodeError(str(exc)) from exc
    qos = packet.qos
    if qos == 1:
        if packet.packet_id is None:
            raise EncodeError("qos 1 publish requires a packet_id")
        _check_packet_id(packet.packet_id)
    elif qos != 0:
        raise EncodeError(f"qos must be 0 or 1, got {qos}")
    elif packet.packet_id is not None:
        raise EncodeError("qos 0 publish must not carry a packet_id")
    elif packet.dup:
        raise EncodeError("qos 0 publish must not set DUP")  # MQTT-3.3.1-2
    topic = packet.topic.encode("utf-8")
    if len(topic) > 0xFFFF:
        raise EncodeError(f"string too long for wire format ({len(topic)} bytes)")
    remaining = len(topic) + len(packet.payload) + (4 if qos else 2)
    first = _PUBLISH << 4 | packet.dup << 3 | qos << 1 | packet.retain
    if remaining < 0x80:
        head = _BBH(first, remaining, len(topic))
    else:
        head = _fixed_header(first, remaining) + _U16(len(topic))
    if qos:
        return b"".join((head, topic, _U16(packet.packet_id), packet.payload))
    return b"".join((head, topic, packet.payload))


def _encode_id_only(ptype: int) -> Callable[[PubAck | UnsubAck], bytes]:
    """Encoder for a packet whose body is its packet id alone."""
    first = ptype << 4

    def encode(packet):
        _check_packet_id(packet.packet_id)
        return _BBH(first, 2, packet.packet_id)

    return encode


def _encode_connect(packet: Connect) -> bytes:
    if packet.requests_unsupported:
        raise EncodeError("cannot encode CONNECT with unsupported features")
    if not 0 <= packet.keep_alive_s <= 0xFFFF:
        raise EncodeError(f"keep_alive_s out of range: {packet.keep_alive_s}")
    flags = 0x02 if packet.clean_session else 0x00
    body = (_mqtt_string("MQTT") + bytes((4, flags)) + _U16(packet.keep_alive_s)
            + _mqtt_string(packet.client_id))
    return _frame(_CONNECT << 4, body)


def _encode_connack(packet: ConnAck) -> bytes:
    if not 0 <= packet.return_code <= 5:
        raise EncodeError(f"CONNACK return code out of range: {packet.return_code}")
    return bytes((_CONNACK << 4, 2, 0, packet.return_code))


def _encode_subscribe(packet: Subscribe) -> bytes:
    _check_packet_id(packet.packet_id)
    if not packet.filters:
        raise EncodeError("SUBSCRIBE needs at least one filter")
    body = _U16(packet.packet_id)
    for topic_filter, qos in packet.filters:
        _check_filter(topic_filter)
        if qos not in (0, 1):
            raise EncodeError(f"requested qos must be 0 or 1, got {qos}")
        body += _mqtt_string(topic_filter) + bytes((qos,))
    return _frame(_SUBSCRIBE << 4 | 0x02, body)


def _encode_suback(packet: SubAck) -> bytes:
    _check_packet_id(packet.packet_id)
    if any(code not in (0, 1) for code in packet.granted):
        raise EncodeError("granted qos codes must be 0 or 1")
    return _frame(_SUBACK << 4, _U16(packet.packet_id) + bytes(packet.granted))


def _encode_unsubscribe(packet: Unsubscribe) -> bytes:
    _check_packet_id(packet.packet_id)
    if not packet.filters:
        raise EncodeError("UNSUBSCRIBE needs at least one filter")
    body = _U16(packet.packet_id)
    for topic_filter in packet.filters:
        _check_filter(topic_filter)
        body += _mqtt_string(topic_filter)
    return _frame(_UNSUBSCRIBE << 4 | 0x02, body)


_ENCODERS: dict[type, Callable[..., bytes]] = {
    Publish: _encode_publish,
    PubAck: _encode_id_only(_PUBACK),
    Connect: _encode_connect,
    ConnAck: _encode_connack,
    Subscribe: _encode_subscribe,
    SubAck: _encode_suback,
    Unsubscribe: _encode_unsubscribe,
    UnsubAck: _encode_id_only(_UNSUBACK),
    PingReq: lambda packet: bytes((_PINGREQ << 4, 0)),
    PingResp: lambda packet: bytes((_PINGRESP << 4, 0)),
    Disconnect: lambda packet: bytes((_DISCONNECT << 4, 0)),
}


def encode_packet(packet: MqttPacket) -> bytes:
    """Serialize to the MQTT 3.1.1 wire layout."""
    encode = _ENCODERS.get(type(packet))
    if encode is None:
        raise EncodeError(f"unknown packet type: {type(packet).__name__}")
    return encode(packet)


# -- decoding ------------------------------------------------------------------
#
# Each decoder takes (flags, buf, start, stop): the fixed header's low
# nibble, the buffer, and the bounds of the frame body within it.


def _truncated() -> ProtocolError:
    return ProtocolError("packet body truncated")


def _u16(buf: Buffer, i: int, stop: int) -> int:
    if i + 2 > stop:
        raise _truncated()
    return buf[i] << 8 | buf[i + 1]


def _byte(buf: Buffer, i: int, stop: int) -> int:
    if i >= stop:
        raise _truncated()
    return buf[i]


def _skip_binary(buf: Buffer, i: int, stop: int) -> int:
    """The offset after the length-prefixed binary field at buf[i]."""
    end = i + 2 + _u16(buf, i, stop)
    if end > stop:
        raise _truncated()
    return end


def _string(buf: Buffer, i: int, stop: int) -> tuple[str, int]:
    """The length-prefixed UTF-8 string at buf[i], and the offset after it."""
    start = i + 2
    if start > stop or (end := start + (buf[i] << 8 | buf[i + 1])) > stop:
        raise _truncated()
    try:
        return str(buf[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 string: {exc}") from exc


def _packet_id(buf: Buffer, i: int, stop: int) -> int:
    packet_id = _u16(buf, i, stop)
    if not packet_id:
        raise ProtocolError("packet_id 0 is not allowed")
    return packet_id


def _require_end(i: int, stop: int) -> None:
    if i != stop:
        raise ProtocolError(f"{stop - i} trailing bytes in packet body")


def _require_flags(flags: int, expected: int, name: str) -> None:
    if flags != expected:
        raise ProtocolError(f"invalid fixed-header flags 0x{flags:X} for {name}")


def _decode_publish(flags, buf, start, stop) -> Publish:
    qos = flags >> 1 & 0x03
    if qos == 3:
        raise ProtocolError("publish qos bits set to 3")
    if qos == 2:
        raise ProtocolError("qos 2 is outside the supported subset")
    if qos == 0 and flags & 0x08:
        raise ProtocolError("qos 0 publish with DUP set")  # MQTT-3.3.1-2
    topic, i = _string(buf, start, stop)
    try:
        validate_topic(topic)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    retain = flags & 0x01 == 1
    if qos:
        packet_id = _packet_id(buf, i, stop)
        return Publish(topic, bytes(buf[i + 2 : stop]), 1, retain, flags & 0x08 == 8, packet_id)
    return Publish(topic, bytes(buf[i:stop]), 0, retain, False, None)


def _decode_id_only(cls: type, name: str) -> Callable[..., MqttPacket]:
    """Decoder for a packet whose body is its packet id alone."""

    def decode(flags, buf, start, stop):
        _require_flags(flags, 0, name)
        packet_id = _u16(buf, start, stop)
        _require_end(start + 2, stop)
        if not packet_id:
            raise ProtocolError("packet_id 0 is not allowed")
        return cls(packet_id)

    return decode


def _decode_empty(cls: type, name: str) -> Callable[..., MqttPacket]:
    """Decoder for a packet with no body."""

    def decode(flags, buf, start, stop):
        _require_flags(flags, 0, name)
        _require_end(start, stop)
        return cls()

    return decode


def _decode_connect(flags, buf, start, stop) -> Connect:
    _require_flags(flags, 0, "CONNECT")
    proto_name, i = _string(buf, start, stop)
    proto_level = _byte(buf, i, stop)
    connect_flags = _byte(buf, i + 1, stop)
    if connect_flags & 0x01:
        raise ProtocolError("CONNECT reserved flag bit set")
    will = bool(connect_flags & 0x04)
    if connect_flags & 0x18 == 0x18 or not will and connect_flags & 0x38:  # MQTT-3.1.2-13..15
        raise ProtocolError(f"malformed CONNECT will flags 0x{connect_flags & 0x3C:02X}")
    if connect_flags & 0xC0 == 0x40:  # MQTT-3.1.2-22
        raise ProtocolError("CONNECT password flag set without the user name flag")
    keep_alive = _u16(buf, i + 2, stop)
    client_id, i = _string(buf, i + 4, stop)
    clean_session = bool(connect_flags & 0x02)
    username = bool(connect_flags & 0x80)
    password = bool(connect_flags & 0x40)
    if will:
        i = _string(buf, i, stop)[1]  # will topic
        i = _skip_binary(buf, i, stop)  # will message
    if username:
        i = _string(buf, i, stop)[1]
    if password:
        i = _skip_binary(buf, i, stop)
    _require_end(i, stop)
    unsupported = (
        proto_name != "MQTT"
        or proto_level != 4
        or will
        or username
        or password
        or not clean_session
    )
    return Connect(client_id, keep_alive, clean_session, unsupported)


def _decode_connack(flags, buf, start, stop) -> ConnAck:
    _require_flags(flags, 0, "CONNACK")
    ack_flags = _byte(buf, start, stop)
    code = _byte(buf, start + 1, stop)
    _require_end(start + 2, stop)
    if ack_flags not in (0, 1):
        raise ProtocolError(f"invalid CONNACK flags byte 0x{ack_flags:X}")
    if code > 5:
        raise ProtocolError(f"CONNACK return code {code} out of range")
    return ConnAck(code)


def _decode_subscribe(flags, buf, start, stop) -> Subscribe:
    _require_flags(flags, 0x02, "SUBSCRIBE")
    packet_id = _packet_id(buf, start, stop)
    i = start + 2
    filters = []
    while i < stop:
        topic_filter, i = _string(buf, i, stop)
        qos = _byte(buf, i, stop)
        i += 1
        try:
            validate_filter(topic_filter)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        if qos > 2:  # MQTT-3.8.3-4; the broker grants QoS 2 as 1
            raise ProtocolError(f"requested qos byte 0x{qos:X} is not 0, 1 or 2")
        filters.append((topic_filter, qos))
    if not filters:
        raise ProtocolError("SUBSCRIBE carries no filters")
    return Subscribe(packet_id, tuple(filters))


def _decode_suback(flags, buf, start, stop) -> SubAck:
    _require_flags(flags, 0, "SUBACK")
    packet_id = _packet_id(buf, start, stop)
    granted = tuple(buf[start + 2 : stop])
    if not granted:
        raise ProtocolError("SUBACK carries no return codes")
    if any(code not in (0, 1) for code in granted):
        raise ProtocolError("SUBACK return code outside the supported subset")
    return SubAck(packet_id, granted)


def _decode_unsubscribe(flags, buf, start, stop) -> Unsubscribe:
    _require_flags(flags, 0x02, "UNSUBSCRIBE")
    packet_id = _packet_id(buf, start, stop)
    i = start + 2
    filters = []
    while i < stop:
        topic_filter, i = _string(buf, i, stop)
        try:
            validate_filter(topic_filter)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        filters.append(topic_filter)
    if not filters:
        raise ProtocolError("UNSUBSCRIBE carries no filters")
    return Unsubscribe(packet_id, tuple(filters))


# Indexed by packet type; None for the reserved types 0 and 15 and for the
# QoS 2 flow (PUBREC, PUBREL, PUBCOMP), which this subset does not speak.
_DECODERS = tuple({
    _CONNECT: _decode_connect,
    _CONNACK: _decode_connack,
    _PUBLISH: _decode_publish,
    _PUBACK: _decode_id_only(PubAck, "PUBACK"),
    _SUBSCRIBE: _decode_subscribe,
    _SUBACK: _decode_suback,
    _UNSUBSCRIBE: _decode_unsubscribe,
    _UNSUBACK: _decode_id_only(UnsubAck, "UNSUBACK"),
    _PINGREQ: _decode_empty(PingReq, "PINGREQ"),
    _PINGRESP: _decode_empty(PingResp, "PINGRESP"),
    _DISCONNECT: _decode_empty(Disconnect, "DISCONNECT"),
}.get(ptype) for ptype in range(16))


def decode_packet(buf: Buffer) -> tuple[MqttPacket, int] | None:
    """Decode one packet from the front of `buf`.

    Returns (packet, bytes_consumed), or None when more bytes are needed.
    Raises ProtocolError when the buffer can never become a valid frame.
    Only the topic or filter strings and the payload are copied out of
    `buf`.
    """
    size = len(buf)
    if not size:
        return None
    first = buf[0]
    decode = _DECODERS[first >> 4]
    if decode is None:
        ptype = first >> 4
        if ptype in (0, 15):
            raise ProtocolError(f"reserved packet type {ptype}")
        raise ProtocolError(f"packet type {ptype} is outside the supported subset")
    if size > 1 and buf[1] < 0x80:
        remaining, start = buf[1], 2
    else:
        varint = decode_varint(buf, 1)
        if varint is None:
            return None
        remaining, start = varint[0], 1 + varint[1]
    if remaining > REMAINING_LENGTH_CAP:
        raise ProtocolError(f"remaining length {remaining} exceeds cap {REMAINING_LENGTH_CAP}")
    stop = start + remaining
    if size < stop:
        return None
    return decode(first & 0x0F, buf, start, stop), stop


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

    def feed(self, data: Buffer) -> list[MqttPacket]:
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
