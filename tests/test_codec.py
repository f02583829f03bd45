import bisect
import itertools
import random
import typing

import pytest
from hypothesis import given, strategies as st

from parksim import codec
from parksim.broker import BrokerCore, Close, Send
from parksim.codec import (
    ConnAck,
    Connect,
    Disconnect,
    EncodeError,
    PingReq,
    PingResp,
    ProtocolError,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    UnsubAck,
    Unsubscribe,
    decode_packet,
    decode_varint,
    encode_packet,
    encode_varint,
    topic_matches,
)

# Hand-assembled wire image: retain bit in the low flag nibble, remaining
# length 0x18 = 24, topic length 0x15 = 21, payload "1".
PUBLISH_WIRE = bytes.fromhex(
    "311800157061726b696e672f736c6f742f312f73746174757331"
)


def test_publish_encoding_matches_wire_image():
    packet = Publish(topic="parking/slot/1/status", payload=b"1", qos=0, retain=True)
    assert encode_packet(packet) == PUBLISH_WIRE


def test_publish_wire_image_decodes_back():
    packet, consumed = decode_packet(PUBLISH_WIRE)
    assert consumed == 26
    assert packet == Publish(topic="parking/slot/1/status", payload=b"1", qos=0, retain=True)


def test_publish_wire_prefix_needs_more_data():
    assert decode_packet(PUBLISH_WIRE[:3]) is None


def test_pingreq_is_two_bytes():
    assert encode_packet(PingReq()) == b"\xc0\x00"


def test_reserved_packet_types_rejected():
    with pytest.raises(ProtocolError):
        decode_packet(b"\xf0\x00")
    with pytest.raises(ProtocolError):
        decode_packet(b"\x00\x00")


def test_publish_qos1_needs_packet_id():
    with pytest.raises(EncodeError):
        encode_packet(Publish(topic="a/b", payload=b"x", qos=1, packet_id=None))


def test_qos0_publish_with_dup_refused_on_encode():
    # MQTT-3.3.1-2: DUP must be 0 for every QoS 0 message
    packet = Publish(topic="a/b", payload=b"x", qos=0, dup=True)
    with pytest.raises(EncodeError, match="DUP"):
        encode_packet(packet)
    assert encode_packet(Publish(topic="a/b", payload=b"x", qos=1, dup=True, packet_id=1))


def test_qos0_publish_with_dup_is_protocol_error_on_decode():
    assert decode_packet(b"0\x06\x00\x03a/bx") == (Publish(topic="a/b", payload=b"x"), 8)
    with pytest.raises(ProtocolError, match="DUP"):
        decode_packet(b"8\x06\x00\x03a/bx")  # the same frame with DUP (0x08) set
    packet, _ = decode_packet(b":\x08\x00\x03a/b\x00\x01x")  # qos 1 with DUP is fine
    assert packet == Publish(topic="a/b", payload=b"x", qos=1, dup=True, packet_id=1)


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, b"\x00"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (321, b"\xc1\x02"),
        (16383, b"\xff\x7f"),
        (codec.MAX_REMAINING_LENGTH, b"\xff\xff\xff\x7f"),
    ],
)
def test_varint_table(value, expected):
    assert encode_varint(value) == expected
    assert decode_varint(expected) == (value, len(expected))


def test_varint_range_and_malformed():
    with pytest.raises(EncodeError):
        encode_varint(-1)
    with pytest.raises(EncodeError):
        encode_varint(codec.MAX_REMAINING_LENGTH + 1)
    with pytest.raises(ProtocolError):
        decode_varint(b"\x80\x80\x80\x80\x01")  # needs a 5th byte
    with pytest.raises(ProtocolError):
        decode_varint(b"\x80\x00")  # overlong zero
    assert decode_varint(b"\x80") is None  # continuation with no next byte yet


def test_remaining_length_cap_enforced_before_allocation():
    # header claims ~1 MiB; the cap must trip without waiting for the body
    assert codec.REMAINING_LENGTH_CAP < 1_000_000
    header = b"\x30" + encode_varint(1_000_000)
    with pytest.raises(ProtocolError, match="exceeds cap"):
        decode_packet(header)


@pytest.mark.parametrize(
    "topic_filter,topic,expected",
    [
        ("parking/slot/+/status", "parking/slot/3/status", True),
        ("parking/#", "parking/env/temperature", True),
        ("parking/slot/+", "parking/slot/3/status", False),
        ("parking/#", "parking", True),
        ("#", "anything/at/all", True),
        ("parking/+/temperature", "parking/env/temperature", True),
        ("parking/+", "parking", False),
        ("parking/slot/1/status", "parking/slot/1/status", True),
        ("parking/slot/1/status", "parking/slot/2/status", False),
        # MQTT 3.1.1 section 4.7.2: first-level wildcards skip '$' topics
        ("#", "$SYS/x", False),
        ("+/x", "$SYS/x", False),
        ("$SYS/#", "$SYS/x", True),
        ("$SYS/+", "$SYS/x", True),
        ("parking/#", "parking/$x", True),
    ],
)
def test_topic_matches(topic_filter, topic, expected):
    assert topic_matches(topic_filter, topic) is expected


def test_bad_filters_rejected():
    for bad in ("parking/#/status", "parking/sl+ot", "#extra", "", "parking/\0"):
        with pytest.raises(ValueError):
            codec.validate_filter(bad)


def test_nul_in_topic_rejected():
    # MQTT 3.1.1 section 1.5.3: topic names and filters must not contain U+0000
    with pytest.raises(ValueError):
        codec.validate_topic("parking/\0/status")
    for packet in (
        Publish(topic="parking/\0", payload=b"1"),
        Subscribe(packet_id=1, filters=(("parking/\0", 0),)),
        Unsubscribe(packet_id=1, filters=("parking/\0",)),
    ):
        with pytest.raises(EncodeError):
            encode_packet(packet)


@pytest.mark.parametrize(
    "packet",
    [
        Publish(topic="parking/x", payload=b"1"),
        Subscribe(packet_id=1, filters=(("parking/x", 0),)),
        Unsubscribe(packet_id=1, filters=("parking/x",)),
    ],
    ids=["publish", "subscribe", "unsubscribe"],
)
def test_decoded_nul_in_topic_is_protocol_error(packet):
    # encode a valid frame, then swap the 'x' in the topic for U+0000
    wire = encode_packet(packet)
    assert decode_packet(wire)[0] == packet
    with pytest.raises(ProtocolError):
        decode_packet(wire.replace(b"parking/x", b"parking/\x00"))


def test_connect_unsupported_features_flagged():
    # CONNECT with clean_session=0 asks for session resumption
    body = (
        b"\x00\x04MQTT" + bytes([4, 0x00]) + b"\x00\x1e" + b"\x00\x03abc"
    )
    frame = bytes([0x10]) + encode_varint(len(body)) + body
    packet, _ = decode_packet(frame)
    assert isinstance(packet, Connect)
    assert packet.requests_unsupported


# Well-formed CONNECTs asking for features outside the supported subset:
# clean session and id "c", plus a will (topic "w", message "m") or a user
# name "u" with a password "p".
_CONNECT_WILL = b"\x10\x13\x00\x04MQTT\x04\x06\x00\x1e\x00\x01c\x00\x01w\x00\x01m"
_CONNECT_PASSWORD = b"\x10\x13\x00\x04MQTT\x04\xc2\x00\x1e\x00\x01c\x00\x01u\x00\x01p"


@pytest.mark.parametrize("frame", [_CONNECT_WILL, _CONNECT_PASSWORD], ids=["will", "password"])
def test_connect_with_a_will_or_a_password_decodes_and_is_refused_with_code_1(frame):
    packet, consumed = decode_packet(frame)
    assert consumed == len(frame)
    assert packet == Connect("c", 30, True, requests_unsupported=True)
    outputs = BrokerCore().handle("conn", packet, 0.0)
    assert outputs[0] == Send("conn", ConnAck(return_code=1))
    assert isinstance(outputs[1], Close)


def test_connect_roundtrip_clean():
    packet = Connect(client_id="watch-1", keep_alive_s=30, clean_session=True)
    decoded, consumed = decode_packet(encode_packet(packet))
    assert decoded == packet
    assert consumed == len(encode_packet(packet))


def test_subscribe_qos2_decodes_and_qos3_is_refused():
    # MQTT-3.8.3-4: only a requested QoS outside 0-2 makes a SUBSCRIBE malformed
    body = b"\x00\x01" + b"\x00\x03a/b" + b"\x02"
    frame = bytes([0x82]) + encode_varint(len(body)) + body
    assert decode_packet(frame) == (Subscribe(packet_id=1, filters=(("a/b", 2),)), len(frame))
    with pytest.raises(ProtocolError):
        decode_packet(frame[:-1] + b"\x03")


def test_invalid_utf8_topic_rejected():
    body = b"\x00\x02\xff\xfe" + b"payload"
    frame = bytes([0x30]) + encode_varint(len(body)) + body
    with pytest.raises(ProtocolError):
        decode_packet(frame)


def test_publish_with_wildcard_topic_rejected_on_decode():
    body = b"\x00\x03a/#" + b"x"
    frame = bytes([0x30]) + encode_varint(len(body)) + body
    with pytest.raises(ProtocolError):
        decode_packet(frame)


# -- randomized round-trips --------------------------------------------------

_TOPIC_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-"


def _random_topic(rng: random.Random) -> str:
    levels = [
        "".join(rng.choice(_TOPIC_CHARS) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 5))
    ]
    return "/".join(levels)


def _random_filter(rng: random.Random) -> str:
    levels = []
    for _ in range(rng.randint(1, 4)):
        pick = rng.random()
        if pick < 0.2:
            levels.append("+")
        else:
            levels.append("".join(rng.choice(_TOPIC_CHARS) for _ in range(rng.randint(1, 6))))
    if rng.random() < 0.25:
        levels.append("#")
    return "/".join(levels)


def random_packet(rng: random.Random) -> codec.MqttPacket:
    kind = rng.randrange(11)
    pid = rng.randint(1, 0xFFFF)
    if kind == 0:
        return Connect(
            client_id="".join(rng.choice(_TOPIC_CHARS) for _ in range(rng.randint(1, 12))),
            keep_alive_s=rng.randint(0, 600),
        )
    if kind == 1:
        return ConnAck(return_code=rng.randint(0, 5))
    if kind == 2:
        qos = rng.randint(0, 1)
        return Publish(
            topic=_random_topic(rng),
            payload=rng.randbytes(rng.randint(0, 64)),
            qos=qos,
            retain=rng.random() < 0.5,
            dup=qos == 1 and rng.random() < 0.2,
            packet_id=pid if qos == 1 else None,
        )
    if kind == 3:
        return PubAck(packet_id=pid)
    if kind == 4:
        filters = tuple(
            (_random_filter(rng), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))
        )
        return Subscribe(packet_id=pid, filters=filters)
    if kind == 5:
        return SubAck(packet_id=pid, granted=tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))))
    if kind == 6:
        return Unsubscribe(
            packet_id=pid,
            filters=tuple(_random_filter(rng) for _ in range(rng.randint(1, 4))),
        )
    if kind == 7:
        return UnsubAck(packet_id=pid)
    if kind == 8:
        return PingReq()
    if kind == 9:
        return PingResp()
    return Disconnect()


def test_randomized_roundtrip_bulk():
    rng = random.Random(1234)
    for _ in range(2000):
        packet = random_packet(rng)
        wire = encode_packet(packet)
        decoded, consumed = decode_packet(wire)
        assert decoded == packet
        assert consumed == len(wire)


def test_every_prefix_of_valid_encoding_needs_more_data():
    rng = random.Random(99)
    for _ in range(200):
        wire = encode_packet(random_packet(rng))
        for cut in range(len(wire)):
            assert decode_packet(wire[:cut]) is None, (wire.hex(), cut)


def test_fuzz_garbage_never_crashes():
    rng = random.Random(7)
    for _ in range(3000):
        blob = rng.randbytes(rng.randint(0, 40))
        try:
            result = decode_packet(blob)
        except ProtocolError:
            continue
        if result is not None:
            packet, consumed = result
            assert 0 < consumed <= len(blob)


@pytest.mark.parametrize(
    "packet",
    [
        Publish(topic="parking/+/status", payload=b"1"),
        Publish(topic="parking/#", payload=b"1"),
        Publish(topic="parking/\0", payload=b"1"),
        Publish(topic="", payload=b"1"),
        Publish(topic="a/b", payload=b"1", qos=1, packet_id=None),
        Publish(topic="a/b", payload=b"1", qos=1, packet_id=0),
        Publish(topic="a/b", payload=b"1", qos=0, packet_id=5),
        Publish(topic="a/b", payload=b"1", qos=2, packet_id=5),
        Publish(topic="a" * 0x10000, payload=b"1"),
    ],
    ids=["plus", "hash", "nul", "empty", "qos1-no-id", "qos1-id-0", "qos0-with-id", "qos2",
         "topic-too-long"],
)
def test_frame_size_rejects_what_encode_rejects(packet):
    # a frame's size is its encoded length (the simulator sizes a PUBLISH by
    # encoding it), so a packet the encoder refuses has no size
    with pytest.raises(EncodeError):
        encode_packet(packet)


@given(st.integers(min_value=0, max_value=codec.MAX_REMAINING_LENGTH))
def test_varint_roundtrip_property(n):
    wire = encode_varint(n)
    assert 1 <= len(wire) <= 4
    assert decode_varint(wire) == (n, len(wire))


@given(st.lists(st.sampled_from(_TOPIC_CHARS.replace("-", "") + "-"), min_size=1, max_size=12))
def test_hash_filter_matches_everything(chars):
    topic = "".join(chars).strip("/") or "x"
    assert topic_matches("#", topic)


# -- incremental frame splitting ----------------------------------------------


@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=40), st.data())
def test_splitter_yields_packets_in_order_across_any_chunking(rng, count, data):
    packets = [random_packet(rng) for _ in range(count)]
    wires = [encode_packet(p) for p in packets]
    stream = b"".join(wires)
    frame_ends = list(itertools.accumulate(len(w) for w in wires))
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=12)))
    splitter = codec.FrameSplitter()
    out = []
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        out += splitter.feed(stream[lo:hi])
        # every frame fully received so far has come out, and no other
        assert out == packets[:bisect.bisect_right(frame_ends, hi)]
    assert out == packets
    assert splitter.error is None


@given(st.randoms(use_true_random=False), st.data())
def test_splitter_holds_a_partial_tail_until_it_is_completed(rng, data):
    head, tail = random_packet(rng), random_packet(rng)
    wire = encode_packet(tail)
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    splitter = codec.FrameSplitter()
    assert splitter.feed(encode_packet(head) + wire[:cut]) == [head]
    assert splitter.feed(b"") == []
    assert splitter.feed(wire[cut:]) == [tail]
    assert splitter.error is None


def test_splitter_returns_frames_before_a_malformed_one_then_stops():
    good = [Connect(client_id="c1"), PingReq()]
    stream = b"".join(encode_packet(p) for p in good) + b"\xf0\x00" + encode_packet(PingReq())
    splitter = codec.FrameSplitter()
    assert splitter.feed(stream) == good
    assert isinstance(splitter.error, ProtocolError)
    assert splitter.feed(encode_packet(PingReq())) == []


def test_decode_reads_a_memoryview_slice_in_place():
    wire = encode_packet(Publish(topic="parking/slot/1/status", payload=b"1"))
    buf = bytearray(b"\x00" * 5 + wire + encode_packet(PingReq()))
    view = memoryview(buf)
    packet, consumed = decode_packet(view[5:])
    assert packet == Publish(topic="parking/slot/1/status", payload=b"1")
    assert consumed == len(wire)
    assert type(packet.payload) is bytes
    view.release()
    del buf[:5]  # no view of the buffer is left behind



# -- malformed frames ------------------------------------------------------------

# One hand-built frame per error the decoder raises, with a fragment of the
# message that names that check. A valid CONNECT body for the cases that
# alter it: protocol "MQTT", level 4, clean session, keep-alive 30, id "c".
_CONNECT_BODY = b"\x00\x04MQTT\x04\x02\x00\x1e\x00\x01c"

MALFORMED = [
    ("reserved-type-0", b"\x00\x00", "reserved packet type"),
    ("reserved-type-15", b"\xf0\x00", "reserved packet type"),
    ("pubrec", b"\x50\x02\x00\x01", "outside the supported subset"),
    ("varint-5-bytes", b"\x30\x80\x80\x80\x80\x01", "longer than 4 bytes"),
    ("varint-overlong", b"\x30\x80\x00", "overlong"),
    ("over-cap", b"\x30\x81\x80\x10", "exceeds cap"),  # 262,145 > 256 KiB
    ("connect-flags", b"\x11\x0d" + _CONNECT_BODY, "invalid fixed-header flags"),
    ("connect-reserved-bit", b"\x10\x0d\x00\x04MQTT\x04\x03\x00\x1e\x00\x01c", "reserved flag bit"),
    ("connect-truncated", b"\x10\x0c" + _CONNECT_BODY[:-1], "truncated"),
    ("connect-will-missing", b"\x10\x0d\x00\x04MQTT\x04\x06\x00\x1e\x00\x01c", "truncated"),
    # a will message and a password whose length runs past the frame
    ("connect-will-message-truncated", _CONNECT_WILL[:-1].replace(b"\x13", b"\x12", 1),
     "truncated"),
    ("connect-password-truncated", _CONNECT_PASSWORD[:-1].replace(b"\x13", b"\x12", 1),
     "truncated"),
    # MQTT-3.1.2-13 to -15: Will QoS and Will Retain need the Will Flag, and
    # a Will QoS of 3 is malformed even with it
    ("connect-will-qos1-no-will", b"\x10\x0d\x00\x04MQTT\x04\x0a\x00\x1e\x00\x01c",
     "will flags 0x08"),
    ("connect-will-qos3-no-will", b"\x10\x0d\x00\x04MQTT\x04\x1a\x00\x1e\x00\x01c",
     "will flags 0x18"),
    ("connect-will-retain-no-will", b"\x10\x0d\x00\x04MQTT\x04\x22\x00\x1e\x00\x01c",
     "will flags 0x20"),
    ("connect-will-qos3", b"\x10\x13\x00\x04MQTT\x04\x1e\x00\x1e\x00\x01c\x00\x01w\x00\x01m",
     "will flags 0x1C"),
    # MQTT-3.1.2-22: a password needs a user name (here clean session + "p")
    ("connect-password-no-username",
     b"\x10\x10\x00\x04MQTT\x04\x42\x00\x1e\x00\x01c\x00\x01p", "without the user name flag"),
    ("connect-trailing", b"\x10\x0e" + _CONNECT_BODY + b"x", "trailing bytes"),
    ("connect-bad-utf8", b"\x10\x0d" + _CONNECT_BODY[:-1] + b"\xff", "invalid UTF-8"),
    ("connack-flags", b"\x21\x02\x00\x00", "invalid fixed-header flags"),
    ("connack-ack-flags", b"\x20\x02\x02\x00", "CONNACK flags byte"),
    ("connack-code", b"\x20\x02\x00\x06", "return code 6 out of range"),
    ("connack-truncated", b"\x20\x01\x00", "truncated"),
    ("connack-trailing", b"\x20\x03\x00\x00\x00", "trailing bytes"),
    ("publish-qos3", b"\x36\x08\x00\x03a/b\x00\x01x", "qos bits set to 3"),
    ("publish-qos2", b"\x34\x08\x00\x03a/b\x00\x01x", "qos 2 is outside"),
    ("publish-qos0-dup", b"\x38\x06\x00\x03a/bx", "DUP"),
    ("publish-no-topic-length", b"\x30\x01\x00", "truncated"),
    ("publish-truncated-topic", b"\x30\x04\x00\x05a/", "truncated"),
    ("publish-bad-utf8", b"\x30\x04\x00\x02\xff\xfe", "invalid UTF-8"),
    ("publish-plus", b"\x30\x05\x00\x03a/+", "wildcards"),
    ("publish-hash", b"\x30\x05\x00\x03a/#", "wildcards"),
    ("publish-nul", b"\x30\x05\x00\x03a\x00b", "U\\+0000"),
    ("publish-empty-topic", b"\x30\x03\x00\x00x", "non-empty"),
    ("publish-truncated-id", b"\x32\x06\x00\x03a/b\x00", "truncated"),
    ("publish-id-0", b"\x32\x07\x00\x03a/b\x00\x00", "packet_id 0"),
    ("puback-flags", b"\x41\x02\x00\x01", "invalid fixed-header flags"),
    ("puback-truncated", b"\x40\x01\x00", "truncated"),
    ("puback-trailing", b"\x40\x03\x00\x01\x00", "trailing bytes"),
    ("puback-id-0", b"\x40\x02\x00\x00", "packet_id 0"),
    ("subscribe-flags", b"\x80\x08\x00\x01\x00\x03a/b\x00", "invalid fixed-header flags"),
    ("subscribe-id-0", b"\x82\x08\x00\x00\x00\x03a/b\x00", "packet_id 0"),
    ("subscribe-no-filters", b"\x82\x02\x00\x01", "carries no filters"),
    ("subscribe-bad-filter", b"\x82\x08\x00\x01\x00\x03a#b\x00", "'#' must be"),
    ("subscribe-missing-qos", b"\x82\x07\x00\x01\x00\x03a/b", "truncated"),
    ("subscribe-qos3", b"\x82\x08\x00\x01\x00\x03a/b\x03", "not 0, 1 or 2"),
    ("subscribe-bad-utf8", b"\x82\x07\x00\x01\x00\x02\xff\xfe\x00", "invalid UTF-8"),
    ("suback-flags", b"\x92\x03\x00\x01\x00", "invalid fixed-header flags"),
    ("suback-id-0", b"\x90\x03\x00\x00\x00", "packet_id 0"),
    ("suback-no-codes", b"\x90\x02\x00\x01", "no return codes"),
    ("suback-failure-code", b"\x90\x03\x00\x01\x80", "outside the supported subset"),
    ("unsubscribe-flags", b"\xa0\x07\x00\x01\x00\x03a/b", "invalid fixed-header flags"),
    ("unsubscribe-id-0", b"\xa2\x07\x00\x00\x00\x03a/b", "packet_id 0"),
    ("unsubscribe-no-filters", b"\xa2\x02\x00\x01", "carries no filters"),
    ("unsubscribe-bad-filter", b"\xa2\x07\x00\x01\x00\x03a+b", "'\\+' must occupy"),
    ("unsuback-flags", b"\xb1\x02\x00\x01", "invalid fixed-header flags"),
    ("unsuback-trailing", b"\xb0\x03\x00\x01\x00", "trailing bytes"),
    ("unsuback-id-0", b"\xb0\x02\x00\x00", "packet_id 0"),
    ("pingreq-flags", b"\xc1\x00", "invalid fixed-header flags"),
    ("pingreq-trailing", b"\xc0\x01\x00", "trailing bytes"),
    ("pingresp-flags", b"\xd1\x00", "invalid fixed-header flags"),
    ("pingresp-trailing", b"\xd0\x01\x00", "trailing bytes"),
    ("disconnect-flags", b"\xe1\x00", "invalid fixed-header flags"),
    ("disconnect-trailing", b"\xe0\x01\x00", "trailing bytes"),
]


@pytest.mark.parametrize("frame,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_frame_is_a_protocol_error(frame, message):
    with pytest.raises(ProtocolError, match=message):
        decode_packet(frame)

    # in place, from a memoryview slice: the error leaves no view of the
    # buffer behind, so the buffer can be resized once the caller's own
    # view is released
    buf = bytearray(b"\x00" * 3 + frame)
    view = memoryview(buf)
    try:
        decode_packet(view[3:])
    except ProtocolError:
        pass
    else:
        pytest.fail("no ProtocolError from the memoryview slice")
    view.release()
    del buf[:3]

    # behind a valid frame in one stream
    splitter = codec.FrameSplitter()
    assert splitter.feed(PUBLISH_WIRE + frame) == [decode_packet(PUBLISH_WIRE)[0]]
    assert isinstance(splitter.error, ProtocolError)
    assert splitter.feed(PUBLISH_WIRE) == []


# -- byte-exact PUBLISH and PUBACK ----------------------------------------------


def _reference_publish_frame(topic: str, payload: bytes, qos: int, retain: bool, dup: bool,
                             packet_id: int | None) -> bytes:
    """MQTT 3.1.1 §3.3 PUBLISH, built without parksim.codec."""
    name = topic.encode("utf-8")
    body = len(name).to_bytes(2, "big") + name
    if qos:
        body += packet_id.to_bytes(2, "big")
    body += payload
    length, n = bytearray(), len(body)
    while True:
        n, digit = divmod(n, 128)
        length.append(digit | (0x80 if n else 0))
        if not n:
            break
    return bytes([0x30 | dup << 3 | qos << 1 | retain]) + bytes(length) + body


@given(
    st.text(alphabet=st.characters(blacklist_characters="+#\0", blacklist_categories=("Cs",)),
            min_size=1, max_size=30),
    st.one_of(st.integers(min_value=0, max_value=300),
              st.sampled_from([127, 128, 16_383, 16_384])),
    st.integers(min_value=0, max_value=1),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=1, max_value=0xFFFF),
    st.randoms(use_true_random=False),
)
def test_publish_and_puback_bytes_equal_an_independent_builder(topic, remaining, qos, retain,
                                                               dup, packet_id, rng):
    # the payload is sized so the remaining length lands on each side of the
    # one- and two-byte varint widths
    dup = dup and qos == 1
    packet_id = packet_id if qos == 1 else None
    overhead = 2 + len(topic.encode("utf-8")) + 2 * qos
    payload = rng.randbytes(max(remaining - overhead, 0))
    packet = Publish(topic, payload, qos, retain, dup, packet_id)
    wire = encode_packet(packet)
    assert wire == _reference_publish_frame(topic, payload, qos, retain, dup, packet_id)
    assert decode_packet(wire) == (packet, len(wire))
    if qos:
        assert encode_packet(PubAck(packet_id)) == b"\x40\x02" + packet_id.to_bytes(2, "big")


_SAMPLES = {
    Connect: Connect(client_id="c", keep_alive_s=30),
    ConnAck: ConnAck(return_code=0),
    Publish: Publish(topic="a/b", payload=b"x", qos=1, packet_id=1),
    PubAck: PubAck(packet_id=2),
    Subscribe: Subscribe(packet_id=3, filters=(("a/#", 1),)),
    SubAck: SubAck(packet_id=3, granted=(1,)),
    Unsubscribe: Unsubscribe(packet_id=4, filters=("a/#",)),
    UnsubAck: UnsubAck(packet_id=4),
    PingReq: PingReq(),
    PingResp: PingResp(),
    Disconnect: Disconnect(),
}


def test_every_packet_class_has_an_encoder_and_a_decoder():
    classes = typing.get_args(codec.MqttPacket)
    assert set(codec._ENCODERS) == set(classes) == set(_SAMPLES)
    wires = [encode_packet(_SAMPLES[cls]) for cls in classes]
    assert all(codec._DECODERS[wire[0] >> 4] is not None for wire in wires)
    splitter = codec.FrameSplitter()
    assert splitter.feed(b"".join(wires)) == [_SAMPLES[cls] for cls in classes]
    assert splitter.error is None


def test_unknown_packet_type_refused_on_encode():
    class NotAPacket:
        pass

    with pytest.raises(EncodeError, match="unknown packet type: NotAPacket"):
        encode_packet(NotAPacket())
