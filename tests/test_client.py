import pytest

from parksim.client import ClientEngine
from parksim.codec import ConnAck, Connect, PingResp, PubAck, Publish, SubAck, Subscribe, UnsubAck


def test_connect_handshake_state():
    engine = ClientEngine(client_id="watcher")
    packet = engine.connect_packet()
    assert packet.client_id == "watcher"
    assert packet.clean_session
    assert not engine.connected
    engine.handle_packet(ConnAck(return_code=0))
    assert engine.connected
    assert engine.connack_code == 0


def test_refused_connect_recorded():
    engine = ClientEngine(client_id="watcher")
    engine.handle_packet(ConnAck(return_code=1))
    assert not engine.connected
    assert engine.connack_code == 1


def test_qos1_delivery_gets_acked_and_callback_fires():
    seen = []
    engine = ClientEngine(client_id="w", on_message=lambda t, p, r, d: seen.append((t, p, r)))
    responses = engine.handle_packet(
        Publish(topic="parking/summary", payload=b"3/4", qos=1, packet_id=9)
    )
    assert responses == [PubAck(packet_id=9)]
    assert seen == [("parking/summary", b"3/4", False)]


def test_qos0_delivery_needs_no_response():
    engine = ClientEngine(client_id="w")
    assert engine.handle_packet(Publish(topic="t", payload=b"x", qos=0)) == []


def test_own_publish_inflight_until_acked():
    engine = ClientEngine(client_id="w")
    packet = engine.publish_packet("t/a", b"1", qos=1)
    assert packet.packet_id in engine.inflight
    engine.handle_packet(PubAck(packet_id=packet.packet_id))
    assert engine.inflight == {}


def test_subscribe_pending_until_suback():
    engine = ClientEngine(client_id="w")
    packet = engine.subscribe_packet([("parking/#", 1)])
    assert packet.packet_id in engine.pending_subscribes
    engine.handle_packet(SubAck(packet_id=packet.packet_id, granted=(1,)))
    assert engine.pending_subscribes == set()


def test_packet_ids_distinct_across_kinds():
    engine = ClientEngine(client_id="w")
    ids = {engine.publish_packet("t", b"", qos=1).packet_id for _ in range(50)}
    ids |= {engine.subscribe_packet([("f", 0)]).packet_id for _ in range(50)}
    assert len(ids) == 100


def test_pingresp_ignored_quietly():
    engine = ClientEngine(client_id="w")
    assert engine.handle_packet(PingResp()) == []


@pytest.mark.parametrize(
    "packet", [Subscribe(1, (("a/#", 0),)), Connect("other"), UnsubAck(3)],
    ids=lambda packet: type(packet).__name__,
)
def test_packets_a_client_never_answers_get_no_response(packet):
    engine = ClientEngine(client_id="w", on_message=lambda *args: pytest.fail("no message"))
    assert engine.handle_packet(packet) == []
    assert not engine.connected and engine.inflight == {} and engine.pending_subscribes == set()


def test_wrapped_ids_skip_publishes_and_subscribes_in_flight():
    engine = ClientEngine(client_id="w")
    publish = engine.publish_packet("t", b"", qos=1)
    subscribe = engine.subscribe_packet([("f", 0)])
    assert (publish.packet_id, subscribe.packet_id) == (1, 2)
    engine._next_packet_id = 1  # where 65535 more ids would have left it
    assert engine.publish_packet("t", b"", qos=1).packet_id == 3
    assert set(engine.inflight) == {1, 3}


def test_no_free_id_raises():
    engine = ClientEngine(client_id="w")
    engine.pending_subscribes.update(range(1, 0x8000))
    engine.inflight.update((pid, None) for pid in range(0x8000, 0x10000))
    with pytest.raises(RuntimeError, match="packet ids"):
        engine.publish_packet("t", b"", qos=1)
    with pytest.raises(RuntimeError, match="packet ids"):
        engine.subscribe_packet([("f", 0)])
    assert engine.publish_packet("t", b"", qos=0).packet_id is None
