
import copy
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from parksim import broker
from parksim.broker import BrokerCore, Close, Send
from parksim.codec import (
    ConnAck,
    Connect,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    UnsubAck,
    Unsubscribe,
    free_packet_id,
    topic_matches,
)


def connect(core, conn_id, client_id, keep_alive=0, now=0.0):
    outputs = core.handle(conn_id, Connect(client_id=client_id, keep_alive_s=keep_alive), now)
    assert any(isinstance(o, Send) and o.packet == ConnAck(0) for o in outputs)
    return outputs


def sends_of(outputs, packet_type):
    return [o for o in outputs if isinstance(o, Send) and isinstance(o.packet, packet_type)]


class TestHandshake:
    def test_connect_then_ping(self):
        core = BrokerCore()
        connect(core, "c1", "alpha")
        outputs = core.handle("c1", PingReq(), 1.0)
        assert outputs == [Send("c1", PingResp())]

    def test_packet_before_connect_closes(self):
        core = BrokerCore()
        outputs = core.handle("c1", PingReq(), 0.0)
        assert outputs == [Close("c1", reason="packet before CONNECT")]

    def test_unsupported_features_refused_with_code_1(self):
        core = BrokerCore()
        outputs = core.handle("c1", Connect(client_id="x", requests_unsupported=True), 0.0)
        assert sends_of(outputs, ConnAck)[0].packet.return_code == 1
        assert any(isinstance(o, Close) for o in outputs)
        assert "x" not in core.sessions

    def test_empty_client_id_refused_with_code_2(self):
        core = BrokerCore()
        outputs = core.handle("c1", Connect(client_id=""), 0.0)
        assert sends_of(outputs, ConnAck)[0].packet.return_code == 2

    def test_takeover_closes_previous_session(self):
        core = BrokerCore()
        connect(core, "c1", "same-id")
        outputs = core.handle("c2", Connect(client_id="same-id"), 1.0)
        closes = [o for o in outputs if isinstance(o, Close)]
        assert closes and closes[0].conn_id == "c1"
        assert core.sessions["same-id"].conn_id == "c2"
        assert len(core.sessions) == 1

    def test_disconnect_tears_down(self):
        core = BrokerCore()
        connect(core, "c1", "alpha")
        outputs = core.handle("c1", Disconnect(), 1.0)
        assert any(isinstance(o, Close) for o in outputs)
        assert "alpha" not in core.sessions

    @pytest.mark.parametrize("packet", [ConnAck(0), SubAck(1, (0,)), UnsubAck(1), PingResp()],
                             ids=lambda packet: type(packet).__name__)
    def test_server_to_client_packet_closes_as_unexpected(self, packet):
        core = BrokerCore()
        connect(core, "c1", "alpha")
        outputs = core.handle("c1", packet, 1.0)
        assert outputs == [Close("c1", client_id="alpha", reason=f"unexpected {type(packet).__name__}")]
        assert core.sessions == {} and core.conn_sessions == {}

    def test_puback_before_connect_closes(self):
        core = BrokerCore()
        assert core.handle("c1", PubAck(packet_id=1), 0.0) == [
            Close("c1", None, "packet before CONNECT")]
        connect(core, "c1", "alpha")
        core.handle("c1", Disconnect(), 1.0)
        assert core.handle("c1", PubAck(packet_id=1), 2.0) == [
            Close("c1", None, "packet before CONNECT")]

    def test_takeover_moves_client_to_the_back_of_the_fanout_order(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        for conn, client in (("c1", "alpha"), ("c2", "beta"), ("c3", "gamma")):
            connect(core, conn, client)
            core.handle(conn, Subscribe(packet_id=1, filters=(("t/x", 0),)), 0.0)
        old = core.sessions["alpha"]
        connect(core, "c4", "alpha", now=1.0)
        # the trie yields 't/#' entries before 't/x' ones: only connect order puts c4 last
        core.handle("c4", Subscribe(packet_id=1, filters=(("t/#", 0),)), 1.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"1"), 2.0)
        assert [o.conn_id for o in sends_of(outputs, Publish)] == ["c2", "c3", "c4"]
        targets = [target for node in _trie_nodes(core._subscription_trie)
                   for target in node.entries.values()]
        assert all(session is not old for session, _ in targets)
        assert [session.client_id for session, _ in targets].count("alpha") == 1

    def test_puback_for_unknown_id_is_ignored(self):
        core = BrokerCore()
        connect(core, "c1", "alpha")
        assert core.handle("c1", PubAck(packet_id=42), 1.0) == []
        assert core.total_errors == 0 and "alpha" in core.sessions


class TestRouting:
    def test_qos0_fanout_to_matching_subscribers(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        connect(core, "s1", "subscriber-1")
        connect(core, "s2", "subscriber-2")
        core.handle("s1", Subscribe(packet_id=1, filters=(("parking/slot/+/status", 0),)), 0.0)
        core.handle("s2", Subscribe(packet_id=1, filters=(("parking/#", 0),)), 0.0)
        outputs = core.handle(
            "pub", Publish(topic="parking/slot/2/status", payload=b"1", qos=0), 1.0
        )
        publishes = sends_of(outputs, Publish)
        assert {p.conn_id for p in publishes} == {"s1", "s2"}
        assert all(p.packet.payload == b"1" for p in publishes)

    def test_qos1_publish_acked_and_fanned_out(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        connect(core, "s1", "sub-1")
        connect(core, "s2", "sub-2")
        core.handle("s1", Subscribe(packet_id=1, filters=(("parking/#", 1),)), 0.0)
        core.handle("s2", Subscribe(packet_id=1, filters=(("parking/#", 1),)), 0.0)
        outputs = core.handle(
            "pub", Publish(topic="parking/slot/2/status", payload=b"1", qos=1, packet_id=7), 1.0
        )
        acks = sends_of(outputs, PubAck)
        assert len(acks) == 1 and acks[0].conn_id == "pub" and acks[0].packet.packet_id == 7
        publishes = sends_of(outputs, Publish)
        assert len(publishes) == 2
        assert all(p.packet.qos == 1 and p.packet.packet_id is not None for p in publishes)

    def test_effective_qos_is_min_of_pub_and_sub(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        connect(core, "s1", "sub-qos0")
        core.handle("s1", Subscribe(packet_id=1, filters=(("parking/#", 0),)), 0.0)
        outputs = core.handle(
            "pub", Publish(topic="parking/gas/ppm", payload=b"3", qos=1, packet_id=9), 1.0
        )
        delivered = sends_of(outputs, Publish)[0].packet
        assert delivered.qos == 0 and delivered.packet_id is None

    def test_overlapping_filters_give_one_copy_at_the_highest_qos(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        connect(core, "s1", "sub-1")
        # the trie yields 't/#', then 't/+', then 't/x': one raise, then one kept
        core.handle("s1", Subscribe(packet_id=1, filters=(("t/#", 0), ("t/+", 1), ("t/x", 0))), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"1", qos=1, packet_id=3), 1.0)
        [copy_] = sends_of(outputs, Publish)
        assert copy_ == Send("s1", Publish("t/x", b"1", 1, False, False, 1))
        assert list(core.sessions["sub-1"].inflight) == [1]

    def test_qos2_request_is_granted_qos1(self):
        # §3.8.4: the server may grant a lower QoS than requested; deliveries
        # then go out at the granted QoS at most (MQTT-3.8.4-6)
        core = BrokerCore()
        connect(core, "pub", "publisher")
        connect(core, "s1", "sub-qos2")
        core.handle("pub", Publish(topic="parking/fan/state", payload=b"on", qos=1, retain=True,
                                   packet_id=1), 0.0)
        outputs = core.handle(
            "s1", Subscribe(packet_id=5, filters=(("parking/#", 2), ("lot/+", 0))), 1.0)
        assert sends_of(outputs, SubAck) == [Send("s1", SubAck(packet_id=5, granted=(1, 0)))]
        assert core.sessions["sub-qos2"].subscriptions == {"parking/#": 1, "lot/+": 0}
        replayed = sends_of(outputs, Publish)[0].packet
        assert (replayed.topic, replayed.qos, replayed.retain) == ("parking/fan/state", 1, True)
        outputs = core.handle(
            "pub", Publish(topic="parking/gas/ppm", payload=b"3", qos=1, packet_id=9), 2.0)
        delivered = sends_of(outputs, Publish)[0].packet
        assert delivered.qos == 1 and delivered.packet_id is not None

    def test_no_subscribers_no_fanout(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        outputs = core.handle("pub", Publish(topic="parking/summary", payload=b"4/4", qos=0), 1.0)
        assert sends_of(outputs, Publish) == []


class TestRetained:
    def setup_method(self):
        self.core = BrokerCore()
        connect(self.core, "pub", "publisher")
        for slot, flag in enumerate((b"1", b"0", b"0", b"0"), start=1):
            self.core.handle(
                "pub",
                Publish(topic=f"parking/slot/{slot}/status", payload=flag, qos=0, retain=True),
                0.0,
            )

    def test_subscribe_replays_retained_states(self):
        connect(self.core, "late", "latecomer")
        outputs = self.core.handle(
            "late", Subscribe(packet_id=1, filters=(("parking/slot/+/status", 0),)), 5.0
        )
        assert sends_of(outputs, SubAck)[0].packet.granted == (0,)
        publishes = [o.packet for o in sends_of(outputs, Publish)]
        assert len(publishes) == 4
        assert all(p.retain for p in publishes)
        by_topic = {p.topic: p.payload for p in publishes}
        assert by_topic["parking/slot/1/status"] == b"1"
        assert by_topic["parking/slot/2/status"] == b"0"

    def test_retained_overwrite_keeps_latest(self):
        self.core.handle(
            "pub", Publish(topic="parking/slot/2/status", payload=b"1", qos=0, retain=True), 1.0
        )
        connect(self.core, "late", "latecomer")
        outputs = self.core.handle(
            "late", Subscribe(packet_id=1, filters=(("parking/slot/2/status", 0),)), 5.0
        )
        assert sends_of(outputs, Publish)[0].packet.payload == b"1"

    def test_zero_length_retained_deletes(self):
        self.core.handle(
            "pub", Publish(topic="parking/slot/1/status", payload=b"", qos=0, retain=True), 1.0
        )
        connect(self.core, "late", "latecomer")
        outputs = self.core.handle(
            "late", Subscribe(packet_id=1, filters=(("parking/slot/+/status", 0),)), 5.0
        )
        assert len(sends_of(outputs, Publish)) == 3

    def test_replay_follows_retained_store_order(self):
        # an overwrite keeps the topic's place; a clear and re-publish moves it last
        for topic, payload in (("parking/slot/3/status", b"1"), ("parking/slot/1/status", b""),
                               ("parking/slot/1/status", b"1")):
            self.core.handle("pub", Publish(topic=topic, payload=payload, retain=True), 1.0)
        connect(self.core, "late", "latecomer")
        outputs = self.core.handle("late", Subscribe(packet_id=1, filters=(("parking/#", 0),)), 5.0)
        assert [p.packet.topic for p in sends_of(outputs, Publish)] == list(self.core.retained)
        assert list(self.core.retained)[-2:] == ["parking/slot/4/status", "parking/slot/1/status"]

    def test_live_fanout_clears_retain_flag(self):
        connect(self.core, "live", "lively")
        self.core.handle("live", Subscribe(packet_id=1, filters=(("parking/#", 0),)), 1.0)
        outputs = self.core.handle(
            "pub", Publish(topic="parking/slot/3/status", payload=b"1", qos=0, retain=True), 2.0
        )
        assert sends_of(outputs, Publish)[0].packet.retain is False

    # A wildcard filter's match snapshot: the retained store is scanned at
    # the filter's first replay, and later SUBSCRIBEs replay from that list.

    def _replay_to(self, conn, topic_filter="parking/#", now=5.0):
        if conn not in self.core.conn_sessions:
            connect(self.core, conn, conn, now=now)
        outputs = self.core.handle(conn, Subscribe(packet_id=1, filters=((topic_filter, 0),)), now)
        return [(o.packet.topic, o.packet.payload) for o in sends_of(outputs, Publish)]

    def test_a_topic_retained_between_subscribes_reaches_the_second_subscriber(self):
        assert len(self._replay_to("s1")) == 4
        self.core.handle("pub", Publish(topic="parking/slot/5/status", payload=b"1", retain=True), 6.0)
        assert self._replay_to("s2")[-1] == ("parking/slot/5/status", b"1")
        assert len(self._replay_to("s3")) == 5

    def test_a_topic_cleared_between_subscribes_is_not_replayed(self):
        assert len(self._replay_to("s1")) == 4
        self.core.handle("pub", Publish(topic="parking/slot/2/status", payload=b"", retain=True), 6.0)
        assert [topic for topic, _ in self._replay_to("s2")] == [
            "parking/slot/1/status", "parking/slot/3/status", "parking/slot/4/status"]

    @pytest.mark.parametrize("subscribes", [2, 5])
    def test_overwrites_between_subscribes_replay_new_values_from_one_walk(self, monkeypatch,
                                                                           subscribes):
        scans = []
        real = broker._scan_retained

        def counted(topics, topic_filter):
            scans.append(topic_filter)
            return real(topics, topic_filter)

        monkeypatch.setattr(broker, "_scan_retained", counted)
        for n in range(subscribes):
            payload = str(n).encode()
            for slot in (1, 3):
                self.core.handle("pub", Publish(topic=f"parking/slot/{slot}/status",
                                                payload=payload, retain=True), 5.0 + n)
            assert self._replay_to(f"s{n}", now=5.0 + n) == [
                ("parking/slot/1/status", payload), ("parking/slot/2/status", b"0"),
                ("parking/slot/3/status", payload), ("parking/slot/4/status", b"0")]
        assert scans == ["parking/#"]
        assert list(self.core._match_snapshots) == ["parking/#"]

    @pytest.mark.parametrize("leave", ["unsubscribe", "disconnect", "closed", "takeover"])
    def test_a_filters_snapshot_goes_with_its_last_holder(self, leave):
        self._replay_to("s1")
        self._replay_to("s2")
        self._replay_to("s2", "parking/slot/+/status")
        snapshots = self.core._match_snapshots
        assert set(snapshots) == {"parking/#", "parking/slot/+/status"}
        self.core.handle("s1", Disconnect(), 6.0)
        assert set(snapshots) == {"parking/#", "parking/slot/+/status"}
        if leave == "unsubscribe":
            self.core.handle("s2", Unsubscribe(packet_id=2, filters=("parking/#",)), 7.0)
            assert set(snapshots) == {"parking/slot/+/status"}
            return
        if leave == "disconnect":
            self.core.handle("s2", Disconnect(), 7.0)
        elif leave == "closed":
            self.core.connection_closed("s2")
        else:
            connect(self.core, "s2-again", "s2", now=7.0)
        assert snapshots == {}

    def test_a_topic_cleared_and_retained_again_replays_last(self):
        assert self._replay_to("s1")[1] == ("parking/slot/2/status", b"0")
        for payload in (b"", b"1"):
            self.core.handle("pub", Publish(topic="parking/slot/2/status", payload=payload,
                                            retain=True), 6.0)
        assert [topic for topic, _ in self._replay_to("s2")] == [
            "parking/slot/1/status", "parking/slot/3/status", "parking/slot/4/status",
            "parking/slot/2/status"]

    def test_a_multi_level_wildcard_replays_its_parent_topic(self):
        for topic in ("parking", "parkingx/y"):
            self.core.handle("pub", Publish(topic=topic, payload=b"p", retain=True), 6.0)
        assert [topic for topic, _ in self._replay_to("s1")] == [
            "parking/slot/1/status", "parking/slot/2/status", "parking/slot/3/status",
            "parking/slot/4/status", "parking"]
        assert self._replay_to("s2", "parking/slot/#")[0] == ("parking/slot/1/status", b"1")
        assert self._replay_to("s3", "parking/+/3/#") == [("parking/slot/3/status", b"0")]

    def test_a_literal_filter_replays_its_topic_without_a_snapshot(self):
        assert self._replay_to("s1", "parking/slot/3/status") == [("parking/slot/3/status", b"0")]
        assert self._replay_to("s1", "parking/slot/9/status") == []
        assert self.core._match_snapshots == {}


class TestRedelivery:
    def _setup_inflight(self, drop_first=True):
        core = BrokerCore(ack_timeout_s=2.0, max_retries=3)
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        publish = sends_of(outputs, Publish)[0].packet
        return core, publish

    def test_aged_inflight_redelivered_with_dup(self):
        core, publish = self._setup_inflight()
        resends = core.redeliver(2.0)
        assert len(resends) == 1
        resent = resends[0].packet
        assert resent.dup is True and resent.packet_id == publish.packet_id
        session = core.sessions["subscriber"]
        assert session.inflight[publish.packet_id].retries == 1

    def test_fresh_inflight_not_resent(self):
        core, _ = self._setup_inflight()
        assert core.redeliver(1.0) == []

    def test_no_inflight_no_resends(self):
        core = BrokerCore()
        connect(core, "c", "x")
        assert core.redeliver(100.0) == []

    def test_retry_cap_drops_and_counts_uncorrected(self):
        events = []
        core = BrokerCore(ack_timeout_s=2.0, max_retries=3,
                          event_sink=lambda kind, **f: events.append(kind))
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        for sweep_t in (2.0, 4.0, 6.0):
            assert len(core.redeliver(sweep_t)) == 1
        assert core.redeliver(8.0) == []
        assert core.uncorrected_errors == 1
        assert core.sessions["subscriber"].inflight == {}
        assert events == ["error_uncorrected"]

    def test_late_ack_after_retry_counts_corrected(self):
        events = []
        core = BrokerCore(ack_timeout_s=2.0, max_retries=3,
                          event_sink=lambda kind, **f: events.append(kind))
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        pid = sends_of(outputs, Publish)[0].packet.packet_id
        core.redeliver(2.0)
        core.handle("sub", PubAck(packet_id=pid), 2.5)
        assert core.corrected_errors == 1
        assert events == ["error_corrected"]

    def test_ack_after_resends_counts_corrected_once(self):
        events = []
        core = BrokerCore(ack_timeout_s=2.0, max_retries=3,
                          event_sink=lambda kind, **f: events.append((kind, f)))
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        pid = sends_of(outputs, Publish)[0].packet.packet_id
        assert len(core.redeliver(2.0)) == 1 and len(core.redeliver(4.0)) == 1
        assert core.handle("sub", PubAck(packet_id=pid), 4.5) == []
        assert core.handle("sub", PubAck(packet_id=pid), 4.6) == []  # a duplicate ack is stray
        assert (core.corrected_errors, core.uncorrected_errors) == (1, 0)
        assert events == [("error_corrected", {"client_id": "subscriber", "topic": "t/x"})]
        assert core.redeliver(10.0) == []

    def test_prompt_ack_is_not_an_error(self):
        core, publish = self._setup_inflight()
        core.handle("sub", PubAck(packet_id=publish.packet_id), 0.5)
        assert core.total_errors == 0
        assert core.redeliver(10.0) == []

    def test_resent_at_its_deadline_despite_float_rounding(self):
        # (0.05 + 2.0) - 0.05 == 1.9999999999999998: a test on elapsed time
        # would skip the frame at the very time its timer fires
        core = BrokerCore(ack_timeout_s=2.0)
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.05)
        deadline = core.next_deadline()
        assert deadline == 0.05 + 2.0
        assert [o.packet.dup for o in core.tick(deadline)] == [True]

    def test_a_resend_stores_a_fresh_entry_and_leaves_the_shared_one_alone(self):
        # copies sharing a Publish share their entry, so they fall due
        # together; each resend stores an entry of its own
        core = BrokerCore(ack_timeout_s=2.0, max_retries=3)
        connect(core, "pub", "publisher")
        for conn in ("s1", "s2", "s3"):
            connect(core, conn, conn)
            core.handle(conn, Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        pid = sends_of(outputs, Publish)[0].packet.packet_id
        shared = core.sessions["s1"].inflight[pid]
        assert all(core.sessions[conn].inflight[pid] is shared for conn in ("s1", "s2", "s3"))
        assert (shared.retries, shared.deadline) == (0, 2.0)

        resends = core.tick(2.0)
        assert [(o.conn_id, o.packet.packet_id, o.packet.dup) for o in resends] == [
            ("s1", pid, True), ("s2", pid, True), ("s3", pid, True)]
        entries = [core.sessions[conn].inflight[pid] for conn in ("s1", "s2", "s3")]
        assert len({id(entry) for entry in entries + [shared]}) == 4
        for entry in entries:
            assert (entry.publish, entry.accept_t, entry.deadline, entry.retries) == (
                shared.publish, 0.0, 4.0, 1)
        assert (shared.retries, shared.deadline) == (0, 2.0)  # never changed once stored

        core.handle("s1", PubAck(packet_id=pid), 2.5)
        assert (core.corrected_errors, core.uncorrected_errors) == (1, 0)
        assert [core.sessions[conn].inflight[pid] for conn in ("s2", "s3")] == entries[1:]
        assert core.next_deadline() == 4.0

    def test_resend_moves_to_the_back_of_the_deadline_order(self):
        core, first = self._setup_inflight()
        outputs = core.handle("pub", Publish(topic="t/y", payload=b"q", qos=1, packet_id=2), 1.0)
        second = sends_of(outputs, Publish)[0].packet
        assert core.next_deadline() == 2.0
        assert [o.packet.packet_id for o in core.tick(2.0)] == [first.packet_id]
        inflight = core.sessions["subscriber"].inflight
        assert list(inflight) == [second.packet_id, first.packet_id]
        assert [entry.deadline for entry in inflight.values()] == [3.0, 4.0]
        assert core.next_deadline() == 3.0
        assert core.tick(2.5) == []


class TestPacketIds:
    def test_wrapped_allocator_skips_ids_in_flight(self):
        # MQTT 3.1.1 §2.3.1: an id in flight is not reused, even after a wrap
        core, _ = TestRedelivery()._setup_inflight()  # t/x as id 1, deadline 2.0
        core.handle("pub", Publish(topic="t/y", payload=b"q", qos=1, packet_id=2), 0.5)
        session = core.sessions["subscriber"]
        core.next_packet_id = 1  # where 65535 more messages would have left it
        outputs = core.handle("pub", Publish(topic="t/z", payload=b"r", qos=1, packet_id=3), 1.0)
        assert sends_of(outputs, Publish)[0].packet.packet_id == 3
        assert {pid: entry.publish.topic for pid, entry in session.inflight.items()} == {
            1: "t/x", 2: "t/y", 3: "t/z"}
        assert core.next_deadline() == 2.0
        assert [(o.packet.topic, o.packet.packet_id, o.packet.dup) for o in core.tick(2.0)] == [
            ("t/x", 1, True)]

    def test_ids_handed_out_in_turn_not_reused_at_once(self):
        core, first = TestRedelivery()._setup_inflight()
        core.handle("sub", PubAck(packet_id=first.packet_id), 0.5)
        ids = [first.packet_id]
        for n in (2, 3):
            outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=n), 1.0)
            ids.append(sends_of(outputs, Publish)[0].packet.packet_id)
            core.handle("sub", PubAck(packet_id=ids[-1]), 1.5)
        assert ids == [1, 2, 3]

    def test_allocator_wraps_from_65535_to_1(self):
        core, _ = TestRedelivery()._setup_inflight()  # id 1 in flight
        core.next_packet_id = 0xFFFF
        ids = []
        for n, topic in ((2, "t/y"), (3, "t/z")):
            outputs = core.handle("pub", Publish(topic=topic, payload=b"q", qos=1, packet_id=n), 0.5)
            ids.append(sends_of(outputs, Publish)[0].packet.packet_id)
        assert ids == [0xFFFF, 2]
        assert core.next_packet_id == 3

    def test_copies_share_the_messages_id_and_publish_unless_their_session_holds_it(self):
        # ids are scoped per session (MQTT 3.1.1 §2.3.1): two sessions may
        # carry one id, so their copies can be one object
        core = BrokerCore(ack_timeout_s=2.0)
        connect(core, "pub", "publisher")
        for conn in ("s1", "s2", "s3"):
            connect(core, conn, conn)
        core.handle("s2", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        for n, topic in ((1, "t/a"), (2, "t/b")):
            core.handle("pub", Publish(topic=topic, payload=b"h", qos=1, packet_id=n), 0.0)
        for conn in ("s1", "s3"):
            core.handle(conn, Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        assert list(core.sessions["s2"].inflight) == [1, 2]
        core.next_packet_id = 1  # where 65535 more messages would have left it
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=2), 1.0)
        copies = {o.conn_id: o.packet for o in sends_of(outputs, Publish)}
        assert list(copies) == ["s1", "s2", "s3"]
        assert copies["s1"] is copies["s3"] and copies["s1"].packet_id == 1
        assert copies["s2"] is not copies["s1"]
        assert copies["s2"] == Publish(topic="t/x", payload=b"p", qos=1, packet_id=3)
        entries = {conn: core.sessions[conn].inflight[copies[conn].packet_id]
                   for conn in ("s1", "s2", "s3")}
        for conn, entry in entries.items():
            assert entry.publish is copies[conn]
        # the copies sharing a Publish share its entry; s2's own copy has its own
        assert entries["s1"] is entries["s3"] and entries["s2"] is not entries["s1"]
        assert core.next_packet_id == 2

    @pytest.mark.parametrize("subscribers", [1, 3, 64])
    def test_a_publish_to_n_subscribers_builds_one_inflight_entry(self, monkeypatch, subscribers):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        for n in range(subscribers):
            connect(core, f"s{n}", f"s{n}")
            core.handle(f"s{n}", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        built = []
        real = broker.Inflight

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(broker, "Inflight", counted)
        core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 1.0)
        assert len(built) == 1
        assert all(session.inflight == {1: built[0]} for session in core.sessions.values()
                   if session.client_id != "publisher")

    def test_qos0_copies_share_one_publish(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        for conn, qos in (("s1", 0), ("s2", 1), ("s3", 0)):
            connect(core, conn, conn)
            core.handle(conn, Subscribe(packet_id=1, filters=(("t/#", qos),)), 0.0)
        outputs = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=0), 1.0)
        copies = [o.packet for o in sends_of(outputs, Publish)]
        assert copies == [Publish(topic="t/x", payload=b"p")] * 3
        assert copies[0] is copies[1] is copies[2]
        assert core.next_packet_id == 1  # no qos-1 copy, so no id taken

    def test_no_free_id_drops_the_copy_as_uncorrected(self):
        events = []
        core = BrokerCore(ack_timeout_s=2.0, event_sink=lambda kind, **f: events.append((kind, f)))
        connect(core, "pub", "publisher")
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 1),)), 0.0)
        session = core.sessions["subscriber"]
        template = core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, packet_id=1), 0.0)
        entry = session.inflight[sends_of(template, Publish)[0].packet.packet_id]
        session.inflight = {pid: entry for pid in range(1, 0x10000)}
        outputs = core.handle("pub", Publish(topic="t/y", payload=b"q", qos=1, packet_id=2), 1.0)
        assert sends_of(outputs, Publish) == []
        assert sends_of(outputs, PubAck) == [Send("pub", PubAck(packet_id=2))]
        assert core.uncorrected_errors == 1
        assert events == [("error_uncorrected", {"client_id": "subscriber", "topic": "t/y"})]
        assert len(session.inflight) == 0xFFFF


FRESH_DICT_SIZE = sys.getsizeof({})


class TestReplayTable:
    """A dict keeps its peak size after its entries are popped: the inflight
    table a retained replay filled is replaced once the replay is acked."""

    def _replayed(self, slots, ack_timeout_s=2.0, max_retries=3):
        """A core holding `slots` retained qos-1 topics and a session whose
        SUBSCRIBE at 1.0 replayed them all; returns (core, session, ids)."""
        core = BrokerCore(ack_timeout_s=ack_timeout_s, max_retries=max_retries)
        connect(core, "pub", "publisher")
        for slot in range(1, slots + 1):
            core.handle("pub", Publish(topic=f"parking/slot/{slot}/status", payload=b"0", qos=1,
                                       retain=True, packet_id=1), 0.0)
        connect(core, "app", "mobile-app", now=1.0)
        outputs = core.handle("app", Subscribe(packet_id=1, filters=(("parking/#", 1),)), 1.0)
        ids = [o.packet.packet_id for o in sends_of(outputs, Publish)]
        assert len(ids) == slots
        return core, core.sessions["mobile-app"], ids

    def test_acked_replay_gives_back_its_table(self):
        core, session, ids = self._replayed(2048)
        for pid in ids:
            assert core.handle("app", PubAck(packet_id=pid), 1.5) == []
        assert session.inflight == {}
        assert sys.getsizeof(session.inflight) == FRESH_DICT_SIZE
        # packet ids go on from where the replay left them
        outputs = core.handle("pub", Publish(topic="parking/summary", payload=b"1/2048", qos=1,
                                             packet_id=2), 2.0)
        assert sends_of(outputs, Publish)[-1].packet.packet_id == 2049

    def test_an_unacked_replay_copy_is_resent_and_its_ack_gives_back_the_table(self):
        core, session, ids = self._replayed(64)
        for pid in ids[1:]:
            core.handle("app", PubAck(packet_id=pid), 1.5)
        table = session.inflight
        assert list(table) == [ids[0]]
        assert core.next_deadline() == 3.0
        resent = core.tick(3.0)
        assert [(o.packet.topic, o.packet.packet_id, o.packet.dup, o.packet.retain)
                for o in resent] == [("parking/slot/1/status", ids[0], True, True)]
        assert session.inflight is table
        core.handle("app", PubAck(packet_id=ids[0]), 3.5)
        assert core.corrected_errors == 1
        assert session.inflight == {} and sys.getsizeof(session.inflight) == FRESH_DICT_SIZE

    def test_the_table_is_given_back_when_the_last_replay_copy_runs_out_of_retries(self):
        core, session, ids = self._replayed(64, max_retries=1)
        for pid in ids[:-1]:
            core.handle("app", PubAck(packet_id=pid), 1.5)
        assert len(core.redeliver(3.0)) == 1
        assert core.redeliver(5.0) == []
        assert core.uncorrected_errors == 1
        assert session.inflight == {} and sys.getsizeof(session.inflight) == FRESH_DICT_SIZE
        assert core.next_deadline() is None

    def test_a_live_copy_acked_after_the_replay_gives_back_the_table(self):
        core, session, ids = self._replayed(64)
        outputs = core.handle("pub", Publish(topic="parking/summary", payload=b"0/64", qos=1,
                                             packet_id=2), 1.2)
        live = sends_of(outputs, Publish)[-1].packet
        assert (live.retain, live.packet_id) == (False, 65)
        for pid in ids:
            core.handle("app", PubAck(packet_id=pid), 1.5)
        assert list(session.inflight) == [65]
        core.handle("app", PubAck(packet_id=65), 1.6)
        assert sys.getsizeof(session.inflight) == FRESH_DICT_SIZE

    def test_a_live_only_session_keeps_its_table(self):
        core, _ = TestRedelivery()._setup_inflight()
        session = core.sessions["subscriber"]
        table = session.inflight
        core.handle("sub", PubAck(packet_id=1), 0.5)
        assert session.inflight is table and table == {}

    def test_a_qos0_replay_leaves_the_table_alone(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        core.handle("pub", Publish(topic="t/x", payload=b"p", qos=1, retain=True, packet_id=1), 0.0)
        connect(core, "sub", "subscriber")
        core.handle("sub", Subscribe(packet_id=1, filters=(("t/#", 0),)), 1.0)
        session = core.sessions["subscriber"]
        assert session.inflight == {} and not session.replayed


class TestReplayShared:
    """The qos-1 replay copies of one retained value share one Publish."""

    @pytest.mark.parametrize("sessions", [1, 3, 32])
    def test_n_sessions_replaying_k_topics_build_k_publishes(self, monkeypatch, sessions):
        topics = 8
        core = BrokerCore()
        connect(core, "pub", "publisher")
        for slot in range(1, topics + 1):
            core.handle("pub", Publish(topic=f"parking/slot/{slot}/status", payload=b"0", qos=1,
                                       retain=True, packet_id=1), 0.0)
        built = []
        real = broker.Publish

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(broker, "Publish", counted)
        replays = []
        for n in range(sessions):
            connect(core, f"s{n}", f"s{n}", now=1.0)
            outputs = core.handle(f"s{n}", Subscribe(packet_id=1, filters=(("parking/#", 1),)), 1.0)
            replays.append([o.packet for o in sends_of(outputs, real)])
        assert len(built) == topics
        assert all(copies == built for copies in replays)
        assert all(a is b for copies in replays for a, b in zip(copies, built))
        # each session still holds an entry of its own for every copy
        entries = [entry for n in range(sessions)
                   for entry in core.sessions[f"s{n}"].inflight.values()]
        assert len(entries) == sessions * topics
        assert len({id(entry) for entry in entries}) == len(entries)

    def test_an_overwrite_between_subscribes_replays_the_new_value(self):
        core = BrokerCore()
        connect(core, "pub", "publisher")
        core.handle("pub", Publish(topic="t/x", payload=b"old", qos=1, retain=True, packet_id=1), 0.0)
        connect(core, "s1", "first")
        first = sends_of(core.handle("s1", Subscribe(packet_id=1, filters=(("t/#", 1),)), 1.0),
                         Publish)
        assert [(o.packet.payload, o.packet.retain) for o in first] == [(b"old", True)]
        old_id = first[0].packet.packet_id
        core.handle("pub", Publish(topic="t/x", payload=b"new", qos=1, retain=True, packet_id=2), 1.5)
        connect(core, "s2", "second")
        second = sends_of(core.handle("s2", Subscribe(packet_id=1, filters=(("t/#", 1),)), 2.0),
                          Publish)
        assert [(o.packet.payload, o.packet.retain) for o in second] == [(b"new", True)]
        # the first session's unacked replay copy is resent as it was sent
        resent = [o.packet for o in core.tick(3.0) if o.conn_id == "s1" and o.packet.retain]
        assert resent == [Publish(topic="t/x", payload=b"old", qos=1, retain=True, dup=True,
                                  packet_id=old_id)]


class TestKeepalive:
    def test_silent_past_grace_closes(self):
        core = BrokerCore()
        connect(core, "c1", "sleepy", keep_alive=10, now=0.0)
        outputs = core.keepalive_sweep(16.0)
        assert [o.client_id for o in outputs] == ["sleepy"]
        assert core.sessions == {}

    def test_silent_exactly_one_and_a_half_keepalives_closes(self):
        core = BrokerCore()
        connect(core, "c1", "sleepy", keep_alive=10, now=0.0)
        assert core.next_deadline() == 15.0
        assert [o.client_id for o in core.tick(15.0)] == ["sleepy"]
        assert core.next_deadline() is None

    def test_silent_within_grace_kept(self):
        core = BrokerCore()
        connect(core, "c1", "sleepy", keep_alive=10, now=0.0)
        assert core.keepalive_sweep(14.0) == []
        assert "sleepy" in core.sessions

    def test_zero_keepalive_never_expires(self):
        core = BrokerCore()
        connect(core, "c1", "forever", keep_alive=0, now=0.0)
        assert core.keepalive_sweep(1e9) == []

    def test_any_packet_refreshes_deadline(self):
        core = BrokerCore()
        connect(core, "c1", "chatty", keep_alive=10, now=0.0)
        core.handle("c1", PingReq(), 12.0)
        assert core.keepalive_sweep(16.0) == []
        assert core.keepalive_sweep(27.1) != []


def test_retained_consistency_after_many_flips():
    import random

    rng = random.Random(2024)
    core = BrokerCore()
    connect(core, "pub", "publisher")
    n = 6
    current = [0] * n
    for slot in range(n):
        core.handle("pub", Publish(topic=f"parking/slot/{slot + 1}/status",
                                   payload=b"0", qos=0, retain=True), 0.0)
    for _ in range(100):
        slot = rng.randrange(n)
        current[slot] ^= 1
        core.handle(
            "pub",
            Publish(topic=f"parking/slot/{slot + 1}/status",
                    payload=str(current[slot]).encode(), qos=0, retain=True),
            1.0,
        )
    connect(core, "fresh", "fresh-subscriber")
    outputs = core.handle(
        "fresh", Subscribe(packet_id=1, filters=(("parking/slot/+/status", 0),)), 2.0
    )
    publishes = [o.packet for o in outputs if isinstance(o, Send) and isinstance(o.packet, Publish)]
    assert len(publishes) == n
    seen = {}
    for p in publishes:
        slot = int(p.topic.split("/")[2])
        seen[slot - 1] = int(p.payload)
    assert [seen[i] for i in range(n)] == current


def test_a_retained_slot_topic_costs_the_broker_little_memory():
    # One retained status per slot of a 2,048-slot lot. The packets are built
    # before tracing starts, so only what the core keeps per topic counts:
    # about 71 B a topic here, against about 814 B when each topic was also
    # indexed in a level trie.
    slots = 2048
    core = BrokerCore()
    connect(core, "pub", "publisher")
    publishes = [Publish(topic=f"parking/slot/{n}/status", payload=b"free", retain=True)
                 for n in range(slots)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for publish in publishes:
            core.handle("pub", publish, 1.0)
        per_topic = (tracemalloc.get_traced_memory()[0] - before) / slots
    finally:
        tracemalloc.stop()
    assert len(core.retained) == slots
    assert per_topic < 256, f"{per_topic:.0f} B per retained topic"


class TestDollarTopics:
    """MQTT 3.1.1 section 4.7.2: a first-level wildcard never matches '$' topics."""

    def setup_method(self):
        self.core = BrokerCore()
        connect(self.core, "pub", "publisher")
        for conn, topic_filter in (("s1", "#"), ("s2", "+/x"), ("s3", "$SYS/#"), ("s4", "$SYS/+")):
            connect(self.core, conn, conn)
            self.core.handle(conn, Subscribe(packet_id=1, filters=((topic_filter, 0),)), 0.0)

    def test_fanout_skips_root_wildcards(self):
        outputs = self.core.handle("pub", Publish(topic="$SYS/x", payload=b"1"), 1.0)
        assert [o.conn_id for o in sends_of(outputs, Publish)] == ["s3", "s4"]

    def test_replay_skips_root_wildcards(self):
        self.core.handle("pub", Publish(topic="$SYS/x", payload=b"1", retain=True), 1.0)
        self.core.handle("pub", Publish(topic="a/x", payload=b"2", retain=True), 1.0)
        connect(self.core, "late", "late")
        outputs = self.core.handle("late", Subscribe(packet_id=1, filters=(("#", 0),)), 2.0)
        assert [o.packet.topic for o in sends_of(outputs, Publish)] == ["a/x"]
        outputs = self.core.handle("late", Subscribe(packet_id=2, filters=(("$SYS/#", 0),)), 2.0)
        assert [o.packet.topic for o in sends_of(outputs, Publish)] == ["$SYS/x"]

    @pytest.mark.parametrize("topic_filter,replayed", [
        ("#", ["a/x"]), ("+/x", ["a/x"]), ("$SYS/#", ["$SYS/x"]), ("$SYS/+", ["$SYS/x"]),
    ])
    def test_late_subscribers_replay_by_the_same_rule(self, topic_filter, replayed):
        for topic in ("$SYS/x", "a/x"):
            self.core.handle("pub", Publish(topic=topic, payload=b"1", retain=True), 1.0)
        connect(self.core, "late", "late")
        outputs = self.core.handle("late", Subscribe(packet_id=1, filters=((topic_filter, 0),)),
                                   2.0)
        assert [o.packet.topic for o in sends_of(outputs, Publish)] == replayed


class BruteForceCore(BrokerCore):
    """Reference matcher: linear scans with codec.topic_matches, the way the
    broker matched before it kept tries. Everything else is shared."""

    def _subscribers(self, topic):
        found = []
        for session in self.sessions.values():
            granted = [qos for topic_filter, qos in session.subscriptions.items()
                       if topic_matches(topic_filter, topic)]
            if granted:
                found.append((session, max(granted)))
        return found

    def _retained_matching(self, topic_filter):
        return [topic for topic in self.retained if topic_matches(topic_filter, topic)]


CLIENTS = ("c0", "c1", "c2")
_LEVEL = st.sampled_from(("a", "b", "", "$s"))
_TOPIC = st.lists(_LEVEL, min_size=1, max_size=3).map("/".join).filter(bool)
_FILTER = st.one_of(
    st.just("#"),
    st.tuples(
        st.lists(st.one_of(_LEVEL, st.just("+")), min_size=1, max_size=3),
        st.booleans(),
    ).map(lambda parts: "/".join(parts[0] + ["#"] * parts[1])).filter(bool),
)


@st.composite
def _filter_near(draw, topics):
    """A filter made from a pool topic, so that it likely matches some pool
    topics: levels turned into '+', or the tail cut off and ended with '#'."""
    levels = [draw(st.sampled_from((level, level, "+")))
              for level in draw(st.sampled_from(topics)).split("/")]
    if draw(st.booleans()):
        levels = levels[:draw(st.integers(0, len(levels)))] + ["#"]
    return "/".join(levels)


@st.composite
def _scripts(draw):
    """A step list over small topic and filter pools, so that steps often
    hit the same topic or filter again (overwrite, re-subscribe, clear)."""
    topics = draw(st.lists(_TOPIC, min_size=2, max_size=4, unique=True))
    topic = st.sampled_from(topics)
    topic_filter = st.sampled_from(draw(st.lists(
        st.one_of(_filter_near(topics), _FILTER), min_size=1, max_size=4, unique=True)))
    client = st.sampled_from(CLIENTS)
    qos = st.integers(0, 1)
    steps = {
        "connect": st.tuples(st.just("connect"), client, st.integers(0, 1), st.sampled_from((0, 3))),
        "subscribe": st.tuples(st.just("subscribe"), client,
                               st.lists(st.tuples(topic_filter, qos), min_size=1, max_size=3)),
        "unsubscribe": st.tuples(st.just("unsubscribe"), client,
                                 st.lists(topic_filter, min_size=1, max_size=2)),
        "publish": st.tuples(st.just("publish"), client, topic, qos,
                             st.sampled_from((True, True, False)), st.sampled_from((b"x", b"y"))),
        "clear": st.tuples(st.just("clear"), client, topic),
        "puback": st.tuples(st.just("puback"), client, st.integers(1, 4)),
        "disconnect": st.tuples(st.just("disconnect"), client),
        "closed": st.tuples(st.just("closed"), client),
        "sweep": st.tuples(st.just("sweep")),
        "wrap": st.tuples(st.just("wrap"), client, st.integers(0, 7)),
        "share": st.tuples(st.just("share"), client, topic),
    }
    # publishes and subscribes carry the matching, wraps the id collisions (a
    # wrap finds a copy in flight only now and then) and shares the copies
    # of one message held by several sessions; the other kinds change state
    kind = st.sampled_from(("publish",) * 4 + ("subscribe",) * 3 + ("wrap",) * 2 + ("share",) * 2
                           + tuple(steps))
    step = kind.flatmap(steps.__getitem__)
    return draw(st.lists(step, min_size=10, max_size=40))


def _apply(core, step, now):
    kind = step[0]
    if kind == "sweep":
        return core.tick(now)
    client = step[1]
    if kind == "connect":
        return core.handle(f"{client}-{step[2]}", Connect(client_id=client, keep_alive_s=step[3]), now)
    outputs = []
    if client not in core.sessions:  # act on a live session, not "packet before CONNECT"
        outputs += core.handle(f"{client}-auto", Connect(client_id=client), now)
    conn = core.sessions[client].conn_id
    if kind == "wrap":
        # 65,535 messages later the counter may sit on an id still in flight:
        # put it there, then publish that copy's topic again at qos 1
        held = [entry.publish for session in core.sessions.values()
                for entry in session.inflight.values()]
        if not held:
            return outputs
        sent = held[step[2] % len(held)]
        core.next_packet_id = sent.packet_id
        kind, step = "publish", ("publish", client, sent.topic, 1, False, b"w")
    elif kind == "share":
        # every client subscribes to the topic at qos 1, so that the publish
        # that follows has a qos-1 copy for each of them
        for other in CLIENTS:
            if other not in core.sessions:
                outputs += core.handle(f"{other}-auto", Connect(client_id=other), now)
            outputs += core.handle(core.sessions[other].conn_id,
                                   Subscribe(packet_id=1, filters=((step[2], 1),)), now)
        kind, step = "publish", ("publish", client, step[2], 1, False, b"s")
    if kind == "subscribe":
        packet = Subscribe(packet_id=1, filters=tuple(step[2]))
    elif kind == "unsubscribe":
        packet = Unsubscribe(packet_id=1, filters=tuple(step[2]))
    elif kind == "publish":
        _, _, topic, qos, retain, payload = step
        # a qos-1 b"y" is the client's resend: its copies still go out
        # without DUP (MQTT-3.3.1-3)
        packet = Publish(topic=topic, payload=payload, qos=qos, retain=retain,
                         dup=qos == 1 and payload == b"y", packet_id=1 if qos else None)
    elif kind == "clear":
        packet = Publish(topic=step[2], payload=b"", retain=True)
    elif kind == "puback":
        packet = PubAck(packet_id=step[2])
    elif kind == "disconnect":
        packet = Disconnect()
    else:
        core.connection_closed(conn)
        return outputs
    return outputs + core.handle(conn, packet, now)


def _brute_force_deadline(core):
    deadlines = [entry.deadline for session in core.sessions.values()
                 for entry in session.inflight.values()]
    deadlines += [session.last_seen_t + 1.5 * session.keep_alive_s
                  for session in core.sessions.values() if session.keep_alive_s > 0]
    return min(deadlines, default=None)


def _assert_timer_progresses(core):
    """tick() at next_deadline() clears everything due by then, so a driver
    that sleeps until the deadline and ticks never spins."""
    deadline = core.next_deadline()
    if deadline is not None:
        core = copy.deepcopy(core)
        core.tick(deadline)
        after = core.next_deadline()
        assert after is None or after > deadline


def _trie_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def _assert_no_leaked_nodes(core):
    """An empty subscription trie when no session is live, and only live
    sessions in it and in the connection map."""
    assert core.conn_sessions == {session.conn_id: session for session in core.sessions.values()}
    for node in _trie_nodes(core._subscription_trie):
        for seq, (session, _) in node.entries.items():
            assert core.sessions.get(session.client_id) is session and seq == session.connect_seq
    if not core.sessions:
        assert core._subscription_trie.is_empty()


def _assert_copies_shared(core, outputs, held):
    """No qos-1 copy of a published message takes an id its session `held`
    before the step. The qos-0 copies are one Publish, and so are the qos-1
    copies, but for those to sessions that held the message's id: each of
    those carries the next id free there, in a Publish of its own."""
    copies = [(core.conn_sessions[o.conn_id], o.packet) for o in outputs
              if isinstance(o, Send) and type(o.packet) is Publish]
    assert len({id(packet) for _, packet in copies if packet.qos == 0}) <= 1
    qos1 = [(session, packet) for session, packet in copies if packet.qos == 1]
    if not qos1:
        return
    shared = qos1[0][1]
    for session, packet in qos1:
        before = held.get(session.client_id, ())
        assert packet.packet_id not in before
        if shared.packet_id in before:
            assert packet is not shared
            assert packet.packet_id == free_packet_id(shared.packet_id, before)
        else:
            assert packet is shared


def _assert_dup_only_on_resends(step, outputs):
    """DUP marks a resend and nothing else: every PUBLISH that tick() emits
    has it set, and none that handle() emits does."""
    dups = {o.packet.dup for o in outputs if isinstance(o, Send) and type(o.packet) is Publish}
    assert dups <= ({True} if step[0] == "sweep" else {False}), step


def _assert_entries_shared(core):
    """Every inflight key is its entry's packet id. Sessions holding the same
    live Publish (retain clear) hold one entry object for it, unless their
    copy was resent: a resend stores an entry of its own. Each replay copy
    (retain set) owns its entry, even where its Publish is shared."""
    by_publish = {}
    for session in core.sessions.values():
        for pid, entry in session.inflight.items():
            assert pid == entry.publish.packet_id
            by_publish.setdefault(id(entry.publish), []).append(entry)
    for entries in by_publish.values():
        first = [entry for entry in entries if not entry.retries and not entry.publish.retain]
        assert all(entry is first[0] for entry in first)
        own = [id(entry) for entry in entries if entry.retries or entry.publish.retain]
        assert len(set(own)) == len(own)


def _assert_replay_shared(core, outputs, held):
    """No qos-1 replay copy (retain set, DUP clear: a resend keeps its id)
    takes an id its session `held` before the step or was sent earlier in
    it. Each is the one Publish the core keeps for its retained value, but
    for a session that already had that Publish's id: such a session gets a
    Publish of its own."""
    taken = {client: set(ids) for client, ids in held.items()}
    for o in outputs:
        if not (isinstance(o, Send) and type(o.packet) is Publish and o.packet.qos == 1
                and not o.packet.dup):
            continue
        packet = o.packet
        ids = taken.setdefault(core.conn_sessions[o.conn_id].client_id, set())
        if packet.retain:
            assert packet.packet_id not in ids
            cached = core._replay[packet.topic]
            assert (packet is cached) == (cached.packet_id not in ids)
        ids.add(packet.packet_id)


def _assert_match_snapshots_current(core):
    """Every match snapshot belongs to a wildcard filter that a live session
    holds, and equals a scan of the retained store for that filter."""
    held = {topic_filter for session in core.sessions.values()
            for topic_filter in session.subscriptions}
    for topic_filter, snapshot in core._match_snapshots.items():
        assert "+" in topic_filter or "#" in topic_filter
        assert topic_filter in held
        assert snapshot == [topic for topic in core.retained if topic_matches(topic_filter, topic)]


def _assert_replay_cache_current(core):
    """Every cached replay Publish carries its topic's current retained
    value, at qos 1 with retain set and DUP clear."""
    for topic, publish in core._replay.items():
        assert core.retained[topic] == (publish.payload, 1)
        assert (publish.topic, publish.qos, publish.retain, publish.dup) == (topic, 1, True, False)


@settings(max_examples=300)
@given(_scripts())
def test_indexed_core_matches_brute_force_reference(steps):
    indexed, reference = BrokerCore(), BruteForceCore()
    for n, step in enumerate(steps):
        now = float(n)
        held = {client: set(session.inflight) for client, session in indexed.sessions.items()}
        outputs = _apply(indexed, step, now)
        assert outputs == _apply(reference, step, now), step
        _assert_dup_only_on_resends(step, outputs)
        if step[0] in ("publish", "wrap"):
            _assert_copies_shared(indexed, outputs, held)
        _assert_replay_shared(indexed, outputs, held)
        _assert_replay_cache_current(indexed)
        _assert_match_snapshots_current(indexed)
        _assert_entries_shared(indexed)
        assert list(indexed.retained.items()) == list(reference.retained.items())
        _assert_no_leaked_nodes(indexed)
        assert indexed.next_deadline() == _brute_force_deadline(indexed)
        _assert_timer_progresses(indexed)

    # drain: clear every retained topic, then end every session
    connect(indexed, "janitor", "janitor", now=len(steps))
    for topic in list(indexed.retained):
        indexed.handle("janitor", Publish(topic=topic, payload=b"", retain=True), len(steps))
    for session in list(indexed.sessions.values()):
        indexed.handle(session.conn_id, Disconnect(), len(steps))
    assert indexed.sessions == {} and indexed.retained == {} and indexed._replay == {}
    assert indexed._match_snapshots == {}
    assert indexed._subscription_trie.is_empty()
