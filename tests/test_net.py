"""End-to-end checks of the TCP broker and client over localhost."""

import collections
import socket
import threading
import time

import pytest

from parksim import codec, net
from parksim.broker import BrokerCore
from parksim.net import BrokerServer, ConnectionError_, MqttConnection


@pytest.fixture
def server():
    broker = BrokerServer(host="127.0.0.1", port=0)
    broker.start()
    yield broker
    broker.stop()


def drain(conn, timeout=2.0):
    """Poll `conn` until 0.1 s pass without a new message after the first
    one, or `timeout` seconds pass; takes and returns its messages."""
    deadline = time.monotonic() + timeout
    last_new = None
    while time.monotonic() < deadline:
        count = len(conn.messages)
        if not conn.poll(0.1):
            break
        if len(conn.messages) > count:
            last_new = time.monotonic()
        elif last_new is not None and time.monotonic() - last_new >= 0.1:
            break
    items = list(conn.messages)
    conn.messages.clear()
    return items


def next_message(conn, timeout=5.0):
    """Poll `conn` until a message is in and take the oldest."""
    deadline = time.monotonic() + timeout
    while not conn.messages:
        assert time.monotonic() < deadline, "no message"
        assert conn.poll(0.1), "connection closed"
    return conn.messages.pop(0)


def wait_closed(conn, timeout=5.0):
    """Poll `conn` until it is closed; False if `timeout` seconds pass first."""
    deadline = time.monotonic() + timeout
    while conn.poll(0.1):
        if time.monotonic() > deadline:
            return False
    return True


def wait_until(predicate, timeout=5.0, polling=()):
    """Check `predicate` until it holds or `timeout` seconds pass, polling
    the connections in `polling` between checks."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        for conn in polling:
            conn.poll(0.01)
        if not polling:
            time.sleep(0.01)
    return True


class TestTcpBroker:
    def test_publish_reaches_subscriber(self, server):
        host, port = server.address
        sub = MqttConnection(host, port, client_id="sub-1")
        pub = MqttConnection(host, port, client_id="pub-1")
        try:
            sub.subscribe("parking/#", qos=0)
            # SUBACK in
            assert wait_until(lambda: not sub.engine.pending_subscribes, polling=[sub])
            pub.publish("parking/slot/1/status", b"1")
            messages = drain(sub)
            assert ("parking/slot/1/status", b"1", False) in messages
        finally:
            sub.close()
            pub.close()

    def test_retained_replay_for_late_subscriber(self, server):
        host, port = server.address
        pub = MqttConnection(host, port, client_id="pub-2")
        try:
            pub.publish("parking/slot/1/status", b"1", retain=True)
            pub.publish("parking/slot/2/status", b"0", retain=True)
            assert wait_until(lambda: "parking/slot/2/status" in server.core.retained)
            late = MqttConnection(host, port, client_id="late-2")
            try:
                late.subscribe("parking/slot/+/status", qos=0)
                messages = drain(late)
                assert sorted(messages) == [
                    ("parking/slot/1/status", b"1", True),
                    ("parking/slot/2/status", b"0", True),
                ]
            finally:
                late.close()
        finally:
            pub.close()

    def test_qos1_roundtrip_acked(self, server):
        host, port = server.address
        sub = MqttConnection(host, port, client_id="sub-3")
        pub = MqttConnection(host, port, client_id="pub-3")
        try:
            sub.subscribe("t/#", qos=1)
            # SUBACK in
            assert wait_until(lambda: not sub.engine.pending_subscribes, polling=[sub])
            pub.publish("t/x", b"payload", qos=1)
            messages = drain(sub)
            assert ("t/x", b"payload", False) in messages
            # broker PUBACK arrived
            assert wait_until(lambda: pub.engine.inflight == {}, polling=[pub])
            session = server.core.sessions.get("sub-3")
            assert session is not None
            assert wait_until(lambda: session.inflight == {})
        finally:
            sub.close()
            pub.close()

    def test_takeover_drops_first_connection(self, server):
        host, port = server.address
        first = MqttConnection(host, port, client_id="dup")
        second = MqttConnection(host, port, client_id="dup")
        try:
            # the first connection is closed and one session is left
            assert wait_until(lambda: len(server._conns) == 1)
            assert len(server.core.sessions) == 1
        finally:
            first.close()
            second.close()

    def test_connection_refused_raises(self):
        with pytest.raises(ConnectionError_):
            MqttConnection("127.0.0.1", 1, client_id="nobody", connect_timeout_s=0.5)

    def test_peer_closing_before_connack_raises_at_once(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def accept_and_close():
            sock, _ = listener.accept()
            sock.close()

        closer = threading.Thread(target=accept_and_close)
        closer.start()
        try:
            started = time.monotonic()
            with pytest.raises(ConnectionError_):
                MqttConnection(*listener.getsockname(), client_id="early",
                               connect_timeout_s=5.0)
            assert time.monotonic() - started < 2.0
        finally:
            closer.join(5.0)
            listener.close()
        assert not closer.is_alive()

    def test_watch_board_rebuilds_after_reconnect(self, server):
        from parksim.watch import WatchView

        host, port = server.address
        pub = MqttConnection(host, port, client_id="facility")
        try:
            for i, flag in enumerate((b"1", b"0", b"1"), start=1):
                pub.publish(f"parking/slot/{i}/status", flag, retain=True)
            pub.publish("parking/summary", b"1/3", retain=True)
            assert wait_until(lambda: "parking/summary" in server.core.retained)

            def board():
                view = WatchView()
                conn = MqttConnection(host, port, client_id="watch-tool")
                try:
                    conn.subscribe("parking/#", qos=0)
                    for topic, payload, _retain in drain(conn):
                        view.feed(topic, payload)
                finally:
                    conn.close()
                return view.render_lines(color=False)

            first = board()
            second = board()  # fresh session, retained replay only
            assert first == second
            assert any("free   1/3" == line for line in first)
        finally:
            pub.close()


class TestSelectorLoop:
    def test_frames_before_a_malformed_one_are_answered_then_closed(self, server):
        wire = (codec.encode_packet(codec.Connect(client_id="raw"))
                + codec.encode_packet(codec.PingReq())
                + b"\x00\x00")  # reserved packet type 0
        frames = codec.FrameSplitter()
        received = []
        with socket.create_connection(server.address, timeout=5.0) as raw:
            raw.sendall(wire)
            while chunk := raw.recv(4096):
                received += frames.feed(chunk)
        assert received == [codec.ConnAck(return_code=0), codec.PingResp()]
        assert wait_until(lambda: "raw" not in server.core.sessions)

    def test_qos2_subscribe_is_granted_qos1(self, server):
        # SUBSCRIBE, packet id 1, filter "a/b", requested QoS 2
        subscribe = b"\x82\x08\x00\x01\x00\x03a/b\x02"
        received = b""
        with socket.create_connection(server.address, timeout=5.0) as raw:
            raw.sendall(codec.encode_packet(codec.Connect(client_id="qos2")) + subscribe)
            while len(received) < 9:  # CONNACK (4 bytes) and SUBACK (5 bytes)
                chunk = raw.recv(4096)
                assert chunk, "broker closed the connection"
                received += chunk
        assert received == b"\x20\x02\x00\x00" + b"\x90\x03\x00\x01\x01"

    def test_every_frame_passes_the_codec_entry_points(self, server, monkeypatch):
        """perfbench's tracer wraps the module attributes codec.encode_packet
        and codec.decode_packet; every frame the broker and both clients
        send or receive must go through them."""
        encode, decode = codec.encode_packet, codec.decode_packet
        encoded, decoded = [], []

        def counting_encode(packet):
            wire = encode(packet)
            encoded.append((type(packet), len(wire)))
            return wire

        def counting_decode(buf, *args):
            result = decode(buf, *args)
            if result is not None:
                decoded.append((type(result[0]), result[1]))
            return result

        monkeypatch.setattr(codec, "encode_packet", counting_encode)
        monkeypatch.setattr(codec, "decode_packet", counting_decode)
        count = 50
        host, port = server.address
        sub = MqttConnection(host, port, client_id="sub")
        pub = MqttConnection(host, port, client_id="pub")
        try:
            sub.subscribe("t/#", qos=1)
            assert wait_until(lambda: not sub.engine.pending_subscribes, polling=[sub])
            for i in range(count):
                pub.publish("t/x", b"%d" % i, qos=1)
            assert [next_message(sub)[1] for _ in range(count)] == [b"%d" % i for i in range(count)]
            # every PUBACK is in: the publisher's from the broker, the broker's
            # from the subscriber
            assert wait_until(lambda: not pub.engine.inflight
                              and not server.core.sessions["sub"].inflight, polling=[pub, sub])
            kinds = collections.Counter(kind for kind, _ in encoded)
            assert kinds == {codec.Connect: 2, codec.ConnAck: 2, codec.Subscribe: 1,
                             codec.SubAck: 1, codec.Publish: 2 * count, codec.PubAck: 2 * count}
            assert collections.Counter(kind for kind, _ in decoded) == kinds
            assert sum(size for _, size in decoded) == sum(size for _, size in encoded)
        finally:
            sub.close()
            pub.close()

    def test_slow_consumer_is_closed_and_others_keep_receiving(self, server, monkeypatch):
        monkeypatch.setattr(net, "MAX_OUTBOUND_BYTES", 256 * 1024)
        host, port = server.address
        slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(5.0)
        slow.connect((host, port))
        fast = MqttConnection(host, port, client_id="fast")
        pub = MqttConnection(host, port, client_id="pub")
        try:
            # subscribes, then never reads a byte
            slow.sendall(codec.encode_packet(codec.Connect(client_id="slow"))
                         + codec.encode_packet(codec.Subscribe(packet_id=1, filters=(("load/#", 0),))))
            fast.subscribe("load/#", qos=0)
            assert wait_until(lambda: all(
                name in server.core.sessions and server.core.sessions[name].subscriptions
                for name in ("slow", "fast")))

            # Rounds of 32 publishes of 4 KiB, each round received in full by
            # `fast` before the next: `fast` never has more than 128 KiB
            # pending, under the cap, while `slow` piles up everything.
            payload = bytes(4096)
            sent = 0
            while server.slow_consumer_closes == 0 and sent < 4096:  # 16 MiB ceiling
                for _ in range(32):
                    pub.publish("load/x", b"%d:" % sent + payload)
                    sent += 1
                for expected in range(sent - 32, sent):
                    topic, data, _ = next_message(fast)
                    assert (topic, data.split(b":", 1)[0]) == ("load/x", b"%d" % expected)
            assert server.slow_consumer_closes == 1
            assert wait_until(lambda: "slow" not in server.core.sessions)

            pub.publish("load/after", b"still flowing")
            assert next_message(fast) == ("load/after", b"still flowing", False)
            assert "fast" in server.core.sessions
        finally:
            slow.close()
            fast.close()
            pub.close()

    def test_late_subscriber_ends_on_the_retained_value(self, server):
        """Retained replay and live fan-out reach a subscriber in the order
        the core made them, so the last value it sees is the retained one."""
        host, port = server.address
        pub = MqttConnection(host, port, client_id="flipper")
        sub = MqttConnection(host, port, client_id="late")
        flipping = threading.Event()

        def flip():
            for i in range(1000):
                pub.publish("lot/gate", b"%d" % i, retain=True)
                if i == 100:
                    flipping.set()
            pub.publish("lot/marker", b"end", retain=True)

        flipper = threading.Thread(target=flip)
        flipper.start()
        try:
            assert flipping.wait(5.0)
            sub.subscribe("lot/#", qos=0)
            flipper.join(10.0)
            assert not flipper.is_alive()
            last = None
            while True:
                topic, payload, _ = next_message(sub)
                if topic == "lot/marker":
                    break
                last = payload
            assert last == server.core.retained["lot/gate"][0] == b"999"
        finally:
            flipper.join(10.0)
            pub.close()
            sub.close()

    def test_unacked_qos1_resent_on_the_core_deadline(self):
        """The loop sleeps until the core's next deadline, not a fixed sweep
        period: resends come one ack timeout apart, then the entry expires."""
        core = BrokerCore(ack_timeout_s=0.3, max_retries=3)
        broker = BrokerServer(host="127.0.0.1", port=0, core=core)
        broker.start()
        pub = None
        try:
            with socket.create_connection(broker.address, timeout=5.0) as raw:
                # a qos-1 subscriber that never sends PUBACK
                raw.sendall(codec.encode_packet(codec.Connect(client_id="mute"))
                            + codec.encode_packet(codec.Subscribe(packet_id=1, filters=(("t", 1),))))
                frames = codec.FrameSplitter()
                received = []  # (arrival time, packet)

                def receive_until(count):
                    while len(received) < count:
                        chunk = raw.recv(4096)
                        assert chunk, "broker closed the connection"
                        received.extend((time.monotonic(), p) for p in frames.feed(chunk))

                receive_until(2)
                assert [p for _, p in received] == [
                    codec.ConnAck(return_code=0), codec.SubAck(packet_id=1, granted=(1,))]
                pub = MqttConnection(*broker.address, client_id="pub")
                pub.publish("t", b"x", qos=1)
                receive_until(6)  # the first send and three resends
                # out of retries one ack timeout after the last resend
                assert wait_until(lambda: core.uncorrected_errors == 1)
            publishes = received[2:]
            assert [(p.topic, p.dup) for _, p in publishes] == [("t", False)] + [("t", True)] * 3
            assert len({p.packet_id for _, p in publishes}) == 1
            times = [t for t, _ in publishes]
            assert all(later - earlier >= 0.25 for earlier, later in zip(times, times[1:]))
            # a 0.5 s sweep could not resend more often than every 0.5 s
            assert times[3] - times[1] < 0.95
        finally:
            if pub is not None:
                pub.close()
            broker.stop()

    def test_stop_from_another_thread_closes_everything(self):
        broker = BrokerServer(host="127.0.0.1", port=0)
        broker.start()
        conn = MqttConnection(*broker.address, client_id="watcher")
        try:
            stopper = threading.Thread(target=broker.stop)
            stopper.start()
            stopper.join(5.0)
            assert not stopper.is_alive()
            assert not broker._thread.is_alive()
            assert broker.core.sessions == {}
            assert broker._listener.fileno() == -1
        finally:
            conn.close()


    def test_serve_forever_serves_on_its_callers_thread(self):
        broker = BrokerServer(host="127.0.0.1", port=0)
        flush = broker._flush

        def flush_slowly():
            if broker._stopping.is_set():
                time.sleep(0.2)  # the loop is still busy when stop() goes on
            flush()

        broker._flush = flush_slowly
        before = threading.active_count()
        caller = threading.Thread(target=broker.serve_forever)
        caller.start()
        conn = MqttConnection(*broker.address, client_id="watcher")
        try:
            assert threading.active_count() == before + 1  # the caller, and no loop thread
            broker.stop()  # from another thread: waits for the caller's loop to end
            assert not caller.is_alive()
            assert broker.core.sessions == {}
            assert broker._listener.fileno() == -1
        finally:
            conn.close()
            caller.join(5.0)

    def test_failed_bind_closes_its_socket(self, monkeypatch):
        made = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        with socket.create_server(("127.0.0.1", 0)) as taken:
            monkeypatch.setattr(net.socket, "socket", Recorded)
            with pytest.raises(OSError):
                BrokerServer(host="127.0.0.1", port=taken.getsockname()[1])
        assert len(made) == 1 and made[0].fileno() == -1


class TestClientDrivenByItsOwner:
    """The thread that owns a connection drives it through poll()."""

    def test_client_starts_no_thread(self, server):
        before = threading.active_count()
        conn = MqttConnection(*server.address, client_id="one-thread")
        try:
            conn.subscribe("t/#", qos=1)
            assert wait_until(lambda: not conn.engine.pending_subscribes, polling=[conn])
            assert conn.poll(0.1)
            assert threading.active_count() == before
        finally:
            conn.close()
        assert threading.active_count() == before

    def test_polling_keeps_a_short_keep_alive_session(self, server):
        conn = MqttConnection(*server.address, client_id="pinger", keep_alive_s=1)
        try:
            # the broker expires a silent session after 1.5 s
            until = time.monotonic() + 2.5
            while time.monotonic() < until:
                assert conn.poll(until - time.monotonic())
            assert "pinger" in server.core.sessions
        finally:
            conn.close()

    def test_a_client_that_never_polls_is_closed_by_the_broker(self, server):
        conn = MqttConnection(*server.address, client_id="silent", keep_alive_s=1)
        try:
            assert wait_until(lambda: "silent" not in server.core.sessions)
            assert not conn.poll(5.0)
            assert conn.closed
            assert not conn.engine.connected
        finally:
            conn.close()


class TestClientNoticesClose:
    """The client marks itself closed when the broker side goes away."""

    def test_takeover_marks_the_first_connection_closed(self, server):
        host, port = server.address
        first = MqttConnection(host, port, client_id="dup")
        second = MqttConnection(host, port, client_id="dup")
        try:
            assert wait_closed(first)
            assert first.closed
            assert not first.engine.connected
            assert not second.closed

            def no_send(packet):
                raise AssertionError(f"sent {packet!r} on a closed connection")

            first._send = no_send
            first.close()  # no DISCONNECT on the dead socket
        finally:
            second.close()

    def test_broker_stop_ends_a_running_watch(self, monkeypatch, capsys):
        from parksim import cli

        broker = BrokerServer(host="127.0.0.1", port=0)
        broker.start()
        host, port = broker.address
        fed = threading.Event()

        class SignallingView(cli.WatchView):
            def feed(self, topic, payload):
                super().feed(topic, payload)
                fed.set()

        monkeypatch.setattr(cli, "WatchView", SignallingView)
        result = {}
        done = threading.Event()

        def watch():
            result["code"] = cli.main(["watch", "--broker", f"{host}:{port}",
                                       "--filter", "parking/#", "--retries", "1",
                                       "--color", "never"])
            done.set()

        pub = MqttConnection(host, port, client_id="facility")
        watcher = threading.Thread(target=watch, daemon=True)
        try:
            # retained, so the watch sees it whether it subscribes before or after
            pub.publish("parking/summary", b"3/4", retain=True)
            watcher.start()
            assert fed.wait(5.0)
        finally:
            pub.close()
            broker.stop()
        assert done.wait(5.0)
        assert result["code"] == cli.EXIT_NETWORK
        assert "connection to" in capsys.readouterr().err
