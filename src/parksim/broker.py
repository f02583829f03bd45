"""Transport-agnostic MQTT broker core.

The core never touches sockets or the event queue: callers feed it decoded
packets with a timestamp and get back a list of Send/Close commands. The
simulator drives it from the discrete-event loop with simulated time; the
TCP server drives it from one `selectors` loop on one thread with the
monotonic clock. All state transitions happen inside whichever single loop
owns the instance, so they serialize naturally and need no lock.

Send and Close are immutable `values.Value` classes, like the packets.
handle() dispatches on the packet's exact type through one table; a
connected session that sends a type with no entry (a packet only a server
sends) is dropped and its connection closed as unexpected. A SUBSCRIBE
that requests QoS 2 is granted QoS 1, the highest this subset speaks
(MQTT 3.1.1 §3.8.4).

QoS-1 bookkeeping doubles as the error-recovery model: an outbound publish
whose first transmission times out unacknowledged counts as an error, a
later acknowledged retry marks it corrected, and exhausting max_retries
marks it uncorrected. Packet ids come from one counter per core, handed
out in turn and wrapping from 65535 to 1. A message takes one id, and its
qos-1 copies share one Publish carrying it; its qos-0 copies share another.
An id is scoped to its session and is not reused while that session has it
in flight (MQTT 3.1.1 §2.3.1), so a session still holding the message's id
gets its own Publish with the next id free in its table. The first qos-1
copy's session settles the message's id, and the counter moves on past it,
so a core whose messages reach one qos-1 subscriber hands that session the
ids a per-session counter would. A copy that finds all 65,535 ids of its
session in flight is not sent and counts as uncorrected. The copies that
share a Publish share one inflight entry too; a copy with a Publish of its
own gets an entry of its own. An entry is never changed once stored: a
resend replaces it in its session's table with a fresh one, so it never
moves another session's deadline or retry count.

A retained value works the same way across SUBSCRIBEs: its qos-1 replay
copies share one Publish (retain set) with one id, built at the value's
first replay, kept per topic, and dropped when a retained publish
overwrites or clears that topic, so the cache never outgrows the retained
store. A session that holds the cached id in flight gets its own Publish
with the counter's next id free in its table. Each replay copy stores an
inflight entry of its own, since its accept time and deadline are those of
its SUBSCRIBE.

Time enters through one timer: every inflight entry and every session with
a keep-alive carries an absolute deadline, next_deadline() reports the
earliest of them and tick(now) acts on those due. A driver calls tick at
(or after) that deadline, whatever its clock: the simulator keeps one
pending timer event, the TCP server uses it as its select timeout.

Matching runs on one level trie over subscription filters, kept in step
with every state change, so a publish visits only the filters that can
match its topic. A SUBSCRIBE replays from its wildcard filter's match
snapshot: the retained topics that filter matches, in store order, found
by one scan of the retained store at the filter's first replay and kept
for every later SUBSCRIBE to it. The scan tests each topic against the
filter's literal prefix (its levels before the first wildcard) before it
compares levels. Adding or clearing a retained topic drops every snapshot
(an overwrite moves no topic, so it keeps them), and a filter's last
holder takes its snapshot with it when it unsubscribes or its session
ends, so the snapshots never hold more than the replays of live
subscriptions emit. A literal filter can match only the topic equal to it
and is answered from the retained store, with no scan and no snapshot. A
snapshot is replaced, never changed in place. A subscription entry is
keyed by its session's connect sequence number and holds the session
itself with the granted qos, so a publish reaches its sessions without a
lookup by client id, and sorting the matched keys, plain ints, gives
connect order. Outputs keep the order a linear scan gives: fan-out in
session connect order, replay in retained-store order (a cleared and
re-added topic moves to the end). _send_copies builds the copies of a live
publish and _handle_subscribe those of a retained replay; redeliver()
resends either kind of copy that was not acknowledged in time.

A dict keeps its peak size after its entries are popped, so a session's
inflight table that a retained replay filled (one copy per matching
topic, thousands for an app subscribing to `parking/#`) would stay that
large for the session's life. A SUBSCRIBE that replays a qos-1 copy marks
its session; the PUBACK or the exhausted retry that then empties the table
replaces it with a fresh dict and clears the mark. A table that only live
fan-out fills is kept: there nearly every ack empties it.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import codec
from .codec import (
    ConnAck,
    Connect,
    Disconnect,
    MqttPacket,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    UnsubAck,
    Unsubscribe,
)
from .values import Value

log = logging.getLogger(__name__)

RETURN_ACCEPTED = 0x00
RETURN_UNSUPPORTED = 0x01
RETURN_ID_REJECTED = 0x02


class Send(Value):
    __slots__ = ("conn_id", "packet")


class Close(Value, defaults={"client_id": None, "reason": ""}):
    __slots__ = ("conn_id", "client_id", "reason")


BrokerOutput = Send | Close


class Inflight:
    """A qos-1 copy awaiting its PUBACK; never changed once stored (a resend
    stores a new one). The live copies of a message that share a Publish
    share one entry; each retained-replay copy has its own, because its
    accept time and deadline are those of its SUBSCRIBE."""

    __slots__ = ("publish", "accept_t", "deadline", "retries")

    def __init__(self, publish: Publish, accept_t: float, deadline: float,
                 retries: int = 0) -> None:
        self.publish = publish      # qos-1 frame as first sent (dup clear)
        self.accept_t = accept_t    # when the broker accepted the originating message
        self.deadline = deadline    # time of the transmission it was stored for + ack timeout
        self.retries = retries      # resends up to that transmission; a PUBACK after one corrects an error


@dataclass(slots=True)
class Session:
    client_id: str
    conn_id: str
    keep_alive_s: int
    subscriptions: dict[str, int] = field(default_factory=dict)  # filter -> granted qos
    # in deadline order; replaced by a fresh dict when it empties after a replay
    inflight: dict[int, Inflight] = field(default_factory=dict)
    replayed: bool = False    # a retained replay put copies in `inflight` since it last emptied
    last_seen_t: float = 0.0
    connect_seq: int = 0      # connect order; keys its subscription-trie entries, orders fan-out


def _release_inflight(session: Session) -> None:
    """Give back the emptied table a retained replay filled (see the module docstring)."""
    session.inflight = {}
    session.replayed = False


class _Node:
    """One filter level of the subscription trie ('+' and '#' are ordinary
    keys); `entries` maps the connect_seq of each session whose filter ends
    at this level -> (session, granted qos)."""

    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.entries: dict = {}

    def is_empty(self) -> bool:
        return not self.children and not self.entries


def _trie_insert(root: _Node, levels: list[str], key, value) -> None:
    node = root
    for level in levels:
        child = node.children.get(level)
        if child is None:
            child = node.children[level] = _Node()
        node = child
    node.entries[key] = value


def _trie_remove(root: _Node, levels: list[str], key) -> bool:
    """Remove `key` at `levels` and prune the nodes left empty; True when
    no entry is left at `levels`."""
    path = [root]
    for level in levels:
        node = path[-1].children.get(level)
        if node is None:
            return True
        path.append(node)
    entries = path[-1].entries
    entries.pop(key, None)
    for depth in range(len(levels), 0, -1):
        if not path[depth].is_empty():
            break
        del path[depth - 1].children[levels[depth - 1]]
    return not entries


def _collect_subscribers(node: _Node, levels: list[str], i: int, best: dict) -> None:
    """Merge into `best` the entries of every filter under `node` matching levels[i:].

    Recurses into '+' children and loops down the literal child.
    """
    while True:
        children = node.children
        child = children.get("#")  # 'a/#' matches 'a' too
        if child is not None:
            _merge_highest(best, child.entries)
        if i == len(levels):
            _merge_highest(best, node.entries)
            return
        child = children.get("+")
        if child is not None:
            _collect_subscribers(child, levels, i + 1, best)
        node = children.get(levels[i])
        if node is None:
            return
        i += 1


def _merge_highest(best: dict, entries: dict) -> None:
    if not best:
        best.update(entries)
        return
    for seq, target in entries.items():
        if best.get(seq, _NO_TARGET)[1] < target[1]:
            best[seq] = target


_NO_TARGET = (None, -1)


def _scan_retained(topics: Iterable[str], topic_filter: str) -> list[str]:
    """The topics in `topics` that wildcard filter `topic_filter` matches, in
    their order, from one pass that tests each topic against the filter's
    literal prefix before it compares levels.

    A wildcard in the first level skips '$' topics (MQTT 3.1.1 section 4.7.2).
    """
    flevels = topic_filter.split("/")
    first = next(i for i, level in enumerate(flevels) if level == "+" or level == "#")
    rest = flevels[first:]
    if first:
        prefix = "/".join(flevels[:first]) + "/"
    else:
        prefix = ""
        topics = [topic for topic in topics if not topic.startswith("$")]
    if rest == ["#"]:
        parent = prefix[:-1]  # 'a/#' also matches 'a'; a topic is never empty
        return [topic for topic in topics if topic.startswith(prefix) or topic == parent]
    skip = len(prefix)
    return [topic for topic in topics
            if topic.startswith(prefix) and _levels_match(topic[skip:].split("/"), rest)]


def _levels_match(tlevels: list[str], flevels: list[str]) -> bool:
    """Whether topic levels `tlevels` match filter levels `flevels`, `$` aside."""
    for i, level in enumerate(flevels):
        if level == "#":
            return True
        if i == len(tlevels) or level != "+" and level != tlevels[i]:
            return False
    return len(tlevels) == len(flevels)


class BrokerCore:
    def __init__(
        self,
        ack_timeout_s: float = 2.0,
        max_retries: int = 3,
        event_sink: Callable[..., None] | None = None,
    ):
        self.ack_timeout_s = ack_timeout_s
        self.max_retries = max_retries
        self.event_sink = event_sink
        self.sessions: dict[str, Session] = {}
        self.conn_sessions: dict[str, Session] = {}
        self.retained: dict[str, tuple[bytes, int]] = {}
        # topic -> the qos-1 Publish its retained value's replay copies share;
        # built at the value's first replay, dropped when the topic is written
        self._replay: dict[str, Publish] = {}
        # wildcard filter held by a live session -> its match snapshot, the
        # retained topics it matches (see the module docstring)
        self._match_snapshots: dict[str, list[str]] = {}
        self.corrected_errors = 0
        self.uncorrected_errors = 0
        self.next_packet_id = 1  # the id of the next message with a qos-1 copy
        self._subscription_trie = _Node()
        self._seq = itertools.count()  # session connect order

    # -- inbound ---------------------------------------------------------

    def handle(self, conn_id: str, packet: MqttPacket, now: float) -> list[BrokerOutput]:
        kind = type(packet)
        if kind is Connect:
            return self._handle_connect(conn_id, packet, now)
        session = self.conn_sessions.get(conn_id)
        if session is None:
            return [Close(conn_id, None, "packet before CONNECT")]
        session.last_seen_t = now
        handler = _SESSION_HANDLERS.get(kind)
        if handler is None:
            self._drop_session(session)  # the Close ends it, as a DISCONNECT would
            return [Close(conn_id, session.client_id, f"unexpected {kind.__name__}")]
        return handler(self, session, packet, now)

    def _handle_connect(self, conn_id: str, packet: Connect, now: float) -> list[BrokerOutput]:
        old = self.conn_sessions.get(conn_id)
        if old is not None:
            self._drop_session(old)
            return [Close(conn_id, client_id=old.client_id, reason="second CONNECT on connection")]
        if packet.requests_unsupported:
            return [
                Send(conn_id, ConnAck(return_code=RETURN_UNSUPPORTED)),
                Close(conn_id, reason="unsupported CONNECT features"),
            ]
        if not packet.client_id:
            return [
                Send(conn_id, ConnAck(return_code=RETURN_ID_REJECTED)),
                Close(conn_id, reason="empty client_id"),
            ]
        outputs: list[BrokerOutput] = []
        existing = self.sessions.get(packet.client_id)
        if existing is not None:
            # session takeover: the newer connection wins
            self._drop_session(existing)
            outputs.append(Close(existing.conn_id, packet.client_id, "takeover"))
        session = Session(
            client_id=packet.client_id,
            conn_id=conn_id,
            keep_alive_s=packet.keep_alive_s,
            last_seen_t=now,
            connect_seq=next(self._seq),
        )
        self.sessions[packet.client_id] = session
        self.conn_sessions[conn_id] = session
        outputs.append(Send(conn_id, ConnAck(RETURN_ACCEPTED)))
        return outputs

    def _handle_publish(self, sender: Session, packet: Publish, now: float) -> list[BrokerOutput]:
        outputs: list[BrokerOutput] = []
        topic, payload, qos = packet.topic, packet.payload, packet.qos
        if qos == 1:
            outputs.append(Send(sender.conn_id, PubAck(packet.packet_id)))
        if packet.retain:
            self._replay.pop(topic, None)
            if not payload:
                if self.retained.pop(topic, None) is not None:
                    self._match_snapshots.clear()
            else:
                if topic not in self.retained:
                    self._match_snapshots.clear()
                self.retained[topic] = (payload, qos)
        self._send_copies(outputs, topic, payload, qos, self._subscribers(topic), now)
        return outputs

    def _handle_subscribe(self, session: Session, packet: Subscribe, now: float) -> list[BrokerOutput]:
        for topic_filter, _ in packet.filters:
            codec.validate_filter(topic_filter)
        granted = tuple([min(qos, 1) for _, qos in packet.filters])
        for (topic_filter, _), qos in zip(packet.filters, granted):
            # re-subscribing to the same filter replaces the old qos
            session.subscriptions[topic_filter] = qos
            _trie_insert(self._subscription_trie, topic_filter.split("/"), session.connect_seq,
                         (session, qos))
        conn_id, inflight = session.conn_id, session.inflight
        outputs: list[BrokerOutput] = [Send(conn_id, SubAck(packet.packet_id, granted))]
        retained, replay = self.retained, self._replay
        held = len(inflight)
        deadline = now + self.ack_timeout_s
        for (topic_filter, _), qos in zip(packet.filters, granted):
            for topic in self._retained_matching(topic_filter):
                payload, retained_qos = retained[topic]
                if qos == 0 or retained_qos == 0:
                    outputs.append(Send(conn_id, Publish(topic, payload, 0, True, False, None)))
                    continue
                # the value's shared copy, unless this session holds its id
                publish = replay.get(topic)
                if publish is None or publish.packet_id in inflight:
                    packet_id = codec.free_packet_id(self.next_packet_id, inflight)
                    if packet_id is None:
                        self.uncorrected_errors += 1
                        self._emit("error_uncorrected", client_id=session.client_id, topic=topic)
                        continue
                    self.next_packet_id = packet_id % 0xFFFF + 1
                    own = Publish(topic, payload, 1, True, False, packet_id)
                    if publish is None:
                        replay[topic] = own
                    publish = own
                inflight[publish.packet_id] = Inflight(publish, now, deadline)
                outputs.append(Send(conn_id, publish))
        if len(inflight) > held:
            session.replayed = True
        return outputs

    def _handle_unsubscribe(self, session: Session, packet: Unsubscribe, now: float) -> list[BrokerOutput]:
        for topic_filter in packet.filters:
            if session.subscriptions.pop(topic_filter, None) is not None:
                self._remove_subscription(session, topic_filter)
        return [Send(session.conn_id, UnsubAck(packet.packet_id))]

    def _handle_pingreq(self, session: Session, packet: PingReq, now: float) -> list[BrokerOutput]:
        return [Send(session.conn_id, PingResp())]

    def _handle_disconnect(self, session: Session, packet: Disconnect, now: float) -> list[BrokerOutput]:
        self._drop_session(session)
        return [Close(session.conn_id, session.client_id, "client disconnect")]

    def _subscribers(self, topic: str) -> list[tuple[Session, int]]:
        """(session, highest qos granted by its filters matching `topic`),
        in session connect order."""
        levels = topic.split("/")
        best: dict[int, tuple[Session, int]] = {}
        if topic.startswith("$"):
            # root-level wildcards never match '$' topics (section 4.7.2)
            node = self._subscription_trie.children.get(levels[0])
            if node is not None:
                _collect_subscribers(node, levels, 1, best)
        else:
            _collect_subscribers(self._subscription_trie, levels, 0, best)
        return [best[seq] for seq in sorted(best)]

    def _retained_matching(self, topic_filter: str) -> list[str]:
        """Retained topics matching `topic_filter`, in retained-store order.

        A literal filter can match only the topic equal to it. A wildcard
        filter's list is its match snapshot, shared by every call until it
        is dropped, so callers must not change it."""
        if "+" not in topic_filter and "#" not in topic_filter:
            return [topic_filter] if topic_filter in self.retained else []
        snapshot = self._match_snapshots.get(topic_filter)
        if snapshot is None:
            snapshot = self._match_snapshots[topic_filter] = _scan_retained(self.retained,
                                                                             topic_filter)
        return snapshot

    def _handle_puback(self, session: Session, packet: PubAck, now: float) -> list[BrokerOutput]:
        entry = session.inflight.pop(packet.packet_id, None)
        if entry is None:
            log.debug("stray PUBACK %d from %s", packet.packet_id, session.client_id)
            return []
        if entry.retries:
            self.corrected_errors += 1
            self._emit("error_corrected", client_id=session.client_id, topic=entry.publish.topic)
        if session.replayed and not session.inflight:
            _release_inflight(session)
        return []

    def _send_copies(
        self, outputs: list[BrokerOutput], topic: str, payload: bytes, qos: int,
        targets: Iterable[tuple[Session, int]], now: float,
    ) -> None:
        """Append to `outputs` the frame of each (session, granted qos) target's
        live copy of one message, at the lower of `qos` and the granted qos. The
        qos-0 copies share one Publish, and the qos-1 copies share another
        and one inflight entry: the first qos-1 copy takes the counter's next
        id free in its session's table, and a later session that holds that
        id takes the next id free in its own table, with a Publish and an
        entry of its own. A qos-1 copy is lost instead when every packet id
        of its session is in flight."""
        deadline = now + self.ack_timeout_s
        plain = shared = entry = None  # the qos-0 and the qos-1 Publish, the qos-1 entry
        shared_id = self.next_packet_id
        for session, granted in targets:
            if qos == 0 or granted == 0:
                if plain is None:
                    plain = Publish(topic, payload, 0, False, False, None)
                outputs.append(Send(session.conn_id, plain))
                continue
            inflight = session.inflight
            if shared_id in inflight:  # only after a wrap: the search is the rare path
                packet_id = codec.free_packet_id(shared_id, inflight)
                if packet_id is None:
                    self.uncorrected_errors += 1
                    self._emit("error_uncorrected", client_id=session.client_id, topic=topic)
                    continue
                if shared is not None:
                    own = Publish(topic, payload, 1, False, False, packet_id)
                    inflight[packet_id] = Inflight(own, now, deadline)
                    outputs.append(Send(session.conn_id, own))
                    continue
                shared_id = packet_id
            if shared is None:
                shared = Publish(topic, payload, 1, False, False, shared_id)
                entry = Inflight(shared, now, deadline)
                self.next_packet_id = shared_id % 0xFFFF + 1
            inflight[shared_id] = entry
            outputs.append(Send(session.conn_id, shared))

    # -- timers ----------------------------------------------------------

    def next_deadline(self) -> float | None:
        """Earliest time at which tick() has something to do, or None."""
        earliest = None
        for session in self.sessions.values():
            for entry in session.inflight.values():  # the first is the earliest
                if earliest is None or entry.deadline < earliest:
                    earliest = entry.deadline
                break
            if session.keep_alive_s > 0:
                expiry = session.last_seen_t + 1.5 * session.keep_alive_s
                if earliest is None or expiry < earliest:
                    earliest = expiry
        return earliest

    def tick(self, now: float) -> list[BrokerOutput]:
        """Act on every deadline at or before `now`."""
        return self.redeliver(now) + self.keepalive_sweep(now)

    def redeliver(self, now: float) -> list[BrokerOutput]:
        """Re-send timed-out qos-1 messages; drop the ones out of retries."""
        outputs: list[BrokerOutput] = []
        for session in self.sessions.values():
            inflight = session.inflight
            due: list[int] = []
            for packet_id, entry in inflight.items():
                if now < entry.deadline:
                    break
                due.append(packet_id)
            for packet_id in due:
                entry = inflight.pop(packet_id)
                if entry.retries >= self.max_retries:
                    self.uncorrected_errors += 1
                    self._emit("error_uncorrected", client_id=session.client_id,
                               topic=entry.publish.topic)
                    continue
                first = entry.publish
                # a fresh entry, at the back of the deadline order: other
                # sessions may still hold the popped one
                inflight[packet_id] = Inflight(first, entry.accept_t, now + self.ack_timeout_s,
                                               entry.retries + 1)
                outputs.append(Send(session.conn_id, Publish(
                    first.topic, first.payload, 1, first.retain, True, packet_id)))
            if session.replayed and not inflight:
                _release_inflight(session)
        return outputs

    def keepalive_sweep(self, now: float) -> list[BrokerOutput]:
        """Close sessions silent for 1.5x their keep-alive or longer."""
        outputs: list[BrokerOutput] = []
        for session in list(self.sessions.values()):
            if session.keep_alive_s <= 0:
                continue
            if now >= session.last_seen_t + 1.5 * session.keep_alive_s:
                self._drop_session(session)
                outputs.append(Close(session.conn_id, session.client_id, "keepalive timeout"))
        return outputs

    # -- transport notifications -----------------------------------------

    def connection_closed(self, conn_id: str) -> None:
        session = self.conn_sessions.get(conn_id)
        if session is not None:
            self._drop_session(session)

    def _drop_session(self, session: Session) -> None:
        del self.sessions[session.client_id]
        del self.conn_sessions[session.conn_id]
        for topic_filter in session.subscriptions:
            self._remove_subscription(session, topic_filter)

    def _remove_subscription(self, session: Session, topic_filter: str) -> None:
        """Take `session`'s entry for `topic_filter` out of the subscription
        trie, and the filter's match snapshot with its last holder."""
        if _trie_remove(self._subscription_trie, topic_filter.split("/"), session.connect_seq):
            self._match_snapshots.pop(topic_filter, None)

    def _emit(self, kind: str, **fields) -> None:
        if self.event_sink is not None:
            self.event_sink(kind, **fields)

    @property
    def total_errors(self) -> int:
        return self.corrected_errors + self.uncorrected_errors


# BrokerCore.handle's table for packets from a connected session; a type
# missing here closes the connection as unexpected.
_SESSION_HANDLERS: dict[type, Callable[..., list[BrokerOutput]]] = {
    Publish: BrokerCore._handle_publish,
    PubAck: BrokerCore._handle_puback,
    Subscribe: BrokerCore._handle_subscribe,
    Unsubscribe: BrokerCore._handle_unsubscribe,
    PingReq: BrokerCore._handle_pingreq,
    Disconnect: BrokerCore._handle_disconnect,
}
