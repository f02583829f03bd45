"""Minimal MQTT client protocol engine (transport-free).

Mirrors the broker core's sans-IO style: build packets to send, feed
inbound packets in, and collect the responses the protocol requires
(PUBACK for qos-1 deliveries). Received application messages go to the
`on_message` callback.
"""

from __future__ import annotations

import logging
from typing import Callable

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
    free_packet_id,
)

log = logging.getLogger(__name__)

# on_message(topic, payload, retain, dup)
MessageCallback = Callable[[str, bytes, bool, bool], None]


class ClientEngine:
    def __init__(self, client_id: str, keep_alive_s: int = 0,
                 on_message: MessageCallback | None = None):
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self.on_message = on_message
        self.connected = False
        self.connack_code: int | None = None
        self.inflight: dict[int, Publish] = {}
        self.pending_subscribes: set[int] = set()
        self._next_packet_id = 1

    def _take_packet_id(self) -> int:
        pid = self._next_packet_id
        if pid in self.inflight or pid in self.pending_subscribes:  # only after a wrap
            pid = free_packet_id(pid, self.inflight, self.pending_subscribes)
            if pid is None:
                raise RuntimeError(f"client {self.client_id}: all 65535 packet ids are in use")
        self._next_packet_id = pid % 0xFFFF + 1
        return pid

    def connect_packet(self) -> Connect:
        return Connect(client_id=self.client_id, keep_alive_s=self.keep_alive_s, clean_session=True)

    def subscribe_packet(self, filters: list[tuple[str, int]]) -> Subscribe:
        pid = self._take_packet_id()
        self.pending_subscribes.add(pid)
        return Subscribe(packet_id=pid, filters=tuple(filters))

    def publish_packet(self, topic: str, payload: bytes, qos: int = 0, retain: bool = False) -> Publish:
        packet_id = self._take_packet_id() if qos == 1 else None
        packet = Publish(topic, payload, qos, retain, False, packet_id)
        if qos == 1:
            self.inflight[packet_id] = packet
        return packet

    def ping_packet(self) -> PingReq:
        return PingReq()

    def disconnect_packet(self) -> Disconnect:
        self.connected = False
        return Disconnect()

    def handle_packet(self, packet: MqttPacket) -> list[MqttPacket]:
        """Process one inbound packet; returns the packets to send back."""
        handler = _HANDLERS.get(type(packet))
        if handler is None:
            log.debug("client %s ignoring %s", self.client_id, type(packet).__name__)
            return []
        return handler(self, packet)

    def _on_connack(self, packet: ConnAck) -> list[MqttPacket]:
        self.connack_code = packet.return_code
        self.connected = packet.return_code == 0
        return []

    def _on_publish(self, packet: Publish) -> list[MqttPacket]:
        if self.on_message is not None:
            self.on_message(packet.topic, packet.payload, packet.retain, packet.dup)
        if packet.qos == 1:
            return [PubAck(packet.packet_id)]
        return []

    def _on_puback(self, packet: PubAck) -> list[MqttPacket]:
        if self.inflight.pop(packet.packet_id, None) is None:
            log.debug("stray PUBACK %d at client %s", packet.packet_id, self.client_id)
        return []

    def _on_suback(self, packet: SubAck) -> list[MqttPacket]:
        self.pending_subscribes.discard(packet.packet_id)
        return []

    def _on_ack(self, packet: PingResp | UnsubAck) -> list[MqttPacket]:
        return []


# ClientEngine.handle_packet's table; a type missing here is logged and ignored.
_HANDLERS: dict[type, Callable[[ClientEngine, MqttPacket], list[MqttPacket]]] = {
    ConnAck: ClientEngine._on_connack,
    Publish: ClientEngine._on_publish,
    PubAck: ClientEngine._on_puback,
    SubAck: ClientEngine._on_suback,
    PingResp: ClientEngine._on_ack,
    UnsubAck: ClientEngine._on_ack,
}
