"""Deterministic discrete-event simulator wiring traffic, sensors,
controller, and broker together.

Events are processed in (time, sequence) order off a heap. Every stochastic
subsystem draws from its own PCG64 stream (`rng.py`) spawned from the
scenario seed, so adding one subsystem never perturbs another and a fixed
seed reproduces the run byte for byte. Cars admitted at the entrance drive for
gate_to_slot_travel_s, then take the lowest-numbered free slot; the slot
sensor event fires at that moment. A full lot turns arrivals away on the
spot.

Controller publishes travel through the embedded broker over a simulated
transport with configurable latency; broker-to-subscriber publish frames
can additionally be dropped with a configured probability, which the qos-1
retry machinery then has to repair. The broker's timer is one heap event at
a time: a BrokerTimer at the core's next_deadline(), re-armed after each
tick.

Event payloads are immutable `values.Value` classes. The loop dispatches
each one on its exact type through the `handlers` table, and the
controller's actions go the same way through `action_handlers`, which has
one entry per `domain.ControlAction` member: gate, buzzer and fan actions
carry their state, and an `Anomaly` action becomes an `anomaly` record
after the records of the actions before it. Opening a gate puts its
auto-close timeout on the heap as a `controller.GateTimeout`, which goes
back to `Controller.handle` when it fires, like every sensor event.

Records go to the run's two sinks as they are made, BLOCK_RECORDS at a
time: the log's summary (a `telemetry.Aggregator`, as `parksim report`
builds one from the written log) and the JSON-lines encoder, whose lines go
straight to an unnamed temporary file (a LogSpool). The record dicts are
then dropped, so a run's memory does not grow with its log.
"""

from __future__ import annotations

import heapq
import io
import json
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import Any

from . import codec, controller as ctrl, domain, rng, sensors, stochastic, telemetry
from .broker import BrokerCore, Close, Send
from .client import ClientEngine
# read_events_jsonl and render_report stay readable as sim.* too
from .eventlog import (BLOCK_RECORDS, iter_events_jsonl, read_events_jsonl,  # noqa: F401
                       render, render_report)
from .scenario import ScenarioConfig, to_flat_dict
from .values import Value

# rng.py draws numpy's PCG64 streams float for float, so logs keep this name
RNG_ALGORITHM = "numpy-PCG64"
# Stream order is part of the reproducibility contract; append only.
RNG_STREAMS = ("traffic", "dwell", "ir", "env", "mq2", "network")

BROKER_CONN = "broker"
CONTROLLER_CONN = "controller"
DASHBOARD_CONN = "dashboard"

# json.dumps(record, separators=...) would build a new encoder per record
_RECORD_ENCODER = json.JSONEncoder(separators=(", ", ": "))
_COPY_BYTES = 1 << 18  # the spool is copied this much at a time


# -- event payloads ----------------------------------------------------------

class CarArrives(Value):
    __slots__ = ("car_id",)


class CarParks(Value):
    __slots__ = ("car_id",)


class CarDeparts(Value):
    __slots__ = ("car_id", "slot")


class SensorSample(Value):
    __slots__ = ("kind",)  # "env" or "gas"


class PacketDelivery(Value, defaults={"accept_t": None}):
    # accept_t: broker accept time, for delay measurement
    __slots__ = ("destination", "source", "packet", "accept_t")


class GasInjectionEvent(Value):
    __slots__ = ("gas", "ppm")


class BrokerTimer(Value):
    __slots__ = ()


SimPayload = (
    CarArrives | CarParks | CarDeparts | SensorSample | PacketDelivery
    | GasInjectionEvent | ctrl.GateTimeout | BrokerTimer
)


class GasField:
    """Ambient gas concentrations with fan-driven extraction.

    While the fan runs, concentrations are scaled down so the sensor-weighted
    level falls linearly at `decay_ppm_per_s`, which makes the recovery time
    excess / rate directly observable on the published readings.
    """

    def __init__(self, model: sensors.Mq2Model, decay_ppm_per_s: float):
        self.model = model
        self.decay_ppm_per_s = decay_ppm_per_s
        self.concentrations: dict[str, float] = {}
        self.fan_on = False
        self.last_t = 0.0

    def advance(self, t: float) -> None:
        dt = t - self.last_t
        self.last_t = t
        if dt <= 0 or not self.fan_on or not self.concentrations:
            return
        level = sensors.weighted_level(self.model, self.concentrations)
        if level <= 0:
            return
        target = max(level - self.decay_ppm_per_s * dt, 0.0)
        scale = target / level
        if scale <= 0:
            self.concentrations.clear()
        else:
            for gas in self.concentrations:
                self.concentrations[gas] *= scale

    def inject(self, t: float, gas: str, ppm: float) -> None:
        self.advance(t)
        self.concentrations[gas] = self.concentrations.get(gas, 0.0) + ppm

    def set_fan(self, t: float, on: bool) -> None:
        self.advance(t)
        self.fan_on = on

    def levels(self, t: float) -> dict[str, float]:
        self.advance(t)
        return dict(self.concentrations)


class LogSpool:
    """events.jsonl as the run encodes it, in an unnamed temporary file.

    The file opens with the first block appended, so a Simulation that is
    never run opens nothing. It closes when the last holder of the spool
    (the Simulation and its SimReport) lets go of it, or at interpreter
    exit: a report dropped unwritten, or a run that raised, leaves no open
    file behind.

    The file lives where `tempfile` puts it (TMPDIR). The run's memory stops
    growing with its log only when that directory is on a disk: on a tmpfs
    the log's bytes stay in RAM, as shared memory that a process's RSS
    figure does not count.
    """

    __slots__ = ("file", "__weakref__")

    def __init__(self) -> None:
        self.file = None

    def append(self, text: str) -> None:
        if self.file is None:
            self.file = tempfile.TemporaryFile()
            weakref.finalize(self, self.file.close)
        self.file.write(text.encode("utf-8"))

    def rewound(self):
        """The log as a binary file positioned at its start."""
        if self.file is None:
            return io.BytesIO()
        self.file.seek(0)
        return self.file


@dataclass
class SimReport:
    """A finished run. `aggregator` was fed the records as the run made
    them, a block at a time, and is the source of every count and metric
    the run reports. `spool` holds events.jsonl as it was encoded; the
    record dicts themselves are not kept."""

    spool: LogSpool
    final_state: domain.FacilityState
    meta: dict[str, Any]  # the fields of the log's header
    aggregator: telemetry.Aggregator  # the log's summary: counts, report.txt and metrics.csv

    @property
    def records(self) -> list[dict[str, Any]]:
        """The run's records, decoded from the spooled log on each call: a
        new list every time."""
        return list(iter_events_jsonl(self.spool.rewound(), "<spooled events.jsonl>"))

    @property
    def metrics_csv(self) -> str:
        return self.aggregator.to_csv()

    def events_jsonl(self) -> str:
        return self.spool.rewound().read().decode("utf-8")

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """The three output files. events.jsonl is copied from the spool
        _COPY_BYTES at a time, so the whole log never exists in memory;
        the other two are rendered from the run's aggregator. It may be
        called again, and the log can still be read afterwards."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "events": out / "events.jsonl",
            "metrics": out / "metrics.csv",
            "report": out / "report.txt",
        }
        with open(paths["events"], "wb") as events:
            shutil.copyfileobj(self.spool.rewound(), events, _COPY_BYTES)
        paths["metrics"].write_text(self.metrics_csv, encoding="utf-8")
        paths["report"].write_text(render(self.meta, self.aggregator), encoding="utf-8")
        return paths


def _block_encoder():
    """A function from a block of records to their events.jsonl lines, as
    one string.

    _RECORD_ENCODER.encode would build a new C encoder for every record; one
    built here with the same settings serves them all. Its markers dict
    keeps the circular-reference check, and is empty again after each
    record.
    """
    enc = _RECORD_ENCODER
    if c_make_encoder is None:
        encode = enc.encode
    else:
        iterencode = c_make_encoder(
            {} if enc.check_circular else None, enc.default,
            encode_basestring_ascii if enc.ensure_ascii else encode_basestring, enc.indent,
            enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)

        def encode(record):
            return "".join(iterencode(record, 0))

    def encode_block(block: list[dict[str, Any]]) -> str:
        return "".join([encode(r) + "\n" for r in block])

    return encode_block


class Simulation:
    def __init__(self, cfg: ScenarioConfig, publish_hook=None):
        cfg.validate()
        self.cfg = cfg
        # called as publish_hook(topic, payload, retain) whenever the broker
        # accepts a publish; lets the CLI mirror a run onto a live broker
        self.publish_hook = publish_hook
        children = rng.SeedSequence(cfg.seed).spawn(len(RNG_STREAMS))
        self.rng = {name: rng.PCG64(child) for name, child in zip(RNG_STREAMS, children)}

        # (t, seq, payload); seq breaks ties in push order and counts pushes
        self.heap: list[tuple[float, int, SimPayload]] = []
        self.seq = 0
        self.now = 0.0
        self.broker_timer_pending = False  # at most one BrokerTimer on the heap

        self.controller = ctrl.Controller(cfg.facility, domain.new_facility(cfg.facility))
        self.broker = BrokerCore(
            ack_timeout_s=cfg.mqtt.ack_timeout_s,
            max_retries=cfg.mqtt.max_retries,
            event_sink=self._record,
        )
        self.controller_client = ClientEngine(client_id="facility-controller")
        self.dashboard_client = ClientEngine(client_id="dashboard")
        self.gas_field = GasField(cfg.mq2, cfg.gas_decay_ppm_per_s)
        self.engines = {CONTROLLER_CONN: self.controller_client, DASHBOARD_CONN: self.dashboard_client}
        self.handlers = {
            CarArrives: self._on_car_arrives, CarParks: self._on_car_parks,
            CarDeparts: self._on_car_departs, SensorSample: self._on_sensor_sample,
            PacketDelivery: self._on_packet_delivery, GasInjectionEvent: self._on_gas_injection,
            ctrl.GateTimeout: self._on_gate_timeout, BrokerTimer: self._on_broker_timer,
        }
        self.action_handlers = {
            domain.Publish: self._do_publish, domain.UpdateDisplay: self._do_update_display,
            domain.SetGate: self._do_set_gate, domain.SetBuzzer: self._do_set_buzzer,
            domain.SetFan: self._do_set_fan, domain.Anomaly: self._do_anomaly,
        }

        # the fields of the log's meta header
        self.meta = {"rng": RNG_ALGORITHM, "rng_streams": list(RNG_STREAMS),
                     "config": to_flat_dict(cfg)}
        # the run's sinks: records gather in _block, and each full block
        # goes to the aggregator and the encoder, then is dropped
        self._block: list[dict[str, Any]] = []
        self.aggregator = telemetry.Aggregator(duration_s=float(cfg.duration_s))
        self._encode_block = _block_encoder()
        self.spool = LogSpool()  # events.jsonl, a block at a time
        # (topic, payload length, qos) -> PUBLISH frame size; see _frame_size
        self.frame_sizes: dict[tuple[str, int, int], int] = {}
        self.bumps: list[sensors.Bump] = []
        self.free_slots = list(range(cfg.facility.total_slots))  # physical truth
        self.car_slot: dict[int, int] = {}
        self.next_car_id = 1

    # -- plumbing ---------------------------------------------------------

    def _push(self, t: float, payload: SimPayload) -> None:
        heapq.heappush(self.heap, (t, self.seq, payload))
        self.seq += 1

    def _record(self, kind: str, **fields: Any) -> None:
        record: dict[str, Any] = {"t": self.now, "kind": kind}
        record.update(fields)
        block = self._block
        block.append(record)
        if len(block) >= BLOCK_RECORDS:
            self._flush_block()

    def _flush_block(self) -> None:
        block, self._block = self._block, []
        self.aggregator.add_records(block)
        self.spool.append(self._encode_block(block))

    # -- transport --------------------------------------------------------

    def _frame_size(self, packet: codec.Publish) -> int:
        """The length of the packet's encoded frame. The frame is encoded
        once per topic, payload length and qos: the size depends on nothing
        else."""
        key = (packet.topic, len(packet.payload), packet.qos)
        size = self.frame_sizes.get(key)
        if size is None:
            size = self.frame_sizes[key] = len(codec.encode_packet(packet))
        return size

    def _send_to_broker(self, source: str, packet: codec.MqttPacket) -> None:
        self._push(self.now + self.cfg.network.latency_s, PacketDelivery(BROKER_CONN, source, packet))

    def _dispatch_broker_outputs(self, outputs: list[Send | Close]) -> None:
        # a resend (DUP set) keeps its message's accept time; a first copy's is now
        for output in outputs:
            if type(output) is Close:
                self._record("conn_close", client_id=output.client_id or output.conn_id,
                             reason=output.reason)
                continue
            packet = output.packet
            accept_t = None
            if isinstance(packet, codec.Publish):
                accept_t = self._accept_time(output.conn_id, packet) if packet.dup else self.now
                if packet.qos == 1:
                    # whether or not the frame survives the wire, its ack
                    # window is now one of the broker's deadlines
                    self._arm_broker_timer()
                if self.cfg.network.drop_prob > 0 and \
                        self.rng["network"].random() < self.cfg.network.drop_prob:
                    self._record("drop", topic=packet.topic,
                                 bytes=self._frame_size(packet),
                                 client_id=output.conn_id)
                    continue
            self._push(self.now + self.cfg.network.latency_s,
                       PacketDelivery(output.conn_id, BROKER_CONN, packet, accept_t))

    def _accept_time(self, conn_id: str, packet: codec.Publish) -> float:
        # a resend's accept time, from the entry the resend just stored; now
        # if the same tick's keep-alive sweep dropped its session
        session = self.broker.conn_sessions.get(conn_id)
        if session is None:
            return self.now
        return session.inflight[packet.packet_id].accept_t

    # -- controller actions -----------------------------------------------

    def _apply_actions(self, actions: list[domain.ControlAction]) -> None:
        handlers = self.action_handlers
        for action in actions:
            handlers[type(action)](action)

    def _do_publish(self, action: domain.Publish) -> None:
        packet = self.controller_client.publish_packet(
            action.topic, action.payload,
            qos=self.cfg.mqtt.publish_qos, retain=action.retained,
        )
        self._send_to_broker(CONTROLLER_CONN, packet)

    def _do_update_display(self, action: domain.UpdateDisplay) -> None:
        frame = action.frame
        self._record("display", temp_c=frame.temp_c, humidity_pct=frame.humidity_pct,
                     total_vacant=frame.total_vacant, total_slots=frame.total_slots)

    def _do_set_gate(self, action: domain.SetGate) -> None:
        self._record("gate", gate=action.gate, state=action.state.value)
        if action.state is domain.GateState.OPEN:
            self._push(self.now + self.cfg.facility.gate_open_s, ctrl.GateTimeout(action.gate))

    def _do_set_buzzer(self, action: domain.SetBuzzer) -> None:
        self._record("buzzer", state=action.state.value)

    def _do_set_fan(self, action: domain.SetFan) -> None:
        on = action.state is domain.Power.ON
        self.gas_field.set_fan(self.now, on)
        self._record("fan", state=action.state.value)

    def _do_anomaly(self, action: domain.Anomaly) -> None:
        self._record("anomaly", reason=action.reason)

    # -- event handlers -----------------------------------------------------

    def _on_car_arrives(self, event: CarArrives) -> None:
        vacant_before = self.controller.state.total_vacant
        self._record("car_arrives", car_id=event.car_id, vacant_before=vacant_before)
        self._apply_actions(self.controller.handle(ctrl.EntranceDetect()))
        if self.controller.state.total_vacant < vacant_before:
            self._record("car_admitted", car_id=event.car_id)
            self.bumps.append(self.cfg.env.entry_bump_at(self.now))
            self._push(self.now + self.cfg.gate_to_slot_travel_s, CarParks(event.car_id))
        else:
            self._record("car_rejected", car_id=event.car_id)
        next_t = stochastic.next_arrival(self.cfg.traffic, self.now, self.rng["traffic"])
        if next_t != stochastic.NO_MORE_ARRIVALS:
            self._push(next_t, CarArrives(self.next_car_id))
            self.next_car_id += 1

    def _on_car_parks(self, event: CarParks) -> None:
        # admission guarantees a physical slot is free by the time we park
        assert self.free_slots, "admitted car found no free slot"
        slot = heapq.heappop(self.free_slots)
        self.car_slot[event.car_id] = slot
        self._record("car_parks", car_id=event.car_id, slot=slot)
        self._apply_actions(self.controller.handle(ctrl.SlotUpdate(slot, 1)))
        dwell = stochastic.exponential_gap(1.0 / self.cfg.traffic.dwell_mean_s, self.rng["dwell"])
        self._push(self.now + dwell, CarDeparts(event.car_id, slot))

    def _on_car_departs(self, event: CarDeparts) -> None:
        del self.car_slot[event.car_id]
        heapq.heappush(self.free_slots, event.slot)
        self._record("car_departs", car_id=event.car_id, slot=event.slot)
        self._apply_actions(self.controller.handle(ctrl.SlotUpdate(event.slot, 0)))
        self.bumps.append(self.cfg.env.exit_bump_at(self.now))
        self._apply_actions(self.controller.handle(ctrl.ExitDetect()))

    def _on_sensor_sample(self, event: SensorSample) -> None:
        if event.kind == "env":
            self._prune_bumps()
            temp_c, humidity_pct = sensors.sample_env(
                self.cfg.env, self.now, self.bumps, self.rng["env"]
            )
            self._record("env_sample", temp_c=temp_c, humidity_pct=humidity_pct)
            self._apply_actions(self.controller.handle(ctrl.EnvReading(temp_c, humidity_pct)))
            period = self.cfg.env_sample_period_s
        else:
            reading = sensors.sample_mq2(
                self.cfg.mq2, self.gas_field.levels(self.now), self.rng["mq2"]
            )
            self._record("gas_sample", ppm=reading)
            self._apply_actions(self.controller.handle(ctrl.GasReading(reading)))
            period = self.cfg.gas_sample_period_s
        if period > 0:
            self._push(self.now + period, SensorSample(event.kind))

    def _prune_bumps(self) -> None:
        horizon = self.now - 10.0 * self.cfg.env.relax_tau_s
        self.bumps = [b for b in self.bumps if b.t >= horizon]

    def _on_packet_delivery(self, event: PacketDelivery) -> None:
        if event.destination == BROKER_CONN:
            outputs = self.broker.handle(event.source, event.packet, self.now)
            if isinstance(event.packet, codec.Publish):
                self._record("publish", topic=event.packet.topic,
                             bytes=self._frame_size(event.packet),
                             client_id=event.source)
                if self.publish_hook is not None:
                    self.publish_hook(event.packet.topic, event.packet.payload, event.packet.retain)
            self._dispatch_broker_outputs(outputs)
            return

        if isinstance(event.packet, codec.Publish):
            self._record(
                "deliver",
                topic=event.packet.topic,
                bytes=self._frame_size(event.packet),
                client_id=event.destination,
                delay=telemetry.delay(event.accept_t, self.now),
            )
        for response in self.engines[event.destination].handle_packet(event.packet):
            self._send_to_broker(event.destination, response)

    def _on_gas_injection(self, event: GasInjectionEvent) -> None:
        self.gas_field.inject(self.now, event.gas, event.ppm)
        self._record("gas_injection", gas=event.gas, ppm=event.ppm)

    def _on_gate_timeout(self, event: ctrl.GateTimeout) -> None:
        self._apply_actions(self.controller.handle(event))

    def _on_broker_timer(self, event: BrokerTimer) -> None:
        self.broker_timer_pending = False
        self._dispatch_broker_outputs(self.broker.tick(self.now))
        self._arm_broker_timer()

    def _arm_broker_timer(self) -> None:
        if not self.broker_timer_pending:
            deadline = self.broker.next_deadline()
            if deadline is not None:
                self._push(deadline, BrokerTimer())
                self.broker_timer_pending = True

    # -- run ----------------------------------------------------------------

    def _bootstrap(self) -> None:
        self._record("meta", **self.meta)
        # connect the controller client and, if enabled, the dashboard app
        outs = self.broker.handle(CONTROLLER_CONN, self.controller_client.connect_packet(), 0.0)
        self._dispatch_broker_outputs(outs)
        if self.cfg.dashboard.enabled:
            outs = self.broker.handle(DASHBOARD_CONN, self.dashboard_client.connect_packet(), 0.0)
            self._dispatch_broker_outputs(outs)
            subscribe = self.dashboard_client.subscribe_packet(
                [(f"{self.cfg.facility.topic_prefix}/#", self.cfg.dashboard.qos)]
            )
            outs = self.broker.handle(DASHBOARD_CONN, subscribe, 0.0)
            self._dispatch_broker_outputs(outs)

        self._apply_actions(self.controller.startup())

        first_arrival = stochastic.next_arrival(self.cfg.traffic, 0.0, self.rng["traffic"])
        if first_arrival != stochastic.NO_MORE_ARRIVALS:
            self._push(first_arrival, CarArrives(self.next_car_id))
            self.next_car_id += 1
        if self.cfg.env_sample_period_s > 0:
            self._push(0.0, SensorSample("env"))
        if self.cfg.gas_sample_period_s > 0:
            self._push(0.0, SensorSample("gas"))
        for injection in self.cfg.injections:
            self._push(injection.t, GasInjectionEvent(injection.gas, injection.ppm))

    def run(self) -> SimReport:
        """Run the event loop to the end. Each block of records went to the
        sinks as it filled; the last, partial one goes when the loop ends."""
        self._bootstrap()
        duration = self.cfg.duration_s
        heap, handlers = self.heap, self.handlers
        while heap:
            t, _, payload = heapq.heappop(heap)
            if t > duration:
                break
            self.now = t
            handlers[type(payload)](payload)
        if self._block:
            self._flush_block()

        # the log against the final state
        state = self.controller.state
        in_lot = state.total_slots - state.total_vacant
        counts = self.aggregator.counts
        assert counts["car_admitted"] == counts["car_departs"] + in_lot, \
            "car conservation violated"
        return SimReport(spool=self.spool, final_state=state, meta=self.meta,
                         aggregator=self.aggregator)


def run_scenario(cfg: ScenarioConfig, publish_hook=None) -> SimReport:
    return Simulation(cfg, publish_hook=publish_hook).run()
