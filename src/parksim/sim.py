"""Deterministic discrete-event simulator wiring traffic, sensors,
controller, and broker together.

Events are processed in (time, sequence) order off a heap. Every stochastic
subsystem draws from its own PCG64 stream spawned from the scenario seed,
so adding one subsystem never perturbs another and a fixed seed reproduces
the run byte for byte. Cars admitted at the entrance drive for
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
after the records of the actions before it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from . import codec, controller as ctrl, domain, sensors, stochastic, telemetry
from .broker import BrokerCore, Close, Send
from .client import ClientEngine
from .scenario import ScenarioConfig, to_flat_dict
from .values import Value

RNG_ALGORITHM = "numpy-PCG64"
# Stream order is part of the reproducibility contract; append only.
RNG_STREAMS = ("traffic", "dwell", "ir", "env", "mq2", "network")

BROKER_CONN = "broker"
CONTROLLER_CONN = "controller"
DASHBOARD_CONN = "dashboard"

# json.dumps(record, separators=...) would build a new encoder per record
_RECORD_ENCODER = json.JSONEncoder(separators=(", ", ": "))
_BLOCK_RECORDS = 1024  # events.jsonl is encoded and written this many lines at a time


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


class GateTimer(Value):
    __slots__ = ("gate",)  # "entrance" or "exit"


class BrokerTimer(Value):
    __slots__ = ()


SimPayload = (
    CarArrives | CarParks | CarDeparts | SensorSample | PacketDelivery
    | GasInjectionEvent | GateTimer | BrokerTimer
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

    def _weighted_level(self) -> float:
        # left to right, as sensors.sample_mq2 adds: sum() compensates float
        # additions from Python 3.12 on, so its total depends on the version
        sensitivities = self.model.sensitivities
        level = 0.0
        for gas, ppm in sorted(self.concentrations.items()):
            level += sensitivities.get(gas, 0.0) * ppm
        return level

    def advance(self, t: float) -> None:
        dt = t - self.last_t
        self.last_t = t
        if dt <= 0 or not self.fan_on or not self.concentrations:
            return
        level = self._weighted_level()
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


@dataclass
class SimReport:
    """A finished run. `tally` and `aggregator` come from one pass over
    `records` at the end of the run, and are the source of every count and
    metric the run reports."""

    records: list[dict[str, Any]]
    final_state: domain.FacilityState
    tally: ReportTally  # counts per record kind, for the report and the CLI
    aggregator: telemetry.Aggregator  # the run's one aggregation, for both files

    @property
    def metrics_csv(self) -> str:
        return self.aggregator.to_csv()

    def events_jsonl(self) -> str:
        return "".join(_encoded_blocks(self.records))

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """The three output files. Each block of lines goes to events.jsonl
        as it is encoded, so the whole log never exists as one string;
        report.txt is rendered from the run's tally."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "events": out / "events.jsonl",
            "metrics": out / "metrics.csv",
            "report": out / "report.txt",
        }
        with open(paths["events"], "w", encoding="utf-8") as events:
            events.writelines(_encoded_blocks(self.records))
        paths["metrics"].write_text(self.metrics_csv, encoding="utf-8")
        paths["report"].write_text(self.tally.render(self.aggregator.summary()), encoding="utf-8")
        return paths


def _blocks(records: list[dict[str, Any]]):
    for i in range(0, len(records), _BLOCK_RECORDS):
        yield records[i:i + _BLOCK_RECORDS]


def _encoded_blocks(records: list[dict[str, Any]]):
    """The records' events.jsonl lines, one string per _BLOCK_RECORDS records.

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

    for block in _blocks(records):
        yield "".join([encode(r) + "\n" for r in block])


class Simulation:
    def __init__(self, cfg: ScenarioConfig, publish_hook=None):
        cfg.validate()
        self.cfg = cfg
        # called as publish_hook(topic, payload, retain) whenever the broker
        # accepts a publish; lets the CLI mirror a run onto a live broker
        self.publish_hook = publish_hook
        seed_seq = np.random.SeedSequence(cfg.seed)
        children = seed_seq.spawn(len(RNG_STREAMS))
        self.rng = {
            name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(RNG_STREAMS, children)
        }

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
            GateTimer: self._on_gate_timer, BrokerTimer: self._on_broker_timer,
        }
        self.action_handlers = {
            domain.Publish: self._do_publish, domain.UpdateDisplay: self._do_update_display,
            domain.SetGate: self._do_set_gate, domain.SetBuzzer: self._do_set_buzzer,
            domain.SetFan: self._do_set_fan, domain.Anomaly: self._do_anomaly,
        }

        self.records: list[dict[str, Any]] = []
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
        self.records.append(record)

    # -- transport --------------------------------------------------------

    def _frame_size(self, packet: codec.Publish) -> int:
        """codec.frame_size(packet), checked once per topic, payload length
        and qos: the size depends on nothing else."""
        key = (packet.topic, len(packet.payload), packet.qos)
        size = self.frame_sizes.get(key)
        if size is None:
            size = self.frame_sizes[key] = codec.frame_size(packet)
        return size

    def _send_to_broker(self, source: str, packet: codec.MqttPacket) -> None:
        self._push(self.now + self.cfg.network.latency_s, PacketDelivery(BROKER_CONN, source, packet))

    def _dispatch_broker_outputs(self, outputs: list[Send | Close]) -> None:
        for output in outputs:
            if type(output) is Close:
                self._record("conn_close", client_id=output.client_id or output.conn_id,
                             reason=output.reason)
                continue
            packet = output.packet
            if isinstance(packet, codec.Publish):
                accept_t = self._accept_time(output.conn_id, packet)
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
                self._push(
                    self.now + self.cfg.network.latency_s,
                    PacketDelivery(output.conn_id, BROKER_CONN, packet, accept_t=accept_t),
                )
            else:
                self._push(
                    self.now + self.cfg.network.latency_s,
                    PacketDelivery(output.conn_id, BROKER_CONN, packet),
                )

    def _accept_time(self, conn_id: str, packet: codec.Publish) -> float:
        if packet.qos == 1 and packet.packet_id is not None:
            client_id = self.broker.conn_to_client.get(conn_id)
            if client_id is not None:
                entry = self.broker.sessions[client_id].inflight.get(packet.packet_id)
                if entry is not None:
                    return entry.accept_t
        return self.now

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
            self._push(self.now + self.cfg.facility.gate_open_s, GateTimer(action.gate))

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
                delay=telemetry.delay(event.accept_t if event.accept_t is not None else self.now,
                                      self.now),
            )
        for response in self.engines[event.destination].handle_packet(event.packet):
            self._send_to_broker(event.destination, response)

    def _on_gas_injection(self, event: GasInjectionEvent) -> None:
        self.gas_field.inject(self.now, event.gas, event.ppm)
        self._record("gas_injection", gas=event.gas, ppm=event.ppm)

    def _on_gate_timer(self, event: GateTimer) -> None:
        if event.gate == "entrance":
            self._apply_actions(self.controller.close_entrance())
        else:
            self._apply_actions(self.controller.close_exit())

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
        self._record(
            "meta",
            rng=RNG_ALGORITHM,
            rng_streams=list(RNG_STREAMS),
            config=to_flat_dict(self.cfg),
        )
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
        """Run the event loop to the end, then summarise the log in one pass,
        a block at a time: the blocks feed the report's tally and the
        telemetry aggregator."""
        self._bootstrap()
        duration = self.cfg.duration_s
        heap, handlers = self.heap, self.handlers
        while heap:
            t, _, payload = heapq.heappop(heap)
            if t > duration:
                break
            self.now = t
            handlers[type(payload)](payload)

        tally = ReportTally()
        aggregator = telemetry.Aggregator(duration_s=duration)
        for block in _blocks(self.records):
            tally.add_records(block)
            aggregator.add_records(block)

        # the log against the final state
        state = self.controller.state
        in_lot = state.total_slots - state.total_vacant
        counts = tally.counts
        assert counts.get("car_admitted", 0) == counts.get("car_departs", 0) + in_lot, \
            "car conservation violated"
        return SimReport(records=self.records, final_state=state, tally=tally, aggregator=aggregator)


def run_scenario(cfg: ScenarioConfig, publish_hook=None) -> SimReport:
    return Simulation(cfg, publish_hook=publish_hook).run()


# -- event-log analysis ------------------------------------------------------

def read_events_jsonl(path: str | Path) -> list[dict[str, Any]]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed event record: {exc}") from exc
    return records


def occupancy_timeseries(event_log: list[dict[str, Any]]) -> list[tuple[float, int]]:
    """Step function of parked-car count from park/depart records."""
    series: list[tuple[float, int]] = []
    count = 0
    for index, record in enumerate(event_log):
        if not isinstance(record, dict) or "kind" not in record or "t" not in record:
            raise ValueError(f"record {index}: missing 't'/'kind' fields: {record!r}")
        if record["kind"] == "car_parks":
            count += 1
            series.append((float(record["t"]), count))
        elif record["kind"] == "car_departs":
            count -= 1
            series.append((float(record["t"]), count))
    return series


def time_weighted_mean(series: list[tuple[float, int]], t_end: float, t_start: float = 0.0) -> float:
    """Mean of the occupancy step function over [t_start, t_end]."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    total = 0.0
    level = 0
    prev_t = t_start
    for t, value in series:
        if t < t_start:
            level = value
            continue
        if t > t_end:
            break
        total += level * (t - prev_t)
        prev_t = t
        level = value
    total += level * (t_end - prev_t)
    return total / (t_end - t_start)


class ReportTally:
    """What report.txt needs from an event log, gathered in one pass as the
    records are fed: counts per kind, the `meta` header and the
    time-weighted mean occupancy. The mean and its errors are those of
    occupancy_timeseries + time_weighted_mean over the same records, float
    for float: the integral takes the same steps in the same order.

    The report's duration is the meta config's `duration_s`, known from the
    first record on, else the largest `t`. In the second case no park or
    depart record lies past the end, so the integral never needs it early.
    """

    def __init__(self) -> None:
        self.meta: dict[str, Any] = {}
        self.counts: dict[str, int] = {}
        self._fed = 0                   # records seen, for error messages
        self._max_t: Any = None         # the largest t, as max() picks it
        self._end: float | None = None  # the meta config's duration_s
        self._parked = 0
        self._steps = 0                 # park and depart records seen
        self._level = 0                 # parked cars since _prev_t
        self._prev_t = 0.0
        self._area = 0.0                # car-seconds up to _prev_t
        self._past_end = False          # later steps fall outside [0, end]

    def add_records(self, records) -> None:
        counts = self.counts
        for record in records:
            index = self._fed
            self._fed += 1
            if not isinstance(record, dict) or "kind" not in record or "t" not in record:
                raise ValueError(f"record {index}: missing 't'/'kind' fields: {record!r}")
            kind, t = record["kind"], record["t"]
            counts[kind] = counts.get(kind, 0) + 1
            if self._max_t is None or t > self._max_t:
                self._max_t = t
            if kind == "car_parks":
                self._parked += 1
                self._step(float(t))
            elif kind == "car_departs":
                self._parked -= 1
                self._step(float(t))
            elif index == 0 and kind == "meta":
                self.meta = record
                config = record.get("config", {})
                if "duration_s" in config:
                    self._end = float(config["duration_s"])

    def _step(self, t: float) -> None:
        # one turn of time_weighted_mean's loop, with t_start = 0
        self._steps += 1
        if self._past_end:
            return
        if t < 0.0:
            self._level = self._parked
            return
        if self._end is not None and t > self._end:
            self._past_end = True
            return
        self._area += self._level * (t - self._prev_t)
        self._prev_t = t
        self._level = self._parked

    @property
    def duration_s(self) -> float:
        if self._end is not None:
            return self._end
        return float(self._max_t or 1.0)

    def mean_occupancy(self) -> float:
        if not self._steps:
            return 0.0
        end = self.duration_s
        if end <= 0.0:
            raise ValueError("t_end must exceed t_start")
        return (self._area + self._level * (end - self._prev_t)) / end

    def render(self, summary: dict[str, float]) -> str:
        """report.txt, with `summary` the run's telemetry.Aggregator summary."""
        meta, counts = self.meta, self.counts
        config = meta.get("config", {})
        mean_occ = self.mean_occupancy()
        lines = [
            "parksim run report",
            "==================",
            f"rng: {meta.get('rng', 'unknown')} seed={config.get('seed', '?')} "
            f"streams={','.join(meta.get('rng_streams', []))}",
            f"duration_s: {_g(self.duration_s)}   slots: {config.get('facility.total_slots', '?')}",
            "",
            "traffic",
            f"  arrivals:   {counts.get('car_arrives', 0)} "
            f"(admitted {counts.get('car_admitted', 0)}, rejected {counts.get('car_rejected', 0)})",
            f"  departures: {counts.get('car_departs', 0)}",
            f"  mean occupancy (parked): {_g(mean_occ)}",
            "",
            "environment",
            f"  env samples: {counts.get('env_sample', 0)}"
            f"   gas samples: {counts.get('gas_sample', 0)}",
            f"  fan on/off events: {counts.get('fan', 0)}   anomalies: {counts.get('anomaly', 0)}",
            "",
            "mqtt telemetry",
            f"  publishes accepted: {counts.get('publish', 0)}"
            f"   deliveries: {counts.get('deliver', 0)}   drops: {counts.get('drop', 0)}",
            f"  bytes total: {_g(summary['bytes_total'])}   "
            f"data rate: {_g(summary['data_rate_bytes_per_s'])} bytes/s",
        ]
        if "delay_mean_s" in summary:
            lines.append(
                f"  delay s (mean/min/max): {_g(summary['delay_mean_s'])}"
                f"/{_g(summary['delay_min_s'])}/{_g(summary['delay_max_s'])}"
            )
        lines.append(
            f"  EC (modeled): {_g(summary['ec_modeled'])} "
            f"(corrected {int(summary['errors_corrected'])},"
            f" uncorrected {int(summary['errors_uncorrected'])})"
        )
        lines.append("")
        return "\n".join(lines)


def render_report(records: list[dict[str, Any]]) -> str:
    """Human-readable run summary regenerable from the event log alone."""
    tally = ReportTally()
    tally.add_records(records)
    aggregator = telemetry.Aggregator(duration_s=tally.duration_s)
    aggregator.add_records(records)
    return tally.render(aggregator.summary())


def _g(value: float) -> str:
    return format(value, ".10g")
