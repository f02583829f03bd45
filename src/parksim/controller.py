"""Facility controller: sensor events in, actuator commands and publishes out.

Each handler is a pure transition (state, config, reading) -> (new state,
actions); the wrapper class below serializes events for the simulator,
sensor readings and gate auto-close timeouts alike, through its one
`handle` entry point. A handler builds its new `FacilityState`
positionally, every field in slot order, copying the ones it does not
set. A handler that refuses a reading says so with an `Anomaly` action,
always the last of its list. The entrance check is check-then-decrement,
so the vacancy counter can never go transiently negative; ghost exit
detections at a fully vacant lot clamp the counter and are reported as
anomalies instead of overflowing it.
"""

from __future__ import annotations

import logging

from .domain import (
    Anomaly,
    ControlAction,
    DisplayFrame,
    FacilityConfig,
    FacilityState,
    GateState,
    Power,
    Publish,
    SetBuzzer,
    SetFan,
    SetGate,
    UpdateDisplay,
)
from .values import Value

log = logging.getLogger(__name__)


# Controller events; the simulator stamps each record with its own clock.

class EntranceDetect(Value):
    __slots__ = ()


class ExitDetect(Value):
    __slots__ = ()


class SlotUpdate(Value):
    __slots__ = ("slot_id", "occupied")


class EnvReading(Value):
    __slots__ = ("temp_c", "humidity_pct")


class GasReading(Value):
    __slots__ = ("ppm",)


class GateTimeout(Value):
    __slots__ = ("gate",)  # "entrance" or "exit": its auto-close timer fired


ControllerEvent = EntranceDetect | ExitDetect | SlotUpdate | EnvReading | GasReading | GateTimeout


def slot_topic(cfg: FacilityConfig, slot_id: int) -> str:
    # 1-based on the wire, 0-based internally
    return f"{cfg.topic_prefix}/slot/{slot_id + 1}/status"


def summary_topic(cfg: FacilityConfig) -> str:
    return f"{cfg.topic_prefix}/summary"


def _summary_publish(state: FacilityState, cfg: FacilityConfig) -> Publish:
    payload = f"{state.total_vacant}/{state.total_slots}".encode()
    return Publish(summary_topic(cfg), payload, retained=True)


def _gate_publish(cfg: FacilityConfig, gate: str, gate_state: GateState) -> Publish:
    return Publish(f"{cfg.topic_prefix}/gate/{gate}", gate_state.value.encode(), retained=True)


def _fan_publish(cfg: FacilityConfig, fan: Power) -> Publish:
    return Publish(f"{cfg.topic_prefix}/fan/state", fan.value.encode(), retained=True)


def _check(state: FacilityState) -> FacilityState:
    assert 0 <= state.total_vacant <= state.total_slots, state
    return state


def render_display(state: FacilityState) -> DisplayFrame:
    """Pure projection of what the entrance panel shows."""
    return DisplayFrame(state.last_temp_c, state.last_humidity_pct,
                        state.total_vacant, state.total_slots)


def handle_entrance(
    state: FacilityState, cfg: FacilityConfig
) -> tuple[FacilityState, list[ControlAction]]:
    """Car at the entrance: admit it if any slot is free, otherwise stay shut."""
    if state.total_vacant <= 0:
        return state, [UpdateDisplay(render_display(state))]
    state = _check(FacilityState(
        state.slots, state.total_vacant - 1, GateState.OPEN, state.exit_gate, Power.ON,
        state.fan, state.last_temp_c, state.last_humidity_pct, state.last_gas_ppm,
    ))
    actions: list[ControlAction] = [
        SetGate("entrance", GateState.OPEN),
        SetBuzzer(Power.ON),
        UpdateDisplay(render_display(state)),
        _summary_publish(state, cfg),
        _gate_publish(cfg, "entrance", GateState.OPEN),
    ]
    return state, actions


def handle_exit(
    state: FacilityState, cfg: FacilityConfig
) -> tuple[FacilityState, list[ControlAction]]:
    """Car at the exit: open the gate and bump the vacancy counter (clamped)."""
    ghost = state.total_vacant >= state.total_slots
    if ghost:
        log.debug("exit detected with no cars in the lot (sensor ghost); counter clamped")
        vacant = state.total_vacant
    else:
        vacant = state.total_vacant + 1
    state = _check(FacilityState(
        state.slots, vacant, state.entrance_gate, GateState.OPEN, state.buzzer,
        state.fan, state.last_temp_c, state.last_humidity_pct, state.last_gas_ppm,
    ))
    actions: list[ControlAction] = [
        SetGate("exit", GateState.OPEN),
        UpdateDisplay(render_display(state)),
        _summary_publish(state, cfg),
        _gate_publish(cfg, "exit", GateState.OPEN),
    ]
    if ghost:
        actions.append(Anomaly("ghost exit detection at empty lot"))
    return state, actions


def handle_slot_update(
    state: FacilityState, cfg: FacilityConfig, slot_id: int, occupied: int
) -> tuple[FacilityState, list[ControlAction]]:
    """A slot sensor changed: record it and publish the retained slot status."""
    if not 0 <= slot_id < state.total_slots:
        raise ValueError(f"slot_id {slot_id} outside 0..{state.total_slots - 1}")
    flag = b"\x01" if occupied else b"\x00"
    slots = state.slots[:slot_id] + flag + state.slots[slot_id + 1 :]
    state = _check(FacilityState(
        slots, state.total_vacant, state.entrance_gate, state.exit_gate, state.buzzer,
        state.fan, state.last_temp_c, state.last_humidity_pct, state.last_gas_ppm,
    ))
    payload = b"1" if occupied else b"0"
    return state, [Publish(slot_topic(cfg, slot_id), payload, retained=True)]


def handle_env(
    state: FacilityState, cfg: FacilityConfig, temp_c: float, humidity_pct: float
) -> tuple[FacilityState, list[ControlAction]]:
    """Cache a temperature/humidity reading, refresh the display, publish both."""
    if not 0.0 <= humidity_pct <= 100.0:
        log.debug("rejecting impossible humidity reading %.1f%%", humidity_pct)
        return state, [Anomaly(f"humidity reading {humidity_pct} rejected")]
    state = FacilityState(
        state.slots, state.total_vacant, state.entrance_gate, state.exit_gate, state.buzzer,
        state.fan, temp_c, humidity_pct, state.last_gas_ppm,
    )
    actions: list[ControlAction] = [
        UpdateDisplay(render_display(state)),
        Publish(f"{cfg.topic_prefix}/env/temperature", f"{temp_c:.1f}".encode(), retained=True),
        Publish(f"{cfg.topic_prefix}/env/humidity", f"{humidity_pct:.1f}".encode(), retained=True),
    ]
    return state, actions


def handle_gas(
    state: FacilityState, cfg: FacilityConfig, ppm: float
) -> tuple[FacilityState, list[ControlAction]]:
    """Gas reading: fan on above the threshold, off below threshold - hysteresis."""
    if ppm < 0:
        log.debug("rejecting negative gas reading %.2f ppm", ppm)
        return state, [Anomaly(f"negative gas reading {ppm} rejected")]
    actions: list[ControlAction] = [
        Publish(f"{cfg.topic_prefix}/gas/ppm", f"{ppm:.2f}".encode(), retained=True),
    ]
    fan = state.fan
    if fan is Power.OFF and ppm > cfg.gas_threshold_ppm:
        fan = Power.ON
    elif fan is Power.ON and ppm <= cfg.gas_threshold_ppm - cfg.gas_hysteresis_ppm:
        fan = Power.OFF
    if fan is not state.fan:
        actions += [SetFan(fan), _fan_publish(cfg, fan)]
    state = FacilityState(
        state.slots, state.total_vacant, state.entrance_gate, state.exit_gate, state.buzzer,
        fan, state.last_temp_c, state.last_humidity_pct, ppm,
    )
    return state, actions


def close_entrance_gate(
    state: FacilityState, cfg: FacilityConfig
) -> tuple[FacilityState, list[ControlAction]]:
    """Auto-close timer fired; buzzer stops with the gate."""
    if state.entrance_gate is GateState.CLOSED:
        return state, []
    state = FacilityState(
        state.slots, state.total_vacant, GateState.CLOSED, state.exit_gate, Power.OFF,
        state.fan, state.last_temp_c, state.last_humidity_pct, state.last_gas_ppm,
    )
    return state, [
        SetGate("entrance", GateState.CLOSED),
        SetBuzzer(Power.OFF),
        _gate_publish(cfg, "entrance", GateState.CLOSED),
    ]


def close_exit_gate(
    state: FacilityState, cfg: FacilityConfig
) -> tuple[FacilityState, list[ControlAction]]:
    if state.exit_gate is GateState.CLOSED:
        return state, []
    state = FacilityState(
        state.slots, state.total_vacant, state.entrance_gate, GateState.CLOSED, state.buzzer,
        state.fan, state.last_temp_c, state.last_humidity_pct, state.last_gas_ppm,
    )
    return state, [SetGate("exit", GateState.CLOSED), _gate_publish(cfg, "exit", GateState.CLOSED)]


def initial_actions(state: FacilityState, cfg: FacilityConfig) -> list[ControlAction]:
    """Startup publishes so late subscribers always see every slot's state."""
    actions: list[ControlAction] = [
        Publish(slot_topic(cfg, i), b"1" if flag else b"0", retained=True)
        for i, flag in enumerate(state.slots)
    ]
    actions += [
        _summary_publish(state, cfg),
        _gate_publish(cfg, "entrance", state.entrance_gate),
        _gate_publish(cfg, "exit", state.exit_gate),
        _fan_publish(cfg, state.fan),
        UpdateDisplay(render_display(state)),
    ]
    return actions


class Controller:
    """Event-serialized wrapper around the pure handlers.

    One event in, one action list out; all mutation happens here. A gate's
    auto-close timeout is an event too (`GateTimeout`), so every transition
    after startup goes through `handle`.
    """

    def __init__(self, cfg: FacilityConfig, state: FacilityState):
        cfg.validate()
        self.cfg = cfg
        self.state = state

    def startup(self) -> list[ControlAction]:
        return initial_actions(self.state, self.cfg)

    def handle(self, event: ControllerEvent) -> list[ControlAction]:
        on_event = _EVENT_HANDLERS.get(type(event))
        if on_event is None:
            raise TypeError(f"unknown controller event: {event!r}")
        self.state, actions = on_event(self.state, self.cfg, event)
        return actions


_CLOSE_GATE = {"entrance": close_entrance_gate, "exit": close_exit_gate}

# Controller.handle's table, (state, cfg, event) -> (new state, actions);
# any other event type is a TypeError.
_EVENT_HANDLERS = {
    EntranceDetect: lambda state, cfg, event: handle_entrance(state, cfg),
    ExitDetect: lambda state, cfg, event: handle_exit(state, cfg),
    SlotUpdate: lambda state, cfg, event: handle_slot_update(state, cfg, event.slot_id, event.occupied),
    EnvReading: lambda state, cfg, event: handle_env(state, cfg, event.temp_c, event.humidity_pct),
    GasReading: lambda state, cfg, event: handle_gas(state, cfg, event.ppm),
    GateTimeout: lambda state, cfg, event: _CLOSE_GATE[event.gate](state, cfg),
}
