"""Core facility types shared by the controller, simulator, and broker glue.

The facility state, the display frame and the control actions are
`values.Value` classes: immutable, slotted and cheap to build, one set per
controller event. The state keeps its per-slot sensor flags as `bytes`, so a
slot update copies one buffer instead of a tuple of ints. An actuator action
names the state it sets (`GateState`, `Power`), and a refused reading comes
back as an `Anomaly` action, so one action list is everything a controller
event asks of the runtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from .values import Value


class ConfigError(Exception):
    """Invalid facility or scenario configuration."""


def check_finite(config) -> None:
    """Refuse NaN and infinities in the float fields of dataclass `config`,
    tuples of floats included: validate() checks ranges by comparison, and
    NaN passes every comparison."""
    for f in fields(config):
        value = getattr(config, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


class GateState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


class Power(enum.Enum):
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class FacilityConfig:
    total_slots: int = 8
    gas_threshold_ppm: float = 10.0
    gas_hysteresis_ppm: float = 2.0
    lux_max: float = 1000.0
    topic_prefix: str = "parking"
    gate_open_s: float = 5.0  # gates (and the entrance buzzer) auto-close after this long

    def validate(self) -> None:
        check_finite(self)
        if not isinstance(self.total_slots, int) or self.total_slots < 1:
            raise ConfigError(f"total_slots must be a positive integer, got {self.total_slots!r}")
        if self.gas_threshold_ppm < 0:
            raise ConfigError("gas_threshold_ppm must be >= 0")
        if not 0 <= self.gas_hysteresis_ppm <= self.gas_threshold_ppm:
            raise ConfigError("gas_hysteresis_ppm must lie in [0, gas_threshold_ppm]")
        if self.lux_max <= 0:
            raise ConfigError("lux_max must be > 0")
        if not self.topic_prefix or any(c in self.topic_prefix for c in "+#"):
            raise ConfigError(f"topic_prefix must be non-empty and wildcard-free, got {self.topic_prefix!r}")
        if self.topic_prefix.startswith("/") or self.topic_prefix.endswith("/"):
            raise ConfigError("topic_prefix must not start or end with '/'")
        if self.gate_open_s <= 0:
            raise ConfigError("gate_open_s must be > 0")


class FacilityState(
    Value,
    defaults={
        "entrance_gate": GateState.CLOSED,
        "exit_gate": GateState.CLOSED,
        "buzzer": Power.OFF,
        "fan": Power.OFF,
        "last_temp_c": 0.0,
        "last_humidity_pct": 0.0,
        "last_gas_ppm": 0.0,
    },
):
    """Snapshot of the whole facility, one new value per transition.

    `total_vacant` is the gate-derived counter; `slots` holds the per-slot
    sensor flags as `bytes`, one byte per slot (1 = occupied). `len`,
    indexing, iteration and `sum` read it as they would a tuple of ints. The
    counter and the flags may diverge while a car is driving from the gate to
    its slot, so consistency is only checked at quiescence.
    """

    __slots__ = ("slots", "total_vacant", "entrance_gate", "exit_gate", "buzzer", "fan",
                 "last_temp_c", "last_humidity_pct", "last_gas_ppm")

    @property
    def total_slots(self) -> int:
        return len(self.slots)


class DisplayFrame(Value):
    __slots__ = ("temp_c", "humidity_pct", "total_vacant", "total_slots")

    def _validate(self) -> None:
        if not 0 <= self.total_vacant <= self.total_slots:
            raise ValueError(f"total_vacant {self.total_vacant} outside [0, {self.total_slots}]")


# Control actions emitted by the controller. The runtime (simulator or live
# loop) is responsible for actually driving actuators and the MQTT client.
# An actuator action carries the state to drive its actuator to.

class SetGate(Value):
    __slots__ = ("gate", "state")  # gate: "entrance" or "exit"


class SetBuzzer(Value):
    __slots__ = ("state",)


class SetFan(Value):
    __slots__ = ("state",)


class UpdateDisplay(Value):
    __slots__ = ("frame",)


class Publish(Value, defaults={"retained": False}):
    __slots__ = ("topic", "payload", "retained")

    def _validate(self) -> None:
        topic = self.topic
        if not topic or "+" in topic or "#" in topic:
            raise ValueError(f"publish topic must be non-empty and wildcard-free: {self.topic!r}")


class Anomaly(Value):
    """A reading or detection the controller refused; the runtime logs it."""

    __slots__ = ("reason",)


ControlAction = SetGate | SetBuzzer | SetFan | UpdateDisplay | Publish | Anomaly


def new_facility(config: FacilityConfig) -> FacilityState:
    """All slots vacant, gates closed, buzzer and fan off."""
    config.validate()
    n = config.total_slots
    return FacilityState(bytes(n), n)
