"""Behavioral models for the facility's sensors.

IR presence detector: detection accuracy falls linearly with ambient light,
from 98% in darkness down to 52% at the calibrated maximum intensity.
DHT22: baseline temperature/humidity plus decaying bumps from car traffic.
MQ-2: weighted sum of per-gas concentrations (butane 0.92, alcohol 0.80).

All sampling goes through a caller-owned random generator so a fixed seed
reproduces identical readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .domain import ConfigError, check_finite

if TYPE_CHECKING:
    from .rng import PCG64


@dataclass(frozen=True)
class IrModel:
    acc_low_lux: float = 0.98
    acc_high_lux: float = 0.52
    lux_max: float = 1000.0

    def validate(self) -> None:
        check_finite(self)
        if not 0.0 <= self.acc_high_lux <= self.acc_low_lux <= 1.0:
            raise ConfigError("need 0 <= acc_high_lux <= acc_low_lux <= 1")
        if self.lux_max <= 0:
            raise ConfigError("lux_max must be > 0")

    def accuracy(self, ambient_lux: float) -> float:
        if ambient_lux < 0:
            raise ValueError(f"ambient_lux must be >= 0, got {ambient_lux}")
        frac = min(ambient_lux, self.lux_max) / self.lux_max
        return self.acc_low_lux - (self.acc_low_lux - self.acc_high_lux) * frac


class Bump(NamedTuple):
    """A transient temperature/humidity disturbance from a car entering or exiting."""

    t: float
    temp_delta_c: float
    humidity_delta_pct: float


@dataclass(frozen=True)
class EnvModel:
    base_temp_c: float = 29.5
    base_humidity_pct: float = 74.0
    temp_range: tuple[float, float] = (24.0, 35.0)
    humidity_range: tuple[float, float] = (63.0, 85.0)
    entry_bump: tuple[float, float] = (0.4, 0.2)   # (deg C, % RH)
    exit_bump: tuple[float, float] = (-0.4, -0.2)
    relax_tau_s: float = 600.0
    noise_sd: tuple[float, float] = (0.1, 0.5)

    def validate(self) -> None:
        check_finite(self)
        if self.relax_tau_s <= 0:
            raise ConfigError("relax_tau_s must be > 0")
        if self.temp_range[0] > self.temp_range[1] or self.humidity_range[0] > self.humidity_range[1]:
            raise ConfigError("sensor ranges must be (low, high)")
        if any(sd < 0 for sd in self.noise_sd):
            raise ConfigError("noise_sd must be >= 0")

    def entry_bump_at(self, t: float) -> Bump:
        return Bump(t, *self.entry_bump)

    def exit_bump_at(self, t: float) -> Bump:
        return Bump(t, *self.exit_bump)


@dataclass(frozen=True)
class Mq2Model:
    sensitivities: Mapping[str, float] = field(
        default_factory=lambda: {"butane": 0.92, "alcohol": 0.80}
    )
    noise_sd_ppm: float = 0.2

    def validate(self) -> None:
        check_finite(self)
        for gas, coeff in self.sensitivities.items():
            if not 0.0 <= coeff <= 1.0:
                raise ConfigError(f"sensitivity for {gas!r} must be in [0, 1], got {coeff}")
        if self.noise_sd_ppm < 0:
            raise ConfigError("noise_sd_ppm must be >= 0")


def ir_detect(model: IrModel, present: bool, ambient_lux: float, rng: PCG64) -> bool:
    """Report presence with light-dependent accuracy; errors are symmetric."""
    accuracy = model.accuracy(ambient_lux)
    if rng.random() < accuracy:
        return present
    return not present


def sample_env(
    model: EnvModel,
    sim_time_s: float,
    bumps: Sequence[Bump],
    rng: PCG64,
) -> tuple[float, float]:
    """Baseline plus exponentially decaying traffic bumps plus noise, clamped."""
    temp = model.base_temp_c
    humidity = model.base_humidity_pct
    for bump in bumps:
        age = sim_time_s - bump.t
        if age < 0:
            continue
        decay = math.exp(-age / model.relax_tau_s)
        temp += bump.temp_delta_c * decay
        humidity += bump.humidity_delta_pct * decay
    if model.noise_sd[0] > 0:
        temp += rng.normal(0.0, model.noise_sd[0])
    if model.noise_sd[1] > 0:
        humidity += rng.normal(0.0, model.noise_sd[1])
    temp = min(max(temp, model.temp_range[0]), model.temp_range[1])
    humidity = min(max(humidity, model.humidity_range[0]), model.humidity_range[1])
    return temp, humidity


def weighted_level(model: Mq2Model, concentrations: Mapping[str, float]) -> float:
    """The sensitivity-weighted sum of gas concentrations, in gas-name order.

    It adds left to right from 0: sum() compensates float additions from
    Python 3.12 on, so its total would depend on the version."""
    level = 0.0
    for gas in sorted(concentrations):
        ppm = concentrations[gas]
        if ppm < 0:
            raise ValueError(f"concentration for {gas!r} must be >= 0, got {ppm}")
        try:
            coeff = model.sensitivities[gas]
        except KeyError:
            raise ConfigError(f"no sensitivity configured for gas {gas!r}") from None
        level += coeff * ppm
    return level


def sample_mq2(
    model: Mq2Model,
    concentrations: Mapping[str, float],
    rng: PCG64,
) -> float:
    """Weighted sum of gas concentrations plus noise, clamped at zero."""
    reading = weighted_level(model, concentrations)
    if model.noise_sd_ppm > 0:
        reading += rng.normal(0.0, model.noise_sd_ppm)
    return max(reading, 0.0)
