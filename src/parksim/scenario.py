"""Scenario configuration: dataclasses plus the `key = value` file format.

Files are UTF-8 text, one dotted key per line, `#` comments (whole line, or
inline after whitespace). Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import telemetry
from .broker import ACK_TIMEOUT_S, MAX_RETRIES
from .domain import ConfigError, FacilityConfig, check_finite
from .sensors import EnvModel, IrModel, Mq2Model
from .stochastic import TrafficProfile


@dataclass(frozen=True)
class NetworkConfig:
    latency_s: float = 0.05
    drop_prob: float = 0.0

    def validate(self) -> None:
        check_finite(self)
        if self.latency_s < 0:
            raise ConfigError("network latency must be >= 0")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError("drop_prob must lie in [0, 1)")


@dataclass(frozen=True)
class MqttConfig:
    publish_qos: int = 1
    ack_timeout_s: float = ACK_TIMEOUT_S
    max_retries: int = MAX_RETRIES

    def validate(self) -> None:
        check_finite(self)
        if self.publish_qos not in (0, 1):
            raise ConfigError("publish_qos must be 0 or 1")
        if self.ack_timeout_s <= 0:
            raise ConfigError("ack_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass(frozen=True)
class DashboardConfig:
    enabled: bool = True
    qos: int = 1

    def validate(self) -> None:
        if self.qos not in (0, 1):
            raise ConfigError("dashboard qos must be 0 or 1")


@dataclass(frozen=True)
class GasInjection:
    t: float
    gas: str
    ppm: float


@dataclass(frozen=True)
class ScenarioConfig:
    facility: FacilityConfig = field(default_factory=FacilityConfig)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    ir: IrModel = field(default_factory=IrModel)
    env: EnvModel = field(default_factory=EnvModel)
    mq2: Mq2Model = field(default_factory=Mq2Model)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    mqtt: MqttConfig = field(default_factory=MqttConfig)
    dashboard: DashboardConfig = field(default_factory=DashboardConfig)
    duration_s: float = 86400.0
    seed: int = 42
    gate_to_slot_travel_s: float = 30.0
    env_sample_period_s: float = 60.0   # 0 disables
    gas_sample_period_s: float = 15.0   # 0 disables
    gas_decay_ppm_per_s: float = 2.0    # measured-level reduction while the fan runs
    injections: tuple[GasInjection, ...] = ()

    def validate(self) -> None:
        self.facility.validate()
        self.traffic.validate()
        self.ir.validate()
        self.env.validate()
        self.mq2.validate()
        self.network.validate()
        self.mqtt.validate()
        self.dashboard.validate()
        check_finite(self)
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        try:  # the run's metrics.csv would need more windows than an Aggregator builds
            telemetry.check_window_count(self.duration_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.gate_to_slot_travel_s < 0:
            raise ConfigError("gate_to_slot_travel_s must be >= 0")
        if self.env_sample_period_s < 0 or self.gas_sample_period_s < 0:
            raise ConfigError("sample periods must be >= 0 (0 disables)")
        if self.gas_decay_ppm_per_s < 0:
            raise ConfigError("gas_decay_ppm_per_s must be >= 0")
        for injection in self.injections:
            if not (0 <= injection.t < math.inf and 0 <= injection.ppm < math.inf):
                raise ConfigError(f"bad gas injection: {injection}")
            if injection.gas not in self.mq2.sensitivities:
                raise ConfigError(
                    f"gas injection {injection}: no MQ-2 sensitivity configured for {injection.gas!r}")


def default_scenario() -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.validate()
    return cfg


# -- parsing ---------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    # no key has a use for NaN or inf: refused here with its line, and by validate() in code
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_rates(raw: str) -> tuple[float, ...]:
    rates = tuple(_parse_float(part) for part in raw.split(","))
    if len(rates) != 24:
        raise ValueError(f"hourly_rates needs 24 comma-separated values, got {len(rates)}")
    return rates


def _parse_sensitivities(raw: str) -> dict[str, float]:
    table = {}
    for pair in raw.split(","):
        name, sep, value = pair.partition(":")
        if not sep:
            raise ValueError(f"sensitivity entries look like gas:coeff, got {pair!r}")
        table[name.strip()] = _parse_float(value)
    return table


def _parse_injections(raw: str) -> tuple[GasInjection, ...]:
    out = []
    for triple in raw.split(","):
        parts = triple.split(":")
        if len(parts) != 3:
            raise ValueError(f"injections look like t:gas:ppm, got {triple!r}")
        out.append(GasInjection(t=_parse_float(parts[0]), gas=parts[1].strip(),
                                ppm=_parse_float(parts[2])))
    return tuple(out)


# key -> (section attribute or None for top level, field name, parser[, index
# of the key's item in a tuple-valued field]). The order is the meta record's.
_KEYS = {
    "facility.total_slots": ("facility", "total_slots", int),
    "facility.gas_threshold_ppm": ("facility", "gas_threshold_ppm", _parse_float),
    "facility.gas_hysteresis_ppm": ("facility", "gas_hysteresis_ppm", _parse_float),
    "facility.lux_max": ("facility", "lux_max", _parse_float),
    "facility.topic_prefix": ("facility", "topic_prefix", str),
    "facility.gate_open_s": ("facility", "gate_open_s", _parse_float),
    "traffic.hourly_rates": ("traffic", "hourly_rates", _parse_rates),
    "traffic.dwell_mean_s": ("traffic", "dwell_mean_s", _parse_float),
    "sensors.ir.acc_low_lux": ("ir", "acc_low_lux", _parse_float),
    "sensors.ir.acc_high_lux": ("ir", "acc_high_lux", _parse_float),
    "sensors.ir.lux_max": ("ir", "lux_max", _parse_float),
    "sensors.env.base_temp_c": ("env", "base_temp_c", _parse_float),
    "sensors.env.base_humidity_pct": ("env", "base_humidity_pct", _parse_float),
    "sensors.env.relax_tau_s": ("env", "relax_tau_s", _parse_float),
    "sensors.env.noise_sd_temp_c": ("env", "noise_sd", _parse_float, 0),
    "sensors.env.noise_sd_humidity_pct": ("env", "noise_sd", _parse_float, 1),
    "sensors.mq2.sensitivities": ("mq2", "sensitivities", _parse_sensitivities),
    "sensors.mq2.noise_sd_ppm": ("mq2", "noise_sd_ppm", _parse_float),
    "network.latency_s": ("network", "latency_s", _parse_float),
    "network.drop_prob": ("network", "drop_prob", _parse_float),
    "mqtt.publish_qos": ("mqtt", "publish_qos", int),
    "mqtt.ack_timeout_s": ("mqtt", "ack_timeout_s", _parse_float),
    "mqtt.max_retries": ("mqtt", "max_retries", int),
    "dashboard.enabled": ("dashboard", "enabled", _parse_bool),
    "dashboard.qos": ("dashboard", "qos", int),
    "duration_s": (None, "duration_s", _parse_float),
    "seed": (None, "seed", int),
    "gate_to_slot_travel_s": (None, "gate_to_slot_travel_s", _parse_float),
    "env_sample_period_s": (None, "env_sample_period_s", _parse_float),
    "gas_sample_period_s": (None, "gas_sample_period_s", _parse_float),
    "gas_decay_ppm_per_s": (None, "gas_decay_ppm_per_s", _parse_float),
    "injections": (None, "injections", _parse_injections),
}


def _strip_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    # inline comments need whitespace before the '#', so topic values
    # containing '#' stay intact
    for i, ch in enumerate(line):
        if ch == "#" and i > 0 and line[i - 1] in " \t":
            return line[:i]
    return line


def parse_scenario(text: str, source: str = "<string>") -> ScenarioConfig:
    cfg = ScenarioConfig()
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        key, eq, raw_value = line.partition("=")
        if not eq:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        section, name, parser, *index = _KEYS[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        if index:
            items = list(getattr(cfg if section is None else getattr(cfg, section), name))
            items[index[0]] = value
            value = tuple(items)
        if section is None:
            cfg = replace(cfg, **{name: value})
        else:
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    cfg.validate()
    return cfg


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, source=str(path))


# the JSON form of a field whose parser does not give a plain scalar
_JSON_FORMS = {
    _parse_rates: list,
    _parse_sensitivities: dict,
    _parse_injections: lambda injections: [f"{i.t}:{i.gas}:{i.ppm}" for i in injections],
}


def to_flat_dict(cfg: ScenarioConfig) -> dict[str, object]:
    """Flatten for the run-log meta record, one entry per scenario key in
    `_KEYS` order; values are JSON-friendly."""
    flat: dict[str, object] = {}
    for key, (section, name, parser, *index) in _KEYS.items():
        value = getattr(cfg if section is None else getattr(cfg, section), name)
        if index:
            value = value[index[0]]
        form = _JSON_FORMS.get(parser)
        flat[key] = value if form is None else form(value)
    return flat
