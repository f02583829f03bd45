import re

import pytest

from parksim.domain import ConfigError
from parksim.scenario import (
    _KEYS,
    GasInjection,
    default_scenario,
    load_scenario,
    parse_scenario,
    to_flat_dict,
)

SAMPLE = """
# weekday scenario
facility.total_slots = 4
facility.gas_threshold_ppm = 12
facility.topic_prefix = lot-a
traffic.dwell_mean_s = 900
traffic.hourly_rates = 1,1,1,1,1,1,1,1,1,1,1,1,100,1,1,1,1,1,1,1,1,1,1,1
sensors.mq2.sensitivities = butane:0.92, alcohol:0.80, co:0.75
network.drop_prob = 0.1   # lossy uplink
duration_s = 3600
seed = 7
injections = 100:butane:20, 200:co:5
"""


def test_parse_full_sample():
    cfg = parse_scenario(SAMPLE)
    assert cfg.facility.total_slots == 4
    assert cfg.facility.gas_threshold_ppm == 12
    assert cfg.facility.topic_prefix == "lot-a"
    assert cfg.traffic.dwell_mean_s == 900
    assert cfg.traffic.hourly_rates[12] == 100
    assert cfg.mq2.sensitivities["co"] == 0.75
    assert cfg.network.drop_prob == 0.1
    assert cfg.duration_s == 3600
    assert cfg.seed == 7
    assert cfg.injections == (
        GasInjection(100.0, "butane", 20.0),
        GasInjection(200.0, "co", 5.0),
    )


def test_defaults_are_valid():
    default_scenario().validate()


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match=":2:.*total_slotz"):
        parse_scenario("\nfacility.total_slotz = 4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario("seed = 1\nseed = 2\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="facility.total_slots"):
        parse_scenario("facility.total_slots = four\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_scenario("facility.total_slots 4\n")


def test_rates_need_24_entries():
    with pytest.raises(ConfigError):
        parse_scenario("traffic.hourly_rates = 1,2,3\n")


def test_validation_runs_after_parse():
    with pytest.raises(ConfigError):
        parse_scenario("network.drop_prob = 1.5\n")
    with pytest.raises(ConfigError):
        parse_scenario("duration_s = 0\n")


def test_comment_handling_preserves_values():
    cfg = parse_scenario("facility.total_slots = 9 # nine\n# full line\n")
    assert cfg.facility.total_slots == 9


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.cfg")


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    assert load_scenario(path) == parse_scenario(SAMPLE)


def test_flat_dict_covers_every_key():
    flat = to_flat_dict(default_scenario())
    assert list(flat) == list(_KEYS)
    assert flat["facility.total_slots"] == 8
    assert len(flat["traffic.hourly_rates"]) == 24
    assert flat["seed"] == 42


def test_env_noise_keys():
    cfg = parse_scenario(
        "sensors.env.noise_sd_temp_c = 0\nsensors.env.noise_sd_humidity_pct = 0\n"
    )
    assert cfg.env.noise_sd == (0.0, 0.0)
    # each key sets its own item and leaves the other at its default
    default_sd = default_scenario().env.noise_sd
    assert parse_scenario("sensors.env.noise_sd_humidity_pct = 2\n").env.noise_sd == (default_sd[0], 2.0)
    assert parse_scenario("sensors.env.noise_sd_temp_c = 0.3\n").env.noise_sd == (0.3, default_sd[1])


def _as_scenario_text(flat):
    lines = []
    for key, value in flat.items():
        if isinstance(value, dict):
            value = ",".join(f"{gas}:{coeff}" for gas, coeff in value.items())
        elif isinstance(value, list):
            if not value:
                continue  # no injections: the key's default
            value = ",".join(str(item) for item in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", ["", SAMPLE], ids=["defaults", "sample"])
def test_flat_dict_parses_back_to_the_same_config(text):
    cfg = parse_scenario(text)
    assert parse_scenario(_as_scenario_text(to_flat_dict(cfg))) == cfg


def test_injection_of_a_gas_without_sensitivity_rejected():
    with pytest.raises(ConfigError, match="methane"):
        parse_scenario("duration_s = 7200\ninjections = 3600:methane:5\n")
    with pytest.raises(ConfigError, match="'co'"):
        parse_scenario("sensors.mq2.sensitivities = butane:0.9\ninjections = 10:co:5\n")


# every key whose value is one float, read off the defaults' flat form
FLOAT_KEYS = [key for key, value in to_flat_dict(default_scenario()).items()
              if isinstance(value, float)]
# the float items inside list-valued keys, one bad item each
FLOAT_ITEMS = [
    ("traffic.hourly_rates", ",".join(["1"] * 23 + ["{}"])),
    ("sensors.mq2.sensitivities", "butane:0.9, smoke:{}"),
    ("injections", "{}:butane:5"),
    ("injections", "10:butane:{}"),
]


def test_float_keys_cover_the_scalar_floats():
    assert len(FLOAT_KEYS) == 22
    assert "network.latency_s" in FLOAT_KEYS and "sensors.env.noise_sd_temp_c" in FLOAT_KEYS


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, template",
                         [(key, "{}") for key in FLOAT_KEYS] + FLOAT_ITEMS)
def test_non_finite_float_rejected_with_key_and_line(key, template, bad):
    text = f"seed = 3\n{key} = {template.format(bad)}\n"
    with pytest.raises(ConfigError, match=rf"^case\.cfg:2: bad value for '{re.escape(key)}'"):
        parse_scenario(text, source="case.cfg")
