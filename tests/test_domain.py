import pytest

from parksim.domain import (
    ConfigError,
    DisplayFrame,
    FacilityConfig,
    GateState,
    Power,
    Publish,
    new_facility,
)


def test_new_facility_all_vacant():
    state = new_facility(FacilityConfig(total_slots=4))
    assert state.slots == bytes((0, 0, 0, 0))
    assert state.total_vacant == 4
    assert state.entrance_gate is GateState.CLOSED
    assert state.exit_gate is GateState.CLOSED
    assert state.buzzer is Power.OFF
    assert state.fan is Power.OFF


def test_new_facility_single_slot():
    state = new_facility(FacilityConfig(total_slots=1))
    assert state.slots == bytes((0,))
    assert state.total_vacant == 1


def test_new_facility_rejects_zero_slots():
    with pytest.raises(ConfigError):
        new_facility(FacilityConfig(total_slots=0))


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        FacilityConfig(gas_hysteresis_ppm=11.0, gas_threshold_ppm=10.0).validate()
    with pytest.raises(ConfigError):
        FacilityConfig(lux_max=0).validate()
    with pytest.raises(ConfigError):
        FacilityConfig(topic_prefix="park+ing").validate()
    with pytest.raises(ConfigError):
        FacilityConfig(topic_prefix="").validate()
    FacilityConfig().validate()


def test_display_frame_guards_vacancy_range():
    with pytest.raises(ValueError):
        DisplayFrame(temp_c=25.0, humidity_pct=70.0, total_vacant=5, total_slots=4)


def test_publish_action_rejects_wildcards():
    with pytest.raises(ValueError):
        Publish(topic="parking/#", payload=b"x")
    with pytest.raises(ValueError):
        Publish(topic="", payload=b"x")
