"""Value semantics of the per-message classes: construction, type-strict
equality, hashing, read-only attributes, repr and validation."""

import copy
import pickle

import pytest

from parksim import broker, codec, controller, domain, sim
from parksim.domain import GateState, Power
from parksim.values import Value

_FRAME = domain.DisplayFrame(21.5, 40.0, 3, 8)
_PUBLISH = codec.Publish("parking/summary", b"3/8", 1, True, False, 7)

# class -> (required fields, today's defaults of the other fields)
_CLASS_CASES = {
    codec.Connect: ({"client_id": "c"},
                    {"keep_alive_s": 0, "clean_session": True, "requests_unsupported": False}),
    codec.ConnAck: ({}, {"return_code": 0}),
    codec.Publish: ({"topic": "a/b"},
                    {"payload": b"", "qos": 0, "retain": False, "dup": False, "packet_id": None}),
    codec.PubAck: ({"packet_id": 5}, {}),
    codec.Subscribe: ({"packet_id": 5, "filters": (("a/#", 1),)}, {}),
    codec.SubAck: ({"packet_id": 5, "granted": (1,)}, {}),
    codec.Unsubscribe: ({"packet_id": 5, "filters": ("a/#",)}, {}),
    codec.UnsubAck: ({"packet_id": 5}, {}),
    codec.PingReq: ({}, {}),
    codec.PingResp: ({}, {}),
    codec.Disconnect: ({}, {}),
    broker.Send: ({"conn_id": "c1", "packet": _PUBLISH}, {}),
    broker.Close: ({"conn_id": "c1"}, {"client_id": None, "reason": ""}),
    sim.CarArrives: ({"car_id": 1}, {}),
    sim.CarParks: ({"car_id": 1}, {}),
    sim.CarDeparts: ({"car_id": 1, "slot": 3}, {}),
    sim.SensorSample: ({"kind": "env"}, {}),
    sim.PacketDelivery: ({"destination": "dashboard", "source": "broker", "packet": _PUBLISH},
                         {"accept_t": None}),
    sim.GasInjectionEvent: ({"gas": "lpg", "ppm": 12.5}, {}),
    sim.BrokerTimer: ({}, {}),
    domain.DisplayFrame: ({"temp_c": 21.5, "humidity_pct": 40.0, "total_vacant": 3,
                           "total_slots": 8}, {}),
    domain.UpdateDisplay: ({"frame": _FRAME}, {}),
    domain.Publish: ({"topic": "parking/summary", "payload": b"3/8"}, {"retained": False}),
    domain.Anomaly: ({"reason": "humidity reading 120.0 rejected"}, {}),
    controller.EntranceDetect: ({}, {}),
    controller.ExitDetect: ({}, {}),
    controller.SlotUpdate: ({"slot_id": 2, "occupied": 1}, {}),
    controller.EnvReading: ({"temp_c": 21.5, "humidity_pct": 40.0}, {}),
    controller.GasReading: ({"ppm": 3.25}, {}),
    controller.GateTimeout: ({"gate": "entrance"}, {}),
    domain.FacilityState: ({"slots": bytes((1, 0, 0, 0)), "total_vacant": 3},
                           {"entrance_gate": GateState.CLOSED, "exit_gate": GateState.CLOSED,
                            "buzzer": Power.OFF, "fan": Power.OFF, "last_temp_c": 0.0,
                            "last_humidity_pct": 0.0, "last_gas_ppm": 0.0}),
}
# case name -> (class, required fields, defaults): one case per class, named
# "module.Class", and one per actuator action, named after the action
CASES = {
    f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}": (cls, required, defaults)
    for cls, (required, defaults) in _CLASS_CASES.items()
}
CASES.update({
    "domain.OpenEntranceGate": (domain.SetGate, {"gate": "entrance", "state": GateState.OPEN}, {}),
    "domain.CloseEntranceGate": (domain.SetGate, {"gate": "entrance", "state": GateState.CLOSED}, {}),
    "domain.OpenExitGate": (domain.SetGate, {"gate": "exit", "state": GateState.OPEN}, {}),
    "domain.CloseExitGate": (domain.SetGate, {"gate": "exit", "state": GateState.CLOSED}, {}),
    "domain.BuzzerOn": (domain.SetBuzzer, {"state": Power.ON}, {}),
    "domain.BuzzerOff": (domain.SetBuzzer, {"state": Power.OFF}, {}),
    "domain.FanOn": (domain.SetFan, {"state": Power.ON}, {}),
    "domain.FanOff": (domain.SetFan, {"state": Power.OFF}, {}),
})
NAMES = sorted(CASES)


def fields_of(case) -> dict:
    _, required, defaults = CASES[case]
    return {**required, **defaults}


def make(case):
    return CASES[case][0](**fields_of(case))


def test_every_value_class_is_covered():
    found = {
        obj for module in (codec, broker, sim, domain, controller)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value
    }
    assert found == {cls for cls, _, _ in CASES.values()}


@pytest.mark.parametrize("case", NAMES)
def test_positional_keyword_and_default_construction_agree(case):
    cls, required, _ = CASES[case]
    full = fields_of(case)
    assert list(full) == list(cls.__slots__)
    by_keyword = cls(**full)
    assert cls(*full.values()) == by_keyword
    assert cls(**required) == by_keyword
    assert cls(*required.values()) == by_keyword
    for name, value in full.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("case", NAMES)
def test_constructor_refuses_missing_and_unknown_fields(case):
    cls, required, _ = CASES[case]
    with pytest.raises(TypeError):
        cls(**fields_of(case), no_such_field=1)
    if required:
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("case", NAMES)
def test_equality_needs_same_type_and_fields(case):
    cls = CASES[case][0]
    value = make(case)
    assert value == make(case)
    assert not value != make(case)
    assert value != tuple(fields_of(case).values())
    assert value != ()
    assert value != object()
    # another value for each field; these three must still pass validation
    others = {"topic": "other/topic", "total_vacant": 2, "total_slots": 9}
    for name in cls.__slots__:
        changed = dict(fields_of(case), **{name: others.get(name, ("other", name))})
        assert cls(**changed) != value


@pytest.mark.parametrize(
    "a,b",
    [
        (codec.PingReq(), codec.PingResp()),
        (codec.PingReq(), codec.Disconnect()),
        (codec.PubAck(5), codec.UnsubAck(5)),
        (sim.CarArrives(1), sim.CarParks(1)),
        (controller.EntranceDetect(), controller.ExitDetect()),
        (domain.SetBuzzer(Power.ON), domain.SetFan(Power.ON)),
    ],
)
def test_different_types_with_equal_fields_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("case", NAMES)
def test_equal_objects_hash_equal(case):
    assert hash(make(case)) == hash(make(case))
    assert len({make(case), make(case)}) == 1


@pytest.mark.parametrize("case", NAMES)
def test_attributes_are_read_only(case):
    value = make(case)
    for name in CASES[case][0].__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == make(case)


@pytest.mark.parametrize("case", NAMES)
def test_repr_copy_and_pickle(case):
    cls = CASES[case][0]
    value = make(case)
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls.__slots__)
    assert repr(value) == f"{cls.__qualname__}({fields})"
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_no_tuple_behaviour():
    assert bool(codec.PingReq())
    with pytest.raises(TypeError):
        len(codec.PubAck(5))
    with pytest.raises(TypeError):
        iter(codec.PubAck(5))


def test_validation_still_refuses():
    with pytest.raises(ValueError):
        domain.Publish("a/#", b"")
    with pytest.raises(ValueError):
        domain.Publish("", b"")
    with pytest.raises(ValueError):
        domain.DisplayFrame(20.0, 50.0, 9, 8)
    with pytest.raises(ValueError):
        domain.DisplayFrame(temp_c=20.0, humidity_pct=50.0, total_vacant=-1, total_slots=8)


def test_defaults_must_name_fields():
    with pytest.raises(TypeError, match="unknown fields"):
        class Broken(Value, defaults={"missing": 0}):
            __slots__ = ("present",)
