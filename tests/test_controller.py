import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parksim.controller import (
    Controller,
    EntranceDetect,
    EnvReading,
    ExitDetect,
    GasReading,
    GateTimeout,
    SlotUpdate,
    handle_entrance,
    handle_env,
    handle_exit,
    handle_gas,
    handle_slot_update,
    render_display,
)
from parksim.domain import (
    Anomaly,
    FacilityConfig,
    FacilityState,
    GateState,
    Power,
    Publish,
    SetBuzzer,
    SetFan,
    SetGate,
    UpdateDisplay,
    new_facility,
)


def facility(n=4, **kwargs):
    cfg = FacilityConfig(total_slots=n, **kwargs)
    return cfg, new_facility(cfg)


def action_types(actions):
    return {type(a) for a in actions}


class TestEntrance:
    def test_admit_opens_gate_and_buzzer(self):
        cfg, state = facility(4)
        state, _ = handle_entrance(state, cfg)
        state, actions = handle_entrance(state, cfg)  # vacant 3 -> 2
        assert state.total_vacant == 2
        assert {SetGate("entrance", GateState.OPEN), SetBuzzer(Power.ON)} <= set(actions)
        assert state.entrance_gate is GateState.OPEN

    def test_full_lot_only_refreshes_display(self):
        cfg, state = facility(2)
        for _ in range(2):
            state, _ = handle_entrance(state, cfg)
        before = state
        state, actions = handle_entrance(state, cfg)
        assert state == before
        assert action_types(actions) == {UpdateDisplay}

    def test_last_slot_still_admits(self):
        cfg, state = facility(3)
        for _ in range(2):
            state, _ = handle_entrance(state, cfg)
        assert state.total_vacant == 1
        state, actions = handle_entrance(state, cfg)
        assert state.total_vacant == 0
        assert SetGate("entrance", GateState.OPEN) in actions

    def test_summary_published_on_admit(self):
        cfg, state = facility(4)
        state, actions = handle_entrance(state, cfg)
        publishes = {a.topic: a for a in actions if isinstance(a, Publish)}
        assert publishes["parking/summary"].payload == b"3/4"
        assert publishes["parking/summary"].retained


class TestExit:
    def test_exit_opens_gate_and_increments(self):
        cfg, state = facility(4)
        state, _ = handle_entrance(state, cfg)
        state, _ = handle_entrance(state, cfg)
        state, actions = handle_exit(state, cfg)
        assert state.total_vacant == 3
        assert SetGate("exit", GateState.OPEN) in actions
        assert Anomaly not in action_types(actions)

    def test_ghost_exit_clamps_and_logs(self, caplog):
        cfg, state = facility(4)
        with caplog.at_level("DEBUG", logger="parksim.controller"):
            state, actions = handle_exit(state, cfg)
        assert state.total_vacant == 4
        assert SetGate("exit", GateState.OPEN) in actions
        assert actions[-1] == Anomaly("ghost exit detection at empty lot")
        assert any("ghost" in record.message for record in caplog.records)

    def test_exit_from_full_lot(self):
        cfg, state = facility(4)
        for _ in range(4):
            state, _ = handle_entrance(state, cfg)
        assert state.total_vacant == 0
        state, _ = handle_exit(state, cfg)
        assert state.total_vacant == 1


class TestSlotUpdate:
    def test_occupy_publishes_retained_one(self):
        cfg, state = facility(4)
        state, actions = handle_slot_update(state, cfg, 0, 1)
        assert state.slots == bytes((1, 0, 0, 0))
        publishes = [a for a in actions if isinstance(a, Publish)]
        assert len(publishes) == 1
        assert publishes[0].topic == "parking/slot/1/status"
        assert publishes[0].payload == b"1"
        assert publishes[0].retained

    def test_vacate_publishes_zero(self):
        cfg, state = facility(4)
        state, _ = handle_slot_update(state, cfg, 0, 1)
        state, actions = handle_slot_update(state, cfg, 0, 0)
        assert state.slots == bytes((0, 0, 0, 0))
        publish = next(a for a in actions if isinstance(a, Publish))
        assert publish.payload == b"0"

    def test_out_of_range_slot_rejected(self):
        cfg, state = facility(4)
        with pytest.raises(ValueError):
            handle_slot_update(state, cfg, 7, 1)

    @given(slot=st.integers(min_value=0, max_value=7), occupied=st.integers(min_value=0, max_value=1))
    def test_exactly_one_retained_publish_per_update(self, slot, occupied):
        cfg, state = facility(8)
        _, actions = handle_slot_update(state, cfg, slot, occupied)
        publishes = [a for a in actions if isinstance(a, Publish)]
        assert len(publishes) == 1
        assert publishes[0].retained
        assert publishes[0].topic == f"parking/slot/{slot + 1}/status"


class TestEnv:
    def test_reading_lands_in_frame(self):
        cfg, state = facility(4)
        state, actions = handle_env(state, cfg, 30.2, 70.0)
        frame = next(a.frame for a in actions if isinstance(a, UpdateDisplay))
        assert (frame.temp_c, frame.humidity_pct) == (30.2, 70.0)
        assert (frame.total_vacant, frame.total_slots) == (4, 4)

    def test_range_floor_values_pass_through(self):
        cfg, state = facility(4)
        state, actions = handle_env(state, cfg, 24.0, 63.0)
        frame = next(a.frame for a in actions if isinstance(a, UpdateDisplay))
        assert (frame.temp_c, frame.humidity_pct) == (24.0, 63.0)

    def test_impossible_humidity_rejected(self, caplog):
        cfg, state = facility(4)
        with caplog.at_level("DEBUG", logger="parksim.controller"):
            new_state, actions = handle_env(state, cfg, 30.0, 150.0)
        assert new_state == state
        assert actions == [Anomaly("humidity reading 150.0 rejected")]
        assert any("humidity" in record.message for record in caplog.records)

    def test_topics_published(self):
        cfg, state = facility(4)
        _, actions = handle_env(state, cfg, 30.25, 70.0)
        payloads = {a.topic: a.payload for a in actions if isinstance(a, Publish)}
        assert payloads["parking/env/temperature"] == b"30.2"
        assert payloads["parking/env/humidity"] == b"70.0"


class TestGas:
    def test_over_threshold_turns_fan_on(self):
        cfg, state = facility(4, gas_threshold_ppm=10.0)
        state, actions = handle_gas(state, cfg, 15.0)
        assert state.fan is Power.ON
        assert SetFan(Power.ON) in actions

    def test_hysteresis_holds_fan_on(self):
        cfg, state = facility(4, gas_threshold_ppm=10.0, gas_hysteresis_ppm=2.0)
        state, _ = handle_gas(state, cfg, 15.0)
        state, actions = handle_gas(state, cfg, 9.0)  # 9 > 10 - 2
        assert state.fan is Power.ON
        assert SetFan not in action_types(actions)

    def test_below_hysteresis_turns_fan_off(self):
        cfg, state = facility(4, gas_threshold_ppm=10.0, gas_hysteresis_ppm=2.0)
        state, _ = handle_gas(state, cfg, 15.0)
        state, actions = handle_gas(state, cfg, 7.9)
        assert state.fan is Power.OFF
        assert SetFan(Power.OFF) in actions

    def test_exactly_threshold_does_not_trigger(self):
        cfg, state = facility(4, gas_threshold_ppm=10.0)
        state, _ = handle_gas(state, cfg, 10.0)
        assert state.fan is Power.OFF

    def test_negative_reading_rejected(self):
        cfg, state = facility(4)
        new_state, actions = handle_gas(state, cfg, -1.0)
        assert new_state == state
        assert actions == [Anomaly("negative gas reading -1.0 rejected")]

    def test_raising_threshold_never_turns_fan_on_earlier(self):
        rng = np.random.Generator(np.random.PCG64(0))
        trace = [float(x) for x in rng.uniform(0, 25, size=200)]

        def first_on_index(threshold):
            cfg, state = facility(4, gas_threshold_ppm=threshold, gas_hysteresis_ppm=0.0)
            for i, ppm in enumerate(trace):
                state, _ = handle_gas(state, cfg, ppm)
                if state.fan is Power.ON:
                    return i
            return len(trace)

        assert first_on_index(12.0) >= first_on_index(6.0)


class TestDisplay:
    def test_fresh_facility_frame(self):
        cfg, state = facility(4)
        frame = render_display(state)
        assert (frame.total_vacant, frame.total_slots) == (4, 4)

    def test_vacancy_tracks_entrance(self):
        cfg, state = facility(4)
        state, _ = handle_entrance(state, cfg)
        assert render_display(state).total_vacant == 3

    def test_full_lot_shows_zero(self):
        cfg, state = facility(2)
        for _ in range(2):
            state, _ = handle_entrance(state, cfg)
        assert render_display(state).total_vacant == 0

    def test_pure_projection(self):
        cfg, state = facility(4)
        assert render_display(state) == render_display(state)


class TestControllerWrapper:
    def test_dispatch_matches_pure_functions(self):
        cfg, state = facility(4)
        controller = Controller(cfg, state)
        actions = controller.handle(EntranceDetect())
        actions += controller.handle(SlotUpdate(slot_id=0, occupied=1))
        actions += controller.handle(EnvReading(temp_c=28.0, humidity_pct=70.0))
        actions += controller.handle(GasReading(ppm=2.0))
        assert controller.state.total_vacant == 3
        assert controller.state.slots == bytes((1, 0, 0, 0))
        assert Anomaly not in action_types(actions)

    def test_anomalies_recorded(self):
        cfg, state = facility(2)
        controller = Controller(cfg, state)
        ghost = controller.handle(ExitDetect())
        humid = controller.handle(EnvReading(temp_c=30.0, humidity_pct=120.0))
        gas = controller.handle(GasReading(ppm=-4.0))
        assert ghost[-1] == Anomaly("ghost exit detection at empty lot")
        assert Anomaly not in action_types(ghost[:-1])
        assert humid == [Anomaly("humidity reading 120.0 rejected")]
        assert gas == [Anomaly("negative gas reading -4.0 rejected")]
        assert controller.state.total_vacant == 2
        assert controller.state.last_humidity_pct == 0.0
        assert controller.state.last_gas_ppm == 0.0

    @pytest.mark.parametrize("event", [object(), SetFan(Power.ON), (0.0,)],
                             ids=["object", "action", "tuple"])
    def test_unknown_event_type_raises_and_leaves_state(self, event):
        cfg, state = facility(2)
        controller = Controller(cfg, state)
        with pytest.raises(TypeError, match="unknown controller event"):
            controller.handle(event)
        assert controller.state is state

    def test_startup_publishes_every_slot(self):
        cfg, state = facility(5)
        controller = Controller(cfg, state)
        topics = [a.topic for a in controller.startup() if isinstance(a, Publish)]
        for i in range(1, 6):
            assert f"parking/slot/{i}/status" in topics
        assert "parking/summary" in topics

    def test_gate_close_cycle(self):
        cfg, state = facility(4)
        controller = Controller(cfg, state)
        controller.handle(EntranceDetect())
        controller.handle(ExitDetect())
        assert controller.state.entrance_gate is GateState.OPEN
        actions = controller.handle(GateTimeout("entrance"))
        assert controller.state.entrance_gate is GateState.CLOSED
        assert controller.state.exit_gate is GateState.OPEN
        assert controller.state.buzzer is Power.OFF
        assert actions  # close + publish
        assert controller.handle(GateTimeout("entrance")) == []  # idempotent
        assert SetGate("exit", GateState.CLOSED) in controller.handle(GateTimeout("exit"))
        assert controller.state.exit_gate is GateState.CLOSED


EVENT_KINDS = st.sampled_from(["entrance", "exit", "slot", "env", "gas"])


@given(kinds=st.lists(EVENT_KINDS, min_size=1, max_size=300), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100)
def test_invariants_under_random_event_soup(kinds, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    cfg, state = facility(5, gas_threshold_ppm=10.0, gas_hysteresis_ppm=2.0)
    controller = Controller(cfg, state)
    fan_reference = Power.OFF
    for i, kind in enumerate(kinds):
        vacant_before = controller.state.total_vacant
        if kind == "entrance":
            actions = controller.handle(EntranceDetect())
            opened = SetGate("entrance", GateState.OPEN) in actions
            assert opened == (vacant_before > 0)
        elif kind == "exit":
            controller.handle(ExitDetect())
        elif kind == "slot":
            controller.handle(SlotUpdate(slot_id=int(rng.integers(0, 5)),
                                         occupied=int(rng.integers(0, 2))))
        elif kind == "env":
            controller.handle(EnvReading(temp_c=float(rng.uniform(20, 40)),
                                         humidity_pct=float(rng.uniform(0, 100))))
        else:
            ppm = float(rng.uniform(0, 25))
            controller.handle(GasReading(ppm=ppm))
            if fan_reference is Power.OFF and ppm > cfg.gas_threshold_ppm:
                fan_reference = Power.ON
            elif fan_reference is Power.ON and ppm <= cfg.gas_threshold_ppm - cfg.gas_hysteresis_ppm:
                fan_reference = Power.OFF
            assert controller.state.fan is fan_reference
        assert 0 <= controller.state.total_vacant <= 5


HANDLER_EVENTS = st.one_of(
    st.just(("entrance",)),
    st.just(("exit",)),
    st.tuples(st.just("slot"), st.integers(0, 5), st.integers(0, 1)),
    st.tuples(st.just("env"), st.floats(-20.0, 60.0), st.floats(-10.0, 110.0)),
    st.tuples(st.just("gas"), st.floats(-5.0, 30.0)),
    st.just(("close_entrance",)),
    st.just(("close_exit",)),
)


def state_fields(state):
    return {name: getattr(state, name) for name in FacilityState.__slots__}


def timed_out(state, cfg, gate):
    controller = Controller(cfg, state)
    controller.handle(GateTimeout(gate))
    return controller.state


@given(events=st.lists(HANDLER_EVENTS, max_size=80))
@settings(max_examples=200)
def test_each_handler_changes_only_the_fields_it_sets(events):
    # The handlers build the next state positionally; this reference names
    # every field it changes, so two fields swapped in a constructor show up
    # even where no record reads them (last_gas_ppm, buzzer, ...).
    cfg, state = facility(6, gas_threshold_ppm=10.0, gas_hysteresis_ppm=2.0)
    for kind, *args in events:
        changes = {}
        if kind == "entrance":
            after, _ = handle_entrance(state, cfg)
            if state.total_vacant > 0:
                changes = {"total_vacant": state.total_vacant - 1,
                           "entrance_gate": GateState.OPEN, "buzzer": Power.ON}
        elif kind == "exit":
            after, _ = handle_exit(state, cfg)
            changes = {"total_vacant": min(state.total_vacant + 1, len(state.slots)),
                       "exit_gate": GateState.OPEN}
        elif kind == "slot":
            slot_id, occupied = args
            after, _ = handle_slot_update(state, cfg, slot_id, occupied)
            flags = list(state.slots)
            flags[slot_id] = occupied
            changes = {"slots": bytes(flags)}
        elif kind == "env":
            temp_c, humidity_pct = args
            after, _ = handle_env(state, cfg, temp_c, humidity_pct)
            if 0.0 <= humidity_pct <= 100.0:
                changes = {"last_temp_c": temp_c, "last_humidity_pct": humidity_pct}
        elif kind == "gas":
            (ppm,) = args
            after, _ = handle_gas(state, cfg, ppm)
            if ppm >= 0:
                fan = state.fan
                if fan is Power.OFF and ppm > cfg.gas_threshold_ppm:
                    fan = Power.ON
                elif fan is Power.ON and ppm <= cfg.gas_threshold_ppm - cfg.gas_hysteresis_ppm:
                    fan = Power.OFF
                changes = {"last_gas_ppm": ppm, "fan": fan}
        elif kind == "close_entrance":
            after = timed_out(state, cfg, "entrance")
            changes = {"entrance_gate": GateState.CLOSED, "buzzer": Power.OFF}
        else:
            after = timed_out(state, cfg, "exit")
            changes = {"exit_gate": GateState.CLOSED}
        assert state_fields(after) == {**state_fields(state), **changes}, kind
        assert type(after.slots) is bytes
        assert set(after.slots) <= {0, 1}  # a sensor flag reads 0 or 1
        state = after
