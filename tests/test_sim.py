import json
import math
import typing
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from parksim import codec, domain, sim
from parksim.domain import ConfigError, FacilityConfig, derived_vacancy
from parksim.scenario import (
    DashboardConfig,
    GasInjection,
    MqttConfig,
    NetworkConfig,
    default_scenario,
    load_scenario,
)
from parksim.sensors import Mq2Model
from parksim.stochastic import TrafficProfile


def quiet_scenario(**overrides):
    """Low-noise base: no periodic samples unless the test asks for them."""
    base = replace(
        default_scenario(),
        gas_sample_period_s=0.0,
        env_sample_period_s=0.0,
        dashboard=DashboardConfig(enabled=False),
        network=NetworkConfig(latency_s=0.0, drop_prob=0.0),
    )
    return replace(base, **overrides)


def kinds(records, kind):
    return [r for r in records if r["kind"] == kind]


class TestSingleCarTrace:
    def test_one_arrival_takes_slot_one(self):
        cfg = quiet_scenario(
            facility=FacilityConfig(total_slots=4),
            traffic=TrafficProfile(hourly_rates=(60.0,) * 24, dwell_mean_s=1e6),
            duration_s=120.0,
            seed=14,  # exactly one arrival in this window
        )
        simulation = sim.Simulation(cfg)
        report = simulation.run()
        counts = report.tally.counts
        assert {kind: counts.get(kind, 0) for kind in (
            "car_arrives", "car_admitted", "car_rejected", "car_departs", "fan", "drop")} == dict(
            car_arrives=1, car_admitted=1, car_rejected=0, car_departs=0, fan=0, drop=0,
        )
        assert report.final_state.total_vacant == 3
        assert report.final_state.slots == bytes((1, 0, 0, 0))
        assert simulation.broker.retained["parking/slot/1/status"][0] == b"1"
        assert simulation.broker.retained["parking/summary"][0] == b"3/4"
        park = kinds(report.records, "car_parks")[0]
        arrive = kinds(report.records, "car_arrives")[0]
        assert park["slot"] == 0
        assert park["t"] == pytest.approx(arrive["t"] + cfg.gate_to_slot_travel_s)


class TestVentilationScenario:
    def test_fan_cycle_follows_decay_rate(self):
        cfg = quiet_scenario(
            traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
            mq2=Mq2Model(noise_sd_ppm=0.0),
            duration_s=30.0,
            gas_sample_period_s=0.05,
            gas_decay_ppm_per_s=2.0,
            injections=(GasInjection(t=10.0, gas="butane", ppm=20.0),),
            seed=5,
        )
        report = sim.run_scenario(cfg)
        fan_events = [(r["t"], r["state"]) for r in kinds(report.records, "fan")]
        assert fan_events, "fan never reacted to the injection"
        t_on = next(t for t, state in fan_events if state == "on")
        t_off = next(t for t, state in fan_events if state == "off")
        assert t_on == pytest.approx(10.0, abs=0.06)  # within one sample period
        # weighted reading starts at 20 * 0.92 = 18.4 and must fall to
        # threshold - hysteresis = 8 at 2 ppm/s: 10.4 / 2 = 5.2 s
        assert t_off - t_on == pytest.approx(5.2, abs=0.1)
        first_reading = next(
            r["ppm"] for r in kinds(report.records, "gas_sample") if r["t"] >= 10.0
        )
        assert first_reading == pytest.approx(18.4)

    def test_weighted_level_adds_left_to_right(self):
        field = sim.GasField(Mq2Model(sensitivities={"a": 1.0, "b": 1.0, "c": 1.0}), 2.0)
        field.inject(0.0, "c", 0.3)
        field.inject(0.0, "a", 0.1)
        field.inject(0.0, "b", 0.2)
        terms = [1.0 * 0.1, 1.0 * 0.2, 1.0 * 0.3]  # in gas-name order
        reference = 0.0
        for term in terms:
            reference += term
        # a compensated sum (sum() on 3.12+, math.fsum) gives another float here
        assert reference != math.fsum(terms)
        assert field._weighted_level() == reference


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self):
        cfg = replace(default_scenario(), duration_s=7200.0)
        a = sim.run_scenario(cfg)
        b = sim.run_scenario(cfg)
        assert a.events_jsonl() == b.events_jsonl()
        assert a.metrics_csv == b.metrics_csv

    def test_different_seed_diverges(self):
        cfg = replace(default_scenario(), duration_s=7200.0)
        a = sim.run_scenario(cfg)
        b = sim.run_scenario(replace(cfg, seed=cfg.seed + 1))
        assert a.events_jsonl() != b.events_jsonl()


@pytest.fixture(scope="module")
def run():
    cfg = replace(
        default_scenario(),
        duration_s=6 * 3600.0,
        gas_sample_period_s=0.0,
        env_sample_period_s=300.0,
    )
    return sim.run_scenario(cfg)


class TestConservationAndCausality:
    def test_conservation(self, run):
        state = run.final_state
        in_lot = state.total_slots - state.total_vacant
        counts = run.tally.counts
        assert counts["car_admitted"] == counts["car_departs"] + in_lot
        assert counts["car_arrives"] == counts["car_admitted"] + counts.get("car_rejected", 0)

    def test_causality_per_car(self, run):
        seen_arrive, seen_park = set(), set()
        for record in run.records:
            if record["kind"] == "car_arrives":
                seen_arrive.add(record["car_id"])
            elif record["kind"] == "car_parks":
                assert record["car_id"] in seen_arrive
                seen_park.add(record["car_id"])
            elif record["kind"] == "car_departs":
                assert record["car_id"] in seen_park

    def test_slot_vector_matches_parked_population(self, run):
        parked_final = len(sim.occupancy_timeseries(run.records)) and \
            sim.occupancy_timeseries(run.records)[-1][1]
        assert sum(run.final_state.slots) == parked_final
        assert derived_vacancy(run.final_state) == len(run.final_state.slots) - parked_final

    def test_timestamps_monotone(self, run):
        times = [record["t"] for record in run.records]
        assert times == sorted(times)

    def test_quiescence_consistency(self):
        # run long enough after the last arrival for every car to park
        rates = (30.0,) + (0.0,) * 23
        cfg = quiet_scenario(
            traffic=TrafficProfile(hourly_rates=rates, dwell_mean_s=120.0),
            duration_s=4 * 3600.0,
            seed=3,
        )
        report = sim.run_scenario(cfg)
        state = report.final_state
        assert derived_vacancy(state) == state.total_vacant


class TestOccupancySeries:
    def test_empty_log(self):
        assert sim.occupancy_timeseries([]) == []

    def test_single_park_depart_mean(self):
        log = [
            {"t": 100.0, "kind": "car_parks", "car_id": 1, "slot": 0},
            {"t": 400.0, "kind": "car_departs", "car_id": 1, "slot": 0},
        ]
        series = sim.occupancy_timeseries(log)
        assert series == [(100.0, 1), (400.0, 0)]
        assert sim.time_weighted_mean(series, 1000.0) == pytest.approx(0.3)

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="record 0"):
            sim.occupancy_timeseries([{"bogus": True}])

    def test_jsonl_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"t": 0, "kind": "meta"}\nnot-json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            sim.read_events_jsonl(path)

    def test_jsonl_roundtrip(self, tmp_path):
        cfg = quiet_scenario(duration_s=600.0)
        report = sim.run_scenario(cfg)
        paths = report.write(tmp_path)
        records = sim.read_events_jsonl(paths["events"])
        assert records == report.records


def _reference_tally(records):
    """Counts per kind, duration and mean occupancy as separate passes over
    the list, with occupancy_timeseries + time_weighted_mean."""
    series = sim.occupancy_timeseries(records)
    meta = records[0] if records and records[0]["kind"] == "meta" else {}
    config = meta.get("config", {})
    if "duration_s" in config:
        duration = float(config["duration_s"])
    else:
        duration = float(max((r["t"] for r in records), default=1.0) or 1.0)
    counts = {}
    for record in records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    return counts, duration, sim.time_weighted_mean(series, duration) if series else 0.0


def _one_pass_tally(records, block):
    tally = sim.ReportTally()
    for i in range(0, len(records), block):
        tally.add_records(records[i:i + block])
    return tally.counts, tally.duration_s, tally.mean_occupancy()


def _outcome(tally, *args):
    try:
        return tally(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _event_logs(draw):
    duration = draw(st.one_of(st.sampled_from([100.0, 3600.0, 0.0, -5.0]),
                              st.floats(min_value=0.1, max_value=1e4)))
    times = st.one_of(st.sampled_from([0.0, duration, -1.0]),
                      st.integers(min_value=-5, max_value=200),
                      st.floats(min_value=-50.0, max_value=2.0 * abs(duration) + 10.0,
                                allow_nan=False))
    records = []
    header = draw(st.sampled_from(["config", "no duration", "none"]))
    if header != "none":
        config = {"seed": 7, "duration_s": duration} if header == "config" else {"seed": 7}
        records.append({"t": 0.0, "kind": "meta", "config": config})
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        record = {"t": draw(times),
                  "kind": draw(st.sampled_from(["car_parks", "car_departs", "car_parks",
                                                "publish", "meta"]))}
        if record["kind"] == "meta":  # only a first record is the log's header
            record["config"] = {"duration_s": 1.0}
        records.append(record)
    damage = draw(st.sampled_from([None, None, None, "t", "kind", "not a dict"]))
    if damage is not None and records:
        i = draw(st.integers(min_value=0, max_value=len(records) - 1))
        if damage == "not a dict":
            records[i] = [records[i]]
        else:
            del records[i][damage]
    return records


@given(_event_logs(), st.sampled_from([1, 3, 1024]))
def test_one_pass_tally_equals_the_list_references(records, block):
    assert _outcome(_one_pass_tally, records, block) == _outcome(_reference_tally, records)


_JSON_SCALARS = st.one_of(
    st.text(),  # any code point, control characters and non-ASCII included
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-300, float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.none(),
)


@st.composite
def _json_records(draw):
    records = []
    if draw(st.booleans()):
        records.append({
            "t": 0.0, "kind": "meta", "rng": draw(st.text()),
            "rng_streams": draw(st.lists(st.text(), max_size=6)),
            "config": draw(st.dictionaries(st.text(), _JSON_SCALARS, max_size=8)),
        })
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        record = {"t": draw(st.floats(allow_nan=False)), "kind": draw(st.text(max_size=12))}
        record.update(draw(st.dictionaries(st.text(max_size=8), _JSON_SCALARS, max_size=6)))
        records.append(record)
    return records


@given(_json_records(), st.sampled_from([1, 3, 1024]), st.booleans())
def test_encoded_lines_equal_json_dumps(records, block, c_encoder):
    """Every events.jsonl line is json.dumps of its record, in order and in
    blocks, through the reused C encoder and through the fallback."""
    patches = {"_BLOCK_RECORDS": block}
    if not c_encoder:
        patches["c_make_encoder"] = None
    with mock.patch.multiple(sim, **patches):
        texts = list(sim._encoded_blocks(records))
    assert len(texts) == -(-len(records) // block)
    for i, text in enumerate(texts):
        chunk = records[i * block:(i + 1) * block]
        assert text == "".join(json.dumps(r, separators=(", ", ": ")) + "\n" for r in chunk)


@pytest.mark.parametrize("c_encoder", [True, False])
def test_encoder_still_refuses_circular_records(c_encoder):
    looped = {"t": 1.0, "kind": "loop", "list": []}
    looped["list"].append(looped)
    records = [{"t": 0.0, "kind": "ok"}, looped]
    with mock.patch.object(sim, "c_make_encoder", sim.c_make_encoder if c_encoder else None):
        with pytest.raises(ValueError, match="[Cc]ircular"):
            list(sim._encoded_blocks(records))


class TestNetworkInjection:
    def test_latency_shows_up_as_delay(self):
        cfg = replace(
            default_scenario(),
            traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
            duration_s=120.0,
            gas_sample_period_s=10.0,
            env_sample_period_s=0.0,
            network=NetworkConfig(latency_s=0.05, drop_prob=0.0),
        )
        report = sim.run_scenario(cfg)
        delays = [r["delay"] for r in kinds(report.records, "deliver")]
        assert delays
        assert all(d == pytest.approx(0.05, abs=1e-9) for d in delays)

    def test_drops_recovered_by_qos1(self):
        cfg = replace(
            default_scenario(),
            traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
            duration_s=1000.0,
            gas_sample_period_s=1.0,
            env_sample_period_s=0.0,
            network=NetworkConfig(latency_s=0.05, drop_prob=0.1),
            mqtt=MqttConfig(publish_qos=1, ack_timeout_s=2.0, max_retries=3),
            seed=11,
        )
        report = sim.run_scenario(cfg)
        assert report.tally.counts["drop"] > 0
        corrected = len(kinds(report.records, "error_corrected"))
        uncorrected = len(kinds(report.records, "error_uncorrected"))
        assert corrected > 0
        assert corrected / (corrected + uncorrected) > 0.95
        # at-least-once: unique gas publishes all reach the dashboard eventually
        dash_deliveries = {
            r["t"] for r in kinds(report.records, "deliver")
            if r["client_id"] == "dashboard" and r["topic"] == "parking/gas/ppm"
        }
        assert len(dash_deliveries) > 0


DAY_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "day.cfg"


class TestFrameSizes:
    def test_each_size_is_checked_once_and_matches_the_codec(self):
        cfg = replace(default_scenario(), duration_s=1800.0,
                      network=NetworkConfig(latency_s=0.05, drop_prob=0.2))
        simulation = sim.Simulation(cfg)
        with mock.patch.object(sim.codec, "frame_size", wraps=codec.frame_size) as checked:
            records = simulation.run().records
        sized = [r for r in records if r["kind"] in ("publish", "deliver", "drop")]
        assert {r["kind"] for r in sized} == {"publish", "deliver", "drop"}
        assert len(sized) > checked.call_count == len(simulation.frame_sizes)
        for (topic, length, qos), size in simulation.frame_sizes.items():
            packet = codec.Publish(topic, bytes(length), qos, packet_id=1 if qos else None)
            assert size == codec.frame_size(packet)

    def test_invalid_publish_raises_the_first_time_it_is_seen(self):
        simulation = sim.Simulation(quiet_scenario())
        bad = codec.Publish(topic="parking/+/status", payload=b"1")
        for _ in range(2):
            with pytest.raises(codec.EncodeError):
                simulation._frame_size(bad)
        assert simulation.frame_sizes == {}


class TestBrokerTimer:
    def test_startup_frames_dropped_are_resent_one_ack_timeout_later(self):
        # no traffic and a sparse gas period: nothing else wakes the broker
        day = load_scenario(DAY_CFG)
        cfg = replace(
            day, seed=3, duration_s=200.0, gas_sample_period_s=97.3,
            traffic=replace(day.traffic, hourly_rates=(0.0,) * 24),
            network=replace(day.network, drop_prob=0.3),
        )
        records = sim.run_scenario(cfg).records
        resend_t = 0.05 + cfg.mqtt.ack_timeout_s
        for topic in ("parking/slot/3/status", "parking/fan/state"):
            to_dashboard = [r for r in records if r.get("topic") == topic
                            and r.get("client_id") == "dashboard"]
            first, second = to_dashboard[:2]
            assert (first["kind"], first["t"]) == ("drop", 0.05)
            # the retry is either dropped again or delivered one latency later
            sent_t = second["t"] - (cfg.network.latency_s if second["kind"] == "deliver" else 0.0)
            assert sent_t == pytest.approx(resend_t), (topic, second)

    def test_heap_holds_at_most_one_broker_timer(self):
        day = load_scenario(DAY_CFG)
        cfg = replace(day, duration_s=6 * 3600.0, network=replace(day.network, drop_prob=0.1))
        most = fired = 0

        class Watched(sim.Simulation):
            def _push(self, t, payload):
                nonlocal most
                super()._push(t, payload)
                pending = sum(type(p) is sim.BrokerTimer for _, _, p in self.heap)
                most = max(most, pending)

            def _on_broker_timer(self, event):
                nonlocal fired
                fired += 1
                super()._on_broker_timer(event)

        report = Watched(cfg).run()
        assert most == 1
        assert fired > 0 and report.tally.counts["drop"] > 0


class TestAnomalies:
    def test_rejected_humidity_logged_right_after_its_sample(self):
        # humidity noise pushes readings past 100 %, which the controller refuses
        day = load_scenario(DAY_CFG)
        cfg = replace(
            day, duration_s=6 * 3600.0,
            network=replace(day.network, drop_prob=0.1),
            env=replace(day.env, base_humidity_pct=99.5, humidity_range=(63.0, 150.0),
                        noise_sd=(day.env.noise_sd[0], 2.0)),
        )
        records = sim.run_scenario(cfg).records
        anomalies = [i for i, r in enumerate(records) if r["kind"] == "anomaly"]
        rejected = [i for i, r in enumerate(records)
                    if r["kind"] == "env_sample" and r["humidity_pct"] > 100.0]
        assert len(anomalies) > 10
        assert anomalies == [i + 1 for i in rejected]
        for i in rejected:
            sample, anomaly = records[i], records[i + 1]
            assert anomaly["t"] == sample["t"]
            assert anomaly["reason"] == f"humidity reading {sample['humidity_pct']} rejected"

    def test_every_control_action_has_a_handler(self):
        handlers = sim.Simulation(quiet_scenario()).action_handlers
        assert set(handlers) == set(typing.get_args(domain.ControlAction))


class TestValidation:
    def test_invalid_config_rejected_before_start(self):
        with pytest.raises(ConfigError):
            sim.run_scenario(replace(default_scenario(), duration_s=0.0))

    def test_report_render_is_deterministic(self):
        cfg = quiet_scenario(duration_s=600.0)
        records = sim.run_scenario(cfg).records
        assert sim.render_report(records) == sim.render_report(records)
