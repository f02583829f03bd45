"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from parksim import codec, sim
from parksim.broker import BrokerCore, Send
from parksim.codec import PingReq, Publish, Subscribe, decode_packet, encode_packet, encode_varint
from parksim.controller import (
    Controller,
    EntranceDetect,
    EnvReading,
    ExitDetect,
    GasReading,
    SlotUpdate,
)
from parksim.domain import FacilityConfig, GateState, Power, SetGate, new_facility
from parksim.domain import Publish as PublishAction
from parksim.scenario import (
    DashboardConfig,
    GasInjection,
    MqttConfig,
    NetworkConfig,
    default_scenario,
)
from parksim.sensors import EnvModel, IrModel, Mq2Model, ir_detect, sample_env
from parksim.stochastic import TrafficProfile, p_full
from tests.test_codec import random_packet
from tests.test_sim import occupancy_timeseries, time_weighted_mean

# frozen from a 50-digit mpmath evaluation of 4^4 e^-4 / 4!
P_FULL_4_4 = 0.19536681481316456


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def default_day_runs():
    """Two identical-seed runs of the stock 24 h scenario (criteria 9 and 10)."""
    cfg = default_scenario()
    assert cfg.seed == 42 and cfg.duration_s == 86400.0
    return sim.run_scenario(cfg), sim.run_scenario(cfg)


def poisson_pmf_oracle(lam: int, k: int) -> float:
    """Arbitrary-precision pmf, independent of the implementation under test."""
    import mpmath as mp

    with mp.workdps(50):
        return float(mp.mpf(lam) ** k * mp.e ** mp.mpf(-lam) / mp.factorial(k))


def test_criterion_1_poisson_pmf_vs_monte_carlo():
    with criterion(1, "Poisson pmf matches 1e6-draw Monte-Carlo within 0.003"):
        started = time.monotonic()
        assert poisson_pmf_oracle(4, 4) == pytest.approx(P_FULL_4_4, abs=1e-15)
        assert p_full(4.0, 4) == pytest.approx(P_FULL_4_4, abs=1e-12)
        draws = np.random.Generator(np.random.PCG64(2027)).poisson(4.0, size=1_000_000)
        empirical = float(np.mean(draws == 4))
        assert abs(empirical - p_full(4.0, 4)) < 0.003
        assert time.monotonic() - started < 10.0


def test_criterion_2_littles_law_against_simulation():
    with criterion(2, "24 h simulated occupancy within 5% of L = lambda * T_avg = 10"):
        started = time.monotonic()
        cfg = replace(
            default_scenario(),
            facility=FacilityConfig(total_slots=1000),
            traffic=TrafficProfile(hourly_rates=(20.0,) * 24, dwell_mean_s=1800.0),
            duration_s=86400.0,
            gas_sample_period_s=0.0,
            env_sample_period_s=0.0,
            dashboard=DashboardConfig(enabled=False),
            network=NetworkConfig(latency_s=0.0, drop_prob=0.0),
            seed=11,
        )
        report = sim.run_scenario(cfg)
        series = occupancy_timeseries(report.records)
        mean_occupancy = time_weighted_mean(series, cfg.duration_s)
        expected = 20.0 * 0.5
        assert abs(mean_occupancy - expected) / expected < 0.05, mean_occupancy
        assert time.monotonic() - started < 5.0


def test_criterion_3_ir_accuracy_curve():
    with criterion(3, "IR detection rate tracks the 0.98..0.52 light curve within 0.02"):
        model = IrModel()
        expected_by_lux = {0.0: 0.98, 250.0: 0.865, 500.0: 0.75, 750.0: 0.635, 1000.0: 0.52}
        rng = np.random.Generator(np.random.PCG64(314159))
        for lux, expected in expected_by_lux.items():
            hits = sum(ir_detect(model, True, lux, rng) for _ in range(10_000))
            assert abs(hits / 10_000 - expected) <= 0.02, (lux, hits / 10_000)


def test_criterion_4_codec_round_trip():
    with criterion(4, "10^4 randomized packets round-trip; wire vectors byte-exact"):
        publish_wire = bytes.fromhex(
            "311800157061726b696e672f736c6f742f312f73746174757331"
        )
        packet = Publish(topic="parking/slot/1/status", payload=b"1", qos=0, retain=True)
        assert encode_packet(packet) == publish_wire
        assert decode_packet(publish_wire) == (packet, 26)
        assert encode_packet(PingReq()) == b"\xc0\x00"
        varint_table = {0: b"\x00", 127: b"\x7f", 128: b"\x80\x01", 321: b"\xc1\x02"}
        for value, wire in varint_table.items():
            assert encode_varint(value) == wire

        rng = random.Random(0xC0DEC)
        for _ in range(10_000):
            original = random_packet(rng)
            wire = encode_packet(original)
            decoded, consumed = decode_packet(wire)
            assert decoded == original and consumed == len(wire)


def test_criterion_5_retained_state_consistency():
    with criterion(5, "fresh subscriber sees exactly n retained slot states"):
        n = 8
        cfg = FacilityConfig(total_slots=n)
        controller = Controller(cfg, new_facility(cfg))
        core = BrokerCore()
        core.handle("ctrl", codec.Connect(client_id="controller"), 0.0)

        def forward(actions):
            for action in actions:
                if isinstance(action, PublishAction):
                    core.handle("ctrl", Publish(topic=action.topic, payload=action.payload,
                                                qos=0, retain=action.retained), 0.0)

        forward(controller.startup())
        rng = random.Random(20240817)
        for _ in range(100):
            slot = rng.randrange(n)
            forward(controller.handle(SlotUpdate(slot_id=slot,
                                                 occupied=rng.randint(0, 1))))

        core.handle("fresh", codec.Connect(client_id="fresh-subscriber"), 2.0)
        outputs = core.handle(
            "fresh", Subscribe(packet_id=1, filters=(("parking/slot/+/status", 0),)), 2.0
        )
        retained = [o.packet for o in outputs
                    if isinstance(o, Send) and isinstance(o.packet, Publish)]
        assert len(retained) == n
        reconstructed = [None] * n
        for publish in retained:
            assert publish.retain
            slot_no = int(publish.topic.split("/")[2])
            reconstructed[slot_no - 1] = int(publish.payload)
        assert bytes(reconstructed) == controller.state.slots


def test_criterion_6_controller_invariant_fuzz():
    with criterion(6, "10^5 random events keep vacancy, gate, and fan invariants"):
        n = 8
        cfg = FacilityConfig(total_slots=n, gas_threshold_ppm=10.0, gas_hysteresis_ppm=2.0)
        controller = Controller(cfg, new_facility(cfg))
        rng = np.random.Generator(np.random.PCG64(606060))
        fan_reference = Power.OFF
        kinds = rng.integers(0, 5, size=100_000)
        slots = rng.integers(0, n, size=100_000)
        flags = rng.integers(0, 2, size=100_000)
        ppms = rng.uniform(0.0, 25.0, size=100_000)
        temps = rng.uniform(20.0, 40.0, size=100_000)
        hums = rng.uniform(0.0, 100.0, size=100_000)
        for i in range(100_000):
            kind = kinds[i]
            vacant_before = controller.state.total_vacant
            if kind == 0:
                actions = controller.handle(EntranceDetect())
                opened = SetGate("entrance", GateState.OPEN) in actions
                assert opened == (vacant_before > 0)
            elif kind == 1:
                controller.handle(ExitDetect())
            elif kind == 2:
                controller.handle(SlotUpdate(slot_id=int(slots[i]),
                                             occupied=int(flags[i])))
            elif kind == 3:
                controller.handle(EnvReading(temp_c=float(temps[i]),
                                             humidity_pct=float(hums[i])))
            else:
                ppm = float(ppms[i])
                controller.handle(GasReading(ppm=ppm))
                if fan_reference is Power.OFF and ppm > cfg.gas_threshold_ppm:
                    fan_reference = Power.ON
                elif fan_reference is Power.ON and \
                        ppm <= cfg.gas_threshold_ppm - cfg.gas_hysteresis_ppm:
                    fan_reference = Power.OFF
                assert controller.state.fan is fan_reference
            assert 0 <= controller.state.total_vacant <= n


def test_criterion_7_error_correction_under_loss():
    with criterion(7, "EC over 1e4 qos1 publishes with 10% drop is >= 0.995"):
        cfg = replace(
            default_scenario(),
            traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
            duration_s=10_100.0,
            gas_sample_period_s=1.0,   # one qos-1 publish per second
            env_sample_period_s=0.0,
            network=NetworkConfig(latency_s=0.05, drop_prob=0.1),
            mqtt=MqttConfig(publish_qos=1, ack_timeout_s=2.0, max_retries=3),
            dashboard=DashboardConfig(enabled=True, qos=1),
            seed=77,
        )
        report = sim.run_scenario(cfg)
        publishes = sum(1 for r in report.records if r["kind"] == "publish")
        assert publishes >= 10_000
        corrected = sum(1 for r in report.records if r["kind"] == "error_corrected")
        uncorrected = sum(1 for r in report.records if r["kind"] == "error_uncorrected")
        assert corrected + uncorrected > 0, "loss injection produced no errors"
        measured_ec = corrected / (corrected + uncorrected)
        assert measured_ec >= 0.995, (corrected, uncorrected)


def test_criterion_8_ventilation_response_time():
    with criterion(8, "fan-on at injection, fan-off 5.2 s later per excess/rate"):
        cfg = replace(
            default_scenario(),
            traffic=TrafficProfile(hourly_rates=(0.0,) * 24, dwell_mean_s=600.0),
            facility=FacilityConfig(total_slots=8, gas_threshold_ppm=10.0,
                                    gas_hysteresis_ppm=2.0),
            mq2=Mq2Model(noise_sd_ppm=0.0),
            duration_s=30.0,
            gas_sample_period_s=0.05,
            env_sample_period_s=0.0,
            gas_decay_ppm_per_s=2.0,
            injections=(GasInjection(t=10.0, gas="butane", ppm=20.0),),
            dashboard=DashboardConfig(enabled=False),
            seed=5,
        )
        report = sim.run_scenario(cfg)
        reading = next(r["ppm"] for r in report.records
                       if r["kind"] == "gas_sample" and r["t"] >= 10.0)
        assert reading == pytest.approx(18.4, abs=1e-9)
        fan_events = [(r["t"], r["state"]) for r in report.records if r["kind"] == "fan"]
        t_on = next(t for t, state in fan_events if state == "on")
        t_off = next(t for t, state in fan_events if state == "off")
        assert t_on == pytest.approx(10.0, abs=0.06)
        assert t_off - t_on == pytest.approx(5.2, abs=0.1)


def test_criterion_9_determinism(default_day_runs):
    with criterion(9, "same seed reproduces events.jsonl and metrics.csv byte-for-byte"):
        first, second = default_day_runs
        assert first.events_jsonl() == second.events_jsonl()
        assert first.metrics_csv == second.metrics_csv
        assert len(first.records) > 1000


def test_criterion_10_env_bounds_and_bump(default_day_runs):
    with criterion(10, "all (T,H) samples inside [24,35]x[63,85]; entry bump exact"):
        run, _ = default_day_runs
        samples = [(r["temp_c"], r["humidity_pct"])
                   for r in run.records if r["kind"] == "env_sample"]
        assert len(samples) > 1000
        for temp, hum in samples:
            assert 24.0 <= temp <= 35.0
            assert 63.0 <= hum <= 85.0
        model = EnvModel(noise_sd=(0.0, 0.0))
        rng = np.random.Generator(np.random.PCG64(0))
        base = sample_env(model, 50.0, [], rng)
        bumped = sample_env(model, 50.0, [model.entry_bump_at(50.0)], rng)
        assert bumped[0] == base[0] + 0.4
        assert bumped[1] == base[1] + 0.2
