import contextlib
import copy
import gc
import json
import math
import typing
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from parksim import codec, domain, eventlog, sensors, sim
from parksim.domain import ConfigError, FacilityConfig
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
        assert {kind: counts[kind] for kind in (
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
        # the level the fan scales down and the MQ-2 reading come from one
        # function, whatever order the field's gases were injected in
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
        assert sensors.weighted_level(field.model, field.concentrations) == reference
        quiet = Mq2Model(sensitivities=field.model.sensitivities, noise_sd_ppm=0.0)
        assert sensors.sample_mq2(quiet, field.concentrations, None) == reference


class TestDeterminism:
    def test_the_first_six_streams_keep_their_names_and_order(self):
        # RNG_STREAMS is append-only: a name inserted or moved re-seeds the
        # streams after it, and every log a seed wrote changes
        assert sim.RNG_STREAMS[:6] == ("traffic", "dwell", "ir", "env", "mq2", "network")

    # no shrink phase: shrinking a failure re-runs pairs of simulations for
    # minutes, and the first failing example already names all five inputs
    @settings(max_examples=15, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        drop_prob=st.floats(min_value=0.0, max_value=0.9),
        latency_s=st.floats(min_value=0.0, max_value=5.0),
        ack_timeout_s=st.floats(min_value=0.1, max_value=10.0),
        max_retries=st.integers(min_value=0, max_value=5),
    )
    def test_the_network_never_moves_cars_or_sensor_samples(
            self, seed, drop_prob, latency_s, ack_timeout_s, max_retries):
        # the network draws from its own stream, and the controller is fed
        # and obeyed directly: a lossy, slow link changes only the traffic
        # on the wire, never when a car moves or what a sensor reads
        base = replace(default_scenario(), duration_s=2 * 3600.0, seed=seed,
                       mqtt=MqttConfig(publish_qos=1))
        lossy = replace(base, network=NetworkConfig(latency_s=latency_s, drop_prob=drop_prob),
                        mqtt=MqttConfig(publish_qos=1, ack_timeout_s=ack_timeout_s,
                                        max_retries=max_retries))
        loss_free = replace(base, network=NetworkConfig(latency_s=0.0, drop_prob=0.0))

        def physical(cfg):
            return [r for r in sim.run_scenario(cfg).records
                    if r["kind"].startswith("car_") or r["kind"] in ("env_sample", "gas_sample")]

        assert physical(lossy) == physical(loss_free)

    # the block size is fixed per example, not drawn: each example runs the
    # scenario once per size and compares the outputs across sizes
    @settings(max_examples=8, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(seed=st.integers(min_value=0, max_value=2**64),
           drop_prob=st.sampled_from([0.0, 0.2]))
    def test_outputs_do_not_depend_on_the_block_size(self, tmp_path_factory, seed, drop_prob):
        # records reach the tally (and its aggregator) and the spool a block
        # at a time, in a run and in render_report: where the blocks end
        # must not show in metrics.csv or report.txt
        cfg = replace(default_scenario(), duration_s=2 * 3600.0, seed=seed,
                      network=NetworkConfig(latency_s=0.05, drop_prob=drop_prob),
                      mqtt=MqttConfig(publish_qos=1))
        out = tmp_path_factory.mktemp("blocks")
        outputs = set()
        for block in (1, 7, 1024):
            with mock.patch.object(sim, "BLOCK_RECORDS", block), \
                    mock.patch.object(eventlog, "BLOCK_RECORDS", block):
                paths = sim.run_scenario(cfg).write(out / str(block))
                with open(paths["events"], "rb") as log:
                    rendered = sim.render_report(sim.iter_events_jsonl(log, paths["events"]))
            report = paths["report"].read_text(encoding="utf-8")
            assert rendered == report, block
            outputs.add((paths["metrics"].read_bytes(), report))
        assert len(outputs) == 1

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
        assert counts["car_arrives"] == counts["car_admitted"] + counts["car_rejected"]

    def test_a_kind_never_logged_counts_zero(self, run):
        # this run rejects no car, so no car_rejected record exists to count
        assert "car_rejected" not in run.tally.counts
        assert run.tally.counts["car_rejected"] == 0

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
        series = occupancy_timeseries(run.records)
        parked_final = len(series) and series[-1][1]
        assert sum(run.final_state.slots) == parked_final
        assert run.final_state.slots.count(0) == len(run.final_state.slots) - parked_final

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
        assert state.slots.count(0) == state.total_vacant


def occupancy_timeseries(event_log):
    """Step function of parked-car count from park/depart records: the
    list reference that ReportTally's one-pass integral is checked against."""
    series = []
    count = 0
    for index, record in enumerate(event_log):
        if not isinstance(record, dict) or "kind" not in record or "t" not in record:
            raise ValueError(f"record {index}: missing 't'/'kind' fields: {record!r}")
        if record["kind"] == "car_parks":
            count += 1
            series.append((float(record["t"]), count))
        elif record["kind"] == "car_departs":
            count -= 1
            series.append((float(record["t"]), count))
    return series


def time_weighted_mean(series, t_end, t_start=0.0):
    """Mean of the occupancy step function over [t_start, t_end]."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    total = 0.0
    level = 0
    prev_t = t_start
    for t, value in series:
        if t < t_start:
            level = value
            continue
        if t > t_end:
            break
        total += level * (t - prev_t)
        prev_t = t
        level = value
    total += level * (t_end - prev_t)
    return total / (t_end - t_start)


class TestOccupancySeries:
    def test_empty_log(self):
        assert occupancy_timeseries([]) == []

    def test_single_park_depart_mean(self):
        log = [
            {"t": 100.0, "kind": "car_parks", "car_id": 1, "slot": 0},
            {"t": 400.0, "kind": "car_departs", "car_id": 1, "slot": 0},
        ]
        series = occupancy_timeseries(log)
        assert series == [(100.0, 1), (400.0, 0)]
        assert time_weighted_mean(series, 1000.0) == pytest.approx(0.3)

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="record 0"):
            occupancy_timeseries([{"bogus": True}])

    def test_jsonl_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"t": 0, "kind": "meta"}\nnot-json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            sim.read_events_jsonl(path)

    def test_jsonl_roundtrip(self, tmp_path):
        # the records as the run makes them, copied before any sink sees
        # them, and the lines of each block the run spools: the report
        # keeps only the spooled log
        made, lines = [], []
        record, append = sim.Simulation._record, sim.LogSpool.append

        def capture(self, kind, **fields):
            made.append(copy.deepcopy({"t": self.now, "kind": kind, **fields}))
            record(self, kind, **fields)

        def count_lines(self, text):
            lines.append(text.count("\n"))
            append(self, text)

        cfg = replace(default_scenario(), duration_s=600.0,
                      network=NetworkConfig(latency_s=0.05, drop_prob=0.2))
        for block in (3, 64, 1024):
            made.clear()
            lines.clear()
            with mock.patch.object(sim.Simulation, "_record", capture), \
                    mock.patch.object(sim.LogSpool, "append", count_lines), \
                    mock.patch.object(sim, "BLOCK_RECORDS", block):
                report = sim.run_scenario(cfg)
            assert {"meta", "publish", "deliver", "drop"} <= {r["kind"] for r in made}
            assert sum(lines) == len(made)
            assert all(n == block for n in lines[:-1]) and 0 < lines[-1] <= block
            paths = report.write(tmp_path / str(block))
            assert sim.read_events_jsonl(paths["events"]) == made
            first = report.records
            assert first == made
            assert report.records is not first
            first.clear()
            assert report.records == made


def _reference_tally(records, duration):
    """Counts per kind and mean occupancy over `duration` as separate passes
    over the list, with occupancy_timeseries + time_weighted_mean."""
    series = occupancy_timeseries(records)
    counts = {}
    for record in records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    return counts, time_weighted_mean(series, duration) if series else 0.0


def _one_pass_tally(records, block):
    """The same from a ReportTally fed `block` records at a time: the
    duration comes from the log's header."""
    tally = eventlog.ReportTally()
    for i in range(0, len(records), block):
        tally.add_records(records[i:i + block])
    return tally.counts, tally.mean_occupancy()


def _outcome(tally, *args):
    try:
        return tally(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


_DURATIONS = st.one_of(st.sampled_from([100.0, 3600.0]),
                       st.floats(min_value=0.1, max_value=1e4))


@st.composite
def _event_logs(draw, duration):
    """A log of `duration` seconds: its meta header, then park, depart,
    publish and stray meta records at times in and around [0, duration],
    sometimes with one record after the header damaged."""
    times = st.one_of(st.sampled_from([0.0, duration, -1.0]),
                      st.integers(min_value=-5, max_value=200),
                      st.floats(min_value=-50.0, max_value=2.0 * abs(duration) + 10.0,
                                allow_nan=False))
    records = [{"t": 0.0, "kind": "meta", "config": {"seed": 7, "duration_s": duration}}]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        record = {"t": draw(times),
                  "kind": draw(st.sampled_from(["car_parks", "car_departs", "car_parks",
                                                "publish", "meta"]))}
        if record["kind"] == "meta":  # only a first record is the log's header
            record["config"] = {"duration_s": 1.0}
        records.append(record)
    damage = draw(st.sampled_from([None, None, None, "t", "kind", "not a dict"]))
    if damage is not None and len(records) > 1:
        i = draw(st.integers(min_value=1, max_value=len(records) - 1))
        if damage == "not a dict":
            records[i] = [records[i]]
        else:
            del records[i][damage]
    return records


@given(st.data(), _DURATIONS, st.sampled_from([1, 3, 1024]))
def test_one_pass_tally_equals_the_list_references(data, duration, block):
    records = data.draw(_event_logs(duration))
    assert _outcome(_one_pass_tally, records, block) == \
        _outcome(_reference_tally, records, duration)


class _CountedIterations(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_a_block_fed_to_the_tally_is_iterated_once():
    records = [{"t": 0.0, "kind": "meta", "config": {"duration_s": 100.0}},
               {"t": 5.0, "kind": "car_parks"},
               {"t": 9.0, "kind": "publish", "bytes": 8},
               {"t": 9.5, "kind": "deliver", "bytes": 8, "delay": 0.5},
               {"t": 50.0, "kind": "car_departs"}]
    tally = eventlog.ReportTally()
    for block in (records[:2], records[2:]):
        block = _CountedIterations(block)
        tally.add_records(block)
        assert block.iterations == 1
    assert tally.counts == Counter(record["kind"] for record in records)
    assert tally.mean_occupancy() == 45.0 / 100.0
    assert tally.aggregator.summary()["bytes_total"] == 16


_BODY = [{"t": 5.0, "kind": "car_parks"}, {"t": 9.0, "kind": "publish", "bytes": 8}]


_NOT_A_HEADER = "record 0: not a meta header"


@pytest.mark.parametrize("log, error", [
    ([], "record 0: missing;"),
    (_BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "kind": "meta", "config": {"seed": 7}}] + _BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "kind": "meta"}] + _BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "kind": "meta", "config": [3600.0]}] + _BODY, _NOT_A_HEADER),
    ([[{"t": 0.0, "kind": "meta", "config": {"duration_s": 3600.0}}]] + _BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "config": {"duration_s": 3600.0}}] + _BODY, _NOT_A_HEADER),
    ([{"kind": "meta", "config": {"duration_s": 3600.0}}] + _BODY,
     "record 0: missing 't'/'kind' fields"),
    ([{"t": 0.0, "kind": "meta", "config": {"duration_s": None}}] + _BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "kind": "meta", "config": {"duration_s": "an hour"}}] + _BODY, _NOT_A_HEADER),
    ([{"t": 0.0, "kind": "meta", "config": {"duration_s": 0.0}}] + _BODY,
     "duration_s must be > 0"),
    ([{"t": 0.0, "kind": "meta", "config": {"duration_s": -5.0}}] + _BODY,
     "duration_s must be > 0"),
], ids=["empty", "no header", "no duration", "no config", "config not a dict",
        "header not a dict", "header without kind", "header without t", "null duration",
        "text duration", "zero duration", "negative duration"])
def test_render_report_refuses_a_log_without_its_duration(log, error):
    # the duration comes from the meta header alone; a log without one, or
    # with one that is not > 0, is refused, not rendered with a guess
    for records in (log, iter(log)):
        with pytest.raises(ValueError, match=f"^{error}"):
            eventlog.render_report(records)


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
    with mock.patch.object(sim, "c_make_encoder", sim.c_make_encoder if c_encoder else None):
        encode_block = sim._block_encoder()
    spool = sim.LogSpool()
    for i in range(0, len(records), block):
        chunk = records[i:i + block]
        text = encode_block(chunk)
        assert text == "".join(json.dumps(r, separators=(", ", ": ")) + "\n" for r in chunk)
        spool.append(text)
    # and SimReport reads the spool back: the log as one string, and the
    # records decoded (compared as JSON: NaN != NaN)
    report = sim.SimReport(spool=spool, final_state=None, tally=None)
    assert report.events_jsonl() == "".join(
        json.dumps(r, separators=(", ", ": ")) + "\n" for r in records)
    assert json.dumps(report.records) == json.dumps(records)


@pytest.mark.parametrize("c_encoder", [True, False])
def test_encoder_still_refuses_circular_records(c_encoder):
    looped = {"t": 1.0, "kind": "loop", "list": []}
    looped["list"].append(looped)
    records = [{"t": 0.0, "kind": "ok"}, looped]
    with mock.patch.object(sim, "c_make_encoder", sim.c_make_encoder if c_encoder else None):
        encode_block = sim._block_encoder()
    with pytest.raises(ValueError, match="[Cc]ircular"):
        encode_block(records)


@given(_json_records(), st.sampled_from([None, "blank", "joined", "split", "array"]), st.data())
def test_decoder_reads_each_line_as_one_record(tmp_path_factory, records, corruption, data):
    """The one decoder, behind read_events_jsonl and SimReport.records,
    gives back the records the encoder wrote, skipping blank lines, and
    names the first line that is not exactly one JSON value."""
    lines = sim._block_encoder()(records).splitlines(keepends=True)
    bad_line = None
    if corruption == "blank":
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["\n", " \t\n"])))
    elif corruption == "joined":  # two records on one line
        assume(len(lines) >= 2)
        i = data.draw(st.integers(0, len(lines) - 2))
        lines[i:i + 2] = [lines[i].rstrip("\n") + ", " + lines[i + 1]]
        bad_line = i + 1
    elif corruption == "split":  # one record over two lines
        assume(lines)
        i = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(1, len(lines[i]) - 2))
        lines[i:i + 1] = [lines[i][:cut] + "\n", lines[i][cut:]]
        bad_line = i + 1
    elif corruption == "array":  # one JSON array over two lines
        i = data.draw(st.integers(0, len(lines)))
        lines[i:i] = ["[1\n", "2]\n"]
        bad_line = i + 1
    text = "".join(lines)
    path = tmp_path_factory.getbasetemp() / "decoded.jsonl"
    path.write_bytes(text.encode("utf-8"))
    spool = sim.LogSpool()
    spool.append(text)
    report = sim.SimReport(spool=spool, final_state=None, tally=None)
    for name, read in ((path, lambda: sim.read_events_jsonl(path)),
                       ("<spooled events.jsonl>", lambda: report.records)):
        if bad_line is None:
            assert json.dumps(read()) == json.dumps(records)  # as JSON: NaN != NaN
        else:
            with pytest.raises(ValueError) as raised:
                read()
            assert str(raised.value).startswith(f"{name}:{bad_line}: malformed event record: ")


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
        with mock.patch.object(sim.codec, "encode_packet", wraps=codec.encode_packet) as encoded:
            records = simulation.run().records
        sized = [r for r in records if r["kind"] in ("publish", "deliver", "drop")]
        assert {r["kind"] for r in sized} == {"publish", "deliver", "drop"}
        assert len(sized) > encoded.call_count == len(simulation.frame_sizes)
        for (topic, length, qos), size in simulation.frame_sizes.items():
            packet = codec.Publish(topic, bytes(length), qos, packet_id=1 if qos else None)
            assert size == len(codec.encode_packet(packet))

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

    def test_report_render_reads_a_one_shot_iterator(self, tmp_path):
        # one pass: an iterator renders what a list of the same records does
        report = sim.run_scenario(quiet_scenario(duration_s=600.0))
        paths = report.write(tmp_path)
        records = report.records
        expected = paths["report"].read_text(encoding="utf-8")
        assert sim.render_report(iter(records)) == sim.render_report(records) == expected


@contextlib.contextmanager
def _no_resource_warning():
    """Fails if what the block lets go of, once collected, warns of an
    unclosed resource."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestLogSpool:
    """The run's log lives in a temporary file from its first block on,
    and that file closes with the last holder of the spool."""

    def test_write_twice_gives_the_same_files_and_the_log_stays(self, tmp_path):
        report = sim.run_scenario(replace(default_scenario(), duration_s=3600.0))
        first, second = report.write(tmp_path / "a"), report.write(tmp_path / "b")
        for name in ("events", "metrics", "report"):
            assert first[name].read_bytes() == second[name].read_bytes(), name
        log = first["events"].read_text(encoding="utf-8")
        assert log.count("\n") > sim.BLOCK_RECORDS
        assert report.events_jsonl() == log
        assert report.records == sim.read_events_jsonl(first["events"])

    def test_a_simulation_never_run_opens_nothing(self):
        simulation = sim.Simulation(default_scenario())
        assert simulation.spool.file is None
        with _no_resource_warning():
            del simulation

    def test_a_report_dropped_unwritten_closes_its_file(self):
        report = sim.run_scenario(quiet_scenario(duration_s=600.0))
        spooled = report.spool.file
        assert not spooled.closed
        with _no_resource_warning():
            del report
        assert spooled.closed

    def test_a_run_that_raises_closes_its_file(self):
        deliver = sim.Simulation._on_packet_delivery
        calls = 0

        def fail_midway(self, payload):
            nonlocal calls
            calls += 1
            if calls == 200:
                raise RuntimeError("handler failed")
            deliver(self, payload)

        with mock.patch.object(sim.Simulation, "_on_packet_delivery", fail_midway), \
                mock.patch.object(sim, "BLOCK_RECORDS", 16):
            simulation = sim.Simulation(replace(default_scenario(), duration_s=3600.0))
            with pytest.raises(RuntimeError, match="handler failed"):
                simulation.run()
        spooled = simulation.spool.file
        assert spooled is not None and not spooled.closed
        with _no_resource_warning():
            del simulation
        assert spooled.closed
