"""Golden outputs: pinned sha256 digests of events.jsonl, metrics.csv and
report.txt.

A pure refactor keeps these digests. A deliberate behaviour change updates
them in the same change and says why in CHANGES.md.
"""

import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from parksim import eventlog, sim
from parksim.scenario import load_scenario

DAY_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "day.cfg"


def _stock_day():
    return load_scenario(DAY_CFG)


def _lossy_six_hours():
    # 10% drop on broker-to-subscriber frames drives the qos-1 retry path
    cfg = load_scenario(DAY_CFG)
    return replace(cfg, duration_s=6 * 3600.0, network=replace(cfg.network, drop_prob=0.1))


def _lot_six_hours():
    # a lot-shaped run: 256 slots under 32 times the stock arrival rates,
    # with the lossy case's 10% drop
    cfg = _lossy_six_hours()
    return replace(cfg, facility=replace(cfg.facility, total_slots=256),
                   traffic=replace(cfg.traffic,
                                   hourly_rates=tuple(r * 32 for r in cfg.traffic.hourly_rates)))


@pytest.mark.parametrize(
    "make_cfg,events_sha256,metrics_sha256,report_sha256",
    [
        (
            _stock_day,
            "48784504f3fa706e9fdd3a1e5ca217711c07a975cae9c6e4e5b03c4429415689",
            "f21ed2e3273c5c1917170a1da0a3e2e867e778d3ef8bfa8c1454820bc19e7059",
            "f6d132dc71581fef2e94119175bb8eb804f65bd08ced7a079a3eb02e688adc09",
        ),
        (
            _lossy_six_hours,
            "7d122a43060e874a97b23f9513ddb0d7e7adf6129aeb5de428420404fbb779d2",
            "ad7c56645f57264f705930632abf4f9ed37733456ed92d005c5375ac1fb2bcc2",
            "598aaa486ede566cc9f7e52c282a51d605bb8520951604c8883843db72c8d76b",
        ),
        (
            _lot_six_hours,
            "012bb0bc0cf266c268d3e0f9cdf73390e18655b836bdf8b95071e63874258ca5",
            "df0efd6eb95c98564d42b01f3a94d354033f5f5a93bfe499bf01b90797462fad",
            "aa02b2ae26fc0c6ac1017eb9eb75fefab7144159e13548fb3b662153b13a9ef4",
        ),
    ],
    ids=["day-seed42", "lossy-6h-drop0.1", "lot256-6h-drop0.1"],
)
def test_output_digests_pinned(make_cfg, events_sha256, metrics_sha256, report_sha256, tmp_path):
    cfg = make_cfg()
    assert cfg.seed == 42
    paths = sim.run_scenario(cfg).write(tmp_path)
    assert hashlib.sha256(paths["events"].read_bytes()).hexdigest() == events_sha256
    assert hashlib.sha256(paths["metrics"].read_bytes()).hexdigest() == metrics_sha256
    assert hashlib.sha256(paths["report"].read_bytes()).hexdigest() == report_sha256
    # `simulate` renders from the run's own aggregation, `parksim report`
    # from the log alone; both must give the same text
    records = sim.read_events_jsonl(paths["events"])
    assert sim.render_report(records) == paths["report"].read_text(encoding="utf-8")


def test_lossy_scenario_exercises_retries(tmp_path):
    paths = sim.run_scenario(_lossy_six_hours()).write(tmp_path)
    kinds = [record["kind"] for record in sim.read_events_jsonl(paths["events"])]
    assert kinds.count("drop") > 0
    assert kinds.count("error_corrected") > 0


def test_write_streams_the_log(tmp_path):
    # the log goes to the file a block at a time: the stock day's 4.4 MB of
    # events.jsonl never exists in memory as one string or bytes object
    report = sim.run_scenario(_stock_day())
    tracemalloc.start()
    try:
        report.write(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "events.jsonl").stat().st_size > 4 * 2**20
    assert peak < 2**20, f"traced peak {peak} B in SimReport.write"


def test_report_streams_the_log(tmp_path):
    # `parksim report` reads the log once, one record at a time: the stock
    # day's 42 blocks of records (25 MiB as one list) never exist in memory
    # together, only about one block of them
    paths = sim.run_scenario(_stock_day()).write(tmp_path)
    with open(paths["events"], "rb") as log:
        tracemalloc.start()
        try:
            text = eventlog.render_report(eventlog.iter_events_jsonl(log, paths["events"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    records = eventlog.read_events_jsonl(paths["events"])
    assert len(records) > 20 * eventlog.BLOCK_RECORDS
    assert text == eventlog.render_report(records) == paths["report"].read_text(encoding="utf-8")
    assert peak < 2 * 2**20, f"traced peak {peak} B in render_report over the file"


def test_run_keeps_neither_the_records_nor_the_log():
    # records go to the run's sinks a block at a time and are dropped, and
    # their encoded lines go to the spool file: what the run leaves
    # allocated does not grow with its log (the stock day's 11.6 MiB of
    # record dicts and 4.4 MiB of JSON lines are never kept in memory)
    simulation = sim.Simulation(_stock_day())
    tracemalloc.start()
    try:
        report = simulation.run()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    log_size = len(report.events_jsonl())
    assert log_size > 4 * 2**20
    assert current <= 2**20, f"{current} B kept by run() for a {log_size} B log"


def test_written_log_equals_events_jsonl(tmp_path):
    report = sim.run_scenario(_lossy_six_hours())
    paths = report.write(tmp_path)
    assert paths["events"].read_bytes() == report.events_jsonl().encode("utf-8")
