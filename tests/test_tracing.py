"""The per-layer tracing still sees every layer.

perfbench's tracer wraps entry points such as BrokerCore.handle on their
classes. A dispatch table that bound one of them before the tracer ran
would call around the wrapper, and that layer's metrics would read zero
without any error. This runs one traced simulate repetition the way the
benchmark does and checks that each span it relies on was recorded.
"""

import importlib.util
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

from parksim import eventlog, sim

ROOT = Path(__file__).resolve().parent.parent
DAY_CFG = ROOT / "scenarios" / "day.cfg"

# sim.events_jsonl and sim.render_report are left out: SimReport.write
# calls neither, so both have read 0 since the streaming write pass.
EXPECTED_SPANS = (
    "sim.run", "sim.write", "controller.handle", "broker.handle", "broker.redeliver",
    "client.handle_packet", "client.publish_packet", "sensors.sample_env",
    "sensors.sample_mq2", "stochastic.next_arrival", "telemetry.add_records",
    "telemetry.rows", "telemetry.summary", "scenario.load",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_simulate_records_every_layer(tmp_path):
    text = DAY_CFG.read_text(encoding="utf-8")
    assert "duration_s = 86400" in text
    scenario = tmp_path / "day-1h.cfg"
    scenario.write_text(text.replace("duration_s = 86400", "duration_s = 3600"), encoding="utf-8")
    spans = tmp_path / "spans.tsv"
    proc = subprocess.run(
        [sys.executable, "perfbench/simrep.py", str(scenario), str(tmp_path / "out"),
         "--trace", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    per_span, _ = _load_tracer().summarize([str(spans)])
    counts = {name: per_span.get(name, {"count": 0})["count"] for name in EXPECTED_SPANS}
    assert all(count > 0 for count in counts.values()), counts

    # a call path that skips the wrapper for most calls still leaves a few
    # spans, so the hot spans must also cover the records they stand behind
    records = sim.read_events_jsonl(tmp_path / "out" / "events.jsonl")
    kinds = Counter(record["kind"] for record in records)
    assert counts["broker.handle"] >= kinds["publish"] > 0
    assert counts["client.publish_packet"] >= kinds["publish"]
    assert counts["client.handle_packet"] >= kinds["deliver"] > 0
    # the log's one loop runs behind Aggregator.add_records, once per block
    assert counts["telemetry.add_records"] == math.ceil(len(records) / eventlog.BLOCK_RECORDS) > 1

    # every controller transition goes through Controller.handle: one event
    # per arrival, park and sample, two per departure (the slot, then the
    # exit detector), and one per gate timeout that fires within the run
    config = records[0]["config"]
    timeouts = sum(1 for record in records
                   if record["kind"] == "gate" and record["state"] == "open"
                   and record["t"] + config["facility.gate_open_s"] <= config["duration_s"])
    assert timeouts > 0
    assert counts["controller.handle"] == (
        kinds["car_arrives"] + kinds["car_parks"] + 2 * kinds["car_departs"]
        + kinds["env_sample"] + kinds["gas_sample"] + timeouts)
