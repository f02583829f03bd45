"""Reduced-size checks of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q      # from the repository root

They check that every declared metric is printed with its unit, and that a
wrong output is counted as a failed operation rather than passing silently.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fanout  # noqa: E402
import run  # noqa: E402
import simrep  # noqa: E402
import tcpload  # noqa: E402


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    lines, result = _bench("--workload", "tcp", "--seed", "1", "--seconds", "3", "--trace", trace)
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in _declared()["workloads"]) == run.WORKLOADS


def test_wrong_simulation_output_counts_as_failure(tmp_path, monkeypatch):
    # one simulated hour, whose digests cannot equal the pinned stock-day ones
    with open(os.path.join(ROOT, run.DAY_SCENARIO), encoding="utf-8") as handle:
        text = handle.read().replace("duration_s = 86400", "duration_s = 3600")
    short = tmp_path / "short.cfg"
    short.write_text(text, encoding="utf-8")
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "DAY_SCENARIO", str(short))
    outcome = run.run_sim("day", 1, 0.0, False, str(tmp_path))
    assert outcome.attempted == run.MIN_REPS
    assert outcome.failed == outcome.attempted
    assert any("digests" in p for p in outcome.problems)


def test_unresolved_drop_is_reported():
    from parksim.scenario import default_scenario

    cfg = default_scenario()
    records = [
        {"t": 10.0, "kind": "drop", "client_id": "dashboard", "topic": "parking/summary"},
        {"t": 20.0, "kind": "deliver", "client_id": "dashboard", "topic": "parking/fan/state"},
    ]
    assert simrep.drop_problems(records, cfg)
    records.append({"t": 12.0, "kind": "deliver", "client_id": "dashboard", "topic": "parking/summary"})
    assert simrep.drop_problems(records, cfg) == []


def test_missing_fanout_delivery_counts_as_failure():
    from parksim import broker, codec

    rig = fanout.Rig(codec, broker, seed=3)
    rig.setup()
    topic = "parking/slot/7/status"
    delivered = rig.publish(topic, b"1")
    assert rig.check_publish(topic, b"1", delivered)
    assert not rig.check_publish(topic, b"1", delivered[1:])
    assert not rig.check_publish(topic, b"0", delivered)
    assert len(rig.problems) == 2


def test_gap_is_lost_and_repeat_is_duplicate():
    gen = tcpload.Generator.__new__(tcpload.Generator)
    gen.expected = gen.delivered = gen.duplicates = gen.lost = 0
    gen.on_deliver = None
    for seq in (0, 1, 1, 3, 4, 2):
        gen._deliver(seq, 0.0)
    assert (gen.lost, gen.duplicates, gen.delivered, gen.expected) == (1, 2, 4, 5)
