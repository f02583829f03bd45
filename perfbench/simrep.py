"""One simulate repetition in a fresh process: `day` and `lot2048-lossy`.

    python3 perfbench/simrep.py SCENARIO_FILE OUT_DIR [--trace SPANS_FILE | --setup-only]

Run from the root of a checkout.  Loads the scenario, builds the
Simulation, then times Simulation.run + SimReport.write -- the work of
`parksim simulate`.  The last
stdout line is a JSON object the orchestrator reads; the output checks run
after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict

import tracer as tracing
from probe import SpeedProbe


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def drop_problems(records, cfg) -> list[str]:
    """Every dropped frame must later be delivered to the same client on
    the same topic, or end in error_uncorrected; each error record must be
    backed by enough drops.  Drops in the final retry window may still be
    pending when the run stops and are exempt."""
    retry_window = (cfg.mqtt.max_retries + 1) * cfg.mqtt.ack_timeout_s + 4 * cfg.network.latency_s
    cutoff = cfg.duration_s - retry_window
    problems = []
    resolved_after: dict[tuple[str, str], bool] = defaultdict(bool)
    drops = defaultdict(int)
    corrected = defaultdict(int)
    uncorrected = defaultdict(int)
    for record in reversed(records):
        kind = record["kind"]
        if kind not in ("drop", "deliver", "error_corrected", "error_uncorrected"):
            continue
        key = (record["client_id"], record["topic"])
        if kind == "drop":
            drops[key] += 1
            if not resolved_after[key] and record["t"] < cutoff:
                problems.append(f"drop at t={record['t']} to {key} never resolved")
        elif kind == "error_corrected":
            corrected[key] += 1
        else:
            resolved_after[key] = True
            if kind == "error_uncorrected":
                uncorrected[key] += 1
    for key in set(corrected) | set(uncorrected):
        needed = corrected[key] + (cfg.mqtt.max_retries + 1) * uncorrected[key]
        if drops[key] < needed:
            problems.append(f"{key}: {drops[key]} drops cannot explain "
                            f"{corrected[key]} corrected + {uncorrected[key]} uncorrected errors")
    return problems


def main(argv: list[str]) -> int:
    scenario_path, out_dir = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    setup_only = argv[2:] == ["--setup-only"]
    clock = time.perf_counter
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from parksim import scenario, sim

    probe = SpeedProbe()
    tracer = tracing.start(spans_path, probe)

    with probe:
        probe_start = clock()
        cfg = scenario.load_scenario(scenario_path)
        simulation = sim.Simulation(cfg)
        ready_t = clock()
        if setup_only:
            print(json.dumps({"probe_start": probe_start, "ready_t": ready_t, "probe": probe.samples}))
            return 0

        report = simulation.run()
        paths = report.write(out_dir)
        end_t = clock()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = report.records
    kinds = defaultdict(int)
    for record in records:
        kinds[record["kind"]] += 1
    state = report.final_state
    occupied = state.total_slots - state.total_vacant
    problems = drop_problems(records, cfg)
    if kinds["car_admitted"] != kinds["car_departs"] + occupied:
        problems.append(f"cars not conserved: admitted {kinds['car_admitted']}, "
                        f"departed {kinds['car_departs']}, in lot {occupied}")
    if len(simulation.car_slot) != sum(state.slots):
        problems.append("slot sensors disagree with parked cars")
    if kinds["error_corrected"] != simulation.broker.corrected_errors or \
            kinds["error_uncorrected"] != simulation.broker.uncorrected_errors:
        problems.append("error records disagree with the broker's counters")

    result = {
        "probe_start": probe_start,
        "ready_t": ready_t,
        "probe": [sample for sample in probe.samples if sample[0] <= ready_t],
        "run_s": probe.scaled(ready_t, end_t),
        "raw_run_s": end_t - ready_t,
        "speed": probe.speed(ready_t, end_t),
        "rss_mib": rss_mib,
        "messages": kinds["publish"] + kinds["deliver"],
        "records": len(records),
        "heap_events": simulation.seq,
        "digests": {name: _sha256(paths[name]) for name in ("events", "metrics")},
        "problems": problems[:20],
    }
    if tracer is not None:
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
