"""parksim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {day,lot2048-lossy,fanout,tcp} \
        --seed N --seconds S --trace {0,1}

Run from the root of a parksim checkout; nothing needs building.  Every
repetition runs in a fresh process (peak RSS and set-up time are per
process), and figures are medians over repetitions or samples.  Human
readable lines go first; the last stdout line is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of one extra traced repetition with
--trace 1.  Scratch files live in .perfbench_run/ and are removed on exit.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
from statistics import median
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fanout  # noqa: E402
import probe  # noqa: E402
import tcpload  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("day", "lot2048-lossy", "fanout", "tcp")
DAY_SCENARIO = os.path.join("scenarios", "day.cfg")
DAY_DIGESTS = {
    "events": "48784504f3fa706e9fdd3a1e5ca217711c07a975cae9c6e4e5b03c4429415689",
    "metrics": "f21ed2e3273c5c1917170a1da0a3e2e867e778d3ef8bfa8c1454820bc19e7059",
}
MIN_REPS = 3            # simulate repetitions per run, even past --seconds
SETUP_SAMPLES = 9       # set-ups per sim run (extra set-up-only processes)
WORKERS = 3             # fresh fanout processes per run
TCP_SESSIONS = 8        # loaded broker processes per tcp run, each followed by a set-up-only one
REP_TIMEOUT_S = 150.0
RUN_CEILING_S = 120.0   # start no new repetition after this
TCP_WINDOW = 256
TCP_BATCH = 2000
TCP_RATE = 2000.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("msg_us", "us"),
    ("peak_rss_mib", "MiB"),
)

LAYER_SPANS = {
    "sim": ("sim.run", "sim.write", "sim.events_jsonl", "sim.render_report"),
    "controller": ("controller.handle",),
    "broker": ("broker.handle", "broker.redeliver"),
    "codec": ("codec.encode", "codec.decode"),
    "client": ("client.handle_packet", "client.publish_packet"),
    "sensors": ("sensors.sample_env", "sensors.sample_mq2"),
    "stochastic": ("stochastic.next_arrival",),
    "telemetry": ("telemetry.add_records", "telemetry.rows", "telemetry.summary"),
    "scenario": ("scenario.load",),
}

PER_LAYER = (
    ("sim.heap_events", "count"),
    ("sim.records", "count"),
    ("sim.loop_self_s", "s"),
    ("sim.write_s", "s"),
    ("sim.events_jsonl_s", "s"),
    ("sim.render_report_s", "s"),
    ("controller.handle_calls", "count"),
    ("controller.handle_s", "s"),
    ("controller.us_per_call", "us"),
    ("broker.handle_calls", "count"),
    ("broker.handle_s", "s"),
    ("broker.topic_match_calls", "count"),
    ("broker.match_useful_ratio", "ratio"),
    ("broker.redeliver_calls", "count"),
    ("broker.redeliver_s", "s"),
    ("broker.redelivered_frames", "count"),
    ("broker.inflight_scanned", "count"),
    ("codec.encode_calls", "count"),
    ("codec.encode_s", "s"),
    ("codec.encode_bytes", "B"),
    ("codec.decode_calls", "count"),
    ("codec.decode_s", "s"),
    ("codec.decode_bytes_copied", "B"),
    ("client.handle_packet_s", "s"),
    ("client.publish_packet_s", "s"),
    ("sensors.sample_env_s", "s"),
    ("sensors.bumps_per_env_sample", "count"),
    ("sensors.sample_mq2_s", "s"),
    ("stochastic.next_arrival_s", "s"),
    ("telemetry.aggregations", "count"),
    ("telemetry.samples", "count"),
    ("telemetry.aggregate_s", "s"),
    ("scenario.load_s", "s"),
    ("net.broker_cpu_us_per_msg", "us"),
    ("net.broker_sys_share", "ratio"),
    ("net.broker_threads", "count"),
    ("net.deliver_p50_ms", "ms"),
    ("net.deliver_p99_ms", "ms"),
    ("net.generator_late_max_ms", "ms"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYER_SPANS) + (
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


class Run:
    """What one invocation measured, checked and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.notes: list[str] = []          # extra figures for the human-readable lines
        self.spans: list[str] = []          # spans files of the traced repetition
        self.layer: dict[str, float] = {}   # per-layer figures not taken from spans
        self.traced_run_s: float | None = None

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.attempted += 1
        self.failed += 1


# -- helpers ---------------------------------------------------------------------

def p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def spawn_worker(script: str, args: list[str]) -> tuple[dict | None, float, str]:
    """Run a worker in a fresh process; returns (result, set-up seconds,
    error).  Set-up runs from the spawn to the worker's ready_t (see
    probe.setup_time); both processes read time.perf_counter(),
    CLOCK_MONOTONIC on Linux."""
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    reference_s = probe.startup_reference()
    spawn_t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"{script} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0.0, f"{script} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    result = json.loads(lines[-1])
    setup_s = probe.setup_time(result.pop("probe"), spawn_t, result["probe_start"], result["ready_t"],
                               reference_s)
    return result, setup_s, ""


def lot_scenario(seed: int, workdir: str) -> str:
    """The stock day scaled to 2048 slots, rates x256, 6 h, 10% drop."""
    with open(DAY_SCENARIO, encoding="utf-8") as handle:
        text = handle.read()

    def scaled_rates(match):
        rates = [float(r) * 256 for r in match.group(1).split(",")]
        return "traffic.hourly_rates = " + ",".join(f"{r:g}" for r in rates)

    edits = (
        (r"^facility\.total_slots = .*$", "facility.total_slots = 2048"),
        (r"^traffic\.hourly_rates = (.*)$", scaled_rates),
        (r"^duration_s = .*$", "duration_s = 21600"),
        (r"^network\.drop_prob = .*$", "network.drop_prob = 0.1"),
        (r"^seed = .*$", f"seed = {seed}"),
    )
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text, flags=re.MULTILINE)
        if count != 1:
            raise SystemExit(f"perfbench: {DAY_SCENARIO} has no single line matching {pattern!r}")
    path = os.path.join(workdir, "lot2048-lossy.cfg")
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    return path


# -- workloads ---------------------------------------------------------------------

def run_sim(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    run = Run()
    scenario = DAY_SCENARIO if workload == "day" else lot_scenario(seed, workdir)
    reps, setups = [], []
    start = time.monotonic()
    attempts = 0
    # start another repetition only while it is expected to end within --seconds
    while attempts < MIN_REPS or (time.monotonic() - start) * (attempts + 1) / attempts < min(
            seconds, RUN_CEILING_S):
        out_dir = os.path.join(workdir, f"out-{attempts}")
        attempts += 1
        result, setup_s, error = spawn_worker("simrep.py", [scenario, out_dir])
        shutil.rmtree(out_dir, ignore_errors=True)
        if result is None:
            run.fail(error)
            continue
        reps.append(result)
        setups.append(setup_s)
    while len(setups) < SETUP_SAMPLES and reps:
        result, setup_s, error = spawn_worker("simrep.py", [scenario, workdir, "--setup-only"])
        if result is None:
            run.fail(error)
            break
        setups.append(setup_s)
    traced = None
    if trace:
        spans = os.path.join(workdir, "spans.tsv")
        out_dir = os.path.join(workdir, "out-traced")
        traced, _, error = spawn_worker("simrep.py", [scenario, out_dir, "--trace", spans])
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced is None:
            run.fail(error)
        else:
            run.spans.append(spans)
            run.traced_run_s = traced["run_s"]
            run.layer["sim.heap_events"] = traced["heap_events"]
            run.layer["sim.records"] = traced["records"]

    reference = DAY_DIGESTS if workload == "day" else (reps[0]["digests"] if reps else None)
    for result in reps + ([traced] if traced else []):
        run.attempted += 1
        problems = list(result["problems"])
        if result["digests"] != reference:
            problems.append(f"output digests {result['digests']} differ from {reference}")
        if problems:
            run.failed += 1
            run.problems += problems
    if reps:
        run.end_to_end = {
            "setup_s": median(setups),
            "run_s": median(r["run_s"] for r in reps),
            "msgs_per_s": median(r["messages"] / r["run_s"] for r in reps),
            "msg_us": median(r["run_s"] / r["messages"] * 1e6 for r in reps),
            "peak_rss_mib": median(r["rss_mib"] for r in reps),
        }
        run.notes.append(f"repetitions {len(reps)} (set-ups {len(setups)}); records {reps[0]['records']}; "
                         f"heap events {reps[0]['heap_events']}; "
                         f"MQTT messages {reps[0]['messages']}")
        run.notes.append(f"unscaled run_s median {median(r['raw_run_s'] for r in reps):.4f} s; "
                         f"probe speed median {median(r['speed'] for r in reps):.3f}")
    return run


def run_fanout(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    run = Run()
    workers, setups = [], []
    for k in range(WORKERS):
        result, setup_s, error = spawn_worker("fanout.py", [str(seed * WORKERS + k), str(seconds / WORKERS)])
        if result is None:
            run.fail(error)
            continue
        workers.append(result)
        setups.append(setup_s)
    if trace:
        spans = os.path.join(workdir, "spans.tsv")
        traced, _, error = spawn_worker("fanout.py", [str(seed * WORKERS), str(seconds / WORKERS),
                                                      "--trace", spans])
        if traced is None:
            run.fail(error)
        else:
            run.spans.append(spans)
            run.traced_run_s = median(traced["job_s"])
            _count_ops(run, [traced])
    _count_ops(run, workers)
    if workers:
        publish_us = [v for w in workers for v in w["publish_us"]]
        subscribe_ms = [v for w in workers for v in w["subscribe_ms"]]
        n = fanout.JOB_PUBLISHES
        per_job = [
            n / (sum(w["publish_us"][j * n:(j + 1) * n]) * 1e-6)
            for w in workers for j in range(len(w["job_s"]))
        ]
        run.end_to_end = {
            "setup_s": median(setups),
            "run_s": median(j for w in workers for j in w["job_s"]),
            "msgs_per_s": median(per_job),
            "msg_us": median(1e6 / rate for rate in per_job),
            "peak_rss_mib": median(w["rss_mib"] for w in workers),
        }
        run.notes.append(f"publish_p50_us {median(publish_us):.1f} us, publish_p99_us "
                         f"{p99(publish_us):.1f} us over {len(publish_us)} publishes")
        run.notes.append(f"subscribe_p50_ms {median(subscribe_ms):.3f} ms over "
                         f"{len(subscribe_ms)} reconnect+subscribe+replay")
        run.notes.append(f"unscaled job median {median(j for w in workers for j in w['raw_job_s']):.4f} s")
    return run


def _count_ops(run: Run, workers: list[dict]) -> None:
    for w in workers:
        run.attempted += w["attempted"]
        run.failed += w["failed"]
        run.problems += w["problems"]


def run_tcp(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    run = Run()
    sessions = []
    kwargs = {"window": TCP_WINDOW, "batch": TCP_BATCH, "rate": TCP_RATE}
    setups = []
    for k in range(TCP_SESSIONS):
        result = tcpload.run_broker_session(workdir, str(k), seed * TCP_SESSIONS + k,
                                            seconds / TCP_SESSIONS, False, **kwargs)
        _count_ops(run, [result])
        if result["failed"]:
            continue
        sessions.append(result)
        setups.append(result["setup_s"])
        # a set-up-only session between the loaded ones, so that the set-up
        # median spans the whole run rather than its last seconds
        result = tcpload.run_broker_session(workdir, f"setup-{k}", seed, 0.0, False, **kwargs)
        _count_ops(run, [result])
        if not result["failed"]:
            setups.append(result["setup_s"])
    if trace:
        traced = tcpload.run_broker_session(workdir, "traced", seed * TCP_SESSIONS,
                                            seconds / TCP_SESSIONS, True, **kwargs)
        _count_ops(run, [traced])
        if not traced["failed"]:
            run.spans.append(traced["spans"])
            run.traced_run_s = median(traced["batch_s"])
    if sessions:
        latency = [v for s in sessions for v in s["latency_ms"]]
        raw_latency = [v for s in sessions for v in s["raw_latency_ms"]]
        late = [v for s in sessions for v in s["late_ms"]]
        delivered = sum(s["closed_delivered"] for s in sessions)
        run.end_to_end = {
            "setup_s": median(setups),
            "run_s": median(b for s in sessions for b in s["batch_s"]),
            "msgs_per_s": median(TCP_BATCH / b for s in sessions for b in s["batch_s"]),
            "msg_us": median(b / TCP_BATCH * 1e6 for s in sessions for b in s["batch_s"]),
            "peak_rss_mib": median(s["broker"]["rss_mib"] for s in sessions),
        }
        cpu = [s["broker"]["user_s"] + s["broker"]["sys_s"] for s in sessions]
        run.layer.update({
            "net.broker_cpu_us_per_msg": sum(cpu) / sum(s["attempted"] for s in sessions) * 1e6,
            "net.broker_sys_share": sum(s["broker"]["sys_s"] for s in sessions) / sum(cpu),
            "net.broker_threads": max(s["broker"]["peak_threads"] for s in sessions),
            "net.deliver_p50_ms": median(latency),
            "net.deliver_p99_ms": p99(latency),
            "net.generator_late_max_ms": max(late),
        })
        run.notes.append(f"closed loop ({TCP_WINDOW} in flight): {delivered} deliveries, unscaled "
                         f"batch median {median(b for s in sessions for b in s['raw_batch_s']):.4f} s")
        run.notes.append(f"open loop at {TCP_RATE:g} msg/s over {len(latency)} messages: deliver_p50_ms "
                         f"{median(latency):.4f} (unscaled {median(raw_latency):.4f}), deliver_p99_ms "
                         f"{p99(latency):.3f}; generator late max {max(late):.3f} ms; "
                         f"duplicates {sum(s['duplicates'] for s in sessions)}")
    return run


# -- per-layer figures ----------------------------------------------------------------

def layer_metrics(run: Run) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metric values, and the per-span-name summary they came from."""
    per_name, counters = tracer.summarize(run.spans)
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return per_name.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    handle = span("controller.handle")
    env = span("sensors.sample_env")
    values = {
        "sim.loop_self_s": span("sim.run")["self_s"],
        "sim.write_s": span("sim.write")["total_s"],
        "sim.events_jsonl_s": span("sim.events_jsonl")["total_s"],
        "sim.render_report_s": span("sim.render_report")["total_s"],
        "controller.handle_calls": handle["count"],
        "controller.handle_s": handle["total_s"],
        "controller.us_per_call": ratio(handle["total_s"] * 1e6, handle["count"]),
        "broker.handle_calls": span("broker.handle")["count"],
        "broker.handle_s": span("broker.handle")["total_s"],
        "broker.topic_match_calls": counters.get("broker.topic_match_calls", 0),
        "broker.match_useful_ratio": ratio(counters.get("broker.topic_matches", 0),
                                           counters.get("broker.topic_match_calls", 0)),
        "broker.redeliver_calls": span("broker.redeliver")["count"],
        "broker.redeliver_s": span("broker.redeliver")["total_s"],
        "broker.redelivered_frames": counters.get("broker.redelivered_frames", 0),
        "broker.inflight_scanned": counters.get("broker.inflight_scanned", 0),
        "codec.encode_calls": span("codec.encode")["count"],
        "codec.encode_s": span("codec.encode")["total_s"],
        "codec.encode_bytes": counters.get("codec.encode_bytes", 0),
        "codec.decode_calls": span("codec.decode")["count"],
        "codec.decode_s": span("codec.decode")["total_s"],
        "codec.decode_bytes_copied": counters.get("codec.decode_bytes_copied", 0),
        "client.handle_packet_s": span("client.handle_packet")["total_s"],
        "client.publish_packet_s": span("client.publish_packet")["total_s"],
        "sensors.sample_env_s": env["total_s"],
        "sensors.bumps_per_env_sample": ratio(counters.get("sensors.bumps", 0), env["count"]),
        "sensors.sample_mq2_s": span("sensors.sample_mq2")["total_s"],
        "stochastic.next_arrival_s": span("stochastic.next_arrival")["total_s"],
        "telemetry.aggregations": counters.get("telemetry.aggregations", 0),
        "telemetry.samples": counters.get("telemetry.samples", 0),
        "telemetry.aggregate_s": sum(span(n)["total_s"] for n in LAYER_SPANS["telemetry"]),
        "scenario.load_s": span("scenario.load")["total_s"],
    }
    for layer, names in LAYER_SPANS.items():
        values[f"{layer}.self_s"] = sum(span(n)["self_s"] for n in names)
    values.update(run.layer)
    untraced = run.end_to_end.get("run_s")
    values["trace.run_s"] = run.traced_run_s or 0.0
    values["trace.overhead_s"] = (run.traced_run_s - untraced) if run.traced_run_s and untraced else 0.0
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}, per_name


# -- entry point ---------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "parksim", "__init__.py"))
            and os.path.isfile(os.path.join(root, DAY_SCENARIO))):
        print("perfbench: run from the root of a parksim checkout "
              "(src/parksim and scenarios/day.cfg not found)", file=sys.stderr)
        return 2
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]} numpy={numpy_version} "
          f"nproc={os.cpu_count()}")

    scratch = os.path.join(root, ".perfbench_run")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        trace = bool(args.trace)
        if args.workload in ("day", "lot2048-lossy"):
            run = run_sim(args.workload, args.seed, args.seconds, trace, workdir)
        elif args.workload == "fanout":
            run = run_fanout(args.seed, args.seconds, trace, workdir)
        else:
            run = run_tcp(args.seed, args.seconds, trace, workdir)
        if trace and run.spans:
            metrics, per_name = layer_metrics(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    for problem in run.problems:
        print(f"  FAILED: {problem}")
    if not run.end_to_end or (trace and not run.spans):
        print("perfbench: no successful repetition, no result", file=sys.stderr)
        return 1
    for note in run.notes:
        print(f"  {note}")
    print(f"  ops_failed_ratio {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    units = dict(END_TO_END + PER_LAYER)
    if trace:
        print(f"  {'span':<26}{'count':>10}{'total_s':>12}{'self_s':>12}")
        for name, entry in sorted(per_name.items()):
            print(f"  {name:<26}{entry['count']:>10}{entry['total_s']:>12.4f}{entry['self_s']:>12.4f}")
    else:
        metrics = run.end_to_end
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
