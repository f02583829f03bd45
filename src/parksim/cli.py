"""Operator entry point: broker, simulate, watch, analyze, report.

Exit codes: 0 success, 1 usage, 2 configuration, 3 network, 4 protocol.
PARKSIM_LOG (error|warn|info|debug) sets log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import codec, net, sim, stochastic
from .domain import ConfigError
from .scenario import load_scenario
from .watch import WatchView

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_PROTOCOL = 4

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


@dataclass(frozen=True)
class BrokerCmd:
    bind: str


@dataclass(frozen=True)
class SimulateCmd:
    scenario_path: str
    seed_override: int | None
    out_dir: str
    broker_addr: str | None


@dataclass(frozen=True)
class WatchCmd:
    broker_addr: str
    topic_filter: str
    retries: int
    color: str  # auto|always|never


@dataclass(frozen=True)
class AnalyzeCmd:
    lam: float
    n: int
    t_avg_hours: float | None
    delta_g_ppm: float
    rate_ppm_per_s: float
    lambda_unit: str  # per-hour|per-dwell


@dataclass(frozen=True)
class ReportCmd:
    in_path: str
    out_path: str


Command = BrokerCmd | SimulateCmd | WatchCmd | AnalyzeCmd | ReportCmd


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for config errors
    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="parksim", description="smart parking controller, broker, and simulator")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    broker = sub.add_parser("broker", help="run the MQTT broker on TCP")
    broker.add_argument("--bind", default="0.0.0.0:1883", metavar="HOST:PORT")

    simulate = sub.add_parser("simulate", help="run a scenario through the simulator")
    simulate.add_argument("--scenario", required=True, metavar="FILE")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument("--out", default="out", metavar="DIR",
                          help="directory for events.jsonl, metrics.csv, report.txt")
    simulate.add_argument("--broker", default=None, metavar="HOST:PORT",
                          help="mirror publishes to a live broker instead of staying in-process")

    watch = sub.add_parser("watch", help="live slot board fed from a broker")
    watch.add_argument("--broker", default="127.0.0.1:1883", metavar="HOST:PORT")
    watch.add_argument("--filter", default="parking/#", dest="topic_filter")
    watch.add_argument("--retries", type=int, default=3, help="connection attempts before giving up")
    watch.add_argument("--color", choices=("auto", "always", "never"), default="auto")

    analyze = sub.add_parser("analyze", help="queueing and ventilation figures as CSV")
    analyze.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="arrival rate (see --lambda-unit)")
    analyze.add_argument("--slots", dest="n", type=int, required=True)
    analyze.add_argument("--lambda-unit", choices=("per-hour", "per-dwell"), required=True,
                         help="per-hour needs --t-avg; per-dwell uses lambda as the Poisson mean")
    analyze.add_argument("--t-avg", dest="t_avg", type=float, default=None,
                         help="mean dwell time in hours")
    analyze.add_argument("--delta-g", dest="delta_g", type=float, default=0.0,
                         help="gas excess over threshold, ppm")
    analyze.add_argument("--rate", dest="rate", type=float, default=1.0,
                         help="ventilation reduction rate, ppm/s")

    report = sub.add_parser("report", help="regenerate a text report from an event log")
    report.add_argument("--in", dest="in_path", required=True, metavar="EVENTS_JSONL")
    report.add_argument("--out", dest="out_path", required=True, metavar="REPORT_TXT")
    return parser


def parse_args(argv: list[str]) -> Command:
    """Map argv to exactly one command; raises UsageError otherwise."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required (broker/simulate/watch/analyze/report)")
    if args.command == "broker":
        return BrokerCmd(bind=args.bind)
    if args.command == "simulate":
        return SimulateCmd(scenario_path=args.scenario, seed_override=args.seed,
                           out_dir=args.out, broker_addr=args.broker)
    if args.command == "watch":
        if args.retries < 1:
            raise UsageError("--retries must be >= 1")
        return WatchCmd(broker_addr=args.broker, topic_filter=args.topic_filter,
                        retries=args.retries, color=args.color)
    if args.command == "analyze":
        if args.lambda_unit == "per-hour" and args.t_avg is None:
            raise UsageError("--lambda-unit per-hour requires --t-avg (hours)")
        return AnalyzeCmd(lam=args.lam, n=args.n, t_avg_hours=args.t_avg,
                          delta_g_ppm=args.delta_g, rate_ppm_per_s=args.rate,
                          lambda_unit=args.lambda_unit)
    if args.command == "report":
        return ReportCmd(in_path=args.in_path, out_path=args.out_path)
    raise UsageError(f"unknown command {args.command!r}")


def _split_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise UsageError(f"address must look like HOST:PORT, got {addr!r}")
    return host or "0.0.0.0", int(port)


def _run_broker(cmd: BrokerCmd) -> int:
    host, port = _split_addr(cmd.bind)
    try:
        server = net.BrokerServer(host=host, port=port)
    except OSError as exc:
        print(f"parksim: cannot bind {cmd.bind}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    try:
        print(f"broker listening on {server.address[0]}:{server.address[1]}", file=sys.stderr)
        server.serve_forever()
    except KeyboardInterrupt:
        # Ctrl-C landed before serve_forever could absorb it
        server.stop()
    return EXIT_OK


def _run_simulate(cmd: SimulateCmd) -> int:
    cfg = load_scenario(cmd.scenario_path)
    if cmd.seed_override is not None:
        cfg = replace(cfg, seed=cmd.seed_override)
    live = None
    if cmd.broker_addr is not None:
        host, port = _split_addr(cmd.broker_addr)
        try:
            live = net.MqttConnection(host, port, client_id="parksim-sim-mirror")
        except net.ConnectionError_ as exc:
            print(f"parksim: {exc}", file=sys.stderr)
            return EXIT_NETWORK
    hook = None
    if live is not None:
        def hook(topic: str, payload: bytes, retain: bool) -> None:
            live.publish(topic, payload, qos=0, retain=retain)
    try:
        report = sim.run_scenario(cfg, publish_hook=hook)
    finally:
        if live is not None:
            live.close()
    paths = report.write(cmd.out_dir)
    state = report.final_state
    print(f"wrote {paths['events']}, {paths['metrics']}, {paths['report']}")
    print(
        f"arrivals {report.counters['arrivals']} "
        f"(admitted {report.counters['admitted']}, rejected {report.counters['rejected']}), "
        f"departures {report.counters['departures']}, "
        f"final vacancy {state.total_vacant}/{state.total_slots}"
    )
    return EXIT_OK


def _run_watch(cmd: WatchCmd) -> int:
    host, port = _split_addr(cmd.broker_addr)
    try:
        codec.validate_filter(cmd.topic_filter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    conn = None
    for attempt in range(cmd.retries):
        try:
            conn = net.MqttConnection(host, port, client_id=f"parksim-watch-{os.getpid()}")
            break
        except net.ConnectionError_ as exc:
            if attempt + 1 == cmd.retries:
                print(f"parksim: {exc}", file=sys.stderr)
                return EXIT_NETWORK
            time.sleep(1.0)
    use_color = {"always": True, "never": False}.get(
        cmd.color, sys.stdout.isatty() and os.environ.get("TERM", "") != "dumb"
    )
    prefix = cmd.topic_filter.split("/")[0]
    if prefix in ("#", "+", ""):
        prefix = "parking"
    view = WatchView(topic_prefix=prefix)
    conn.subscribe(cmd.topic_filter, qos=1)
    is_tty = sys.stdout.isatty()
    try:
        while conn.poll(0.5):
            if not conn.messages:
                continue
            for topic, payload, _retain in conn.messages:
                view.feed(topic, payload)
            conn.messages.clear()
            lines = view.render_lines(color=use_color)
            if is_tty:
                sys.stdout.write("\x1b[H\x1b[2J" if use_color else "\n")
            sys.stdout.write("\n".join(lines) + "\n")
            sys.stdout.flush()
        print(f"parksim: connection to {cmd.broker_addr} lost", file=sys.stderr)
        return EXIT_NETWORK
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        conn.close()


def _run_analyze(cmd: AnalyzeCmd) -> int:
    try:
        queue_report = stochastic.analyze(
            lam=cmd.lam,
            n=cmd.n,
            t_avg_hours=cmd.t_avg_hours,
            delta_g_ppm=cmd.delta_g_ppm,
            reduction_rate_ppm_per_s=cmd.rate_ppm_per_s,
            lam_is_per_hour=cmd.lambda_unit == "per-hour",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("lambda,n,p_full,L,t_response")
    print(
        f"{format(cmd.lam, '.10g')},{cmd.n},"
        f"{format(queue_report.p_full, '.10g')},"
        f"{format(queue_report.expected_occupancy, '.10g')},"
        f"{format(queue_report.vent_response_s, '.10g')}"
    )
    return EXIT_OK


def _run_report(cmd: ReportCmd) -> int:
    try:
        text = sim.render_report(sim.read_events_jsonl(cmd.in_path))
    except OSError as exc:
        raise ConfigError(f"cannot read {cmd.in_path}: {exc}") from exc
    except ValueError as exc:  # malformed line, or a record without 't'/'kind'
        raise ConfigError(str(exc)) from exc
    Path(cmd.out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(cmd.out_path).write_text(text, encoding="utf-8")
    print(f"wrote {cmd.out_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("PARKSIM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = parse_args(argv)
    except UsageError as exc:
        print(f"parksim: {exc}", file=sys.stderr)
        print("try: parksim --help", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)

    try:
        if isinstance(command, BrokerCmd):
            return _run_broker(command)
        if isinstance(command, SimulateCmd):
            return _run_simulate(command)
        if isinstance(command, WatchCmd):
            return _run_watch(command)
        if isinstance(command, AnalyzeCmd):
            return _run_analyze(command)
        return _run_report(command)
    except ConfigError as exc:
        print(f"parksim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except net.ConnectionError_ as exc:
        print(f"parksim: network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except codec.ProtocolError as exc:
        print(f"parksim: protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:
        print(f"parksim: network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
