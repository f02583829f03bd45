"""Operator entry point: broker, simulate, watch, analyze, report.

The argparse parser dispatches (each subcommand sets its runner as `run`) and
checks every input, so a bad flag exits 1 with one line before a runner starts.

Exit codes: 0 success, 1 usage, 2 configuration, 3 network, 4 protocol.
PARKSIM_LOG (error|warn|info|debug) sets log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for config errors
    def error(self, message: str):
        raise UsageError(message)


def _address(text: str) -> tuple[str, int]:
    """HOST:PORT as (host, port); an empty host means every interface."""
    host, sep, port = text.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"address must look like HOST:PORT, got {text!r}")
    return host or "0.0.0.0", int(port)


def _topic_filter(text: str) -> str:
    try:
        codec.validate_filter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def build_parser() -> _Parser:
    parser = _Parser(prog="parksim", description="smart parking controller, broker, and simulator")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    broker = sub.add_parser("broker", help="run the MQTT broker on TCP")
    broker.set_defaults(run=_run_broker)
    broker.add_argument("--bind", type=_address, default="0.0.0.0:1883", metavar="HOST:PORT")

    simulate = sub.add_parser("simulate", help="run a scenario through the simulator")
    simulate.set_defaults(run=_run_simulate)
    simulate.add_argument("--scenario", required=True, metavar="FILE")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument("--out", default="out", metavar="DIR",
                          help="directory for events.jsonl, metrics.csv, report.txt")
    simulate.add_argument("--broker", type=_address, default=None, metavar="HOST:PORT",
                          help="mirror publishes to a live broker instead of staying in-process")

    watch = sub.add_parser("watch", help="live slot board fed from a broker")
    watch.set_defaults(run=_run_watch)
    watch.add_argument("--broker", type=_address, default="127.0.0.1:1883", metavar="HOST:PORT")
    watch.add_argument("--filter", type=_topic_filter, default="parking/#", dest="topic_filter")
    watch.add_argument("--retries", type=int, default=3, help="connection attempts before giving up")
    watch.add_argument("--color", choices=("auto", "always", "never"), default="auto")

    analyze = sub.add_parser("analyze", help="queueing and ventilation figures as CSV")
    analyze.set_defaults(run=_run_analyze)
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
    report.set_defaults(run=_run_report)
    report.add_argument("--in", dest="in_path", required=True, metavar="EVENTS_JSONL")
    report.add_argument("--out", dest="out_path", required=True, metavar="REPORT_TXT")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Checked flags of exactly one command, its runner as `run`; raises UsageError otherwise."""
    args = build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required (broker/simulate/watch/analyze/report)")
    if args.command == "analyze" and args.lambda_unit == "per-hour" and args.t_avg is None:
        raise UsageError("--lambda-unit per-hour requires --t-avg (hours)")
    if args.command == "watch" and args.retries < 1:
        raise UsageError("--retries must be >= 1")
    return args


def _run_broker(args: argparse.Namespace) -> int:
    host, port = args.bind
    try:
        server = net.BrokerServer(host=host, port=port)
    except OSError as exc:
        print(f"parksim: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    try:
        print(f"broker listening on {server.address[0]}:{server.address[1]}", file=sys.stderr)
        server.serve_forever()
    except KeyboardInterrupt:
        # Ctrl-C: the loop, if it had begun, closed its sockets on the way out
        server.stop()
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    live = None
    if args.broker is not None:
        host, port = args.broker
        try:
            # per process, so a second mirror does not take over this one's session
            live = net.MqttConnection(host, port, client_id=f"parksim-sim-mirror-{os.getpid()}")
        except net.ConnectionError_ as exc:
            print(f"parksim: {exc}", file=sys.stderr)
            return EXIT_NETWORK
    hook = None
    mirror_error: OSError | None = None
    if live is not None:
        def hook(topic: str, payload: bytes, retain: bool) -> None:
            nonlocal mirror_error
            if mirror_error is not None:
                return
            try:
                live.publish(topic, payload, qos=0, retain=retain)
            except OSError as exc:
                # the run needs no broker: finish it without the mirror, exit 3 after
                mirror_error = exc
                print(f"parksim: warning: mirror to {host}:{port} lost ({exc}); "
                      "the run goes on without it", file=sys.stderr)
    try:
        report = sim.run_scenario(cfg, publish_hook=hook)
    finally:
        if live is not None:
            live.close()
    paths = report.write(args.out)
    state = report.final_state
    print(f"wrote {paths['events']}, {paths['metrics']}, {paths['report']}")
    counts = report.tally.counts
    print(
        f"arrivals {counts.get('car_arrives', 0)} "
        f"(admitted {counts.get('car_admitted', 0)}, rejected {counts.get('car_rejected', 0)}), "
        f"departures {counts.get('car_departs', 0)}, "
        f"final vacancy {state.total_vacant}/{state.total_slots}"
    )
    return EXIT_OK if mirror_error is None else EXIT_NETWORK


def _run_watch(args: argparse.Namespace) -> int:
    host, port = args.broker
    conn = None
    for attempt in range(args.retries):
        try:
            conn = net.MqttConnection(host, port, client_id=f"parksim-watch-{os.getpid()}")
            break
        except net.ConnectionError_ as exc:
            if attempt + 1 == args.retries:
                print(f"parksim: {exc}", file=sys.stderr)
                return EXIT_NETWORK
            time.sleep(1.0)
    use_color = {"always": True, "never": False}.get(
        args.color, sys.stdout.isatty() and os.environ.get("TERM", "") != "dumb"
    )
    prefix = args.topic_filter.split("/")[0]
    if prefix in ("#", "+", ""):
        prefix = "parking"
    view = WatchView(topic_prefix=prefix)
    conn.subscribe(args.topic_filter, qos=1)
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
        print(f"parksim: connection to {host}:{port} lost", file=sys.stderr)
        return EXIT_NETWORK
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        conn.close()


def _run_analyze(args: argparse.Namespace) -> int:
    try:
        queue_report = stochastic.analyze(
            lam=args.lam,
            n=args.n,
            t_avg_hours=args.t_avg,
            delta_g_ppm=args.delta_g,
            reduction_rate_ppm_per_s=args.rate,
            lam_is_per_hour=args.lambda_unit == "per-hour",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("lambda,n,p_full,L,t_response")
    print(
        f"{format(args.lam, '.10g')},{args.n},"
        f"{format(queue_report.p_full, '.10g')},"
        f"{format(queue_report.expected_occupancy, '.10g')},"
        f"{format(queue_report.vent_response_s, '.10g')}"
    )
    return EXIT_OK


def _run_report(args: argparse.Namespace) -> int:
    try:
        text = sim.render_report(sim.read_events_jsonl(args.in_path))
    except OSError as exc:
        raise ConfigError(f"cannot read {args.in_path}: {exc}") from exc
    except ValueError as exc:  # malformed line, or a record without 't'/'kind'
        raise ConfigError(str(exc)) from exc
    Path(args.out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out_path).write_text(text, encoding="utf-8")
    print(f"wrote {args.out_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("PARKSIM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"parksim: {exc}", file=sys.stderr)
        print("try: parksim --help", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)

    try:
        return args.run(args)
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
