import argparse
import hashlib
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parksim import cli, net, sim
from parksim.cli import UsageError, parse_args

DAY_CFG = """
facility.total_slots = 4
traffic.hourly_rates = 30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30
traffic.dwell_mean_s = 300
duration_s = 1800
env_sample_period_s = 300
gas_sample_period_s = 0
seed = 9
"""

STOCK_DAY = Path(__file__).resolve().parent.parent / "scenarios" / "day.cfg"
# the stock day's pinned output digests, as in tests/test_golden.py
STOCK_DAY_SHA256 = {
    "events.jsonl": "48784504f3fa706e9fdd3a1e5ca217711c07a975cae9c6e4e5b03c4429415689",
    "metrics.csv": "f21ed2e3273c5c1917170a1da0a3e2e867e778d3ef8bfa8c1454820bc19e7059",
    "report.txt": "f6d132dc71581fef2e94119175bb8eb804f65bd08ced7a079a3eb02e688adc09",
}

RUNNERS = (cli._run_broker, cli._run_simulate, cli._run_watch, cli._run_analyze, cli._run_report)


def fields(args, *names):
    return {name: getattr(args, name) for name in names}


class TestParseArgs:
    def test_analyze_maps_flags(self):
        args = parse_args(
            ["analyze", "--lambda", "4", "--slots", "4", "--lambda-unit", "per-dwell"]
        )
        assert fields(args, "run", "lam", "n", "t_avg", "delta_g", "rate", "lambda_unit") == dict(
            run=cli._run_analyze, lam=4.0, n=4, t_avg=None, delta_g=0.0, rate=1.0,
            lambda_unit="per-dwell")

    def test_simulate_maps_flags(self):
        args = parse_args(["simulate", "--scenario", "day.cfg", "--seed", "7"])
        assert fields(args, "run", "scenario", "seed", "out", "broker") == dict(
            run=cli._run_simulate, scenario="day.cfg", seed=7, out="out", broker=None)

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["frobnicate"])

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["broker", "--warp-speed"])

    def test_per_hour_requires_t_avg(self):
        with pytest.raises(UsageError):
            parse_args(["analyze", "--lambda", "20", "--slots", "4",
                        "--lambda-unit", "per-hour"])

    def test_watch_and_broker_and_report(self):
        broker = parse_args(["broker", "--bind", "127.0.0.1:2883"])
        assert fields(broker, "run", "bind") == dict(run=cli._run_broker, bind=("127.0.0.1", 2883))
        watch = parse_args(["watch", "--broker", "10.0.0.2:1883", "--filter", "lot/#"])
        assert fields(watch, "run", "broker", "topic_filter", "retries", "color") == dict(
            run=cli._run_watch, broker=("10.0.0.2", 1883), topic_filter="lot/#",
            retries=3, color="auto")
        report = parse_args(["report", "--in", "e.jsonl", "--out", "r.txt"])
        assert fields(report, "run", "in_path", "out_path") == dict(
            run=cli._run_report, in_path="e.jsonl", out_path="r.txt")

    @given(st.lists(st.text(min_size=0, max_size=12), max_size=6))
    @settings(max_examples=150)
    def test_total_every_argv_parses_or_usage_errors(self, argv):
        try:
            args = parse_args(argv)
        except UsageError:
            return
        except SystemExit as exc:  # --help / -h
            assert exc.code in (0, None)
            return
        assert isinstance(args, argparse.Namespace)
        assert args.run in RUNNERS


class TestExitCodes:
    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "parksim:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("facility.total_slots = 0\n", encoding="utf-8")
        assert cli.main(["simulate", "--scenario", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self):
        assert cli.main(["simulate", "--scenario", "/nope/missing.cfg"]) == 2

    def test_watch_unreachable_exits_3(self, capsys):
        assert cli.main(["watch", "--broker", "127.0.0.1:1", "--retries", "1"]) == 3


class TestUsageErrors:
    """A bad input exits 1 with one `parksim:` line, before any runner starts."""

    @pytest.mark.parametrize("argv", [
        ["broker", "--bind", "nonsense"],
        ["broker", "--bind", "127.0.0.1:65536"],
        ["watch", "--filter", "a/#/b"],
        ["watch", "--broker", "127.0.0.1"],
        ["watch", "--retries", "0"],
    ])
    def test_bad_input_exits_1_with_one_line(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message, hint = err.splitlines()
        assert message.startswith("parksim: ") and hint == "try: parksim --help"

    def test_simulate_with_bad_broker_address_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["simulate", "--scenario", str(scenario), "--out", str(out_dir),
                "--broker", "nohost"]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("parksim: ") and "HOST:PORT" in err
        assert not out_dir.exists()


class TestBrokerInterrupt:
    """Ctrl-C at any point after the bind exits 0 with the server stopped."""

    @pytest.mark.parametrize("method", ["next_deadline", "serve_forever"])
    def test_keyboard_interrupt_exits_ok_and_stops(self, monkeypatch, capsys, method):
        servers = []
        init = net.BrokerServer.__init__

        def recorded_init(server, *args, **kwargs):
            servers.append(server)
            init(server, *args, **kwargs)

        def interrupted(self):
            raise KeyboardInterrupt

        # "next_deadline" raising is a signal landing in the loop, which runs
        # on the caller's thread; "serve_forever" raising stands for a signal
        # landing after the bind, before the loop is entered.
        monkeypatch.setattr(net.BrokerServer, "__init__", recorded_init)
        owner = net.BrokerCore if method == "next_deadline" else net.BrokerServer
        monkeypatch.setattr(owner, method, interrupted)
        assert cli.main(["broker", "--bind", "127.0.0.1:0"]) == cli.EXIT_OK
        (server,) = servers
        assert server._stopping.is_set()
        assert server._listener.fileno() == -1
        assert server._wake_r.fileno() == -1 and server._wake_w.fileno() == -1


class TestAnalyzeOutput:
    def test_per_dwell_csv(self, capsys):
        code = cli.main(["analyze", "--lambda", "4", "--slots", "4",
                         "--lambda-unit", "per-dwell", "--delta-g", "10", "--rate", "2"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "lambda,n,p_full,L,t_response"
        lam, n, p_full, L, t_response = out[1].split(",")
        assert (lam, n) == ("4", "4")
        assert float(p_full) == pytest.approx(0.19536681481316456, abs=1e-9)
        assert float(L) == 4.0
        assert float(t_response) == 5.0

    def test_per_hour_uses_littles_law(self, capsys):
        cli.main(["analyze", "--lambda", "20", "--slots", "1000",
                  "--lambda-unit", "per-hour", "--t-avg", "0.5"])
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[3]) == 10.0


class TestSimulateAndReport:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "report.txt").exists()
        assert "final vacancy" in capsys.readouterr().out

    def test_printed_car_counts_are_the_logs_kind_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(STOCK_DAY), "--out", str(out_dir)]) == 0
        printed = re.search(r"^arrivals (\d+) \(admitted (\d+), rejected (\d+)\), departures (\d+),",
                            capsys.readouterr().out, re.MULTILINE)
        assert printed is not None
        kinds = Counter(record["kind"] for record in sim.read_events_jsonl(out_dir / "events.jsonl"))
        logged = [kinds[kind] for kind in ("car_arrives", "car_admitted", "car_rejected", "car_departs")]
        assert [int(n) for n in printed.groups()] == logged
        assert logged[0] > 0 and logged[2] > 0 and logged[3] > 0

    def test_mirror_leaves_a_session_of_the_old_fixed_id_alone(self, tmp_path, capsys):
        server = net.BrokerServer(host="127.0.0.1", port=0)
        server.start()
        host, port = server.address
        held = net.MqttConnection(host, port, client_id="parksim-sim-mirror")
        try:
            held_conn = server.core.sessions["parksim-sim-mirror"].conn_id
            scenario = tmp_path / "day.cfg"
            scenario.write_text(DAY_CFG, encoding="utf-8")
            out_dir = tmp_path / "out"
            code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir),
                             "--broker", f"{host}:{port}"])
            assert code == cli.EXIT_OK
            assert (out_dir / "report.txt").exists()
            # the mirror's CONNECT was handled before main returned: a takeover
            # would already have replaced or dropped the held session
            session = server.core.sessions.get("parksim-sim-mirror")
            assert session is not None and session.conn_id == held_conn
            # and the held connection still makes a round trip
            held.subscribe("probe/#")
            held.publish("probe/x", b"1")
            deadline = time.monotonic() + 5.0
            while not held.messages:
                assert held.poll(0.1), "held connection closed"
                assert time.monotonic() < deadline, "no message"
            assert held.messages == [("probe/x", b"1", False)]
        finally:
            held.close()
            server.stop()

    def test_losing_the_mirror_keeps_the_run(self, tmp_path, capsys, monkeypatch):
        server = net.BrokerServer(host="127.0.0.1", port=0)
        server.start()
        host, port = server.address
        publish = net.MqttConnection.publish
        publishes = 0

        def publish_then_stop_the_broker(self, *args, **kwargs):
            nonlocal publishes
            publishes += 1
            publish(self, *args, **kwargs)
            if publishes == 100:
                server.stop()

        monkeypatch.setattr(net.MqttConnection, "publish", publish_then_stop_the_broker)
        out_dir = tmp_path / "out"
        try:
            code = cli.main(["simulate", "--scenario", str(STOCK_DAY), "--out", str(out_dir),
                             "--broker", f"{host}:{port}"])
        finally:
            server.stop()
        assert code == cli.EXIT_NETWORK
        assert publishes > 100  # a send after the stop failed, and none followed it
        assert capsys.readouterr().err.count("warning: mirror to") == 1
        for name, sha256 in STOCK_DAY_SHA256.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == sha256, name

    def test_seed_override_changes_events(self, tmp_path):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "b"),
                  "--seed", "123"])
        a = (tmp_path / "a" / "events.jsonl").read_text()
        b = (tmp_path / "b" / "events.jsonl").read_text()
        assert a != b

    def test_report_regenerates_identical_text(self, tmp_path):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        out_dir = tmp_path / "out"
        cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)])
        regenerated = tmp_path / "report2.txt"
        code = cli.main(["report", "--in", str(out_dir / "events.jsonl"),
                         "--out", str(regenerated)])
        assert code == 0
        assert regenerated.read_text() == (out_dir / "report.txt").read_text()

    def test_report_on_garbage_exits_2(self, tmp_path):
        bad = tmp_path / "events.jsonl"
        bad.write_text("{}\nnot json\n", encoding="utf-8")
        assert cli.main(["report", "--in", str(bad), "--out", str(tmp_path / "r.txt")]) == 2

    def test_report_on_record_without_t_exits_2(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text('{"t": 0, "kind": "meta"}\n{"kind": "car_parks"}\n', encoding="utf-8")
        assert cli.main(["report", "--in", str(log), "--out", str(tmp_path / "r.txt")]) == 2
        assert "record 1: missing 't'/'kind'" in capsys.readouterr().err
