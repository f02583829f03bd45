import argparse
import hashlib
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parksim import cli, net, sim
from parksim.cli import UsageError, parse_args
from tests.test_sim import _no_resource_warning

DAY_CFG = """
facility.total_slots = 4
traffic.hourly_rates = 30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30,30
traffic.dwell_mean_s = 300
duration_s = 1800
env_sample_period_s = 300
gas_sample_period_s = 0
seed = 9
"""

SRC = Path(__file__).resolve().parent.parent / "src"
STOCK_DAY = Path(__file__).resolve().parent.parent / "scenarios" / "day.cfg"
# the stock day's pinned output digests, as in tests/test_golden.py
STOCK_DAY_SHA256 = {
    "events.jsonl": "48784504f3fa706e9fdd3a1e5ca217711c07a975cae9c6e4e5b03c4429415689",
    "metrics.csv": "f21ed2e3273c5c1917170a1da0a3e2e867e778d3ef8bfa8c1454820bc19e7059",
    "report.txt": "f6d132dc71581fef2e94119175bb8eb804f65bd08ced7a079a3eb02e688adc09",
}

# a meta header with nothing but the duration report.txt needs
META = '{"t": 0.0, "kind": "meta", "config": {"duration_s": 60}}'

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

    def test_out_under_a_file_exits_2_as_a_file_error(self, tmp_path, capsys):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parksim: cannot write {out_dir}: ")
        assert err.count("\n") == 1 and "network" not in err

    def test_unusable_spool_exits_2_as_a_file_error(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(sim.tempfile, "TemporaryFile", no_space)
        out_dir = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == ("parksim: cannot write the event log to a temporary file: "
                       "[Errno 28] No space left on device\n")
        assert not out_dir.exists()

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


# a fresh interpreter: this test process has imported numpy already
LIVE_COMMANDS_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import parksim.cli, parksim.net, parksim.watch, parksim.scenario
from parksim import cli
assert cli.main(["analyze", "--lambda", "4", "--slots", "4", "--lambda-unit", "per-dwell"]) == 0
cli.parse_args(["broker", "--bind", "127.0.0.1:0"])
assert "numpy" not in sys.modules, "a live command imported numpy"
assert "parksim.sim" not in sys.modules, "a live command imported the simulator"
import parksim.sim
assert "numpy" not in sys.modules, "the simulator imported numpy"
"""

# a fresh interpreter again: the broker's start-up loads none of the modules
# only other commands run; `analyze` then imports its own on demand
BROKER_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
from parksim import cli
cli.parse_args(["broker", "--bind", "127.0.0.1:0"])
unneeded = ("parksim.scenario", "parksim.sensors", "parksim.stochastic", "parksim.watch",
            "parksim.sim", "numpy")
loaded = [name for name in unneeded if name in sys.modules]
assert not loaded, f"the broker's start-up imported {loaded}"
assert cli.main(["analyze", "--lambda", "4", "--slots", "4", "--lambda-unit", "per-dwell"]) == 0
"""


# a fresh interpreter: `simulate` and `report` run end to end without numpy
SIMULATE_AND_REPORT_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
from parksim import cli
scenario, out = sys.argv[2], sys.argv[3]
assert cli.main(["simulate", "--scenario", scenario, "--out", out]) == 0
assert cli.main(["report", "--in", out + "/events.jsonl", "--out", out + "/report2.txt"]) == 0
assert "numpy" not in sys.modules, "simulate or report imported numpy"
"""

# a fresh interpreter: `report` alone reads the log without the simulator
REPORT_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
from parksim import cli
log, out = sys.argv[2], sys.argv[3]
assert cli.main(["report", "--in", log, "--out", out]) == 0
unneeded = ("parksim.sim", "parksim.scenario", "parksim.sensors", "parksim.stochastic",
            "parksim.controller", "parksim.rng", "numpy")
loaded = [name for name in unneeded if name in sys.modules]
assert not loaded, f"report imported {loaded}"
"""


class TestImports:
    def test_simulate_and_report_run_without_numpy(self, tmp_path):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-c", SIMULATE_AND_REPORT_IMPORT, str(SRC), str(scenario), str(out)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert (out / "report2.txt").read_bytes() == (out / "report.txt").read_bytes()
        result = subprocess.run(
            [sys.executable, "-c", REPORT_IMPORT, str(SRC), str(out / "events.jsonl"),
             str(out / "report3.txt")],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert (out / "report3.txt").read_bytes() == (out / "report.txt").read_bytes()

    def test_live_commands_start_without_the_simulator_or_numpy(self):
        result = subprocess.run([sys.executable, "-c", LIVE_COMMANDS_IMPORT, str(SRC)],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("lambda,n,p_full,L,t_response\n4,4,")

    def test_broker_starts_without_the_scenario_sensor_traffic_or_watch_modules(self):
        result = subprocess.run([sys.executable, "-c", BROKER_IMPORT, str(SRC)],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("lambda,n,p_full,L,t_response\n4,4,")


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

    @pytest.mark.parametrize("where", ["scenario file", "--seed"])
    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys, where):
        scenario = tmp_path / "day.cfg"
        seed_flag = []
        if where == "--seed":
            scenario.write_text(DAY_CFG, encoding="utf-8")
            seed_flag = ["--seed", "-1"]
        else:
            scenario.write_text(DAY_CFG.replace("seed = 9", "seed = -1"), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir), *seed_flag])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "parksim: config error: seed must be >= 0\n"
        assert not out_dir.exists()

    def test_duration_past_the_window_limit_exits_2_with_one_line(self, tmp_path, capsys):
        # metrics.csv's Aggregator would refuse it after the run had started
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG.replace("duration_s = 1800", "duration_s = 1e12"),
                            encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "parksim: config error: duration_s 1e+12 makes more than 100000 windows of 3600 s\n")
        assert not out_dir.exists()

    def test_simulate_in_two_processes_with_different_hash_seeds(self, tmp_path):
        # the outputs must not depend on str hashing, say through set order;
        # gas samples and a lossy link bring in every stream the run draws,
        # and five gases released at once, cleared slowly by the fan, put a
        # float sum over gas names (GasField's level) in every gas reading
        scenario = tmp_path / "day.cfg"
        scenario.write_text(
            DAY_CFG.replace("gas_sample_period_s = 0", "gas_sample_period_s = 30")
            + "network.drop_prob = 0.2\n"
            + "sensors.mq2.sensitivities = butane:0.92, alcohol:0.8, methane:0.31, smoke:0.57, "
              "lpg:0.66\n"
            + "injections = 300:butane:7.3, 300:alcohol:5.1, 300:methane:9.7, 300:smoke:3.3, "
              "300:lpg:4.9\n"
            + "gas_decay_ppm_per_s = 0.01\n", encoding="utf-8")
        outputs = []
        for hash_seed in ("1", "2"):
            out_dir = tmp_path / f"out{hash_seed}"
            result = subprocess.run(
                [sys.executable, "-m", "parksim.cli", "simulate", "--scenario", str(scenario),
                 "--out", str(out_dir)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed})
            assert result.returncode == 0, result.stderr
            outputs.append({name: (out_dir / name).read_bytes()
                            for name in ("events.jsonl", "metrics.csv", "report.txt")})
        assert outputs[0] == outputs[1]

    def test_report_regenerates_identical_text(self, tmp_path):
        scenario = tmp_path / "day.cfg"
        scenario.write_text(DAY_CFG, encoding="utf-8")
        out_dir = tmp_path / "out"
        cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)])
        regenerated = tmp_path / "report2.txt"
        with _no_resource_warning():
            code = cli.main(["report", "--in", str(out_dir / "events.jsonl"),
                             "--out", str(regenerated)])
        assert code == 0
        assert regenerated.read_text() == (out_dir / "report.txt").read_text()

    def test_report_on_garbage_exits_2(self, tmp_path):
        bad = tmp_path / "events.jsonl"
        bad.write_text("{}\nnot json\n", encoding="utf-8")
        assert cli.main(["report", "--in", str(bad), "--out", str(tmp_path / "r.txt")]) == 2

    @pytest.mark.parametrize("duration", ["1e300", "Infinity"])
    def test_report_on_unbounded_duration_exits_2(self, tmp_path, capsys, duration):
        # the meta alone decides the window count, which must not hang or fill memory
        log = tmp_path / "events.jsonl"
        log.write_text(f'{{"t": 0.0, "kind": "meta", "config": {{"duration_s": {duration}}}}}\n',
                       encoding="utf-8")
        assert cli.main(["report", "--in", str(log), "--out", str(tmp_path / "r.txt")]) == 2
        assert "duration_s" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_report_on_record_without_t_exits_2(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text('{"t": 0, "kind": "meta", "config": {"duration_s": 60}}\n'
                       '{"kind": "car_parks"}\n', encoding="utf-8")
        assert cli.main(["report", "--in", str(log), "--out", str(tmp_path / "r.txt")]) == 2
        assert "record 1: missing 't'/'kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("log, error", [
        ("", "record 0: missing"),
        ('{"t": 0.0, "kind": "car_arrives", "car_id": 1, "vacant_before": 4}\n',
         "record 0: not a meta header"),
        ('{"t": 0.0, "kind": "meta", "config": {"seed": 9}}\n{"t": 1.0, "kind": "car_parks"}\n',
         "record 0: not a meta header"),
    ], ids=["empty", "no header", "header without duration"])
    def test_report_without_a_duration_exits_2(self, tmp_path, capsys, log, error):
        # the duration comes from the log's meta header alone: a log without
        # one is refused, not rendered with a guessed duration, and the
        # file the command opened is closed on the way out
        path = tmp_path / "events.jsonl"
        path.write_text(log, encoding="utf-8")
        out = tmp_path / "r.txt"
        with _no_resource_warning():
            assert cli.main(["report", "--in", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"parksim: config error: {error}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("header, record, error", [
        (META, '{"t": 1.0, "kind": "publish"}',
         "a publish or deliver record is malformed: KeyError"),
        (META, '{"t": 1.0, "kind": "publish", "bytes": null}',
         "a publish or deliver record is malformed: TypeError"),
        (META, '{"t": 1.0, "kind": "publish", "bytes": 1%s}' % ("0" * 400,),
         "a publish or deliver record is malformed: OverflowError"),
        (META, '{"t": [1], "kind": "car_parks"}', "record 1: float() argument"),
        (META, '{"t": 1%s, "kind": "car_parks"}' % ("0" * 400,), "record 1: int too large"),
        (META, '{"t": 1.0, "kind": ["car_parks"]}', "record 1: unhashable type"),
        ('{"t": 0.0, "kind": "meta", "rng_streams": [1], "config": {"duration_s": 60}}',
         '{"t": 1.0, "kind": "car_parks"}', "record 0: rng_streams is not a list of strings"),
    ], ids=["publish without bytes", "null bytes", "bytes past float", "t not a number",
            "t past float", "kind not a string", "rng_streams not strings"])
    def test_report_on_a_record_it_cannot_read_exits_2(self, tmp_path, capsys, header, record,
                                                        error):
        # a record that the tally or its aggregator cannot read is refused
        # like a malformed line, without a traceback
        path = tmp_path / "events.jsonl"
        path.write_text(header + "\n" + record + "\n", encoding="utf-8")
        out = tmp_path / "r.txt"
        with _no_resource_warning():
            assert cli.main(["report", "--in", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"parksim: config error: {error}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("out", ["a directory", "under a regular file"])
    def test_report_to_an_unwritable_out_exits_2(self, tmp_path, capsys, out):
        log = tmp_path / "events.jsonl"
        log.write_text('{"t": 0, "kind": "meta", "config": {"duration_s": 60}}\n', encoding="utf-8")
        out_path = tmp_path / "report.txt"
        if out == "a directory":
            out_path.mkdir()
        else:
            out_path.write_text("", encoding="utf-8")
            out_path = out_path / "report.txt"
        assert cli.main(["report", "--in", str(log), "--out", str(out_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"parksim: cannot write {out_path}: ") and err.count("\n") == 1
