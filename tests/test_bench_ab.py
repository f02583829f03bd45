"""scripts/bench_ab.py's verdicts (the claim check and the end-to-end bound
check) and its per-call figures of traced runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

RSS = {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1}
RATE = {"name": "msgs_per_s", "unit": "msg/s", "better": "higher", "bound": 0.2}


@pytest.mark.parametrize("spec, parent, change, expected", [
    (RSS, 20.0, 16.0, True),      # better
    (RSS, 20.0, 20.0, True),
    (RSS, 20.0, 21.9, True),      # 9.5% worse
    (RSS, 20.0, 22.1, False),     # 10.5% worse
    (RATE, 1000.0, 1300.0, True),
    (RATE, 1000.0, 810.0, True),  # 19% worse
    (RATE, 1000.0, 790.0, False),  # 21% worse
])
def test_within_bound(spec, parent, change, expected):
    assert bench_ab.within_bound(spec, parent, change) is expected


def test_summarize_stores_the_bound_check_of_every_metric():
    declared = [RSS, RATE]
    runs = [{"parent": {"peak_rss_mib": p, "msgs_per_s": r},
             "change": {"peak_rss_mib": c, "msgs_per_s": r * 0.7}}
            for p, c, r in ((27.0, 21.0, 1000.0), (27.5, 20.5, 1100.0), (27.2, 20.8, 900.0))]
    metrics = bench_ab.summarize(runs, declared)
    rss = metrics["peak_rss_mib"]
    assert rss["parent"]["median"] == 27.2 and rss["change"]["median"] == 20.8
    assert rss["change_wins"] == 3 and rss["within_bound"] is True
    assert rss["median_gap"] == pytest.approx(6.4)
    assert rss["parent_iqr"] == pytest.approx(27.35 - 27.1)
    assert metrics["msgs_per_s"]["change_wins"] == 0
    assert metrics["msgs_per_s"]["within_bound"] is False  # 30% fewer, bound 20%


def test_summarize_skips_a_metric_a_side_lacks():
    runs = [{"parent": {"peak_rss_mib": 1.0}, "change": {}}]
    assert bench_ab.summarize(runs, [RSS]) == {}


def _metric(parent, change, wins):
    pairs = list(zip(parent, change))
    runs = [{"parent": {"peak_rss_mib": p}, "change": {"peak_rss_mib": c}} for p, c in pairs]
    metric = bench_ab.summarize(runs, [RSS])["peak_rss_mib"]
    assert metric["change_wins"] == wins
    return metric


NO_FAILURES = {"parent": 0, "change": 0}
PARENT = [27.4, 27.5, 27.3, 27.4, 27.6, 27.4, 27.5, 27.3, 27.4, 27.5]


def test_claim_met():
    metric = _metric(PARENT, [20.8] * 10, wins=10)
    assert bench_ab.claim_verdict(metric, 10, NO_FAILURES) == {
        "met": True, "wins": True, "better_median": True, "gap_over_iqr": True,
        "no_more_failures": True}


def test_claim_needs_nine_tenths_of_the_pairs():
    assert bench_ab.claim_verdict(_metric(PARENT, [20.8] * 9 + [28.0], wins=9), 10,
                                  NO_FAILURES)["met"] is True
    verdict = bench_ab.claim_verdict(_metric(PARENT, [20.8] * 8 + [28.0] * 2, wins=8), 10,
                                     NO_FAILURES)
    assert verdict["met"] is False and verdict["wins"] is False and verdict["better_median"]


def test_claim_needs_a_gap_wider_than_the_parents_iqr():
    # every pair won, by less than the parent's spread
    metric = _metric(PARENT, [p - 0.01 for p in PARENT], wins=10)
    verdict = bench_ab.claim_verdict(metric, 10, NO_FAILURES)
    assert verdict["wins"] and verdict["better_median"]
    assert verdict["gap_over_iqr"] is False and verdict["met"] is False


def test_claim_needs_a_better_median():
    verdict = bench_ab.claim_verdict(_metric(PARENT, [30.0] * 10, wins=0), 10, NO_FAILURES)
    assert verdict["better_median"] is False and verdict["met"] is False


def test_claim_fails_on_more_failed_operations():
    verdict = bench_ab.claim_verdict(_metric(PARENT, [20.8] * 10, wins=10), 10,
                                     {"parent": 0, "change": 1})
    assert verdict["no_more_failures"] is False and verdict["met"] is False


def test_per_call_figures_compare_traced_runs_of_unequal_work():
    # the change side ran fewer calls, so its larger total hides a faster call
    parent = {"broker.handle_s": 3.2, "broker.handle_calls": 800_000,
              "codec.encode_s": 0.5, "codec.encode_calls": 0,
              "controller.handle_s": 1.0, "sim.records": 7}
    change = {"broker.handle_s": 3.6, "broker.handle_calls": 1_200_000}
    assert bench_ab.with_per_call(parent) == {
        **parent, "broker.handle_us_per_call": pytest.approx(4.0)}  # nothing for 0 or no calls
    runs = {
        "parent": [bench_ab.with_per_call(parent),
                   bench_ab.with_per_call({**parent, "broker.handle_calls": 640_000})],
        "change": [bench_ab.with_per_call(change),
                   bench_ab.with_per_call({**change, "broker.handle_s": 3.0})],
    }
    medians = {side: bench_ab.trace_medians(side_runs) for side, side_runs in runs.items()}
    assert medians["parent"]["broker.handle_s"] < medians["change"]["broker.handle_s"]
    assert medians["parent"]["broker.handle_us_per_call"] == pytest.approx((4.0 + 5.0) / 2)
    assert medians["change"]["broker.handle_us_per_call"] == pytest.approx((3.0 + 2.5) / 2)
    assert "codec.encode_us_per_call" not in medians["parent"]
