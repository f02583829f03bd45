import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from parksim.telemetry import (
    CSV_HEADER,
    MAX_WINDOWS,
    Aggregator,
    data_rate,
    delay,
    error_correction_rate,
)


class TestPrimitives:
    def test_data_rate_quotients(self):
        assert data_rate(500, 2) == 250
        assert data_rate(0, 5) == 0
        assert data_rate(26 * 1000, 10) == 2600

    def test_data_rate_scale_equivariant(self):
        assert data_rate(123, 7) == data_rate(246, 14)

    def test_data_rate_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            data_rate(10, 0)
        with pytest.raises(ValueError):
            data_rate(10, -1)

    def test_delay_values(self):
        assert delay(10.2, 10.5) == pytest.approx(0.3)
        assert delay(4.0, 4.0) == 0.0

    def test_delay_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            delay(5.0, 4.0)

    def test_ec_values(self):
        assert error_correction_rate(3, 4) == 0.75
        assert error_correction_rate(0, 0) == 1.0
        assert error_correction_rate(5, 5) == 1.0

    def test_ec_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            error_correction_rate(5, 4)

    def test_sample_rejects_negative_value(self):
        for record in ({"t": 1.0, "kind": "deliver", "bytes": 20, "delay": -0.1},
                       {"t": 1.0, "kind": "publish", "bytes": -1}):
            agg = Aggregator(duration_s=100.0)
            agg.add_records((record,))
            with pytest.raises(ValueError):
                agg.summary()
            with pytest.raises(ValueError):
                agg.rows()


def _records():
    return [
        {"t": 0.0, "kind": "meta"},
        {"t": 10.0, "kind": "publish", "topic": "parking/summary", "bytes": 26, "client_id": "ctrl"},
        {"t": 10.05, "kind": "deliver", "topic": "parking/summary", "bytes": 26,
         "client_id": "dash", "delay": 0.05},
        {"t": 3700.0, "kind": "publish", "topic": "parking/gas/ppm", "bytes": 20, "client_id": "ctrl"},
        {"t": 3700.1, "kind": "deliver", "topic": "parking/gas/ppm", "bytes": 20,
         "client_id": "dash", "delay": 0.1},
        {"t": 3800.0, "kind": "error_corrected", "client_id": "dash"},
        {"t": 3900.0, "kind": "car_parks", "car_id": 1, "slot": 0},  # not a telemetry record
    ]


class TestAggregator:
    def test_windows_and_run_rows(self):
        agg = Aggregator(duration_s=7200.0, window_s=3600.0)
        agg.add_records(_records())
        rows = {(metric, start, end): value for metric, start, end, value in agg.rows()}
        assert rows[("data_rate_bytes_per_s", 0.0, 3600.0)] == pytest.approx(52 / 3600)
        assert rows[("data_rate_bytes_per_s", 3600.0, 7200.0)] == pytest.approx(40 / 3600)
        assert rows[("bytes_total", 0.0, 7200.0)] == 92
        assert rows[("delay_mean_s", 0.0, 7200.0)] == pytest.approx(0.075)
        assert rows[("delay_min_s", 0.0, 7200.0)] == pytest.approx(0.05)
        assert rows[("delay_max_s", 0.0, 7200.0)] == pytest.approx(0.1)
        assert rows[("ec_modeled", 0.0, 7200.0)] == 1.0

    def test_csv_is_reproducible_byte_for_byte(self):
        def build():
            agg = Aggregator(duration_s=7200.0)
            agg.add_records(_records())
            return agg.to_csv()

        first, second = build(), build()
        assert first == second
        assert first.startswith("metric,window_start_s,window_end_s,value\n")

    def test_ec_counts_in_summary(self):
        agg = Aggregator(duration_s=7200.0)
        agg.add_records(_records())
        agg.add_records(({"t": 4000.0, "kind": "error_uncorrected", "client_id": "dash"},))
        summary = agg.summary()
        assert summary["errors_corrected"] == 1
        assert summary["errors_uncorrected"] == 1
        assert summary["ec_modeled"] == 0.5

    def test_no_traffic_still_has_run_rows(self):
        agg = Aggregator(duration_s=100.0)
        rows = {metric for metric, *_ in agg.rows()}
        assert "bytes_total" in rows
        assert "ec_modeled" in rows

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan, 1e300, 3600.0 * MAX_WINDOWS + 1])
    def test_unbounded_window_count_refused(self, duration_s):
        with pytest.raises(ValueError, match="duration_s"):
            Aggregator(duration_s=duration_s)

    def test_window_count_at_the_bound_accepted(self):
        agg = Aggregator(duration_s=float(MAX_WINDOWS), window_s=1.0)
        assert len(agg._bounds) == MAX_WINDOWS


# -- the one-pass rollup against a scan per window ------------------------------


def _left_to_right(values):
    """The rollup's summing contract: from 0, each value added in order.
    (sum() is not the statement of it: Python 3.12+ compensates its float sums.)"""
    total = 0
    for value in values:
        total += value
    return total


def _reference_rows(records, duration_s, window_s):
    """rows() as a separate filter over every sample for each window."""
    samples = []  # (kind, value, t)
    for record in records:
        t = float(record["t"])
        if record["kind"] in ("publish", "deliver"):
            samples.append(("bytes", float(record["bytes"]), t))
            if record["kind"] == "deliver":
                samples.append(("delay", float(record["delay"]), t))
        elif record["kind"] in ("error_corrected", "error_uncorrected"):
            samples.append((record["kind"], 1.0, t))
    bounds = []
    start = 0.0
    while start < duration_s:
        bounds.append((start, min(start + window_s, duration_s)))
        start += window_s
    per_window = []
    for start, end in bounds:
        in_window = [s for s in samples if start <= s[2] < end or (s[2] == end == duration_s)]
        byte_total = _left_to_right(s[1] for s in in_window if s[0] == "bytes")
        delays = [s[1] for s in in_window if s[0] == "delay"]
        if byte_total > 0:
            per_window.append(("data_rate_bytes_per_s", start, end, data_rate(byte_total, end - start)))
        if delays:
            per_window.append(("delay_mean_s", start, end, _left_to_right(delays) / len(delays)))
    bytes_total = _left_to_right(s[1] for s in samples if s[0] == "bytes")
    delays = [s[1] for s in samples if s[0] == "delay"]
    corrected = sum(1 for s in samples if s[0] == "error_corrected")
    uncorrected = sum(1 for s in samples if s[0] == "error_uncorrected")
    run_rows = [("bytes_total", 0.0, duration_s, bytes_total),
                ("data_rate_bytes_per_s", 0.0, duration_s, data_rate(bytes_total, duration_s))]
    summary = {
        "bytes_total": bytes_total,
        "data_rate_bytes_per_s": data_rate(bytes_total, duration_s),
        "errors_corrected": float(corrected),
        "errors_uncorrected": float(uncorrected),
        "ec_modeled": error_correction_rate(corrected, corrected + uncorrected),
    }
    if delays:
        for name, value in (("delay_mean_s", _left_to_right(delays) / len(delays)),
                            ("delay_min_s", min(delays)), ("delay_max_s", max(delays))):
            run_rows.append((name, 0.0, duration_s, value))
            summary[name] = value
    run_rows.append(("ec_modeled", 0.0, duration_s, summary["ec_modeled"]))
    rows = sorted(per_window, key=lambda r: (r[1], r[2], r[0])) + run_rows
    return rows, summary


@st.composite
def _run(draw):
    window_s = draw(st.sampled_from([3600.0, 7.3, 0.1, 1.0, 2.5]))
    windows = draw(st.integers(min_value=1, max_value=12))
    duration_s = draw(st.sampled_from([windows * window_s, (windows - 0.5) * window_s,
                                       window_s * 0.999, 3.0 * window_s + 1e-9]))
    # repeated addition, as the window starts are made
    edges = [0.0]
    while edges[-1] < duration_s:
        edges.append(edges[-1] + window_s)
    times = st.one_of(
        st.sampled_from(edges + [duration_s]),  # exactly on a boundary, or at the end
        st.floats(min_value=0.0, max_value=duration_s * 1.2, allow_nan=False),  # past it too
    )
    # values whose float sum depends on the order they are added in
    values = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 1e16]),
                       st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(["publish", "deliver", "error_corrected",
                                     "error_uncorrected", "car_parks"]))
        record = {"t": draw(times), "kind": kind}
        if kind in ("publish", "deliver"):
            record["bytes"] = draw(st.integers(min_value=0, max_value=300))
        if kind == "deliver":
            record["delay"] = draw(values)
        records.append(record)
    return records, duration_s, window_s


def _csv(rows):
    return "\n".join([CSV_HEADER] + [",".join([m, format(a, ".10g"), format(b, ".10g"),
                                               format(v, ".10g")]) for m, a, b, v in rows]) + "\n"


def _fed_in_blocks(records, duration_s, window_s, block):
    agg = Aggregator(duration_s=duration_s, window_s=window_s)
    for i in range(0, len(records), block):
        agg.add_records(records[i:i + block])
    return agg


_SAMPLE_KINDS = ("publish", "deliver", "error_corrected", "error_uncorrected")


@given(_run())
def test_one_pass_rollup_equals_a_scan_per_window(run):
    records, duration_s, window_s = run
    rows, summary = _reference_rows(records, duration_s, window_s)
    agg = Aggregator(duration_s=duration_s, window_s=window_s)
    agg.add_records(records)
    assert agg.rows() == rows
    assert agg.summary() == summary
    assert agg.to_csv() == _csv(rows)


@given(_run(), st.sampled_from([1, 3, 1024]))
def test_records_fed_in_blocks_fold_to_the_scan(run, block):
    records, duration_s, window_s = run
    rows, summary = _reference_rows(records, duration_s, window_s)
    agg = _fed_in_blocks(records, duration_s, window_s, block)
    assert len(agg.samples) == sum(r["kind"] in _SAMPLE_KINDS for r in records)
    assert agg.counts == Counter(r["kind"] for r in records)
    assert agg.rows() == rows
    assert agg.summary() == summary
    assert agg.to_csv() == _csv(rows)


# a bad sample and the exception a scan of it raises
_BAD_SAMPLES = [
    ({"kind": "publish"}, KeyError),
    ({"kind": "deliver", "bytes": 20}, KeyError),
    ({"kind": "publish", "bytes": -1}, ValueError),
    ({"kind": "deliver", "bytes": 20, "delay": -0.1}, ValueError),
    ({"kind": "publish", "bytes": "many"}, ValueError),
    ({"kind": "deliver", "bytes": 20, "delay": None}, TypeError),
    ({"kind": "publish", "bytes": 10**400}, OverflowError),
]


@given(_run(), st.sampled_from(_BAD_SAMPLES), st.sampled_from([1, 3, 1024]), st.data())
def test_a_bad_sample_raises_from_rows_and_summary_only(run, bad, block, data):
    records, duration_s, window_s = run
    sample, error = bad
    at = data.draw(st.integers(min_value=0, max_value=len(records)), label="bad sample at")
    records = records[:at] + [{"t": 1.0, **sample}] + records[at:]
    agg = _fed_in_blocks(records, duration_s, window_s, block)  # does not raise
    assert len(agg.samples) == sum(r["kind"] in _SAMPLE_KINDS for r in records)
    for _ in range(2):
        with pytest.raises(error):
            agg.rows()
        with pytest.raises(error):
            agg.summary()
        with pytest.raises(error):
            agg.to_csv()


def test_rollup_is_redone_after_more_records():
    agg = Aggregator(duration_s=7200.0)
    agg.add_records(_records())
    assert agg.summary()["bytes_total"] == 92
    agg.add_records(({"t": 5000.0, "kind": "publish", "bytes": 8},))
    assert agg.summary()["bytes_total"] == 100
    assert ("data_rate_bytes_per_s", 3600.0, 7200.0, 48 / 3600) in agg.rows()
