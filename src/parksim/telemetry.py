"""Communication metrics computed from run event streams.

Three primitive measures: data transfer rate (bytes moved over elapsed
time), point-to-point delay (broker accept to subscriber delivery), and the
error-correction ratio (recovered deliveries over deliveries that needed
recovery; 1.0 when nothing needed recovery). The aggregator turns an event
record stream into windowed CSV rows and is a pure function of its input,
so re-running it over the same log reproduces the file byte for byte.
"""

from __future__ import annotations

import bisect
import math


def data_rate(bytes_total: float, duration_s: float) -> float:
    """Bytes per second over the window."""
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    if bytes_total < 0:
        raise ValueError("bytes_total must be >= 0")
    return bytes_total / duration_s


def delay(t_start: float, t_end: float) -> float:
    if t_end < t_start:
        raise ValueError(f"negative interval: start {t_start} after end {t_end}")
    return t_end - t_start


def error_correction_rate(corrected: int, total_errors: int) -> float:
    """Corrected over total; by convention 1.0 when nothing went wrong."""
    if corrected > total_errors:
        raise ValueError(f"corrected {corrected} exceeds total errors {total_errors}")
    if corrected < 0 or total_errors < 0:
        raise ValueError("counts must be >= 0")
    if total_errors == 0:
        return 1.0
    return corrected / total_errors


CSV_HEADER = "metric,window_start_s,window_end_s,value"

WINDOW_S = 3600.0  # metrics.csv's window

# The most windows an Aggregator builds: over eleven years of hourly windows.
# A duration past it (a log's meta can carry any number) is refused instead
# of filling memory with windows.
MAX_WINDOWS = 100_000


def check_window_count(duration_s: float, window_s: float = WINDOW_S) -> None:
    """Raise ValueError if `duration_s` makes more than MAX_WINDOWS windows."""
    if duration_s / window_s > MAX_WINDOWS:
        raise ValueError(f"duration_s {duration_s:g} makes more than {MAX_WINDOWS} windows "
                         f"of {window_s:g} s")


# Event-log record kinds this module consumes. "publish" is a broker accept,
# "deliver" a subscriber delivery (carrying its delay), and the error kinds
# come from qos-1 recovery bookkeeping.
_SAMPLE_KINDS = ("publish", "deliver", "error_corrected", "error_uncorrected")


def fmt(value: float) -> str:
    """A number as metrics.csv and report.txt write it."""
    return format(value, ".10g")


def _sample(record: dict, field: str) -> float:
    value = float(record[field])
    if value < 0:
        raise ValueError(f"metric value must be >= 0: {field} {value}")
    return value


class Aggregator:
    """Windowed rollup of telemetry samples extracted from event records.

    Each sample is folded into its window and into the run totals as it is
    added: a running sum and count per window and a running sum, count,
    min and max for the run, no lists of values. The sums add the same
    values in the same order as a scan of every sample per window would,
    so the CSV keeps its bytes, whatever blocks the records come in.

    A bad sample (a negative value, a missing `bytes` or `delay`) does not
    raise from add_records: the first one stops the fold, and rows() and
    summary() raise its exception, as a scan made at report time would.
    """

    def __init__(self, duration_s: float, window_s: float = WINDOW_S):
        if duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if not math.isfinite(duration_s):
            raise ValueError(f"duration_s must be finite, got {duration_s}")
        check_window_count(duration_s, window_s)
        self.duration_s = duration_s
        self.window_s = window_s
        self._bounds = self._window_bounds()
        self._starts = [start for start, _ in self._bounds]
        # running sums start at 0 and add left to right, as sum() does, so
        # they give sum()'s floats; per window: [bytes, delay sum, delays]
        self._in_window = [[0, 0, 0] for _ in self._bounds]
        self._bytes_total = self._delay_total = self._delays = 0
        self._delay_min = self._delay_max = 0.0
        self._errors = {"error_corrected": 0, "error_uncorrected": 0}
        self._added = 0  # sample records added, folded or not
        self._bad: Exception | None = None  # the first bad sample's exception

    @property
    def samples(self) -> range:
        """One entry per sample record added, in order; the values
        themselves are folded, not kept."""
        return range(self._added)

    def add_records(self, records) -> None:
        samples = [record for record in records if record.get("kind") in _SAMPLE_KINDS]
        self._added += len(samples)
        if self._bad is None:
            try:
                self._fold(samples)
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                self._bad = exc  # what float() and _sample raise on a bad sample

    def _window_bounds(self) -> list[tuple[float, float]]:
        bounds = []
        start = 0.0
        while start < self.duration_s:
            end = min(start + self.window_s, self.duration_s)
            bounds.append((start, end))
            start += self.window_s
        return bounds

    def _fold(self, samples: list[dict]) -> None:
        duration, bounds, starts = self.duration_s, self._bounds, self._starts
        in_window, errors = self._in_window, self._errors
        bytes_total, delay_total, delays = self._bytes_total, self._delay_total, self._delays
        delay_min, delay_max = self._delay_min, self._delay_max
        for record in samples:
            kind = record["kind"]
            if kind in errors:
                errors[kind] += 1
                continue
            t = float(record.get("t", 0.0))
            # a window holds start <= t < end; the last, ending at duration_s, also t == end
            i = bisect.bisect_right(starts, t) - 1
            window = in_window[i] if i >= 0 and (t < bounds[i][1] or t == bounds[i][1] == duration) \
                else None
            value = _sample(record, "bytes")
            bytes_total += value
            if window is not None:
                window[0] += value
            if kind == "deliver":
                value = _sample(record, "delay")
                # min() and max() keep the first of equal values, as these do
                if not delays or value < delay_min:
                    delay_min = value
                if not delays or value > delay_max:
                    delay_max = value
                delay_total += value
                delays += 1
                if window is not None:
                    window[1] += value
                    window[2] += 1
        self._bytes_total, self._delay_total, self._delays = bytes_total, delay_total, delays
        self._delay_min, self._delay_max = delay_min, delay_max

    def _rolled_up(self) -> tuple[list[tuple[str, float, float, float]], dict[str, float]]:
        """(per-window rows, run totals), from the running sums."""
        if self._bad is not None:
            raise self._bad
        duration = self.duration_s
        per_window: list[tuple[str, float, float, float]] = []
        for (start, end), (byte_sum, delay_sum, delay_count) in zip(self._bounds, self._in_window):
            if byte_sum > 0:
                per_window.append(
                    ("data_rate_bytes_per_s", start, end, data_rate(byte_sum, end - start)))
            if delay_count:
                per_window.append(("delay_mean_s", start, end, delay_sum / delay_count))

        corrected, uncorrected = self._errors["error_corrected"], self._errors["error_uncorrected"]
        totals = {
            "bytes_total": self._bytes_total,
            "data_rate_bytes_per_s": data_rate(self._bytes_total, duration),
            "errors_corrected": float(corrected),
            "errors_uncorrected": float(uncorrected),
            "ec_modeled": error_correction_rate(corrected, corrected + uncorrected),
        }
        if self._delays:
            totals["delay_mean_s"] = self._delay_total / self._delays
            totals["delay_min_s"] = self._delay_min
            totals["delay_max_s"] = self._delay_max
        return per_window, totals

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(metric, window_start, window_end, value) rows: the windows in
        time order, then the run-level rows."""
        per_window, totals = self._rolled_up()
        run_rows = [(metric, 0.0, self.duration_s, totals[metric])
                    for metric in ("bytes_total", "data_rate_bytes_per_s", "delay_mean_s",
                                   "delay_min_s", "delay_max_s", "ec_modeled")
                    if metric in totals]
        return per_window + run_rows

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for metric, start, end, value in self.rows():
            lines.append(f"{metric},{fmt(start)},{fmt(end)},{fmt(value)}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict[str, float]:
        """Run-level numbers for the text report."""
        return self._rolled_up()[1]
