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

# Event-log record kinds this module consumes. "publish" is a broker accept,
# "deliver" a subscriber delivery (carrying its delay), and the error kinds
# come from qos-1 recovery bookkeeping.
_SAMPLE_KINDS = ("publish", "deliver", "error_corrected", "error_uncorrected")


def _fmt(value: float) -> str:
    return format(value, ".10g")


def _sample(record: dict, field: str) -> float:
    value = float(record[field])
    if value < 0:
        raise ValueError(f"metric value must be >= 0: {field} {value}")
    return value


class Aggregator:
    """Windowed rollup of telemetry samples extracted from event records.

    `samples` keeps the records that carry samples, in the order they were
    added. rows() and summary() share one pass over them, redone only after
    more arrive. The pass keeps a running sum and count per window and a
    running sum, count, min and max for the run, no lists of values; its
    sums add the same values in the same order as a scan of every sample
    per window would, so the CSV keeps its bytes.
    """

    def __init__(self, duration_s: float, window_s: float = 3600.0):
        if duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.duration_s = duration_s
        self.window_s = window_s
        self.samples: list[dict] = []
        self._rollup_of = -1  # len(samples) when the cached rollup was made
        self._rollup: tuple[list[tuple[str, float, float, float]], dict[str, float]] = ([], {})

    def add_record(self, record: dict) -> None:
        self.add_records((record,))

    def add_records(self, records) -> None:
        self.samples.extend(record for record in records if record.get("kind") in _SAMPLE_KINDS)

    def _window_bounds(self) -> list[tuple[float, float]]:
        bounds = []
        start = 0.0
        while start < self.duration_s:
            end = min(start + self.window_s, self.duration_s)
            bounds.append((start, end))
            start += self.window_s
        return bounds

    def _rolled_up(self) -> tuple[list[tuple[str, float, float, float]], dict[str, float]]:
        """(per-window rows, run totals), from one pass over the samples."""
        if self._rollup_of == len(self.samples):
            return self._rollup
        duration = self.duration_s
        bounds = self._window_bounds()
        starts = [start for start, _ in bounds]
        # running sums start at 0 and add left to right, as sum() does, so
        # they give sum()'s floats; per window: [bytes, delay sum, delays]
        in_window = [[0, 0, 0] for _ in bounds]
        bytes_total = delay_total = delays = 0
        delay_min = delay_max = 0.0
        errors = {"error_corrected": 0, "error_uncorrected": 0}
        for record in self.samples:
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

        per_window: list[tuple[str, float, float, float]] = []
        for (start, end), (byte_sum, delay_sum, delay_count) in zip(bounds, in_window):
            if byte_sum > 0:
                per_window.append(
                    ("data_rate_bytes_per_s", start, end, data_rate(byte_sum, end - start)))
            if delay_count:
                per_window.append(("delay_mean_s", start, end, delay_sum / delay_count))

        corrected, uncorrected = errors["error_corrected"], errors["error_uncorrected"]
        totals = {
            "bytes_total": bytes_total,
            "data_rate_bytes_per_s": data_rate(bytes_total, duration),
            "errors_corrected": float(corrected),
            "errors_uncorrected": float(uncorrected),
            "ec_modeled": error_correction_rate(corrected, corrected + uncorrected),
        }
        if delays:
            totals["delay_mean_s"] = delay_total / delays
            totals["delay_min_s"] = delay_min
            totals["delay_max_s"] = delay_max
        self._rollup_of = len(self.samples)
        self._rollup = (per_window, totals)
        return self._rollup

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
            lines.append(f"{metric},{_fmt(start)},{_fmt(end)},{_fmt(value)}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict[str, float]:
        """Run-level numbers for the text report."""
        return dict(self._rolled_up()[1])
