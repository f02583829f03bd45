"""Communication metrics computed from run event streams.

Three primitive measures: data transfer rate (bytes moved over elapsed
time), point-to-point delay (broker accept to subscriber delivery), and the
error-correction ratio (recovered deliveries over deliveries that needed
recovery; 1.0 when nothing needed recovery). The aggregator is the one loop
over an event log's records: it counts them per kind, integrates the
parked-car count, and turns the publish and deliver records into windowed
CSV rows. It is a pure function of its input, so re-running it over the
same log reproduces the file byte for byte.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from collections.abc import Iterable


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


def fmt(value: float) -> str:
    """A number as metrics.csv and report.txt write it."""
    return format(value, ".10g")


def _sample(record: dict, field: str) -> float:
    value = float(record[field])
    if value < 0:
        raise ValueError(f"metric value must be >= 0: {field} {value}")
    return value


class Aggregator:
    """The one loop over an event log's records, fed a block at a time.

    Each record is visited once: its kind is counted, a park or depart
    steps the occupancy integral, and a `publish` (broker accept) or
    `deliver` (subscriber delivery, with its delay) is folded into its
    window and the run totals as running sums, counts, min and max. The
    sums add the same values in the same order as a scan of every sample
    per window would, so the CSV keeps its bytes, whatever the blocks.

    A record without `t` or `kind`, an unhashable kind, or a park or depart
    whose `t` is not a number raises a ValueError naming its index in the
    log. A bad sample (a negative value, a missing `bytes` or `delay`) does
    not: the first one stops the fold, and rows() and summary() raise it,
    as a scan made at report time would.
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
        # records per kind; a store into a Counter costs ~100 ns more than this
        self._counts: dict[str, int] = {}
        # running sums start at 0 and add left to right, as sum() does, so
        # they give sum()'s floats; per window: [bytes, delay sum, delays]
        self._in_window = [[0, 0, 0] for _ in self._bounds]
        self._bytes_total = self._delay_total = self._delays = 0
        self._delay_min = self._delay_max = 0.0
        self._bad: Exception | None = None  # the first bad sample's exception
        # the occupancy step function's integral over [0, duration_s]
        self._parked = 0
        self._level = 0                 # parked cars since _prev_t
        self._prev_t = 0.0
        self._area = 0.0                # car-seconds up to _prev_t
        self._past_end = False          # later steps fall outside [0, duration_s]

    @property
    def counts(self) -> Counter[str]:
        """Records added per kind, as a new Counter: an unseen kind reads 0."""
        return Counter(self._counts)

    @property
    def samples(self) -> range:
        """One entry per publish, deliver and error record added."""
        get = self._counts.get
        return range(get("publish", 0) + get("deliver", 0)
                     + get("error_corrected", 0) + get("error_uncorrected", 0))

    def add_records(self, records: Iterable[dict]) -> None:
        """Feed one block of records, in log order."""
        counts, duration, bounds, starts, in_window = (
            self._counts, self.duration_s, self._bounds, self._starts, self._in_window)
        bytes_total, delay_total, delays = self._bytes_total, self._delay_total, self._delays
        delay_min, delay_max, bad = self._delay_min, self._delay_max, self._bad
        # every record counted so far is one the log holds before this block
        for index, record in enumerate(records, start=sum(counts.values())):
            if not isinstance(record, dict) or "kind" not in record or "t" not in record:
                raise ValueError(f"record {index}: missing 't'/'kind' fields: {record!r}")
            kind = record["kind"]
            try:  # raises on an unhashable kind or a 't' that is not a number
                counts[kind] = counts.get(kind, 0) + 1
                if kind == "car_parks" or kind == "car_departs":
                    self._parked += 1 if kind == "car_parks" else -1
                    self._step(float(record["t"]))
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise ValueError(f"record {index}: {exc}: {record!r}") from None
            if bad is not None or (kind != "publish" and kind != "deliver"):
                continue
            try:  # what float() and _sample raise on a bad sample
                t = float(record["t"])
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
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                bad = exc
        self._bytes_total, self._delay_total, self._delays = bytes_total, delay_total, delays
        self._delay_min, self._delay_max, self._bad = delay_min, delay_max, bad

    def _window_bounds(self) -> list[tuple[float, float]]:
        bounds = []
        start = 0.0
        while start < self.duration_s:
            end = min(start + self.window_s, self.duration_s)
            bounds.append((start, end))
            start += self.window_s
        return bounds

    def _step(self, t: float) -> None:
        # one turn of the integral: a step before 0 only sets the level, and
        # the first past duration_s ends it
        if self._past_end or t > self.duration_s:
            self._past_end = True
            return
        if not t < 0.0:  # a NaN time too, which makes the area NaN
            self._area += self._level * (t - self._prev_t)
            self._prev_t = t
        self._level = self._parked

    def mean_occupancy(self) -> float:
        """The time-weighted mean parked-car count over [0, duration_s], float
        for float that of the step function built as a list from the records."""
        return (self._area + self._level * (self.duration_s - self._prev_t)) / self.duration_s

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

        corrected = self._counts.get("error_corrected", 0)
        uncorrected = self._counts.get("error_uncorrected", 0)
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
