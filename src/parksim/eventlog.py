"""The event log, events.jsonl, read back and summarised.

A run writes one JSON record per line, its `meta` header first.
`iter_events_jsonl` decodes the lines one record at a time. A
`ReportTally` is the log's one summary: a run feeds it the records as it
makes them and `render_report` feeds it the records of a written log, both
BLOCK_RECORDS at a time, so report.txt and metrics.csv come out the same
either way. The tally reads the `meta` header and lays out report.txt;
the records themselves are visited once, by its `telemetry.Aggregator`.
Nothing here imports the simulator.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO

from . import telemetry

BLOCK_RECORDS = 1024  # records go to a ReportTally this many at a time


def iter_events_jsonl(log: BinaryIO, name: str | Path) -> Iterator[dict[str, Any]]:
    """The records of the events.jsonl lines in the binary stream `log`, one
    at a time. Each line that is not blank must hold exactly one JSON value
    in UTF-8: a line with two records, or a record split over two lines,
    raises a ValueError naming `name` and the line's number."""
    for lineno, line in enumerate(log, start=1):
        if line.isspace():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{name}:{lineno}: malformed event record: {exc}") from exc
        yield record


def read_events_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """The records of the events.jsonl file at `path`, as one list."""
    with open(path, "rb") as log:
        return list(iter_events_jsonl(log, path))


class ReportTally:
    """The summary of an event log, gathered in one pass as its records are
    fed a block at a time.

    The first record fed must be the log's `meta` header: its
    `config.duration_s` builds the `telemetry.Aggregator` that every block
    then goes to. The aggregator's loop is the only one over a block: it
    checks each record and keeps the counts per kind, the mean occupancy
    and the telemetry behind metrics.csv. The tally keeps the header and
    lays out report.txt.
    """

    def __init__(self) -> None:
        self.meta: dict[str, Any] = {}
        self.duration_s: float | None = None
        self.aggregator: telemetry.Aggregator | None = None

    def add_records(self, records: list[dict[str, Any]]) -> None:
        """Feed one block of records, the first of them the log's header if
        this is the first block."""
        if self.aggregator is None:
            self._read_header(records[0])
        self.aggregator.add_records(records)

    @property
    def counts(self) -> Counter[str]:
        """Records fed per kind; a kind never fed reads 0."""
        return Counter() if self.aggregator is None else self.aggregator.counts

    def mean_occupancy(self) -> float:
        return 0.0 if self.aggregator is None else self.aggregator.mean_occupancy()

    def _read_header(self, first: Any) -> None:
        config = first.get("config") if isinstance(first, dict) and first.get("kind") == "meta" \
            else None
        try:
            duration = float(config["duration_s"])
        except (ArithmeticError, LookupError, TypeError, ValueError):
            raise ValueError(f"record 0: not a meta header with a number as config.duration_s: "
                             f"{first!r}") from None
        streams = first.get("rng_streams", [])
        if not isinstance(streams, list) or not all(isinstance(name, str) for name in streams):
            raise ValueError(f"record 0: rng_streams is not a list of strings: {first!r}")
        # refuses a duration that is not > 0, not finite, or makes too many windows
        self.aggregator = telemetry.Aggregator(duration_s=duration)
        self.meta, self.duration_s = first, duration

    def render(self) -> str:
        """report.txt."""
        if self.aggregator is None:
            raise ValueError("record 0: missing; a log starts with a meta header "
                             "carrying config.duration_s")
        try:
            summary = self.aggregator.summary()
        except (ArithmeticError, LookupError, TypeError) as exc:
            raise ValueError(f"a publish or deliver record is malformed: {exc!r}") from None
        fmt = telemetry.fmt
        meta, counts = self.meta, self.counts
        config = meta.get("config", {})
        lines = [
            "parksim run report",
            "==================",
            f"rng: {meta.get('rng', 'unknown')} seed={config.get('seed', '?')} "
            f"streams={','.join(meta.get('rng_streams', []))}",
            f"duration_s: {fmt(self.duration_s)}   slots: {config.get('facility.total_slots', '?')}",
            "",
            "traffic",
            f"  arrivals:   {counts['car_arrives']} "
            f"(admitted {counts['car_admitted']}, rejected {counts['car_rejected']})",
            f"  departures: {counts['car_departs']}",
            f"  mean occupancy (parked): {fmt(self.mean_occupancy())}",
            "",
            "environment",
            f"  env samples: {counts['env_sample']}"
            f"   gas samples: {counts['gas_sample']}",
            f"  fan on/off events: {counts['fan']}   anomalies: {counts['anomaly']}",
            "",
            "mqtt telemetry",
            f"  publishes accepted: {counts['publish']}"
            f"   deliveries: {counts['deliver']}   drops: {counts['drop']}",
            f"  bytes total: {fmt(summary['bytes_total'])}   "
            f"data rate: {fmt(summary['data_rate_bytes_per_s'])} bytes/s",
        ]
        if "delay_mean_s" in summary:
            lines.append(
                f"  delay s (mean/min/max): {fmt(summary['delay_mean_s'])}"
                f"/{fmt(summary['delay_min_s'])}/{fmt(summary['delay_max_s'])}"
            )
        lines.append(
            f"  EC (modeled): {fmt(summary['ec_modeled'])} "
            f"(corrected {int(summary['errors_corrected'])},"
            f" uncorrected {int(summary['errors_uncorrected'])})"
        )
        lines.append("")
        return "\n".join(lines)


def render_report(records: Iterable[dict[str, Any]]) -> str:
    """Human-readable run summary regenerable from the event log alone.

    `records` is read once, so a one-shot iterator such as
    iter_events_jsonl over an open file will do. They go to a ReportTally
    BLOCK_RECORDS at a time, as Simulation._flush_block feeds them during
    a run. A log that does not start with its `meta` header, or holds a
    record the tally cannot read, raises a ValueError."""
    records = iter(records)
    tally = ReportTally()
    while block := list(islice(records, BLOCK_RECORDS)):
        tally.add_records(block)
    return tally.render()
