"""The event log, events.jsonl, read back and summarised.

A run writes one JSON record per line, its `meta` header first.
`iter_events_jsonl` decodes the lines one record at a time. The log's one
summary is a `telemetry.Aggregator`, built from the duration the header
carries and fed the records BLOCK_RECORDS at a time: a run feeds its own
as it makes them, and `render_report` those of a written log, so
report.txt and metrics.csv come out the same either way. `read_header`
checks the header and `render` lays out report.txt from the header and
the Aggregator. Nothing here imports the simulator.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO

from . import telemetry

BLOCK_RECORDS = 1024  # records go to an Aggregator this many at a time


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


def read_header(first: Any) -> float:
    """The `config.duration_s` of `first`, the log's `meta` header; a
    ValueError if `first` is no such header."""
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
    return duration


def render(meta: dict[str, Any], aggregator: telemetry.Aggregator) -> str:
    """report.txt, from the log's header and the Aggregator fed the log."""
    try:
        summary = aggregator.summary()
    except (ArithmeticError, LookupError, TypeError) as exc:
        raise ValueError(f"a publish or deliver record is malformed: {exc!r}") from None
    fmt = telemetry.fmt
    counts = aggregator.counts
    config = meta.get("config", {})
    lines = [
        "parksim run report",
        "==================",
        f"rng: {meta.get('rng', 'unknown')} seed={config.get('seed', '?')} "
        f"streams={','.join(meta.get('rng_streams', []))}",
        f"duration_s: {fmt(aggregator.duration_s)}   "
        f"slots: {config.get('facility.total_slots', '?')}",
        "",
        "traffic",
        f"  arrivals:   {counts['car_arrives']} "
        f"(admitted {counts['car_admitted']}, rejected {counts['car_rejected']})",
        f"  departures: {counts['car_departs']}",
        f"  mean occupancy (parked): {fmt(aggregator.mean_occupancy())}",
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
    iter_events_jsonl over an open file will do. They go, the `meta` header
    first, to an Aggregator built from its duration, BLOCK_RECORDS at a
    time, as Simulation._flush_block feeds them during a run. A log that
    does not start with its header, or holds a record the Aggregator
    cannot read, raises a ValueError."""
    records = iter(records)
    block = list(islice(records, BLOCK_RECORDS))
    if not block:
        raise ValueError("record 0: missing; a log starts with a meta header "
                         "carrying config.duration_s")
    meta = block[0]
    # refuses a duration that is not > 0, not finite, or makes too many windows
    aggregator = telemetry.Aggregator(duration_s=read_header(meta))
    while block:
        aggregator.add_records(block)
        block = list(islice(records, BLOCK_RECORDS))
    return render(meta, aggregator)
