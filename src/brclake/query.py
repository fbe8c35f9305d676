"""Researcher-facing read path: pruned time-range scans with optional time
travel, OHLCV aggregation, and deterministic CSV/JSONL export.

Scans pin a snapshot at plan time, open only the files the partition and
min-max pruning admit, and k-way merge the per-file streams into one globally
sorted event stream. Renderings are fixed: e8 quantities always carry exactly
8 fractional digits, timestamps are ISO8601 with microseconds and a Z suffix,
so identical queries produce byte-identical output.
"""

from __future__ import annotations

import heapq
import io
import json
from dataclasses import dataclass, fields
from itertools import groupby
from typing import Iterable, Iterator

from .errors import ConfigInvalid, NonTradeEvent
from .etl import ROW_ORDER
from .events import SYMBOL_RE, TABLE_COLUMNS, MarketEvent, event_from_row
from .fixedpoint import format_e8, us_to_iso
from .lakehouse import AddFile, LakeTable, list_files, read_data_file


@dataclass
class ScanRequest:
    table_id: str
    time_range: tuple[int, int]  # [t0_us, t1_us)
    symbols: set[str]
    version: int | None = None

    def validate(self) -> None:
        t0, t1 = self.time_range
        if t0 >= t1:
            raise ConfigInvalid("time_range", "must be non-empty")
        if not self.symbols:
            raise ConfigInvalid("symbols", "at least one symbol required")
        for symbol in sorted(self.symbols):
            if not SYMBOL_RE.fullmatch(symbol):
                raise ConfigInvalid("symbols", f"{symbol!r} is not a normalized symbol (BASE-QUOTE)")


def scan(store, table: LakeTable, request: ScanRequest) -> Iterator[MarketEvent]:
    """Events within the request's range and symbols, globally sorted by
    ROW_ORDER. Only partitions of the requested symbols are planned, so rows
    need filtering by time alone; each file is fetched and decoded when the
    merge first pulls from it, and checked against its AddFile
    (``read_data_file``), and only yielded rows become events."""
    request.validate()
    t0, t1 = request.time_range
    snapshot = table.snapshot_at(request.version)
    planned = list_files(snapshot, request.time_range, request.symbols)

    def file_rows(add: AddFile) -> Iterator[tuple]:
        for row in read_data_file(store, add).rows():
            if t0 <= row[0] < t1:
                yield row

    streams = [file_rows(add) for add in planned]
    return map(event_from_row, heapq.merge(*streams, key=ROW_ORDER))


# -- OHLCV ---------------------------------------------------------------------

@dataclass(frozen=True)
class OhlcvBar:
    bucket_start_us: int
    open_e8: int
    high_e8: int
    low_e8: int
    close_e8: int
    volume_e8: int
    trade_count: int


def ohlcv(events: Iterable[MarketEvent], width_us: int) -> list[OhlcvBar]:
    """Fixed-width buckets over a sorted trade stream; empty buckets omitted.
    Each run of trades in one bucket folds into one bar."""
    if width_us <= 0:
        raise ConfigInvalid("ohlcv", "bucket width must be positive")
    bars: list[OhlcvBar] = []
    for bucket, group in groupby(_trades(events), key=lambda e: e.event_time_us // width_us * width_us):
        trades = list(group)
        prices = [e.price_e8 for e in trades]
        bars.append(OhlcvBar(bucket, prices[0], max(prices), min(prices), prices[-1],
                             sum(e.qty_e8 for e in trades), len(trades)))
    return bars


def _trades(events: Iterable[MarketEvent]) -> Iterator[MarketEvent]:
    for event in events:
        if event.stream != "trade":
            raise NonTradeEvent(f"ohlcv over stream {event.stream!r}")
        yield event


# -- export --------------------------------------------------------------------------

EVENT_HEADER = [name for name, _ in TABLE_COLUMNS]
BAR_HEADER = [f.name for f in fields(OhlcvBar)]


def _render_event(event: MarketEvent) -> tuple[str | int, ...]:
    return (us_to_iso(event.event_time_us), us_to_iso(event.ingest_time_us),
            event.source, event.stream, event.symbol, event.sequence, event.event_id,
            format_e8(event.price_e8), format_e8(event.qty_e8), event.side)


def _render_bar(bar: OhlcvBar) -> tuple[str | int, ...]:
    return (us_to_iso(bar.bucket_start_us), format_e8(bar.open_e8), format_e8(bar.high_e8),
            format_e8(bar.low_e8), format_e8(bar.close_e8), format_e8(bar.volume_e8),
            bar.trade_count)


def _csv_field(value: str | int) -> str:
    s = str(value)
    if any(c in s for c in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def export_rows(
    rows: Iterable[tuple[str | int, ...]],
    header: list[str],
    fmt: str,
    sink: io.IOBase,
) -> int:
    """Write rendered rows, whose values follow header, as CSV (header + LF
    lines) or JSONL; returns count."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigInvalid("format", f"unknown format {fmt!r}; want csv or jsonl")
    count = 0
    separators = len(header) - 1
    if fmt == "csv":
        sink.write((",".join(header) + "\n").encode())
        for row in rows:
            # Quoting is checked once per line: only a field holding a
            # comma, quote, CR or LF needs it, and a comma shows as one
            # separator too many.
            line = ",".join(map(str, row))
            if line.count(",") > separators or '"' in line or "\n" in line or "\r" in line:
                line = ",".join(map(_csv_field, row))
            sink.write((line + "\n").encode())
            count += 1
    else:
        for row in rows:
            sink.write((json.dumps(dict(zip(header, row)), sort_keys=True) + "\n").encode())
            count += 1
    return count


def export_events(events: Iterable[MarketEvent], fmt: str, sink) -> int:
    return export_rows((_render_event(e) for e in events), EVENT_HEADER, fmt, sink)


def export_bars(bars: Iterable[OhlcvBar], fmt: str, sink) -> int:
    return export_rows((_render_bar(b) for b in bars), BAR_HEADER, fmt, sink)
