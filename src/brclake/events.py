"""Raw and normalized market event records, their encoded table row, plus
connector configuration.

``TABLE_COLUMNS`` is the one statement of the table's row layout: an event's
encoded row (``event_to_row``) holds its fields in that order, text as UTF-8
bytes. Staging decodes its lines straight to this row, and etl and query
work on it from the drain to the scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from .errors import BadDecimal, BadSide, ConfigInvalid, InvalidEvent
from .fixedpoint import I64_MAX, I64_MIN, US_YEAR_10000
from .lakeformat import BYTES, INT64
from .localfile import config_from_json
from .objectstore import MAX_SEGMENT_BYTES

# Matched with fullmatch: a pattern ending in $ also matches before a final "\n".
SOURCE_RE = re.compile(r"[a-z0-9_-]+")
SYMBOL_RE = re.compile(r"[A-Z0-9]+-[A-Z0-9]+")

STREAMS = ("trade", "quote", "book_snapshot")
SIDES = ("buy", "sell", "na")

# payload keys a raw event must carry, by stream kind
REQUIRED_PAYLOAD = {"trade": ("price", "qty", "side", "id")}

# The table's columns, in the order of an encoded row. MarketEvent has one
# field per column: its BYTES columns are str fields, its INT64 columns int.
TABLE_COLUMNS: list[tuple[str, str]] = [
    ("event_time_us", INT64),
    ("ingest_time_us", INT64),
    ("source", BYTES),
    ("stream", BYTES),
    ("symbol", BYTES),
    ("sequence", INT64),
    ("event_id", BYTES),
    ("price_e8", INT64),
    ("qty_e8", INT64),
    ("side", BYTES),
]
TEXT_FIELDS = tuple(name for name, ptype in TABLE_COLUMNS if ptype == BYTES)
INT_FIELDS = tuple(name for name, ptype in TABLE_COLUMNS if ptype == INT64)
_text_fields = attrgetter(*TEXT_FIELDS)
_int_fields = attrgetter(*INT_FIELDS)


@dataclass
class RawEvent:
    """Source-native record as emitted by a connector, before normalization."""

    source: str
    stream: str
    raw_symbol: str
    event_time_us: int
    payload: dict[str, str]


@dataclass(frozen=True)
class MarketEvent:
    """Canonical normalized tick; dedup identity is (source, stream, symbol, event_id)."""

    source: str
    stream: str
    symbol: str
    event_time_us: int
    ingest_time_us: int
    sequence: int
    event_id: str
    price_e8: int
    qty_e8: int
    side: str

    @property
    def identity(self) -> tuple[str, str, str, str]:
        return (self.source, self.stream, self.symbol, self.event_id)

    def validate(self) -> None:
        texts, ints = _text_fields(self), _int_fields(self)
        if set(map(type, texts)) != {str}:
            name, value = next((n, v) for n, v in zip(TEXT_FIELDS, texts) if type(v) is not str)
            raise InvalidEvent(name, f"{name} {value!r} is not a string")
        if set(map(type, ints)) != {int} or min(ints) < I64_MIN or max(ints) > I64_MAX:
            name, value = next((n, v) for n, v in zip(INT_FIELDS, ints)
                               if type(v) is not int or not I64_MIN <= v <= I64_MAX)
            if name in ("price_e8", "qty_e8"):
                raise BadDecimal(name[:-3], f"{name[:-3]} {value!r} e-8 is not an int64")
            raise InvalidEvent(name, f"{name} {value!r} is not an int64")
        if not SOURCE_RE.fullmatch(self.source):
            raise InvalidEvent("source", f"bad source {self.source!r}")
        if self.stream not in STREAMS:
            raise InvalidEvent("stream", f"bad stream {self.stream!r}")
        if not SYMBOL_RE.fullmatch(self.symbol):
            raise InvalidEvent("symbol", f"bad symbol {self.symbol!r}")
        try:
            self.event_id.encode()
        except UnicodeEncodeError:  # a lone surrogate, which a JSON escape can carry
            raise InvalidEvent("event_id", f"event id {self.event_id!r} is not valid UTF-8")
        if not 0 < self.event_time_us < US_YEAR_10000:
            raise InvalidEvent("event_time_us", f"event time {self.event_time_us} not in (0, US_YEAR_10000)")
        if self.sequence < 0:
            raise InvalidEvent("sequence", f"sequence {self.sequence} not a non-negative int64")
        if self.stream == "trade":
            for name, value in (("price", self.price_e8), ("qty", self.qty_e8)):
                if value <= 0:
                    raise BadDecimal(name, f"trade {name} {value} e-8 not positive")
        if self.side not in (("buy", "sell") if self.stream == "trade" else SIDES):
            raise BadSide(self.side)
        if not 0 < self.ingest_time_us < US_YEAR_10000:
            raise InvalidEvent("ingest_time_us", f"ingest time {self.ingest_time_us} not in (0, US_YEAR_10000)")

    def sort_key(self) -> tuple:
        # (event_time_us, sequence, event_id) is the contractual order; the
        # remaining fields only break ties between unrelated sources. Encoded
        # table rows sort the same way by etl.ROW_ORDER.
        return (self.event_time_us, self.sequence, self.event_id,
                self.symbol, self.source, self.stream)


def event_to_row(event: MarketEvent) -> tuple:
    return (
        event.event_time_us,
        event.ingest_time_us,
        event.source.encode(),
        event.stream.encode(),
        event.symbol.encode(),
        event.sequence,
        event.event_id.encode(),
        event.price_e8,
        event.qty_e8,
        event.side.encode(),
    )


def event_from_row(row: tuple) -> MarketEvent:
    return MarketEvent(
        event_time_us=row[0],
        ingest_time_us=row[1],
        source=row[2].decode(),
        stream=row[3].decode(),
        symbol=row[4].decode(),
        sequence=row[5],
        event_id=row[6].decode(),
        price_e8=row[7],
        qty_e8=row[8],
        side=row[9].decode(),
    )


@dataclass
class RateLimit:
    rate_per_s: int = 1_000_000
    burst: int = 1_000_000


@dataclass
class ConnectorConfig:
    """One connector session: synthetic generation or file replay.

    ``symbols`` maps raw source symbols to normalized BASE-QUOTE form; its
    insertion order drives the synthetic generator's round-robin.
    ``ingest_time_mode`` selects wall-clock ingest stamps ("wall") or the
    event's own timestamp ("event_time"), the latter making whole runs
    reproducible for scenario oracles.
    """

    connector_id: str
    kind: str  # "synthetic" | "replay"
    source: str
    symbols: dict[str, str]
    seed: int = 0
    count: int = 0
    dup_prob_bp: int = 0
    rate_limit: RateLimit = field(default_factory=RateLimit)
    replay_path: str = ""
    ingest_time_mode: str = "wall"
    batch_size: int = 500

    def validate(self) -> None:
        if not self.connector_id:
            raise ConfigInvalid("connector_id", "must be non-empty")
        if self.kind not in ("synthetic", "replay"):
            raise ConfigInvalid("kind", f"unknown connector kind {self.kind!r}")
        if not SOURCE_RE.fullmatch(self.source):
            raise ConfigInvalid("source", f"{self.source!r} must match [a-z0-9_-]+")
        if not self.symbols:
            raise ConfigInvalid("symbols", "at least one symbol mapping required")
        for raw, normalized in self.symbols.items():
            if not SYMBOL_RE.fullmatch(normalized):
                raise ConfigInvalid("symbols", f"{raw!r} maps to non-canonical {normalized!r}")
            if len(f"symbol={normalized}") > MAX_SEGMENT_BYTES:  # its partitions' key segment
                raise ConfigInvalid("symbols", f"{raw!r} maps to {normalized!r}, longer than a partition "
                                               f"key segment of {MAX_SEGMENT_BYTES} bytes holds")
        if not 0 <= self.dup_prob_bp <= 10_000:
            raise ConfigInvalid("dup_prob_bp", "must be within [0, 10000]")
        if self.kind == "synthetic" and self.count < 0:
            raise ConfigInvalid("count", "must be >= 0")
        if self.kind == "replay" and not self.replay_path:
            raise ConfigInvalid("replay_path", "required for replay connectors")
        if "\0" in self.replay_path:
            raise ConfigInvalid("replay_path", "must not hold a NUL byte")
        if self.rate_limit.rate_per_s < 1:
            raise ConfigInvalid("rate_limit.rate_per_s", "must be >= 1")
        if self.rate_limit.burst < 1:
            raise ConfigInvalid("rate_limit.burst", "must be >= 1")
        if self.ingest_time_mode not in ("wall", "event_time"):
            raise ConfigInvalid("ingest_time_mode", f"unknown mode {self.ingest_time_mode!r}")
        if self.batch_size < 1:
            raise ConfigInvalid("batch_size", "must be >= 1")

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "ConnectorConfig":
        """Read and validate a config from its JSON form; a missing or
        ill-typed field, or a key that names no field, raises ConfigInvalid
        naming it."""
        if not isinstance(obj, dict):
            raise ConfigInvalid("connector", "must be a JSON object")
        cfg = config_from_json(cls, obj)
        cfg.validate()
        return cfg

