"""Event production and normalization: synthetic generation, file replay,
token-bucket pacing, and the at-least-once connector runner.

The synthetic generator stands in for live exchange scrapers. It is fully
determined by (seed, count, symbols, dup_prob_bp) and exposes its internal
state between primary events, so a connector killed mid-run resumes from its
last saved state and regenerates the identical suffix (same timestamps,
prices, and sequence numbers). Redelivered events are absorbed downstream by
identity dedup.

A replay connector resumes by byte offset: it saves the offset just after
its last consumed line and seeks there, so a run reads only the lines
appended to its feed since the last one, however long the feed has grown.
A state without an offset starts the feed over at byte 0 with empty
sequence counters; the lines it stages again keep their sequence numbers
and are dropped as duplicates at export, at the cost of one re-read of the
feed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Iterator

from . import crashpoints
from .errors import ConfigInvalid, MalformedLine, MissingField, UnknownSymbol
from .events import REQUIRED_PAYLOAD, ConnectorConfig, MarketEvent, RawEvent
from .fixedpoint import format_e8, parse_decimal_e8
from .localfile import read_json, record_from_json
from .staging import StagingStore

MASK64 = (1 << 64) - 1

SYNTHETIC_EPOCH_US = 1_600_000_000_000_000
START_PRICE_E8 = 10_000 * 10**8


class SplitMix64:
    """splitmix64 PRNG; the entire synthetic stream derives from it."""

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


@dataclass
class SyntheticState:
    """Generator position between primary events; JSON-serializable."""

    next_index: int
    prng_state: int
    price_e8: int
    last_event_time_us: int

    @classmethod
    def initial(cls, seed: int) -> "SyntheticState":
        return cls(0, seed & MASK64, START_PRICE_E8, SYNTHETIC_EPOCH_US)


def synthetic_steps(
    config: ConnectorConfig, state: SyntheticState | None = None
) -> Iterator[tuple[list[RawEvent], SyntheticState]]:
    """Yield ([primary event, injected duplicate?], state-after) per primary
    event, resuming from ``state`` when given."""
    st = state or SyntheticState.initial(config.seed)
    rng = SplitMix64(0)
    rng.state = st.prng_state
    raw_symbols = list(config.symbols.keys())
    price_e8 = st.price_e8
    t_us = st.last_event_time_us
    for n in range(st.next_index, config.count):
        t_us += (1 + rng.next_u64() % 1000) * 1000
        price_e8 = max(1, price_e8 + (rng.next_u64() % 101 - 50) * 10_000)
        qty_e8 = (1 + rng.next_u64() % 100) * 1_000_000
        side = "buy" if rng.next_u64() % 2 == 0 else "sell"
        event = RawEvent(
            source=config.source,
            stream="trade",
            raw_symbol=raw_symbols[n % len(raw_symbols)],
            event_time_us=t_us,
            payload={
                "price": format_e8(price_e8),
                "qty": format_e8(qty_e8),
                "side": side,
                "id": f"{config.connector_id}-{n}",
            },
        )
        batch = [event]
        if rng.next_u64() % 10_000 < config.dup_prob_bp:
            batch.append(event)
        yield batch, SyntheticState(n + 1, rng.state, price_e8, t_us)


def generate_synthetic(config: ConnectorConfig) -> Iterator[RawEvent]:
    """Flat deterministic event stream: primaries plus injected duplicates."""
    for batch, _ in synthetic_steps(config):
        yield from batch


# -- file replay ---------------------------------------------------------------

_RAW_FIELDS = [f.name for f in fields(RawEvent)]


def _raw_event(obj: Any, line_no: int) -> RawEvent:
    """The RawEvent of a replay line's JSON value: a raw field the line lacks
    or a payload key its stream requires is MissingField."""
    if isinstance(obj, dict):
        for name in _RAW_FIELDS:
            if name not in obj:
                raise MissingField(name, line_no)
    raw = record_from_json(RawEvent, obj)
    for name in REQUIRED_PAYLOAD.get(raw.stream, ()):
        if name not in raw.payload:
            raise MissingField(name, line_no)
    return raw


def _decode_line(line: bytes, line_no: int) -> RawEvent:
    return read_json(line, partial(_raw_event, line_no=line_no), partial(MalformedLine, line_no))


def replay_events(path: str | Path, offset: int = 0) -> Iterator[tuple[RawEvent, int]]:
    """Yield (RawEvent, byte offset just after its line) from a JSON Lines
    file, in file order, from byte ``offset`` on. The bytes before offset
    are not read, so a session resumed by offset pays only for the lines it
    has not consumed yet. An offset must end a line: it falls just after a
    newline, just before one (a last line consumed before its newline was
    written) or at the end of the file. One that does not, or lies past the
    end, means the file was rewritten under its reader, and is ConfigInvalid
    naming ``replay_path``.

    A line that is not UTF-8, not JSON or not a raw event is MalformedLine,
    and errors carry file line numbers, blank lines included: the newlines
    before offset are counted only to number an error. A file that cannot be
    opened or read (missing, a directory) is ConfigInvalid naming
    ``replay_path``."""
    try:
        with open(path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            f.seek(max(offset - 1, 0))
            if offset > size or 0 < offset < size and b"\n" not in f.read(2):  # the bytes around offset
                raise ConfigInvalid("replay_path", f"{path} holds no line that ends at byte {offset}: "
                                    "the feed was truncated or rewritten")
            f.seek(offset)
            end = offset
            for n, line in enumerate(f, start=1):
                end += len(line)
                if not line.strip():
                    continue
                try:
                    raw = _decode_line(line, n)
                except (MalformedLine, MissingField):
                    if not offset:
                        raise
                    f.seek(0)
                    _decode_line(line, f.read(offset).count(b"\n") + n)  # the same error, numbered in the file
                    raise
                yield raw, end
    except OSError as exc:
        raise ConfigInvalid("replay_path", f"cannot read {path}: {exc}") from None


def replay_file(path: str | Path) -> Iterator[RawEvent]:
    """The RawEvents of ``replay_events(path)``."""
    for raw, _ in replay_events(path):
        yield raw


# -- normalization ---------------------------------------------------------------

def normalize(
    raw: RawEvent, config: ConnectorConfig, ingest_time_us: int, sequence: int
) -> MarketEvent:
    """Map a raw event to the canonical record.

    The per-(source, stream, symbol) sequence counter lives with the caller;
    normalization itself is pure.
    """
    symbol = config.symbols.get(raw.raw_symbol)
    if symbol is None:
        raise UnknownSymbol(raw.raw_symbol)
    if "id" not in raw.payload:
        raise MissingField("id")
    price_e8 = parse_decimal_e8(raw.payload["price"], "price") if "price" in raw.payload else 0
    qty_e8 = parse_decimal_e8(raw.payload["qty"], "qty") if "qty" in raw.payload else 0
    side = raw.payload.get("side", "") if raw.stream == "trade" else "na"
    event = MarketEvent(
        source=raw.source,
        stream=raw.stream,
        symbol=symbol,
        event_time_us=raw.event_time_us,
        ingest_time_us=ingest_time_us,
        sequence=sequence,
        event_id=raw.payload["id"],
        price_e8=price_e8,
        qty_e8=qty_e8,
        side=side,
    )
    event.validate()
    return event


# -- token bucket -----------------------------------------------------------------

@dataclass
class TokenBucket:
    """Continuous-refill token bucket; deterministic given call timestamps."""

    rate_per_s: int
    burst: int
    tokens: float = field(init=False)
    last_us: int = field(init=False, default=0)

    def __post_init__(self):
        self.tokens = float(self.burst)

    def take(self, now_us: int) -> bool:
        elapsed = max(0, now_us - self.last_us)
        self.tokens = min(float(self.burst), self.tokens + elapsed * self.rate_per_s / 1_000_000)
        self.last_us = now_us
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def wait_us(self) -> int:
        """Microseconds until one token is available (0 if already)."""
        if self.tokens >= 1.0:
            return 0
        deficit = 1.0 - self.tokens
        return int(deficit * 1_000_000 / self.rate_per_s) + 1


# -- connector runner ----------------------------------------------------------------

@dataclass
class SessionSummary:
    events_appended: int
    last_offset: int


@dataclass
class ConnectorState:
    """What a connector saves after each appended batch: its per-(source,
    stream, symbol) sequence counters and its position, the synthetic
    generator's state or the byte offset just after the last replay line
    consumed. The counters hold only with the position saved beside them: a
    state without a position, such as a replay state saved before offsets
    were, starts over at the first event with empty counters."""

    seq_counters: dict[str, int] = field(default_factory=dict)
    synthetic: SyntheticState | None = None
    replay_offset: int | None = None

    def __post_init__(self):
        """A saved position is never negative: one that is raises
        ValueError, which makes the state file that holds it CorruptStaging."""
        positions = {"replay_offset": self.replay_offset,
                     "next_index": self.synthetic and self.synthetic.next_index}
        for name, value in positions.items():
            if value is not None and value < 0:
                raise ValueError(f"{name} {value} is negative")

    def next_sequence(self, event_key: tuple[str, str, str]) -> int:
        key = "|".join(event_key)
        seq = self.seq_counters.get(key, 0)
        self.seq_counters[key] = seq + 1
        return seq


def run_connector(config: ConnectorConfig, staging: StagingStore) -> SessionSummary:
    """Generate or replay events, normalize, and append to staging.

    Delivery is at-least-once: connector state (generator position plus
    sequence counters) is saved after every appended batch, so a crash replays
    at most one batch. Synthetic resume regenerates a byte-identical suffix.
    """
    config.validate()
    bucket = TokenBucket(config.rate_limit.rate_per_s, config.rate_limit.burst)
    appended = 0
    last_offset = -1
    with staging.open_session(config.connector_id) as session:
        saved = staging.load_connector_state(config.connector_id, ConnectorState) or ConnectorState()
        # Each step's raw events, then the position after it: the generator's
        # state, or the byte offset just after the replay line.
        if config.kind == "synthetic":
            resume = saved.synthetic
            steps = synthetic_steps(config, resume)
        else:
            resume = saved.replay_offset
            steps = (([raw], end) for raw, end in replay_events(config.replay_path, resume or 0))
        # as of the last batch appended; counters saved without a position start over
        state = ConnectorState(saved.seq_counters if resume is not None else {})

        batch: list[MarketEvent] = []

        def flush() -> None:
            nonlocal appended, last_offset
            if not batch:
                return
            _, last = session.append_batch(batch)
            appended += len(batch)
            last_offset = last
            crashpoints.crashpoint("ingest.append")
            staging.save_connector_state(config.connector_id, state)
            batch.clear()

        for raws, position in steps:
            for raw in raws:
                while not bucket.take(time.time_ns() // 1000):
                    time.sleep(bucket.wait_us() / 1_000_000)
                ingest_time = (raw.event_time_us if config.ingest_time_mode == "event_time"
                               else time.time_ns() // 1000)
                # an unmapped raw symbol raises UnknownSymbol in normalize
                symbol = config.symbols.get(raw.raw_symbol, "")
                seq = state.next_sequence((raw.source, raw.stream, symbol))
                batch.append(normalize(raw, config, ingest_time, seq))
            if config.kind == "synthetic":
                state.synthetic = position
            else:
                state.replay_offset = position
            if len(batch) >= config.batch_size:
                flush()
        flush()
    return SessionSummary(events_appended=appended, last_offset=last_offset)
