"""Seeded inputs for the benchmark workloads, and the oracles that check the
program's outputs against them.

Every input derives from the workload seed through ``random.Random``, so one
seed always yields the same connector configs, JSONL feed lines and query
mix. The program only ever sees the generated configs and feed files.

The oracles are brute force: ``harness.oracle_events`` normalizes and
deduplicates the raw stream and ``harness.oracle_csv`` renders its range
filter. The research queries' oracles below filter that list by time and
symbol, build OHLCV bars from it, and render with the program's renderers
(JSONL and bars, which the harness does not render).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from brclake.events import ConnectorConfig, MarketEvent
from brclake.query import OhlcvBar, export_bars, export_events

SYMBOLS = {"BTCUSDT": "BTC-USDT", "ETHUSDT": "ETH-USDT", "XRPUSDT": "XRP-USDT"}
RAW_SYMBOLS = list(SYMBOLS)
ALL_SYMBOLS = set(SYMBOLS.values())

US = 1_000_000
HOUR_US = 3600 * US
DAY_US = 24 * HOUR_US
DAY0_US = 1_709_251_200 * US  # 2024-03-01T00:00:00Z
E8 = 10**8
BASE_PRICE_E8 = {"BTCUSDT": 62_000 * E8, "ETHUSDT": 3_400 * E8, "XRPUSDT": E8 // 2}


def _decimal(e8: int) -> str:
    return f"{e8 // E8}.{e8 % E8:08d}"


class LineMaker:
    """Raw trade lines for one replay connector, unique ids in order made."""

    def __init__(self, rng: random.Random, source: str):
        self.rng = rng
        self.source = source
        self.made = 0

    def line(self, t_us: int, raw: str) -> str:
        rng = self.rng
        base = BASE_PRICE_E8[raw]
        price = base + rng.randrange(-base // 50, base // 50)
        qty = rng.randrange(1, 500) * 1_000_000
        self.made += 1
        return json.dumps({
            "source": self.source, "stream": "trade", "raw_symbol": raw, "event_time_us": t_us,
            "payload": {"price": _decimal(price), "qty": _decimal(qty),
                        "side": rng.choice(("buy", "sell")), "id": f"{self.source}-{self.made}"},
        }, sort_keys=True)

    def block(self, t0_us: int, t1_us: int, n: int) -> list[str]:
        """n lines with sorted event times spread over [t0_us, t1_us): one in
        each of n equal strata, at a seeded offset. Symbols take turns, so
        every seed gives the same number of events per partition."""
        return [self.line(t, RAW_SYMBOLS[i % len(RAW_SYMBOLS)])
                for i, t in enumerate(self.times(t0_us, t1_us, n))]

    def times(self, t0_us: int, t1_us: int, n: int) -> list[int]:
        step = (t1_us - t0_us) / n
        return [t0_us + int((i + self.rng.random()) * step) for i in range(n)]


def replay_config(connector_id: str, source: str, path: Path) -> ConnectorConfig:
    return ConnectorConfig(
        connector_id=connector_id, kind="replay", source=source, symbols=dict(SYMBOLS),
        replay_path=str(path), ingest_time_mode="event_time", batch_size=2000,
    )


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


# -- bulk_load ----------------------------------------------------------------------

def bulk_configs(seed: int, events_per_connector: int) -> list[ConnectorConfig]:
    """The acceptance scenario's shape: 2 synthetic connectors, 3 symbols,
    1% injected duplicates, batch 2000; generator seeds drawn from seed."""
    rng = random.Random(seed)
    return [
        ConnectorConfig(
            connector_id=f"conn{i}", kind="synthetic", source=f"exchange{i}", symbols=dict(SYMBOLS),
            seed=rng.getrandbits(63), count=events_per_connector, dup_prob_bp=100,
            ingest_time_mode="event_time", batch_size=2000,
        )
        for i in range(2)
    ]


# -- late_increments ----------------------------------------------------------------

@dataclass
class LateFeed:
    history: list[str]          # loaded before the first instant
    increments: list[list[str]]  # one block per scheduler instant
    anchor_us: int               # first instant
    period_us: int
    late_lines: int
    redelivered_lines: int


def late_feed(seed: int, history: int, instants: int, per_instant: int,
              late_share: float = 0.2, redeliver_share: float = 0.01) -> LateFeed:
    """A day of history, then one increment per hour. Each increment holds
    on-time events from the past hour, a late share spread evenly back over
    everything already loaded, and a few exact redeliveries of earlier lines
    at seeded positions."""
    rng = random.Random(seed)
    maker = LineMaker(rng, "desk")
    anchor = DAY0_US + DAY_US + HOUR_US
    lines = maker.block(DAY0_US, DAY0_US + DAY_US, history)
    fed = list(lines)
    increments = []
    n_late = round(per_instant * late_share)
    n_redeliver = max(1, round(per_instant * redeliver_share))
    for k in range(instants):
        window_end = anchor + k * HOUR_US
        block = maker.block(window_end - HOUR_US, window_end, per_instant - n_late - n_redeliver)
        for i, t in enumerate(maker.times(DAY0_US, window_end - HOUR_US, n_late)):
            late = maker.line(t, RAW_SYMBOLS[(i + k) % len(RAW_SYMBOLS)])
            block.insert(rng.randrange(len(block) + 1), late)
        for _ in range(n_redeliver):
            block.insert(rng.randrange(len(block) + 1), rng.choice(fed))
        fed.extend(block)
        increments.append(block)
    return LateFeed(lines, increments, anchor, HOUR_US, n_late * instants, n_redeliver * instants)


# -- research_reads -----------------------------------------------------------------

def research_lines(seed: int, days: int, per_day: int) -> list[str]:
    """A time-sorted multi-day feed, per_day events per UTC day over 3 symbols."""
    maker = LineMaker(random.Random(seed), "hist")
    out: list[str] = []
    for d in range(days):
        out.extend(maker.block(DAY0_US + d * DAY_US, DAY0_US + (d + 1) * DAY_US, per_day))
    return out


@dataclass(frozen=True)
class Query:
    kind: str            # point | hour | ohlcv | time_travel | full_day
    t0_us: int
    t1_us: int
    symbols: frozenset
    pre_compaction: bool = False


# Queries of each kind in one deck of the mix.
QUERY_MIX = (("point", 35), ("hour", 5), ("ohlcv", 4), ("time_travel", 5), ("full_day", 1))
DECK = sum(n for _, n in QUERY_MIX)
OHLCV_WIDTH_US = 60 * US


def query_mix(seed: int, days: int):
    """Endless seeded query sequence over the research table's days, dealt
    in shuffled decks so every DECK queries hold the mix exactly."""
    rng = random.Random(seed ^ 0x5EED)
    deck = [kind for kind, n in QUERY_MIX for _ in range(n)]
    span_end = DAY0_US + days * DAY_US
    while True:
        rng.shuffle(deck)
        for kind in deck:
            sym = frozenset([rng.choice(sorted(ALL_SYMBOLS))])
            if kind in ("point", "time_travel", "hour"):
                width = HOUR_US if kind == "hour" else 60 * US
                t0 = rng.randrange(DAY0_US, span_end - width)
                yield Query(kind, t0, t0 + width, sym, kind == "time_travel")
            else:
                day = DAY0_US + rng.randrange(days) * DAY_US
                yield Query(kind, day, day + DAY_US, sym if kind == "ohlcv" else frozenset(ALL_SYMBOLS))


# -- oracles ------------------------------------------------------------------------

class EventIndex:
    """Oracle events per symbol, sorted, with a time index for range filters."""

    def __init__(self, events: list[MarketEvent]):
        self.by_symbol: dict[str, tuple[list[int], list[MarketEvent]]] = {}
        for sym in {e.symbol for e in events}:
            evs = [e for e in events if e.symbol == sym]
            self.by_symbol[sym] = ([e.event_time_us for e in evs], evs)

    def select(self, t0: int, t1: int, symbols) -> list[MarketEvent]:
        out: list[MarketEvent] = []
        for sym in symbols:
            times, evs = self.by_symbol.get(sym, ([], []))
            out.extend(evs[bisect_left(times, t0):bisect_left(times, t1)])
        out.sort(key=lambda e: e.sort_key())
        return out


def render_events(events, fmt: str) -> bytes:
    sink = io.BytesIO()
    export_events(events, fmt, sink)
    return sink.getvalue()


def oracle_bars(events: list[MarketEvent], width_us: int) -> bytes:
    bars: list[OhlcvBar] = []
    for e in events:
        bucket = e.event_time_us // width_us * width_us
        if bars and bars[-1].bucket_start_us == bucket:
            b = bars[-1]
            bars[-1] = OhlcvBar(bucket, b.open_e8, max(b.high_e8, e.price_e8), min(b.low_e8, e.price_e8),
                                e.price_e8, b.volume_e8 + e.qty_e8, b.trade_count + 1)
        else:
            bars.append(OhlcvBar(bucket, e.price_e8, e.price_e8, e.price_e8, e.price_e8, e.qty_e8, 1))
    sink = io.BytesIO()
    export_bars(bars, "csv", sink)
    return sink.getvalue()
