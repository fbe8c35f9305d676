import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake.errors import ConfigInvalid, NonTradeEvent, NoSuchVersion
from brclake.etl import TABLE_COLUMNS, event_from_row, export_all
from brclake.fixedpoint import US_PER_DAY, format_e8, iso_to_us, parse_decimal_e8
from brclake.lakeformat import read_file
from brclake.lakehouse import LakeTable, Snapshot, list_files
from brclake.objectstore import FsStore
from brclake.query import (
    OhlcvBar,
    ScanRequest,
    export_bars,
    export_events,
    ohlcv,
    scan,
)
from brclake.staging import StagingStore

from conftest import make_event, run_optimized

T0 = iso_to_us("2021-03-01T00:00:00Z")
SYMBOLS = ["BTC-USD", "ETH-USD", "XRP-USD"]


def _random_events(rng, n, days=5):
    events = []
    for i in range(n):
        events.append(make_event(
            symbol=rng.choice(SYMBOLS),
            event_time_us=T0 + rng.randrange(days * US_PER_DAY),
            sequence=i,
            event_id=f"e-{i}",
            price_e8=rng.randrange(1, 10**12),
            qty_e8=rng.randrange(1, 10**10),
            side=rng.choice(["buy", "sell"]),
        ))
    return events


def _build_table(tmp_path, events):
    store = FsStore(tmp_path / "store")
    staging = StagingStore(tmp_path / "staging")
    table = LakeTable(store, "trades")
    table.init("trades_v1", TABLE_COLUMNS)
    with staging.open_session("c") as session:
        session.append_batch(events)
    export_all(staging, store, table, "c", max_records=97)
    return store, table


def _full_scan_oracle(store, table, t0, t1, symbols, version=None):
    events = []
    for add in table.snapshot_at(version).live_files.values():
        for row in read_file(store.get(add.path)).rows():
            event = event_from_row(row)
            if t0 <= event.event_time_us < t1 and event.symbol in symbols:
                events.append(event)
    events.sort(key=lambda e: e.sort_key())
    return events


def test_scan_equals_full_scan_oracle_randomized(tmp_path):
    rng = random.Random(42)
    events = _random_events(rng, 600)
    store, table = _build_table(tmp_path, events)
    for trial in range(8):
        a = T0 + rng.randrange(5 * US_PER_DAY)
        b = T0 + rng.randrange(5 * US_PER_DAY)
        t0, t1 = min(a, b), max(a, b) + 1
        wanted = set(rng.sample(SYMBOLS, rng.randrange(1, 4)))
        request = ScanRequest("trades", (t0, t1), wanted)
        got = list(scan(store, table, request))
        assert got == _full_scan_oracle(store, table, t0, t1, wanted)


def test_scan_empty_range(tmp_path):
    store, table = _build_table(tmp_path, _random_events(random.Random(1), 50))
    request = ScanRequest("trades", (1, 2), {"BTC-USD"})
    assert list(scan(store, table, request)) == []


def test_scan_time_travel_excludes_new_commit(tmp_path):
    rng = random.Random(3)
    events = _random_events(rng, 100)
    store, table = _build_table(tmp_path, events)
    version_before = table.current_version()
    staging = StagingStore(tmp_path / "staging2")
    with staging.open_session("c2") as session:
        session.append_batch([make_event(symbol="BTC-USD", event_time_us=T0 + 123,
                                         event_id="late-1", source="syn2")])
    export_all(staging, store, table, "c2")
    assert table.current_version() > version_before
    full = (T0, T0 + 5 * US_PER_DAY)
    new = list(scan(store, table, ScanRequest("trades", full, {"BTC-USD"})))
    old = list(scan(store, table, ScanRequest("trades", full, {"BTC-USD"}, version=version_before)))
    assert len(new) == len(old) + 1
    assert not any(e.event_id == "late-1" for e in old)
    with pytest.raises(NoSuchVersion):
        list(scan(store, table, ScanRequest("trades", full, {"BTC-USD"}, version=999)))


def test_scan_opens_only_planned_files(tmp_path):
    rng = random.Random(9)
    # one file per (symbol, day): every planned file has in-range rows
    events = []
    for day in range(30):
        for si, symbol in enumerate(SYMBOLS):
            for k in range(10):
                events.append(make_event(
                    symbol=symbol,
                    event_time_us=T0 + day * US_PER_DAY + k * 3600_000_000 + si,
                    sequence=day * 1000 + k,
                    event_id=f"{symbol}-{day}-{k}",
                ))
    store, table = _build_table(tmp_path, events)

    class CountingStore:
        def __init__(self, inner):
            self.inner = inner
            self.got = []

        def get(self, key):
            self.got.append(key)
            return self.inner.get(key)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    t0 = T0 + 10 * US_PER_DAY
    t1 = T0 + 12 * US_PER_DAY
    counting = CountingStore(store)
    counted_table = LakeTable(counting, "trades")
    request = ScanRequest("trades", (t0, t1), {"ETH-USD"})
    result = list(scan(counting, counted_table, request))
    planned = list_files(table.snapshot_at(), (t0, t1), {"ETH-USD"})
    data_reads = [k for k in counting.got if "/data/" in k]
    assert sorted(data_reads) == sorted(a.path for a in planned)
    assert len(data_reads) == 2  # two days, one file each
    assert result == _full_scan_oracle(store, table, t0, t1, {"ETH-USD"})


# -- ohlcv ------------------------------------------------------------------------

def _trade(t, price, qty=10**8, n=[0]):
    n[0] += 1
    return make_event(event_time_us=t, price_e8=price, qty_e8=qty,
                      sequence=n[0], event_id=f"b-{n[0]}")


def test_ohlcv_single_bucket():
    width = 60_000_000
    base = T0
    events = [_trade(base + i, p * 10**8) for i, p in enumerate([10, 12, 9, 11])]
    bars = ohlcv(events, width)
    assert bars == [OhlcvBar(
        bucket_start_us=base, open_e8=10 * 10**8, high_e8=12 * 10**8,
        low_e8=9 * 10**8, close_e8=11 * 10**8, volume_e8=4 * 10**8, trade_count=4,
    )]


def test_ohlcv_single_trade():
    bars = ohlcv([_trade(T0 + 61_000_000, 5 * 10**8, qty_e8 := 7 * 10**8)], 60_000_000)
    bar = bars[0]
    assert bar.open_e8 == bar.high_e8 == bar.low_e8 == bar.close_e8 == 5 * 10**8
    assert bar.volume_e8 == qty_e8 and bar.trade_count == 1
    assert bar.bucket_start_us == T0 + 60_000_000


def test_ohlcv_gap_omitted():
    width = 60_000_000
    bars = ohlcv([_trade(T0 + 1, 10**8), _trade(T0 + 3 * width + 1, 2 * 10**8)], width)
    assert [b.bucket_start_us for b in bars] == [T0, T0 + 3 * width]


def test_empty_inputs_rejected_without_assert():
    with pytest.raises(ConfigInvalid):
        ohlcv([], 0)
    with pytest.raises(ConfigInvalid):
        list_files(Snapshot("trades", version=1), (T0, T0), {"BTC-USD"})
    with pytest.raises(ConfigInvalid):
        ScanRequest("trades", (T0, T0 + 1), set()).validate()


def test_unknown_export_format_rejected_under_optimize():
    result = run_optimized("""
import io
import conftest
from brclake.errors import ConfigInvalid
from brclake.query import export_events
sink = io.BytesIO()
try:
    export_events([conftest.make_event()], "xml", sink)
except ConfigInvalid as exc:
    print(exc.field)
print(len(sink.getvalue()))
""")
    assert result.stdout.split() == ["format", "0"], result.stderr


def test_ohlcv_rejects_non_trades():
    quote = make_event(stream="quote", side="na")
    with pytest.raises(NonTradeEvent):
        ohlcv([quote], 60_000_000)


@given(st.integers(0, 2**31), st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_ohlcv_conservation(seed, n):
    rng = random.Random(seed)
    width = rng.choice([1_000_000, 60_000_000, 3_600_000_000])
    events = sorted(_random_events(rng, n, days=1), key=lambda e: e.sort_key())
    bars = ohlcv(events, width)
    assert sum(b.volume_e8 for b in bars) == sum(e.qty_e8 for e in events)
    assert sum(b.trade_count for b in bars) == len(events)
    for bar in bars:
        assert bar.low_e8 <= bar.open_e8 <= bar.high_e8
        assert bar.low_e8 <= bar.close_e8 <= bar.high_e8
        assert bar.bucket_start_us % width == 0


# -- export -----------------------------------------------------------------------------

def test_csv_rendering_exact():
    event = make_event(event_time_us=iso_to_us("2021-03-04T12:00:00Z"),
                       price_e8=1_234_500_000_000, qty_e8=50_000_000,
                       sequence=7, event_id="c-7")
    sink = io.BytesIO()
    count = export_events([event], "csv", sink)
    lines = sink.getvalue().decode().split("\n")
    assert count == 1
    assert lines[0] == ("event_time_us,ingest_time_us,source,stream,symbol,"
                        "sequence,event_id,price_e8,qty_e8,side")
    assert lines[1] == ("2021-03-04T12:00:00.000000Z,2021-03-04T12:00:00.000000Z,"
                        "syn,trade,BTC-USD,7,c-7,12345.00000000,0.50000000,buy")
    assert lines[2] == ""


def test_csv_quoting_and_times_match_reference_writer():
    import csv
    from datetime import datetime, timedelta, timezone

    def iso(us):
        dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")

    def reference_line(row):
        # csv.writer quotes a lone CR only when CR is in its line terminator,
        # so write with "\r\n" and swap the terminator for the export's "\n".
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        return buf.getvalue()[:-2] + "\n"

    midnight = iso_to_us("2021-03-05T00:00:00Z")
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", '",\r\n', "ünïcödé-✓", ",,"]
    events = [make_event(event_time_us=midnight + d, ingest_time_us=midnight - d,
                         sequence=i, event_id=eid, side=("buy", "sell", "na")[i % 3])
              for i, eid in enumerate(ids) for d in (-1, 0, 1)]
    sink = io.BytesIO()
    assert export_events(events, "csv", sink) == len(events)
    expected = reference_line([name for name, _ in TABLE_COLUMNS])
    for e in events:
        expected += reference_line([iso(e.event_time_us), iso(e.ingest_time_us), e.source,
                                    e.stream, e.symbol, e.sequence, e.event_id,
                                    format_e8(e.price_e8), format_e8(e.qty_e8), e.side])
    assert sink.getvalue() == expected.encode()
    assert b"2021-03-04T23:59:59.999999Z,2021-03-05T00:00:00.000001Z" in sink.getvalue()


def test_csv_header_only_for_empty():
    sink = io.BytesIO()
    assert export_events([], "csv", sink) == 0
    assert sink.getvalue().decode().count("\n") == 1


def test_jsonl_sorted_keys():
    import json
    sink = io.BytesIO()
    export_events([make_event()], "jsonl", sink)
    obj = json.loads(sink.getvalue())
    assert list(obj) == sorted(obj)
    assert obj["price_e8"] == "10000.00000000"


def test_export_deterministic():
    events = _random_events(random.Random(5), 50)
    events.sort(key=lambda e: e.sort_key())
    a, b = io.BytesIO(), io.BytesIO()
    export_events(events, "csv", a)
    export_events(events, "csv", b)
    assert a.getvalue() == b.getvalue()


def parse_event_csv(data: bytes) -> list[dict[str, str]]:
    """Inverse of the CSV event rendering."""
    return list(csv.DictReader(io.StringIO(data.decode(), newline="")))


def test_csv_parse_round_trip_preserves_e8():
    events = _random_events(random.Random(6), 40)
    events.sort(key=lambda e: e.sort_key())
    sink = io.BytesIO()
    export_events(events, "csv", sink)
    parsed = parse_event_csv(sink.getvalue())
    for event, row in zip(events, parsed):
        assert parse_decimal_e8(row["price_e8"]) == event.price_e8
        assert parse_decimal_e8(row["qty_e8"]) == event.qty_e8
        assert iso_to_us(row["event_time_us"]) == event.event_time_us


def test_bar_export_headers():
    sink = io.BytesIO()
    export_bars([OhlcvBar(T0, 10**8, 10**8, 10**8, 10**8, 10**8, 1)], "csv", sink)
    header = sink.getvalue().decode().split("\n")[0]
    assert header == "bucket_start_us,open_e8,high_e8,low_e8,close_e8,volume_e8,trade_count"
