import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake import crashpoints
from brclake.errors import (
    BadDecimal,
    BadSide,
    ConfigInvalid,
    InvalidEvent,
    MalformedLine,
    MissingField,
    UnknownSymbol,
)
from brclake.etl import SCHEMA_ID, TABLE_COLUMNS, export_all
from brclake.events import ConnectorConfig, event_from_row
from brclake.fixedpoint import format_e8
from brclake.harness import oracle_csv, oracle_events
from brclake.ingest import (
    ConnectorState,
    SplitMix64,
    TokenBucket,
    generate_synthetic,
    normalize,
    replay_events,
    replay_file,
    run_connector,
)
from brclake.lakehouse import LakeTable
from brclake.objectstore import FsStore
from brclake.query import ScanRequest, export_events, scan
from brclake.staging import StagingStore

from conftest import make_config, make_event, run_optimized


# -- synthetic generator ---------------------------------------------------------

def test_zero_count_is_empty():
    assert list(generate_synthetic(make_config(count=0))) == []


def test_three_events_ids_and_times():
    events = list(generate_synthetic(make_config(count=3)))
    assert [e.payload["id"] for e in events] == ["c-0", "c-1", "c-2"]
    times = [e.event_time_us for e in events]
    assert times == sorted(times) and len(set(times)) == 3


def test_round_robin_symbols():
    config = make_config(count=4, symbols={"A1": "A1-USD", "B2": "B2-USD"})
    events = list(generate_synthetic(config))
    assert [e.raw_symbol for e in events] == ["A1", "B2", "A1", "B2"]


def _independent_generator(seed, count, symbols, dup_prob_bp, connector_id, source):
    """Straight-line re-implementation of the generator loop, kept free of the
    package's PRNG and stepping machinery; used as the derivation oracle."""
    mask = (1 << 64) - 1
    state = seed & mask

    def nxt():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def fmt(v):
        sign = "-" if v < 0 else ""
        return f"{sign}{abs(v) // 10**8}.{abs(v) % 10**8:08d}"

    out = []
    t = 1_600_000_000_000_000
    price = 10_000 * 10**8
    for n in range(count):
        t += (1 + nxt() % 1000) * 1000
        price = max(1, price + (nxt() % 101 - 50) * 10_000)
        qty = (1 + nxt() % 100) * 1_000_000
        side = "buy" if nxt() % 2 == 0 else "sell"
        record = (source, "trade", symbols[n % len(symbols)], t,
                  fmt(price), fmt(qty), side, f"{connector_id}-{n}")
        out.append(record)
        if nxt() % 10_000 < dup_prob_bp:
            out.append(record)
    return out


def test_full_duplication_counts_match_independent_loop():
    # seed=42, count=1000, 100% duplicate injection: 2000 raw events,
    # 1000 distinct identities (expected sequence derived independently above)
    config = make_config(count=1000, dup_prob_bp=10_000)
    events = list(generate_synthetic(config))
    expected = _independent_generator(42, 1000, ["BTCUSDT"], 10_000, "c", "syn")
    assert len(events) == 2000
    assert len({e.payload["id"] for e in events}) == 1000
    got = [
        (e.source, e.stream, e.raw_symbol, e.event_time_us,
         e.payload["price"], e.payload["qty"], e.payload["side"], e.payload["id"])
        for e in events
    ]
    assert got == expected


def test_generator_determinism():
    config = make_config(count=500, dup_prob_bp=700)
    first = [(e.event_time_us, tuple(sorted(e.payload.items()))) for e in generate_synthetic(config)]
    second = [(e.event_time_us, tuple(sorted(e.payload.items()))) for e in generate_synthetic(config)]
    assert first == second


def test_splitmix64_reference():
    # reference output for seed 0: first value of splitmix64
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF


# -- normalize ----------------------------------------------------------------------

def _raw(price="12345", qty="0.5", side="buy", symbol="BTCUSDT", stream="trade"):
    from brclake.events import RawEvent
    return RawEvent(
        source="syn", stream=stream, raw_symbol=symbol,
        event_time_us=1_600_000_000_000_000,
        payload={"price": price, "qty": qty, "side": side, "id": "x-1"},
    )


def test_normalize_scaling():
    config = make_config(symbols={"BTCUSDT": "BTC-USDT"})
    event = normalize(_raw(), config, ingest_time_us=5, sequence=3)
    assert event.symbol == "BTC-USDT"
    assert event.price_e8 == 1_234_500_000_000
    assert event.qty_e8 == 50_000_000
    assert event.sequence == 3 and event.ingest_time_us == 5


def test_normalize_subunit_price_rejected():
    config = make_config()
    with pytest.raises(BadDecimal) as err:
        normalize(_raw(price="0.000000004"), config, 0, 0)
    assert err.value.field == "price"


def test_normalize_unknown_symbol():
    config = make_config()
    with pytest.raises(UnknownSymbol):
        normalize(_raw(symbol="DOGEUSD"), config, 0, 0)


@pytest.mark.parametrize("fields, kind", [
    ({"source": "Bad Source"}, InvalidEvent),
    ({"stream": "tick"}, InvalidEvent),
    ({"symbol": "btc-usd"}, InvalidEvent),
    ({"event_time_us": 0}, InvalidEvent),
    ({"event_time_us": 1 << 63}, InvalidEvent),
    ({"sequence": -1}, InvalidEvent),
    ({"price_e8": 1 << 63}, BadDecimal),
    ({"qty_e8": 0}, BadDecimal),
    ({"side": "na"}, BadSide),
    ({"stream": "quote", "side": "hold"}, BadSide),
    ({"symbol": "BTC-USD\n"}, InvalidEvent),
    ({"source": "syn\n"}, InvalidEvent),
    ({"event_time_us": 10**18}, InvalidEvent),  # after 9999-12-31: no partition date
])
def test_event_validation_is_typed(fields, kind):
    with pytest.raises(kind):
        make_event(**fields).validate()
    make_event(stream="quote", side="na", price_e8=0, qty_e8=0).validate()


@pytest.mark.parametrize("fields, kind, field", [
    ({"event_time_us": 1.5}, InvalidEvent, "event_time_us"),
    ({"event_time_us": True}, InvalidEvent, "event_time_us"),
    ({"ingest_time_us": "x"}, InvalidEvent, "ingest_time_us"),
    ({"ingest_time_us": 1 << 63}, InvalidEvent, "ingest_time_us"),
    ({"sequence": True}, InvalidEvent, "sequence"),
    ({"price_e8": 2.0}, BadDecimal, "price"),
    ({"qty_e8": True}, BadDecimal, "qty"),
    ({"source": 5}, InvalidEvent, "source"),
    ({"event_id": b"e-0"}, InvalidEvent, "event_id"),
    ({"ingest_time_us": 10**18}, InvalidEvent, "ingest_time_us"),  # after 9999-12-31: no renderer prints it
    ({"ingest_time_us": -1}, InvalidEvent, "ingest_time_us"),
])
def test_event_validation_checks_types(fields, kind, field):
    with pytest.raises(kind) as err:
        make_event(**fields).validate()
    assert err.value.field == field


def test_normalize_bad_side():
    with pytest.raises(BadSide):
        normalize(_raw(side="hold"), make_config(), 0, 0)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
@settings(max_examples=25, deadline=None)
def test_normalization_totality(seed, count):
    config = make_config(seed=seed, count=count, dup_prob_bp=1000,
                         symbols={"BTCUSDT": "BTC-USDT", "ETHUSDT": "ETH-USDT"})
    for n, raw in enumerate(generate_synthetic(config)):
        event = normalize(raw, config, raw.event_time_us, n)
        event.validate()  # every invariant holds


def render_payload(event):
    """Inverse of normalize for the payload fields, at 8 fractional digits."""
    return {"price": format_e8(event.price_e8), "qty": format_e8(event.qty_e8),
            "side": event.side, "id": event.event_id}


def test_render_round_trip():
    config = make_config()
    event = normalize(_raw(price="0.00000001", qty="99999.999"), config, 7, 0)
    payload = render_payload(event)
    back = normalize(_raw(price=payload["price"], qty=payload["qty"], side=payload["side"]),
                     config, 7, 0)
    assert (back.symbol, back.price_e8, back.qty_e8, back.side) == (
        event.symbol, event.price_e8, event.qty_e8, event.side)


# -- replay ------------------------------------------------------------------------

def _write_lines(tmp_path, lines):
    path = tmp_path / "replay.jsonl"
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def test_replay_empty_file(tmp_path):
    assert list(replay_file(_write_lines(tmp_path, []))) == []


def test_replay_two_lines_in_order(tmp_path):
    rows = [
        {"source": "x", "stream": "trade", "raw_symbol": "BTCUSDT",
         "event_time_us": 1 + i,
         "payload": {"price": "1", "qty": "2", "side": "buy", "id": f"r-{i}"}}
        for i in range(2)
    ]
    events = list(replay_file(_write_lines(tmp_path, [json.dumps(r) for r in rows])))
    assert [e.payload["id"] for e in events] == ["r-0", "r-1"]


def test_replay_missing_price_line2(tmp_path):
    good = {"source": "x", "stream": "trade", "raw_symbol": "B",
            "event_time_us": 1, "payload": {"price": "1", "qty": "2", "side": "buy", "id": "a"}}
    bad = {"source": "x", "stream": "trade", "raw_symbol": "B",
           "event_time_us": 2, "payload": {"qty": "2", "side": "buy", "id": "b"}}
    with pytest.raises(MissingField) as err:
        list(replay_file(_write_lines(tmp_path, [json.dumps(good), json.dumps(bad)])))
    assert err.value.name == "price" and err.value.line_no == 2


def test_replay_malformed_line(tmp_path):
    with pytest.raises(MalformedLine) as err:
        list(replay_file(_write_lines(tmp_path, ["{not json"])))
    assert err.value.line_no == 1


def _replay_line(i, raw_symbol="BTCUSDT"):
    return json.dumps({"source": "x", "stream": "trade", "raw_symbol": raw_symbol,
                       "event_time_us": 1_600_000_000_000_000 + i,
                       "payload": {"price": "1", "qty": "2", "side": "buy", "id": f"r-{i}"}})


def test_replay_resume_yields_only_appended_lines(tmp_path):
    path = _write_lines(tmp_path, [_replay_line(0), "", _replay_line(1), "  ", _replay_line(2)])
    staging = StagingStore(tmp_path / "staging")
    config = make_config(kind="replay", replay_path=str(path), batch_size=2)
    assert run_connector(config, staging).events_appended == 3
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n" + _replay_line(3) + "\n" + _replay_line(4) + "\n")
    assert run_connector(config, staging).events_appended == 2
    rows = staging.read_from("c", 0, 100)
    assert [event_from_row(row).event_id for row in rows] == [f"r-{i}" for i in range(5)]
    assert staging.load_connector_state("c", ConnectorState).replay_offset == path.stat().st_size
    assert run_connector(config, staging).events_appended == 0


def _read_positions(monkeypatch, path):
    """(position, bytes) of every read the program makes from the file at path."""
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            position = self.tell()
            n = super().readinto(buffer)
            reads.append((position, n))
            return n

    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            assert mode == "rb"
            return io.BufferedReader(CountingFile(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr("builtins.open", counting_open)
    return reads


def test_replay_resume_reads_no_consumed_byte(tmp_path, monkeypatch):
    path = _write_lines(tmp_path, [_replay_line(i) for i in range(200)])
    staging = StagingStore(tmp_path / "staging")
    config = make_config(kind="replay", replay_path=str(path), batch_size=7)
    assert run_connector(config, staging).events_appended == 200
    consumed = path.stat().st_size
    with open(path, "a", encoding="utf-8") as f:
        f.write(_replay_line(200) + "\n")
    reads = _read_positions(monkeypatch, path)
    assert run_connector(config, staging).events_appended == 1
    # the one consumed byte read is the newline that ends the last consumed line
    assert min(position for position, _ in reads) == consumed - 1
    assert staging.load_connector_state("c", ConnectorState).replay_offset == path.stat().st_size


def test_state_without_replay_offset_starts_over_and_exports_the_oracle(tmp_path):
    """A state saved before replay offsets were holds a count of lines and
    no offset: the feed is staged again from byte 0 with fresh sequence
    counters, and export drops every line staged twice."""
    path = _write_lines(tmp_path, [_replay_line(i) for i in range(6)])
    store = FsStore(tmp_path / "store")
    staging = StagingStore(tmp_path / "staging")
    table = LakeTable(store, "trades")
    table.init(SCHEMA_ID, TABLE_COLUMNS)
    config = make_config(kind="replay", replay_path=str(path), batch_size=4)
    run_connector(config, staging)
    assert export_all(staging, store, table, "c").rows_published == 6
    (tmp_path / "staging" / "c" / "connector_state.json").write_text(
        json.dumps({"replay_line": 6, "seq_counters": {"x|trade|BTC-USDT": 6}}))
    late = json.loads(_replay_line(6))
    late["event_time_us"] -= 10  # before every line published
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(late) + "\n" + _replay_line(1) + "\n")  # a late line, then line 1 redelivered
    assert run_connector(config, staging).events_appended == 8
    assert staging.load_connector_state("c", ConnectorState).replay_offset == path.stat().st_size
    result = export_all(staging, store, table, "c")
    assert (result.rows_published, result.dropped_duplicates) == (1, 7)
    request = ScanRequest("trades", (1_500_000_000_000_000, 1_700_000_000_000_000), {"BTC-USDT"})
    sink = io.BytesIO()
    export_events(scan(store, table, request), "csv", sink)
    assert sink.getvalue() == oracle_csv(oracle_events([config]), request.time_range, request.symbols)


@pytest.mark.parametrize("rewrite", [
    lambda text: text[:-5],
    lambda text: "  " + text + _replay_line(2) + "\n",  # neither byte around the offset a newline
    lambda text: _replay_line(2) + "\n",
], ids=["truncated", "shifted", "replaced"])
def test_feed_rewritten_under_its_offset_is_config_invalid(tmp_path, rewrite):
    path = _write_lines(tmp_path, [_replay_line(0), _replay_line(1)])
    staging = StagingStore(tmp_path / "staging")
    config = make_config(kind="replay", replay_path=str(path))
    assert run_connector(config, staging).events_appended == 2
    path.write_text(rewrite(path.read_text()))
    with pytest.raises(ConfigInvalid) as err:
        run_connector(config, staging)
    assert err.value.field == "replay_path"
    assert len(staging.read_from("c", 0, 100)) == 2


def test_replay_resumed_at_an_offset_reports_file_line_numbers(tmp_path):
    lines = [_replay_line(0), "{not json", "", _replay_line(2), "", "", "{not json either"]
    path = _write_lines(tmp_path, lines)
    after_line_2 = len(lines[0]) + len(lines[1]) + 2
    raw, end = next(replay_events(path, after_line_2))
    assert raw.payload["id"] == "r-2" and end == after_line_2 + 1 + len(lines[3]) + 1
    with pytest.raises(MalformedLine) as err:
        list(replay_events(path, end))
    assert err.value.line_no == 7


def test_feed_without_a_final_newline_resumes_at_its_end(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(_replay_line(0) + "\n" + _replay_line(1))
    staging = StagingStore(tmp_path / "staging")
    config = make_config(kind="replay", replay_path=str(path))
    assert run_connector(config, staging).events_appended == 2
    assert staging.load_connector_state("c", ConnectorState).replay_offset == path.stat().st_size
    assert run_connector(config, staging).events_appended == 0
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n" + _replay_line(2) + "\n")  # the last line's newline, written late
    assert run_connector(config, staging).events_appended == 1
    with open(path, "a", encoding="utf-8") as f:
        f.write(_replay_line(3))
    assert run_connector(config, staging).events_appended == 1
    with open(path, "a", encoding="utf-8") as f:
        f.write("x\n")  # extends a line already consumed
    with pytest.raises(ConfigInvalid):
        run_connector(config, staging)
    rows = staging.read_from("c", 0, 100)
    assert [event_from_row(row).event_id for row in rows] == [f"r-{i}" for i in range(4)]


def test_negative_saved_position_is_corrupt_staging_under_optimize(tmp_path):
    """A saved position below 0 would name no byte of the feed or
    regenerate events before the first; its state file is refused, also
    under python -O."""
    feed = _write_lines(tmp_path, [_replay_line(i) for i in range(3)])
    result = run_optimized(f"""
import json
from pathlib import Path
from conftest import make_config
from brclake.errors import CorruptStaging
from brclake.ingest import run_connector
from brclake.staging import StagingStore
root = Path({str(tmp_path)!r})
synthetic = {{"next_index": -2, "prng_state": 1, "price_e8": 1, "last_event_time_us": 1}}
for name, state in [("replay_offset", {{"replay_offset": -1}}), ("next_index", {{"synthetic": synthetic}})]:
    config = make_config() if name == "next_index" else make_config(kind="replay", replay_path={str(feed)!r})
    store = StagingStore(root / name)
    (root / name / "c").mkdir()
    (root / name / "c" / "connector_state.json").write_text(json.dumps(state))
    try:
        run_connector(config, store)
    except CorruptStaging as exc:
        print(name, Path(exc.path).name, name in str(exc))
""")
    assert result.stdout.splitlines() == [
        f"{name} connector_state.json True" for name in ("replay_offset", "next_index")
    ], result.stderr


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_unreadable_replay_file_is_config_invalid(tmp_path, name):
    config = make_config(kind="replay", replay_path=str(tmp_path / name))
    for read in (lambda: list(replay_file(config.replay_path)),
                 lambda: run_connector(config, StagingStore(tmp_path / "staging")),
                 lambda: oracle_events([config])):
        with pytest.raises(ConfigInvalid) as err:
            read()
        assert err.value.field == "replay_path" and str(tmp_path / name) in err.value.reason


def _write_bad_utf8(tmp_path):
    """Three replay lines, the second holding a byte that is not UTF-8."""
    path = tmp_path / "replay.jsonl"
    lines = [_replay_line(i).encode() + b"\n" for i in range(3)]
    lines[1] = lines[1].replace(b"r-1", b"r-\xff")
    path.write_bytes(b"".join(lines))
    return path


def test_replay_line_that_is_not_utf8_is_malformed(tmp_path):
    events = replay_file(_write_bad_utf8(tmp_path))
    assert next(events).payload["id"] == "r-0"
    with pytest.raises(MalformedLine) as err:
        next(events)
    assert err.value.line_no == 2


def test_replay_consumed_line_that_is_not_utf8_is_skipped(tmp_path):
    path = _write_bad_utf8(tmp_path)
    after_line_2 = sum(map(len, path.read_bytes().splitlines(keepends=True)[:2]))
    assert [raw.payload["id"] for raw, _ in replay_events(path, after_line_2)] == ["r-2"]


@pytest.mark.parametrize("field, value", [
    ("source", 5), ("stream", None), ("raw_symbol", ["BTCUSDT"]), ("event_time_us", "x"),
    ("event_time_us", 1.5), ("event_time_us", True),
])
def test_replay_ill_typed_raw_field_is_malformed(tmp_path, field, value):
    obj = json.loads(_replay_line(0))
    obj[field] = value
    with pytest.raises(MalformedLine) as err:
        list(replay_file(_write_lines(tmp_path, ["", json.dumps(obj)])))
    assert err.value.line_no == 2


@pytest.mark.parametrize("payload", [
    {"price": 1e-9, "qty": "1", "side": "buy", "id": "r-0"},
    {"price": "1", "qty": True, "side": "buy", "id": "r-0"},
    {"price": "1", "qty": "1", "side": "buy", "id": 7},
    {"price": "1", "qty": "1", "side": None, "id": "r-0"},
], ids=["float_price", "bool_qty", "int_id", "null_side"])
def test_replay_non_string_payload_value_is_malformed(tmp_path, payload):
    obj = json.loads(_replay_line(0))
    obj["payload"] = payload
    with pytest.raises(MalformedLine) as err:
        list(replay_file(_write_lines(tmp_path, [_replay_line(1), json.dumps(obj)])))
    assert err.value.line_no == 2


def test_replay_unmapped_symbol_is_typed(tmp_path):
    path = _write_lines(tmp_path, [_replay_line(0, raw_symbol="XXX")])
    staging = StagingStore(tmp_path / "staging")
    with pytest.raises(UnknownSymbol):
        run_connector(make_config(kind="replay", replay_path=str(path)), staging)
    assert staging.tail_offset("c") == 0


# -- token bucket ---------------------------------------------------------------------

def test_bucket_burst_exhaustion():
    bucket = TokenBucket(rate_per_s=2, burst=2)
    assert [bucket.take(0), bucket.take(0), bucket.take(0)] == [True, True, False]


def test_bucket_refills_after_half_second():
    bucket = TokenBucket(rate_per_s=2, burst=2)
    assert bucket.take(0) and bucket.take(0)
    assert bucket.take(500_000)  # 0.5 s refills one token at rate 2/s


def test_bucket_denies_below_one_token():
    bucket = TokenBucket(rate_per_s=1, burst=1)
    assert bucket.take(0)
    assert not bucket.take(999_000)


@given(st.lists(st.integers(min_value=0, max_value=10_000_000), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_bucket_window_bound(raw_times, rate, burst):
    times = sorted(raw_times)
    bucket = TokenBucket(rate_per_s=rate, burst=burst)
    allowed = sum(bucket.take(t) for t in times)
    elapsed_s = times[-1] / 1_000_000
    assert allowed <= burst + rate * elapsed_s + 1e-9


# -- connector config ------------------------------------------------------------------

@pytest.mark.parametrize("overrides, field", [
    ({"count": "abc"}, "count"),
    ({"seed": True}, "seed"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"source": 5}, "source"),
    ({"symbols": ["BTCUSDT"]}, "symbols"),
    ({"symbols": {"BTCUSDT": 5}}, "symbols"),
    ({"rate_limit": {"burst": "1"}}, "rate_limit.burst"),
    ({"replay_path": None}, "replay_path"),
    ({"replay_path": "x\u0000.jsonl"}, "replay_path"),
    ({"symbols": {"BTCUSDT": "B-" + "U" * 247}}, "symbols"),  # "symbol=B-UU..." is 256 bytes
])
def test_connector_config_names_ill_typed_field(overrides, field):
    obj = {"connector_id": "c", "kind": "synthetic", "source": "syn",
           "symbols": {"BTCUSDT": "BTC-USDT"}, "count": 3}
    assert ConnectorConfig.from_dict(obj).count == 3
    with pytest.raises(ConfigInvalid) as err:
        ConnectorConfig.from_dict({**obj, **overrides})
    assert err.value.field == field


# -- connector runner ------------------------------------------------------------------

def test_run_connector_appends_all(tmp_path):
    staging = StagingStore(tmp_path)
    summary = run_connector(make_config(count=100), staging)
    assert summary.events_appended == 100 and summary.last_offset == 99


def test_run_connector_empty_replay(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    staging = StagingStore(tmp_path / "staging")
    config = make_config(kind="replay", replay_path=str(path), count=0)
    summary = run_connector(config, staging)
    assert summary.events_appended == 0


class _SimulatedCrash(BaseException):
    """Stops run_connector exactly where os._exit would, without dying."""


def test_crash_restart_reappends_suffix(tmp_path, monkeypatch):
    # kill after 50 appended with the connector checkpoint at 40:
    # restart regenerates 40..99, so 110 total appends, 100 distinct identities
    staging = StagingStore(tmp_path)
    config = make_config(count=100, batch_size=10)

    hits = {"n": 0}

    def crash_on_fifth(site):
        if site == "ingest.append":
            hits["n"] += 1
            if hits["n"] == 5:
                raise _SimulatedCrash

    monkeypatch.setattr(crashpoints, "crashpoint", crash_on_fifth)
    with pytest.raises(_SimulatedCrash):
        run_connector(config, staging)
    assert staging.tail_offset("c") == 50
    assert staging.load_connector_state("c", ConnectorState).synthetic.next_index == 40

    monkeypatch.setattr(crashpoints, "crashpoint", lambda site: None)
    summary = run_connector(config, staging)
    assert summary.events_appended == 60
    events = list(map(event_from_row, staging.read_from("c", 0, 10_000)))
    assert len(events) == 110
    identities = {e.identity for e in events}
    assert len(identities) == 100
    # the regenerated suffix is byte-identical: same identity implies same event
    by_identity = {}
    for event in events:
        prev = by_identity.setdefault(event.identity, event)
        assert prev == event
