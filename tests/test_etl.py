import io
import json
import math
import os
import random
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake import crashpoints, etl, lakeformat
from brclake.errors import ConfigInvalid, CorruptStaging, DataFileMismatch, InvalidAction, SessionLockHeld
from brclake.etl import (
    FULL_RATIO,
    IDENTITY_COLUMNS,
    ROW_IDENTITY,
    ROW_ORDER,
    TABLE_COLUMNS,
    compact,
    dedup,
    export_all,
    export_job,
    live_partitions,
    parse_partition,
)
from brclake.events import event_from_row, event_to_row
from brclake.fixedpoint import US_PER_DAY, iso_to_us
from brclake.harness import oracle_csv, oracle_events
from brclake.ingest import run_connector
from brclake.lakeformat import read_file
from brclake.lakehouse import LakeTable, PartitionKey, read_data_file
from brclake.localfile import TAIL_CHUNK
from brclake.objectstore import FsStore
from brclake.query import ScanRequest, export_events, scan
from brclake.staging import StagingStore

from conftest import make_config, make_event

T0 = iso_to_us("2021-03-04T00:00:00Z")


def _env(tmp_path):
    store = FsStore(tmp_path / "store")
    staging = StagingStore(tmp_path / "staging")
    table = LakeTable(store, "trades")
    table.init("trades_v1", TABLE_COLUMNS)
    return store, staging, table


def _stage(staging, events, connector="c"):
    with staging.open_session(connector) as session:
        session.append_batch(events)


# -- row codec ----------------------------------------------------------------

def test_event_row_round_trip():
    event = make_event(event_time_us=T0 + 5, sequence=9, event_id="x-9")
    assert event_from_row(event_to_row(event)) == event

    # Ties on every key but the last, and ids whose code-point order differs
    # from their UTF-16 order: ROW_ORDER over rows must match sort_key.
    events = [
        make_event(event_time_us=T0 + t, sequence=seq, event_id=eid,
                   symbol=symbol, source=source, stream=stream)
        for t in (0, 1) for seq in (0, 1)
        for eid in ("z", "z-1", "\u00e9", "\uffff", "\U00010000")
        for symbol in ("BTC-USD", "ETH-USD") for source in ("a", "b")
        for stream in ("trade", "quote")
    ]
    random.Random(7).shuffle(events)
    assert [event_from_row(event_to_row(e)) for e in events] == events
    rows = sorted((event_to_row(e) for e in events), key=ROW_ORDER)
    assert [event_from_row(r) for r in rows] == sorted(events, key=lambda e: e.sort_key())


@pytest.mark.parametrize("max_records", [2, 1])
def test_source_tie_scans_in_oracle_order(tmp_path, max_records):
    # Two lines that differ only in source share event time, id and sequence
    # 0, so only the full row order separates them: in one file
    # (max_records=2) or merged from two by compaction (max_records=1).
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(
        json.dumps({"source": source, "stream": "trade", "raw_symbol": "BTCUSDT",
                    "event_time_us": T0,
                    "payload": {"price": "1", "qty": "1", "side": "buy", "id": "x"}}) + "\n"
        for source in ("b", "a")
    ))
    config = make_config(kind="replay", replay_path=str(feed))
    store, staging, table = _env(tmp_path)
    run_connector(config, staging)
    assert export_all(staging, store, table, "c", max_records=max_records).rows_published == 2

    request = ScanRequest("trades", (T0, T0 + 1), {"BTC-USDT"})
    expected = oracle_csv(oracle_events([config]), request.time_range, request.symbols)

    def scanned() -> bytes:
        sink = io.BytesIO()
        export_events(scan(store, table, request), "csv", sink)
        return sink.getvalue()

    assert scanned() == expected
    merged = compact(store, table, PartitionKey("BTC-USDT", "2021-03-04"))
    assert (merged is not None) == (max_records == 1)  # one file is no merge set
    assert scanned() == expected


# -- dedup ---------------------------------------------------------------------

def test_dedup_first_occurrence_wins():
    rows = [event_to_row(make_event(event_id=eid, sequence=seq))
            for eid, seq in (("x", 5), ("y", 6), ("x", 9))]
    kept, dropped = dedup(rows)
    assert [row[5] for row in kept] == [5, 6] and dropped == 1


def test_dedup_no_duplicates():
    rows = [event_to_row(make_event(event_id=f"e{i}")) for i in range(4)]
    kept, dropped = dedup(rows)
    assert kept == rows and dropped == 0


def test_in_batch_duplicate_keeps_first_sequence(tmp_path):
    store, staging, table = _env(tmp_path)
    first = make_event(event_time_us=T0 + 5, sequence=1, event_id="x")
    later = make_event(event_time_us=T0 + 5, sequence=7, event_id="x")  # same identity
    _stage(staging, [first, make_event(event_time_us=T0, event_id="y"), later])
    result = export_job(staging, store, table, "c")
    assert (result.rows_published, result.dropped_duplicates) == (2, 1)
    (add,) = table.snapshot_at().live_files.values()
    rows = read_file(store.get(add.path)).rows()
    assert [event_from_row(row) for row in rows if row[6] == b"x"] == [first]


# -- partition key ----------------------------------------------------------------

def _exported_partitions(tmp_path, events) -> dict[PartitionKey, list[int]]:
    """Export events and return each live file's partition with its event times."""
    store, staging, table = _env(tmp_path)
    _stage(staging, events)
    export_job(staging, store, table, "c")
    return {add.partition: read_file(store.get(add.path)).columns["event_time_us"]
            for add in table.snapshot_at().live_files.values()}


def test_partition_key_values(tmp_path):
    noon = iso_to_us("2021-03-04T12:00:00Z")
    partitions = _exported_partitions(tmp_path, [make_event(symbol="BTC-USD", event_time_us=noon)])
    assert partitions == {PartitionKey("BTC-USD", "2021-03-04"): [noon]}
    assert next(iter(partitions)).render() == "symbol=BTC-USD/date=2021-03-04"


def test_partition_key_midnight_boundaries(tmp_path):
    midnight = iso_to_us("2021-03-04T00:00:00Z")
    last_us = midnight + 86_400_000_000 - 1
    events = [make_event(event_time_us=t, event_id=f"e{t}") for t in (last_us, midnight - 1, midnight)]
    assert _exported_partitions(tmp_path, events) == {
        PartitionKey("BTC-USD", "2021-03-03"): [midnight - 1],
        PartitionKey("BTC-USD", "2021-03-04"): [midnight, last_us],
    }


def test_parse_partition_round_trip():
    pk = PartitionKey("BTC-USD", "2021-03-04")
    assert parse_partition(pk.render()) == pk
    for spec in ("symbol=/date=not-a-date", "symbol=btc-usd/date=2021-03-04",
                 "symbol=BTC-USD/date=2021-02-30", "symbol=BTC-USD/date=20210304",
                 "symbol=BTC-USD/date=2021-3-4", "symbol=BTC-USD/date="):
        with pytest.raises(InvalidAction):
            parse_partition(spec)


# -- export_job -------------------------------------------------------------------------

def _trades(n, symbol="BTC-USD", start_id=0, day_offset_us=0):
    return [
        make_event(symbol=symbol, event_time_us=T0 + day_offset_us + i * 1000,
                   sequence=start_id + i, event_id=f"t-{symbol}-{start_id + i}")
        for i in range(n)
    ]


def test_export_two_symbols_one_day(tmp_path):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(60, "BTC-USD") + _trades(40, "ETH-USD"))
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 100
    assert result.version == 2
    snapshot = table.snapshot_at()
    assert len(snapshot.live_files) == 2
    assert {a.partition.symbol for a in snapshot.live_files.values()} == {"BTC-USD", "ETH-USD"}
    assert staging.committed_offset("c") == 100


def test_export_empty_staging(tmp_path):
    store, staging, table = _env(tmp_path)
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 0 and result.version is None


def test_export_advances_checkpoint_on_all_duplicates(tmp_path):
    store, staging, table = _env(tmp_path)
    events = _trades(30)
    _stage(staging, events)
    export_job(staging, store, table, "c")
    _stage(staging, events)  # full redelivery
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 0 and result.version is None
    assert result.dropped_duplicates == 30
    assert staging.committed_offset("c") == 60
    assert table.current_version() == 2  # no new commit


def test_export_files_sorted_and_delta_encoded(tmp_path):
    store, staging, table = _env(tmp_path)
    events = _trades(50)
    _stage(staging, list(reversed(events)))  # staged out of time order
    export_job(staging, store, table, "c")
    add = next(iter(table.snapshot_at().live_files.values()))
    parsed = read_file(store.get(add.path))
    times = parsed.columns["event_time_us"]
    assert times == sorted(times)
    idx = [s.name for s in parsed.footer.schema].index("event_time_us")
    assert parsed.footer.chunks[idx].encoding.name == "DELTA"
    assert add.min_event_time_us == times[0] and add.max_event_time_us == times[-1]


class _SimulatedCrash(BaseException):
    pass


def _crash_at(monkeypatch, site_name):
    def crash(site):
        if site == site_name:
            raise _SimulatedCrash

    monkeypatch.setattr(crashpoints, "crashpoint", crash)


def test_second_exporter_of_a_connector_is_refused(tmp_path, monkeypatch):
    """Two exporters of one connector would both drain from the same
    checkpoint and publish the batch twice; the second must be refused."""
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(100))
    paused, release = threading.Event(), threading.Event()

    def pause_first(site):
        if site == "etl.pre_commit" and threading.current_thread() is first:
            paused.set()
            release.wait(30)

    monkeypatch.setattr(crashpoints, "crashpoint", pause_first)
    first = threading.Thread(target=export_job, args=(staging, store, table, "c"))
    first.start()
    try:
        assert paused.wait(30)
        with pytest.raises(SessionLockHeld):
            export_job(staging, store, LakeTable(store, "trades"), "c")
    finally:
        release.set()
        first.join(30)
    assert not first.is_alive()
    assert table.current_version() == 2
    assert sum(a.rows for a in table.snapshot_at().live_files.values()) == 100
    assert export_job(staging, store, table, "c").rows_published == 0  # lock released


def test_racing_exporters_publish_each_record_once(tmp_path):
    """More exporter threads than cores race for one connector with a short
    switch interval; every record they publish is published once."""
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(300))
    refused = []

    def export():
        try:
            export_job(staging, store, LakeTable(store, "trades"), "c", max_records=15)
        except SessionLockHeld:
            refused.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            threads = [threading.Thread(target=export) for _ in range(len(os.sched_getaffinity(0)) + 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    live_rows = sum(a.rows for a in table.snapshot_at().live_files.values())
    assert live_rows == staging.committed_offset("c") > 0


def test_crash_between_commit_and_checkpoint_is_idempotent(tmp_path, monkeypatch):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(80))
    _crash_at(monkeypatch, "etl.post_commit_pre_checkpoint")
    with pytest.raises(_SimulatedCrash):
        export_job(staging, store, table, "c")
    assert table.current_version() == 2  # commit landed
    assert staging.committed_offset("c") == 0  # checkpoint did not

    monkeypatch.setattr(crashpoints, "crashpoint", lambda site: None)
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 0  # everything redelivered died in dedup
    assert staging.committed_offset("c") == 80
    total_rows = sum(a.rows for a in table.snapshot_at().live_files.values())
    assert total_rows == 80


def test_crash_before_commit_leaves_only_orphans(tmp_path, monkeypatch):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(25))
    _crash_at(monkeypatch, "etl.pre_commit")
    with pytest.raises(_SimulatedCrash):
        export_job(staging, store, table, "c")
    assert table.current_version() == 1
    report = table.audit()
    assert report["dangling"] == [] and len(report["orphans"]) == 1

    monkeypatch.setattr(crashpoints, "crashpoint", lambda site: None)
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 25
    assert sum(a.rows for a in table.snapshot_at().live_files.values()) == 25


def test_export_idempotent_run_twice(tmp_path):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(40))
    export_all(staging, store, table, "c")
    before = {a.path: a.rows for a in table.snapshot_at().live_files.values()}
    export_all(staging, store, table, "c")
    after = {a.path: a.rows for a in table.snapshot_at().live_files.values()}
    assert before == after


def test_multiset_preserved_vs_staging_oracle(tmp_path):
    store, staging, table = _env(tmp_path)
    events = _trades(35, "BTC-USD") + _trades(20, "ETH-USD", start_id=100)
    duplicated = events + events[:10]
    _stage(staging, duplicated)
    export_all(staging, store, table, "c", max_records=16)
    # oracle: brute-force dedup of the staged stream
    oracle, _ = dedup(staging.read_from("c", 0, 10_000))
    table_rows = []
    for add in table.snapshot_at().live_files.values():
        table_rows.extend(read_file(store.get(add.path)).rows())
    assert sorted(map(ROW_IDENTITY, table_rows)) == sorted(map(ROW_IDENTITY, oracle))


@pytest.mark.parametrize("change", [{"source": 5}, {"price_e8": "100"}, {"event_time_us": 10**18}])
def test_malformed_staged_line_fails_typed_at_drain(tmp_path, change):
    store, staging, table = _env(tmp_path)
    _stage(staging, [make_event(event_id="a")])
    segment = tmp_path / "staging" / "c" / "seg-00000000000000000000.jsonl"
    line = {**vars(make_event(event_id="b", sequence=1)), "offset": 1, **change}
    with open(segment, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    with pytest.raises(CorruptStaging) as err:
        export_all(staging, store, table, "c")
    assert (err.value.path, err.value.line_no) == (str(segment), 2)
    assert not table.snapshot_at().live_files and staging.committed_offset("c") == 0


def test_export_all_rejects_non_positive_batch(tmp_path):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(3))
    with pytest.raises(ConfigInvalid):
        export_all(staging, store, table, "c", max_records=0)


def test_one_export_reads_the_active_segment_once(tmp_path, monkeypatch):
    """The drain is an export's one read of the whole active segment; the
    checkpoint commit's tail check reads one chunk at its end."""
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(60))
    segment = tmp_path / "staging" / "c" / f"seg-{0:020}.jsonl"
    size = segment.stat().st_size
    assert size > 2 * TAIL_CHUNK
    opens = []  # bytes read through each open of the segment
    real_open = io.open

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            opens[self.index] += n
            return n

        def readall(self):
            data = super().readall()
            opens[self.index] += len(data)
            return data

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(segment):
            assert mode == "rb"
            raw = CountingFile(file)
            raw.index = len(opens)
            opens.append(0)
            return io.BufferedReader(raw)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # pathlib opens through io.open
    monkeypatch.setattr("builtins.open", counting_open)
    result = export_all(staging, store, table, "c", max_records=100)  # one export_job
    assert result.rows_published == 60
    assert opens.count(size) == 1  # the drain's
    assert all(n <= TAIL_CHUNK for n in opens if n != size)


def test_longest_ids_and_symbol_a_key_segment_holds_export(tmp_path):
    store = FsStore(tmp_path / "store")
    staging = StagingStore(tmp_path / "staging")
    table = LakeTable(store, "t" * 255)
    table.init("trades_v1", TABLE_COLUMNS)
    symbol = "B-" + "U" * 246  # its partition's key segment "symbol=B-UU..." is 255 bytes
    make_config(symbols={"BU": symbol}).validate()
    _stage(staging, [make_event(symbol=symbol)], connector="c" * 255)
    assert export_all(staging, store, table, "c" * 255).rows_published == 1
    (add,) = table.snapshot_at().live_files.values()
    assert add.partition.symbol == symbol
    # the file's symbol stats are truncated to 64 bytes, and still agree with its AddFile
    request = ScanRequest("t" * 255, (add.min_event_time_us, add.max_event_time_us + 1), {symbol})
    assert [event.symbol for event in scan(store, table, request)] == [symbol]


# -- cross-batch dedup identity cache ----------------------------------------------------

class _CountingStore:
    """Records every data-file GET; everything else goes straight through."""

    def __init__(self, inner):
        self.inner = inner
        self.data_gets = []

    def get(self, key):
        if "/data/" in key:
            self.data_gets.append(key)
        return self.inner.get(key)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_overlapping_export_reads_each_live_file_once(tmp_path):
    store, staging, _ = _env(tmp_path)
    counting = _CountingStore(store)
    _stage(staging, _trades(40), connector="d")
    export_job(staging, store, LakeTable(store, "trades"), "d")  # another process's handle
    table = LakeTable(counting, "trades")
    first = next(iter(table.snapshot_at().live_files))
    _stage(staging, _trades(40, start_id=20))  # overlaps the first file's range
    result = export_job(staging, counting, table, "c")
    assert result.rows_published == 20 and result.dropped_duplicates == 20
    assert counting.data_gets == [first]
    _stage(staging, _trades(40, start_id=10))  # overlaps both live files
    result = export_job(staging, counting, table, "c")
    assert result.rows_published == 0 and result.dropped_duplicates == 40
    assert counting.data_gets == [first]  # the second file is this handle's own
    assert table.identity_cache.keys() == table.snapshot_at().live_files.keys()


def test_files_the_handle_wrote_or_compacted_are_never_fetched_for_dedup(tmp_path):
    store, staging, _ = _env(tmp_path)
    counting = _CountingStore(store)
    table = LakeTable(counting, "trades")
    _stage(staging, _trades(100))
    export_all(staging, counting, table, "c", max_records=25)  # four files
    _stage(staging, _trades(100))  # every row again
    assert export_job(staging, counting, table, "c").dropped_duplicates == 100
    assert counting.data_gets == []
    compact(counting, table, live_partitions(table)[0])
    counting.data_gets.clear()  # the compaction's reads of its victims
    _stage(staging, _trades(110))  # every compacted row again, and 10 new ones
    result = export_job(staging, counting, table, "c")
    assert (result.rows_published, result.dropped_duplicates) == (10, 100)
    assert counting.data_gets == []


def test_compacted_paths_leave_the_identity_cache(tmp_path):
    store, staging, table = _fragmented_table(tmp_path)
    victims = set(table.snapshot_at().live_files)
    assert table.identity_cache.keys() == victims  # the exports' own files
    compact(store, table, live_partitions(table)[0])
    (merged,) = table.snapshot_at().live_files
    assert merged in table.identity_cache
    _stage(staging, _trades(10, start_id=95))  # 5 duplicates of compacted rows
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 5 and result.dropped_duplicates == 5
    assert merged in table.identity_cache and not victims & table.identity_cache.keys()
    assert table.identity_cache.keys() == table.snapshot_at().live_files.keys()


@pytest.mark.parametrize("warm", [True, False], ids=["victims_cached", "cold_handle"])
def test_compacted_file_is_cached_as_a_read_returns_it(tmp_path, warm):
    store, _, table = _fragmented_table(tmp_path)
    handle = table if warm else LakeTable(store, "trades")
    compact(store, handle, live_partitions(table)[0])
    (merged,) = table.snapshot_at().live_files
    assert handle.identity_cache[merged] == frozenset(
        read_file(store.get(merged), projection=IDENTITY_COLUMNS).rows())


def test_lost_compaction_leaves_no_identity_cache_entry(tmp_path, monkeypatch):
    store, _, table = _fragmented_table(tmp_path)
    partition = live_partitions(table)[0]
    loser = LakeTable(store, "trades")
    commit = loser.commit

    def commit_after_the_winner(*args, **kwargs):
        assert compact(store, table, partition) is not None
        return commit(*args, **kwargs)

    monkeypatch.setattr(loser, "commit", commit_after_the_winner)
    assert compact(store, loser, partition) is None
    assert loser.identity_cache == {}
    (merged,) = table.snapshot_at().live_files
    assert merged in table.identity_cache


def test_identity_cache_keeps_the_most_recently_used_files_within_its_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(etl, "IDENTITY_CACHE_ROWS", 50)
    store, staging, _ = _env(tmp_path)
    counting = _CountingStore(store)
    table = LakeTable(counting, "trades")
    _stage(staging, _trades(100))
    export_all(staging, counting, table, "c", max_records=25)  # four files of 25 rows
    files = [a.path for a in sorted(table.snapshot_at().live_files.values(), key=lambda a: a.min_event_time_us)]
    assert list(table.identity_cache) == files[2:]  # the two published last
    _stage(staging, _trades(25))  # the first file's rows again
    assert export_job(staging, counting, table, "c").dropped_duplicates == 25
    assert counting.data_gets == files[:1]  # evicted, so fetched again
    assert list(table.identity_cache) == [files[3], files[0]]
    monkeypatch.setattr(etl, "IDENTITY_CACHE_ROWS", 20)
    _stage(staging, _trades(50)[25:])  # the second file's rows again
    assert export_job(staging, counting, table, "c").dropped_duplicates == 25
    assert counting.data_gets == files[:2] and table.identity_cache == {}  # no file fits


def test_duplicate_committed_by_another_handle_is_dropped(tmp_path):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(30))
    export_job(staging, store, table, "c")
    _stage(staging, _trades(30))
    assert export_job(staging, store, table, "c").dropped_duplicates == 30
    assert len(table.identity_cache) == 1  # warm for the first file
    other = LakeTable(store, "trades")  # another process's handle
    _stage(staging, _trades(30, start_id=30), connector="d")
    export_job(staging, store, other, "d")
    _stage(staging, _trades(60))  # both files' rows again
    result = export_job(staging, store, table, "c")
    assert result.rows_published == 0 and result.dropped_duplicates == 60
    assert len(table.identity_cache) == 2
    assert sum(a.rows for a in table.snapshot_at().live_files.values()) == 60


def test_export_job_reads_one_snapshot_whatever_its_partition_count(tmp_path, monkeypatch):
    store, staging, table = _env(tmp_path)
    calls = []
    snapshot_at = table.snapshot_at
    monkeypatch.setattr(table, "snapshot_at", lambda *args: calls.append(args) or snapshot_at(*args))
    events = [e for symbol in ("BTC-USD", "ETH-USD") for day in (0, 86_400_000_000)
              for e in _trades(10, symbol, start_id=day, day_offset_us=day)]
    _stage(staging, events)
    assert export_job(staging, store, table, "c").rows_published == 40
    assert len(table.snapshot_at().live_files) == 4  # one file per partition
    calls.clear()
    _stage(staging, events)  # every partition's rows again: each checks a live file
    assert export_job(staging, store, table, "c").dropped_duplicates == 40
    assert calls == [()]
    assert export_job(staging, store, table, "c").rows_published == 0  # nothing drained
    assert calls == [()]


def test_compaction_after_the_job_snapshot_loses_and_duplicates_nothing(tmp_path, monkeypatch):
    store, staging, table = _fragmented_table(tmp_path)  # 100 rows in 4 files of one partition
    events = _trades(110)
    _stage(staging, events[90:])  # 10 rows already live, 10 new
    partition = live_partitions(table)[0]
    compactions = []

    def compact_before_commit(site):
        if site == "etl.pre_commit":
            compactions.append(compact(store, LakeTable(store, "trades"), partition))

    monkeypatch.setattr(crashpoints, "crashpoint", compact_before_commit)
    result = export_job(staging, store, table, "c")
    assert compactions[0] is not None and result.version == compactions[0] + 1
    assert (result.rows_published, result.dropped_duplicates) == (10, 10)
    live = table.snapshot_at().live_files.values()
    assert len(live) == 2  # the merged file and the job's file
    rows = [row for add in live for row in read_file(store.get(add.path)).rows()]
    assert sorted(rows) == sorted(map(event_to_row, events))


# -- compact -----------------------------------------------------------------------------

def _fragmented_table(tmp_path, batches=4, per_batch=25):
    store, staging, table = _env(tmp_path)
    events = _trades(batches * per_batch)
    _stage(staging, events)
    export_all(staging, store, table, "c", max_records=per_batch)
    return store, staging, table


def test_compact_merges_and_preserves_scan(tmp_path):
    store, _, table = _fragmented_table(tmp_path)
    partition = live_partitions(table)[0]
    before = sorted(
        (event_from_row(r)
         for add in table.snapshot_at().live_files.values()
         for r in read_file(store.get(add.path)).rows()),
        key=lambda e: e.sort_key(),
    )
    assert len(table.snapshot_at().live_files) == 4
    version = compact(store, table, partition)
    assert version == table.current_version()
    live = table.snapshot_at().live_files
    assert len(live) == 1
    merged = next(iter(live.values()))
    assert merged.rows == 100
    after = sorted((event_from_row(r) for r in read_file(store.get(merged.path)).rows()),
                   key=lambda e: e.sort_key())
    assert after == before


def test_compact_single_file_noop(tmp_path):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(10))
    export_all(staging, store, table, "c")
    partition = live_partitions(table)[0]
    assert compact(store, table, partition) is None


def test_concurrent_compactions_one_winner(tmp_path):
    store, _, table = _fragmented_table(tmp_path)
    partition = live_partitions(table)[0]
    barrier = threading.Barrier(2)
    results = []

    def worker():
        handle = LakeTable(store, "trades")
        barrier.wait()
        results.append(compact(store, handle, partition))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(r is None for r in results) == [False, True]  # exactly one wins
    assert len(table.snapshot_at().live_files) == 1
    assert sum(a.rows for a in table.snapshot_at().live_files.values()) == 100


def _layered_table(tmp_path, counts):
    """A table whose BTC-USD partition of one day holds one exported file of
    each row count in counts, in that order; every file's rows start at the
    day's first microsecond, so each later file is late."""
    store, staging, table = _env(tmp_path)
    start = 0
    for n in counts:
        _stage(staging, _trades(n, start_id=start))
        export_job(staging, store, table, "c")
        start += n
    return store, staging, table


def _scanned(store, table):
    return list(scan(store, table, ScanRequest("trades", (T0, T0 + US_PER_DAY), {"BTC-USD"})))


def test_compaction_never_fetches_a_full_file_and_keeps_its_path(tmp_path):
    store, _, table = _layered_table(tmp_path, [100, 5, 7, 9])
    (full,) = [path for path, add in table.snapshot_at().live_files.items() if add.rows == 100]
    counting = _CountingStore(store)
    assert compact(counting, table, live_partitions(table)[0]) is not None
    live = table.snapshot_at().live_files
    assert full in live and sorted(add.rows for add in live.values()) == [21, 100]
    assert len(counting.data_gets) == 3 and full not in counting.data_gets


def test_one_large_and_one_small_file_is_a_no_op_at_two_min_files(tmp_path):
    store, _, table = _layered_table(tmp_path, [100, 5])
    version = table.current_version()
    counting = _CountingStore(store)
    assert compact(counting, table, live_partitions(table)[0]) is None
    assert table.current_version() == version and counting.data_gets == []


def test_rows_rewritten_by_repeated_compaction_stay_below_twice_the_big_file(tmp_path):
    store, staging, table = _layered_table(tmp_path, [1000])
    partition = live_partitions(table)[0]
    rewritten = 0
    for k in range(60):
        _stage(staging, _trades(5, start_id=1000 + 5 * k))  # late rows inside the big file's range
        export_job(staging, store, table, "c")
        before = table.snapshot_at().live_files
        compact(store, table, partition)
        live = table.snapshot_at().live_files
        rewritten += sum(add.rows for path, add in live.items() if path not in before)
        assert len(live) <= 1 + math.log(sum(add.rows for add in live.values()), 3)
    assert rewritten < 2 * 1000
    assert sum(add.rows for add in live.values()) == 1300 and len(_scanned(store, table)) == 1300


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None, database=None)
def test_compaction_merges_the_files_below_the_first_that_is_not_full(counts):
    with tempfile.TemporaryDirectory() as tmp:
        store, _, table = _layered_table(Path(tmp), counts)
        partition = live_partitions(table)[0]
        before = table.snapshot_at().live_files
        scanned = _scanned(store, table)
        cached_at_commit = []
        commit = table.commit

        def commit_noting_the_cache(actions, committer):
            cached_at_commit.append(actions[0].path in table.identity_cache)
            return commit(actions, committer)

        table.commit = commit_noting_the_cache
        version = compact(store, table, partition)
        after = table.snapshot_at().live_files
        order = sorted(before.values(), key=lambda a: (a.rows, a.path))
        smaller = {add.path: sum(a.rows for a in order[:i]) for i, add in enumerate(order)}
        if version is None:  # a one-file merge set: every file but the smallest is full
            assert all(add.rows > FULL_RATIO * smaller[add.path] for add in order[1:])
            assert after == before and cached_at_commit == []
            return
        merged = [add for add in order if add.path not in after]  # a prefix of order
        assert len(merged) > 1 and merged == order[:len(merged)]
        for add in order[len(merged):]:  # left alone
            assert add.rows > FULL_RATIO * smaller[add.path]
        assert merged[-1].rows <= FULL_RATIO * smaller[merged[-1].path]
        (new,) = [add for path, add in after.items() if path not in before]
        assert new.rows == sum(add.rows for add in merged)
        assert _scanned(store, table) == scanned
        assert cached_at_commit == [False]
        assert table.identity_cache[new.path] == frozenset(
            read_file(store.get(new.path), projection=IDENTITY_COLUMNS).rows())


# -- a live file checked against its AddFile -------------------------------------------

def _swapped_table(tmp_path):
    """A table whose BTC-USD file (3 rows) holds the bytes of its valid
    ETH-USD file of the same day (5 rows); returns the BTC-USD AddFile too."""
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(3, "BTC-USD") + _trades(5, "ETH-USD"))
    export_all(staging, store, table, "c")
    adds = {add.partition.symbol: add for add in table.snapshot_at().live_files.values()}
    store.put(adds["BTC-USD"].path, store.get(adds["ETH-USD"].path))
    return store, staging, table, adds["BTC-USD"]


def test_scan_of_a_swapped_file_is_data_file_mismatch(tmp_path):
    store, _, table, btc = _swapped_table(tmp_path)
    with pytest.raises(DataFileMismatch) as err:
        list(scan(store, table, ScanRequest("trades", (T0, T0 + US_PER_DAY), {"BTC-USD"})))
    assert err.value.path == btc.path


def test_compaction_of_a_swapped_file_commits_nothing(tmp_path):
    store, staging, table, btc = _swapped_table(tmp_path)
    _stage(staging, _trades(2, "BTC-USD", start_id=3, day_offset_us=10_000))  # a second small file
    export_all(staging, store, table, "c")
    version = table.current_version()
    with pytest.raises(DataFileMismatch) as err:
        compact(store, table, btc.partition)
    assert err.value.path == btc.path and table.current_version() == version


def test_a_swapped_file_is_refused_before_any_chunk_is_decoded(tmp_path, monkeypatch):
    """Also when its size matches the AddFile, so that only its footer
    tells it apart."""
    store, _, table, btc = _swapped_table(tmp_path)
    decoded = []
    decode_column = lakeformat.decode_column
    monkeypatch.setattr(lakeformat, "decode_column", lambda *a: decoded.append(a) or decode_column(*a))
    for add in (btc, replace(btc, bytes=len(store.get(btc.path)))):
        with pytest.raises(DataFileMismatch):
            read_data_file(store, add)
    assert decoded == []
    (eth,) = (add for add in table.snapshot_at().live_files.values() if add.partition.symbol == "ETH-USD")
    assert read_data_file(store, eth).footer.row_count == 5 and len(decoded) == len(TABLE_COLUMNS)


def test_audit_reports_a_swapped_file_as_mismatched(tmp_path):
    store, _, table, btc = _swapped_table(tmp_path)
    report = table.audit()
    assert (report["mismatched"], report["dangling"], report["live_files"]) == ([btc.path], [], 2)


def test_dedup_against_a_swapped_file_is_data_file_mismatch(tmp_path):
    store, staging, _, btc = _swapped_table(tmp_path)
    _stage(staging, _trades(1, "BTC-USD"))  # redelivered, so dedup must read the BTC-USD file
    cold = LakeTable(store, "trades")  # a handle that did not write the file fetches it
    with pytest.raises(DataFileMismatch) as err:
        export_all(staging, store, cold, "c")
    assert err.value.path == btc.path and staging.committed_offset("c") == 8


@pytest.mark.parametrize("change", [
    {"bytes": 1}, {"rows": 1}, {"min_event_time_us": -1}, {"max_event_time_us": 1}, {"symbol": "ETH-USD"},
], ids=lambda change: next(iter(change)))
def test_file_that_disagrees_with_any_checked_add_file_field_is_mismatch(tmp_path, change):
    store, staging, table = _env(tmp_path)
    _stage(staging, _trades(3))
    export_all(staging, store, table, "c")
    (add,) = table.snapshot_at().live_files.values()
    assert read_data_file(store, add, IDENTITY_COLUMNS).footer.row_count == 3
    if "symbol" in change:
        wrong = replace(add, partition=PartitionKey(change["symbol"], add.partition.date))
    else:
        wrong = replace(add, **{name: getattr(add, name) + delta for name, delta in change.items()})
    with pytest.raises(DataFileMismatch) as err:
        read_data_file(store, wrong, IDENTITY_COLUMNS)
    assert err.value.path == add.path and err.value.kind == "DataFileMismatch"
