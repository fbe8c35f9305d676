import dataclasses
import io
import json
import os
import shutil
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake import localfile, staging
from brclake.errors import (CheckpointRegression, CorruptStaging, OffsetOutOfRange, SessionLockHeld,
                            StagingUnavailable, StorageFull)
from brclake.ingest import ConnectorState, SyntheticState, run_connector
from brclake.events import MarketEvent, event_from_row, event_to_row
from brclake.fixedpoint import US_YEAR_10000
from brclake.staging import StagingStore, _staged_line

from conftest import make_config, make_event, run_optimized

SEGMENT = "seg-00000000000000000000.jsonl"


def _events(n, start=0):
    return [make_event(event_id=f"e-{start + i}", sequence=start + i,
                       event_time_us=1_600_000_000_000_000 + (start + i) * 1000)
            for i in range(n)]


def _rows(events):
    """The encoded table rows a drain returns for events."""
    return [event_to_row(e) for e in events]


def test_first_batch_offsets_dense_from_zero(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        assert session.append_batch(_events(3)) == (0, 2)
        assert session.append_batch(_events(2, start=3)) == (3, 4)


def test_batch_crossing_segment_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 10_000)
    store = StagingStore(tmp_path)
    events = _events(10_001)
    with store.open_session("c") as session:
        first, last = session.append_batch(events)
    assert (first, last) == (0, 10_000)
    segments = sorted(p.name for p in (tmp_path / "c").glob("seg-*.jsonl"))
    assert segments == [f"seg-{0:020}.jsonl", f"seg-{10_000:020}.jsonl"]
    assert store.read_from("c", 0, 20_000) == _rows(events)
    assert store.read_from("c", 9_999, 5) == _rows(events[9_999:])
    with pytest.raises(OffsetOutOfRange) as info:
        store.read_from("c", 10_002, 0)
    assert (info.value.offset, info.value.tail) == (10_002, 10_000)


def test_append_after_a_failed_write_continues_at_the_tail(tmp_path, monkeypatch):
    """A batch whose write to its second segment fails ends its session; the
    next session starts at the tail the first write reached, so the next
    append's offsets stay dense."""
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 3)
    store = StagingStore(tmp_path)
    append = staging.fsync_append
    writes = []

    def full_on_second_write(path, data):
        writes.append(path.name)
        if len(writes) == 2:
            raise StorageFull("scripted")
        append(path, data)

    monkeypatch.setattr(staging, "fsync_append", full_on_second_write)
    with store.open_session("c") as session:
        with pytest.raises(StorageFull):
            session.append_batch(_events(5))  # offsets 0..2 land, 3..4 do not
        with pytest.raises(StagingUnavailable):
            session.append_batch(_events(2, start=3))
    with store.open_session("c") as session:
        assert session.append_batch(_events(2, start=3)) == (3, 4)
    assert writes == [f"seg-{0:020}.jsonl", f"seg-{3:020}.jsonl", f"seg-{3:020}.jsonl"]
    assert store.read_from("c", 0, 10) == _rows(_events(5))


def test_read_from_window_and_tail(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(5))
    assert store.read_from("c", 0, 3) == _rows(_events(3))
    assert store.read_from("c", 5, 10) == []
    with pytest.raises(OffsetOutOfRange) as info:
        store.read_from("c", 9, 1)
    assert (info.value.offset, info.value.tail) == (9, 4)
    with pytest.raises(OffsetOutOfRange) as info:
        store.read_from("fresh", 1, 1)
    assert (info.value.offset, info.value.tail) == (1, -1)


def test_append_read_round_trip(tmp_path):
    store = StagingStore(tmp_path)
    events = _events(20)
    with store.open_session("c") as session:
        session.append_batch(events[:7])
        session.append_batch(events[7:])
    assert store.read_from("c", 0, 100) == _rows(events)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_round_trip_property_any_batching(batch_sizes):
    import tempfile
    total = sum(batch_sizes)
    events = _events(total)
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setattr(staging, "SEGMENT_RECORDS", 7)
        store = StagingStore(root)
        cursor = 0
        with store.open_session("c") as session:
            for size in batch_sizes:
                session.append_batch(events[cursor:cursor + size])
                cursor += size
        assert store.read_from("c", 0, total + 1) == _rows(events)


def test_durability_across_reopen(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(12))
    reopened = StagingStore(tmp_path)
    assert reopened.tail_offset("c") == 12
    assert len(reopened.read_from("c", 0, 100)) == 12


def test_torn_trailing_line_truncated_on_next_session(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(3))
    seg = next((tmp_path / "c").glob("seg-*.jsonl"))
    with open(seg, "ab") as f:
        f.write(b'{"offset": 3, "event_time_us": 99')  # crash mid-write
    assert store.tail_offset("c") == 3  # readers ignore the torn line
    with store.open_session("c") as session:
        session.append_batch(_events(1, start=3))
    assert store.read_from("c", 0, 10) == _rows(_events(4))


def _segment_reads(monkeypatch, segment):
    """The bytes of every read the program makes from the file segment."""
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            reads.append(n)
            return n

    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if mode in ("rb", "r+b") and isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(segment):
            raw = CountingFile(file, mode.replace("b", ""))
            return io.BufferedRandom(raw) if "+" in mode else io.BufferedReader(raw)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # pathlib opens through io.open
    monkeypatch.setattr("builtins.open", counting_open)
    return reads


def test_session_and_tail_read_one_end_chunk_of_a_long_segment(tmp_path, monkeypatch):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(500))
    segment = tmp_path / "c" / SEGMENT
    with open(segment, "ab") as f:
        f.write(b'{"offset": 500, "event_time_us": 99')  # crash mid-write
    assert segment.stat().st_size > 20 * localfile.TAIL_CHUNK
    reads = _segment_reads(monkeypatch, segment)
    assert store.tail_offset("c") == 500
    assert sum(reads) <= localfile.TAIL_CHUNK
    reads.clear()
    with store.open_session("c") as session:  # repairs the torn tail
        assert sum(reads) <= localfile.TAIL_CHUNK
        assert session.append_batch(_events(1, start=500)) == (500, 500)
    assert store.read_from("c", 0, 1000) == _rows(_events(501))


@pytest.mark.parametrize("last_line, detail", [
    (b"garbage", "not a staged record"),
    (b"[500]", "not a staged record"),
    (b'{"offset": 2}', "keys"),
    (_staged_line(_events(1)[0], 10).encode()[:-1], "outside the segment"),
    (_staged_line(_events(1)[0], -1).encode()[:-1], "outside the segment"),
    (json.dumps({**vars(_events(1)[0]), "offset": "2"}, sort_keys=True).encode(), "outside the segment"),
    (json.dumps({**vars(_events(1)[0]), "offset": 2, "source": 5}, sort_keys=True).encode(), "wrong type"),
], ids=["not_json", "not_object", "missing_keys", "past_segment", "negative", "string_offset", "bad_field"])
def test_corrupt_last_line_is_corrupt_staging(tmp_path, monkeypatch, last_line, detail):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 5)
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(2))
    segment = tmp_path / "c" / SEGMENT
    with open(segment, "ab") as f:
        f.write(last_line + b"\n")
    for read in (store.tail_offset, store.open_session):
        with pytest.raises(CorruptStaging) as err:
            read("c")
        assert err.value.path == str(segment) and detail in str(err.value)
    assert store.read_from("c", 0, 2) == _rows(_events(2))  # the lines before it still drain


def test_a_failed_segment_write_ends_the_session(tmp_path, monkeypatch):
    """Part of a batch reaches the file before the disk fills: the session
    ends, so nothing is appended after the torn line, and the next session's
    tail repair removes it; the connector then appends the batch again."""
    store = StagingStore(tmp_path)
    append = staging.fsync_append

    def half_then_full(path, data):
        append(path, data[:len(data) // 2])  # offset 2 whole, then half of offset 3
        raise StorageFull("scripted")

    with store.open_session("c") as session:
        session.append_batch(_events(2))
        monkeypatch.setattr(staging, "fsync_append", half_then_full)
        with pytest.raises(StorageFull):
            session.append_batch(_events(3, start=2))
        monkeypatch.setattr(staging, "fsync_append", append)
        with pytest.raises(StagingUnavailable):
            session.append_batch(_events(3, start=2))
    with store.open_session("c") as session:
        assert session.append_batch(_events(3, start=2)) == (3, 5)
    assert store.read_from("c", 0, 10) == _rows(_events(3) + _events(3, start=2))


# -- checkpoints ------------------------------------------------------------------

def test_checkpoint_commit_and_idempotence(tmp_path):
    store = StagingStore(tmp_path)
    assert store.committed_offset("c") == 0
    with store.open_session("c") as session:
        session.append_batch(_events(5))
    store.commit_checkpoint("c", 3)
    assert store.committed_offset("c") == 3
    store.commit_checkpoint("c", 3)  # idempotent
    assert store.committed_offset("c") == 3
    with pytest.raises(CheckpointRegression):
        store.commit_checkpoint("c", 2)


def test_checkpoint_and_connector_state_bytes_are_pinned(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(5))
    store.commit_checkpoint("c", 3)
    assert (tmp_path / "c" / "checkpoint.json").read_bytes() == b'{"committed_offset": 3}'
    state = ConnectorState({"syn|trade|BTC-USD": 7}, SyntheticState(7, 2**64 - 1, 10**12, 1_600_000_000_000_000))
    store.save_connector_state("c", state)
    assert (tmp_path / "c" / "connector_state.json").read_bytes() == (
        b'{"seq_counters": {"syn|trade|BTC-USD": 7}, "synthetic": {"last_event_time_us": 1600000000000000, '
        b'"next_index": 7, "price_e8": 1000000000000, "prng_state": 18446744073709551615}}')
    assert store.load_connector_state("c", ConnectorState) == state
    store.save_connector_state("c", ConnectorState(replay_offset=4))
    assert (tmp_path / "c" / "connector_state.json").read_bytes() == b'{"replay_offset": 4, "seq_counters": {}}'


def test_drain_batch_does_not_advance(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(5))
    rows, nxt = store.drain_batch("c", 3)
    assert rows == _rows(_events(3)) and nxt == 3
    # crash before commit: drain again returns the same rows
    rows2, nxt2 = store.drain_batch("c", 3)
    assert rows2 == rows and nxt2 == 3
    store.commit_checkpoint("c", nxt2)
    rows3, nxt3 = store.drain_batch("c", 3)
    assert rows3 == _rows(_events(2, start=3)) and nxt3 == 5


def test_drain_caught_up(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(5))
    store.commit_checkpoint("c", 5)
    rows, nxt = store.drain_batch("c", 10)
    assert rows == [] and nxt == 5


# -- session lock --------------------------------------------------------------------

def test_second_session_blocked_while_held(tmp_path):
    store = StagingStore(tmp_path)
    session = store.open_session("c")
    try:
        with pytest.raises(SessionLockHeld):
            store.open_session("c")
    finally:
        session.close()
    store.open_session("c").close()  # released: can reacquire


def test_stale_lock_from_dead_pid_is_stolen(tmp_path):
    store = StagingStore(tmp_path)
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "lock").write_text('{"pid": 999999999, "token": "dead"}')
    store.open_session("c").close()


def test_two_acquirers_of_a_stale_lock_do_not_both_hold_it(tmp_path, monkeypatch):
    """Both acquirers find a dead holder's lock. An acquirer that probes the
    holder's pid pauses there until both have read it, and the second goes
    on only after the first has returned; exactly one may hold the lock."""
    path = tmp_path / "lock"
    path.write_text('{"pid": 999999999, "token": "dead"}')
    both_read, first_done = threading.Barrier(2, timeout=10), threading.Event()

    def dead_after_pause(pid):
        both_read.wait()
        if threading.current_thread().name == "second":
            first_done.wait(10)
        return False

    monkeypatch.setattr(localfile, "_alive", dead_after_pause, raising=False)
    held = {}

    def acquire():
        name = threading.current_thread().name
        try:
            held[name] = localfile.acquire_lock(path, "test")
        except SessionLockHeld:
            pass
        finally:
            if name == "first":
                first_done.set()

    threads = [threading.Thread(target=acquire, name=name) for name in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert len(held) == 1, f"held by {sorted(held)}"
    held.popitem()[1].close()


def test_distinct_connectors_are_independent(tmp_path):
    store = StagingStore(tmp_path)
    s1, s2 = store.open_session("a"), store.open_session("b")
    s1.append_batch(_events(2))
    s2.append_batch(_events(3))
    s1.close(), s2.close()
    assert store.tail_offset("a") == 2 and store.tail_offset("b") == 3


# -- record line format ----------------------------------------------------------

ID_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\r\u2028\ufeff\uffff'),
    st.characters(max_codepoint=0x7f),
    st.characters(min_codepoint=0x80, max_codepoint=0xffff, blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000),
), max_size=12)
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def valid_events(draw):
    stream = draw(st.sampled_from(["trade", "quote", "book_snapshot"]))
    positive = st.integers(min_value=1, max_value=2**63 - 1)
    return MarketEvent(
        source=draw(st.from_regex(r"[a-z0-9_-]+", fullmatch=True)),
        stream=stream,
        symbol=draw(st.from_regex(r"[A-Z0-9]+-[A-Z0-9]+", fullmatch=True)),
        event_time_us=draw(st.integers(min_value=1, max_value=US_YEAR_10000 - 1)),
        ingest_time_us=draw(st.integers(min_value=1, max_value=US_YEAR_10000 - 1)),
        sequence=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        event_id=draw(ID_TEXT),
        price_e8=draw(positive if stream == "trade" else I64),
        qty_e8=draw(positive if stream == "trade" else I64),
        side=draw(st.sampled_from(["buy", "sell"] if stream == "trade" else ["buy", "sell", "na"])),
    )


@given(valid_events(), st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=300, deadline=None)
def test_staged_line_matches_json_dumps(event, offset):
    event.validate()
    assert _staged_line(event, offset) == json.dumps({**vars(event), "offset": offset}, sort_keys=True) + "\n"


# Written by the json.dumps serializer the line template replaced.
FIXTURE_IDS = ["plain-1", 'quote"d', "back\\slash", "ctl\x00\x01\x1f\x7f", "nl\n tab\t cr\r",
               "caf\u00e9 \u4e2d\u6587", "astral \U0001F600 \U00010000", "sep \u2028\u2029", "",
               "u\ufeff\uffff"]


def _fixture_events():
    events = []
    for i, event_id in enumerate(FIXTURE_IDS):
        stream = ("trade", "quote", "book_snapshot")[i % 3]
        events.append(MarketEvent(
            source="syn_feed-2", stream=stream, symbol="BTC-USD",
            event_time_us=1_600_000_000_000_000 + i, ingest_time_us=[1, US_YEAR_10000 - 1, 17][i % 3],
            sequence=[0, 2**63 - 1, 17][i % 3], event_id=event_id,
            price_e8=10**8 if stream == "trade" else [-(2**63), 0, 2**63 - 1][i % 3],
            qty_e8=2**63 - 1 if stream == "trade" else -5, side="sell" if stream == "trade" else "na"))
    return events


def test_segment_written_by_json_dumps_drains_to_the_same_rows(tmp_path):
    fixture = Path(__file__).parent / "fixtures" / SEGMENT
    events = _fixture_events()
    (tmp_path / "c").mkdir()
    shutil.copy(fixture, tmp_path / "c" / SEGMENT)
    rows = StagingStore(tmp_path).read_from("c", 0, 100)
    assert rows == _rows(events)
    assert [event_from_row(row) for row in rows] == events
    with StagingStore(tmp_path / "rewritten").open_session("c") as session:
        session.append_batch(events)
    assert (tmp_path / "rewritten" / "c" / SEGMENT).read_bytes() == fixture.read_bytes()


# -- corrupt staging state ---------------------------------------------------------

SEGMENT = "seg-00000000000000000000.jsonl"


@pytest.mark.parametrize("name, content, reader, line_no", [
    ("checkpoint.json", '{"committed_offset": "x"}', "drain", None),
    ("checkpoint.json", "garbage", "drain", None),
    ("checkpoint.json", "{}", "prune", None),
    ("connector_state.json", '{"seq_counters": 5}', "ingest", None),
    ("connector_state.json", '{"synthetic": {"a": 1}}', "ingest", None),
    (SEGMENT, '{"x": 1}\n', "drain", 3),
    (SEGMENT, _staged_line(_events(3)[2], 2)[:-1] + " \n", "drain", 3),
    (SEGMENT, _staged_line(_events(3)[2], 2)[:-1] + "{}\n", "drain", 3),
], ids=["string_offset", "not_json", "missing_offset", "counters_not_object",
        "unknown_generator_field", "record_without_offset", "record_then_space", "record_then_object"])
def test_corrupt_staging_state_is_typed(tmp_path, name, content, reader, line_no):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(2))
    path = tmp_path / "c" / name
    with open(path, "a" if name == SEGMENT else "w") as f:
        f.write(content)
    with pytest.raises(CorruptStaging) as err:
        if reader == "drain":
            store.drain_batch("c", 100)
        elif reader == "prune":
            store.prune("c")
        else:
            run_connector(make_config(), store)
    assert (err.value.path, err.value.line_no) == (str(path), line_no)


def test_negative_checkpoint_is_corrupt_staging_under_optimize(tmp_path):
    """A checkpoint below 0 would drain records again that are published,
    and a drain would return a next checkpoint below its records' offsets;
    its file is refused by every reader, also under python -O."""
    result = run_optimized(f"""
from pathlib import Path
from conftest import make_event
from brclake.errors import CorruptStaging
from brclake.staging import StagingStore
root = Path({str(tmp_path)!r})
store = StagingStore(root)
with store.open_session("c") as session:
    session.append_batch([make_event(event_id=f"e-{{i}}") for i in range(3)])
(root / "c" / "checkpoint.json").write_text('{{"committed_offset": -2}}')
for name, read in [("drain", lambda: store.drain_batch("c", 100)),
                   ("commit", lambda: store.commit_checkpoint("c", 1)), ("prune", lambda: store.prune("c"))]:
    try:
        print(name, read())
    except CorruptStaging as exc:
        print(name, Path(exc.path).name, "committed_offset -2" in str(exc))
""")
    assert result.stdout.splitlines() == [
        f"{name} checkpoint.json True" for name in ("drain", "commit", "prune")
    ], result.stderr


@pytest.mark.parametrize("name, reader", [
    ("checkpoint.json", lambda store: store.drain_batch("c", 100)),
    ("connector_state.json", lambda store: store.load_connector_state("c", ConnectorState)),
    (SEGMENT, lambda store: store.drain_batch("c", 100)),
    (SEGMENT, lambda store: store.tail_offset("c")),
    (SEGMENT, lambda store: store.open_session("c")),
], ids=["checkpoint", "connector_state", "segment_drain", "segment_tail", "segment_session"])
def test_staging_file_that_cannot_be_read_is_staging_unavailable(tmp_path, name, reader):
    (tmp_path / "c" / name).mkdir(parents=True)  # a directory where the file should be
    store = StagingStore(tmp_path)
    with pytest.raises(StagingUnavailable) as err:
        reader(store)
    assert str(tmp_path / "c" / name) in err.value.detail
    if name == SEGMENT:  # a failed session open releases its lock
        with pytest.raises(StagingUnavailable):
            store.open_session("c")


def _staged(event, offset):
    return {**vars(event), "offset": offset}


@pytest.mark.parametrize("change", [
    {"source": 5},
    {"side": None},
    {"event_id": ["e-2"]},
    {"price_e8": "100"},
    {"sequence": True},
    {"qty_e8": 1.5},
    {"event_time_us": 1 << 63},
    {"offset": "2"},
    {"venue": "x"},
    {"event_id": "\ud800"},
    {"ingest_time_us": 10**18},
    {"ingest_time_us": -1},
], ids=["int_source", "null_side", "list_event_id", "string_price", "bool_sequence", "float_qty",
        "time_beyond_int64", "string_offset", "extra_key", "lone_surrogate", "ingest_time_after_9999",
        "negative_ingest_time"])
def test_malformed_record_line_is_corrupt_staging(tmp_path, change):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(2))
    path = tmp_path / "c" / SEGMENT
    with open(path, "a") as f:
        f.write(json.dumps({**_staged(_events(3)[2], 2), **change}, sort_keys=True) + "\n")
    with pytest.raises(CorruptStaging) as err:
        store.drain_batch("c", 100)
    assert (err.value.path, err.value.line_no) == (str(path), 3)
    assert store.read_from("c", 0, 2) == _rows(_events(2))  # lines before it still drain


@pytest.mark.parametrize("renamed", [None, "sidE"], ids=["missing", "renamed"])
def test_missing_key_is_corrupt_staging(tmp_path, renamed):
    store = StagingStore(tmp_path)
    line = _staged(_events(1)[0], 0)
    side = line.pop("side")
    if renamed:
        line[renamed] = side
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / SEGMENT).write_text(json.dumps(line) + "\n")
    with pytest.raises(CorruptStaging) as err:
        store.read_from("c", 0, 10)
    assert err.value.line_no == 1


@pytest.mark.parametrize("event_time_us", [0, -1, US_YEAR_10000, 10**18])
def test_event_time_no_partition_can_date_is_corrupt_staging(tmp_path, event_time_us):
    """A staged line whose time etl cannot turn into a partition date (a
    line staged before MarketEvent.validate bounded event times) fails at
    the drain."""
    store = StagingStore(tmp_path)
    events = _events(4)
    events[1] = dataclasses.replace(events[1], event_time_us=US_YEAR_10000 - 1)  # 9999-12-31T23:59:59.999999Z
    events[2] = dataclasses.replace(events[2], event_time_us=event_time_us)
    with store.open_session("c") as session:
        session.append_batch(events)
    with pytest.raises(CorruptStaging) as err:
        store.drain_batch("c", 100)
    assert (err.value.path, err.value.line_no) == (str(tmp_path / "c" / SEGMENT), 3)
    assert store.read_from("c", 0, 2) == _rows(events[:2])


def test_corrupt_staging_names_the_first_bad_line_across_segments(tmp_path, monkeypatch):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 3)
    store = StagingStore(tmp_path)
    events = _events(8)
    segments = [(0, events[:3]), (3, events[3:6]), (6, events[6:])]
    (tmp_path / "c").mkdir()
    for start, chunk in segments:
        lines = [_staged(e, start + i) for i, e in enumerate(chunk)]
        if start == 3:
            lines[2]["sequence"] = "5"  # offset 5: second segment, line 3
        if start == 6:
            lines[0]["source"] = 1  # offset 6, after it
        (tmp_path / "c" / f"seg-{start:020}.jsonl").write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    with pytest.raises(CorruptStaging) as err:
        store.read_from("c", 1, 100)
    assert (err.value.path, err.value.line_no) == (str(tmp_path / "c" / f"seg-{3:020}.jsonl"), 3)
    with pytest.raises(CorruptStaging) as err:  # the read starts inside the bad line's segment
        store.read_from("c", 4, 100)
    assert (err.value.path, err.value.line_no) == (str(tmp_path / "c" / f"seg-{3:020}.jsonl"), 3)
    assert store.read_from("c", 1, 4) == _rows(events[1:5])


@pytest.mark.parametrize("offsets, read_from, bad", [
    ([0, 99, -5], 0, (0, 2)),
    ([0, 1, 2, 3, 4, 4], 0, (3, 3)),
    ([0, 2, 3], 1, (0, 2)),
    ([0, 1, 2, 4, 5, 6], 2, (3, 1)),
], ids=["rewritten_offsets", "repeated_offset_in_second_segment", "read_inside_segment",
        "segment_start_disagrees"])
def test_staged_offset_that_is_not_its_position_is_corrupt_staging(tmp_path, monkeypatch, offsets, read_from, bad):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 3)
    store = StagingStore(tmp_path)
    events = _events(len(offsets))
    (tmp_path / "c").mkdir()
    for start in range(0, len(offsets), 3):
        lines = [_staged(e, o) for e, o in zip(events[start:start + 3], offsets[start:start + 3])]
        (tmp_path / "c" / f"seg-{start:020}.jsonl").write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    with pytest.raises(CorruptStaging) as err:
        store.read_from("c", read_from, 100)
    segment, line_no = bad
    assert (err.value.path, err.value.line_no) == (str(tmp_path / "c" / f"seg-{segment:020}.jsonl"), line_no)


@pytest.mark.parametrize("name", ["seg-x.jsonl", "seg-7.jsonl", f"seg-{0:021}.jsonl", "seg-" + "０" * 20 + ".jsonl"],
                         ids=["not_digits", "short", "21_digits", "fullwidth_digits"])
@pytest.mark.parametrize("call", [
    lambda store: store.tail_offset("c"),
    lambda store: store.read_from("c", 0, 10),
    lambda store: store.prune("c"),
    lambda store: store.open_session("c").close(),
], ids=["tail_offset", "read_from", "prune", "open_session"])
def test_stray_segment_name_is_corrupt_staging(tmp_path, name, call):
    """A ``seg-*.jsonl`` name that is not seg- plus the 20 digits its
    writer puts there is no segment of the connector's."""
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(2))
    (tmp_path / "c" / name).write_text("")
    with pytest.raises(CorruptStaging) as err:
        call(store)
    assert err.value.path == str(tmp_path / "c" / name)


# -- prune -----------------------------------------------------------------------------

def test_prune_removes_only_fully_drained_sealed_segments(tmp_path, monkeypatch):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 5)
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(12))  # segments [0..4], [5..9], [10..11]
    store.commit_checkpoint("c", 7)
    assert store.prune("c") == 1  # only segment 0..4 is fully below 7
    assert store.read_from("c", 7, 100) == _rows(_events(5, start=7))
    store.commit_checkpoint("c", 12)
    assert store.prune("c") == 1  # 5..9 goes; newest segment always kept
    assert store.tail_offset("c") == 12


def test_prune_reads_no_segment(tmp_path, monkeypatch):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 5)
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(12))
    store.commit_checkpoint("c", 10)

    def no_read(path):
        raise AssertionError(f"prune read {path}")

    monkeypatch.setattr(staging, "read_lines", no_read)
    assert store.prune("c") == 2
    assert [p.name for p in (tmp_path / "c").glob("seg-*")] == [f"seg-{10:020}.jsonl"]


def test_checkpoint_cannot_exceed_tail(tmp_path):
    store = StagingStore(tmp_path)
    with store.open_session("c") as session:
        session.append_batch(_events(3))
    store.commit_checkpoint("c", 3)  # == tail is fine
    with pytest.raises(OffsetOutOfRange):
        store.commit_checkpoint("c", 4)


def test_append_after_close_rejected_under_optimize(tmp_path):
    result = run_optimized(f"""
from conftest import make_event
from brclake.errors import StagingUnavailable
from brclake.events import MarketEvent, event_to_row
from brclake.staging import StagingStore, _staged_line
store = StagingStore({str(tmp_path)!r})
session = store.open_session("c")
session.close()
try:
    session.append_batch([make_event()])
except StagingUnavailable:
    print("rejected")
print(store.tail_offset("c"))
""")
    assert result.stdout.split() == ["rejected", "0"], result.stderr
