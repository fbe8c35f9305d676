import dataclasses
import errno
import json
import os
import struct
import types
import typing
from typing import Any

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from brclake.config import load_config
from brclake.errors import (BackendUnavailable, ConfigInvalid, CorruptLog, CorruptRunLog, CorruptStaging,
                            FooterCorrupt, MalformedLine, RunLogUnavailable, SessionLockHeld, StagingUnavailable,
                            StorageFull)
from brclake.etl import ExportResult
from brclake.events import ConnectorConfig, RateLimit, RawEvent
from brclake.harness import Expected, Scenario
from brclake.ingest import ConnectorState, SessionSummary, SyntheticState, replay_file
from brclake.lakeformat import MAGIC, ColumnChunk, ColumnSchema, Encoding, FileFooter, read_file
from brclake.lakehouse import AddFile, LakeTable, LogEntry, PartitionKey, RemoveFile, SetSchema
from brclake import localfile
from brclake.localfile import (acquire_lock, fsync_append, last_line, publish, read_lines, record_from_json,
                               record_to_json)
from brclake.objectstore import FsStore
from brclake.orchestrator import DagSpec, DailyAt, Interval, RetryPolicy, RunLog, TaskSpec, Transition
from brclake.staging import SEGMENT_RECORDS, StagingStore
from conftest import make_event, run_optimized

RECORDS = [LogEntry, AddFile, PartitionKey, RemoveFile, SetSchema, ColumnSchema, FileFooter, ColumnChunk,
           ConnectorConfig, RateLimit, DagSpec, TaskSpec, RetryPolicy, Interval, DailyAt,
           Scenario, Expected, Transition, ConnectorState, SyntheticState, RawEvent, SessionSummary, ExportResult]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _record(tp: type, **fields: Any) -> Any:
    """tp(**fields); fields that tp refuses (a negative saved position) are
    no draw."""
    try:
        return tp(**fields)
    except ValueError:
        reject()


def _values(tp: Any) -> st.SearchStrategy:
    """Values of the annotated type tp, records built field by field."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(_record, st.just(tp), **{f.name: _values(hints[f.name]) for f in dataclasses.fields(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return st.one_of([_values(arg) for arg in args])
    if origin in (list, tuple):
        return st.lists(_values(args[0]), max_size=3).map(origin)
    if tp is dict or origin is dict:
        return st.dictionaries(st.text(), _values(args[1]) if args else JSON_VALUES, max_size=3)
    if tp is Any:
        return JSON_VALUES
    if tp is type(None):
        return st.none()
    return st.from_type(tp)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_record_json_round_trip(cls, data):
    record = data.draw(_values(cls))
    assert record_from_json(cls, json.loads(json.dumps(record_to_json(record)))) == record


def test_optional_field_without_default_reads_its_null_back():
    result = ExportResult(rows_published=0, version=None, next_checkpoint=0, dropped_duplicates=0)
    obj = json.loads(json.dumps(record_to_json(result)))
    assert obj["version"] is None  # `brc etl export` prints "version": null when nothing was published
    assert record_from_json(ExportResult, obj) == result


_ADD = {"path": "p", "partition": {"symbol": "A-B", "date": "2021-03-01"}, "rows": 1, "bytes": 1,
        "min_event_time_us": 0, "max_event_time_us": 0}


_CHUNK = {"encoding": "DICT", "value_count": 1, "byte_offset": 4, "byte_length": 1, "crc32c": 0,
          "min": 1, "max": 1}


@pytest.mark.parametrize("cls, obj, field", [
    (LogEntry, 5, "log_entry"),
    (LogEntry, {"version": 1, "parent": 0, "committed_at_us": 0, "committer": "w",
                "actions": [{"add_file": {**_ADD, "partition": {"symbol": "A-B", "date": 1}}}]},
     "add_file.partition.date"),
    (LogEntry, {"version": 1, "parent": 0, "committed_at_us": 0, "committer": "w",
                "actions": [{"add_file": _ADD, "remove_file": {"path": "p"}}]}, "actions"),
    (TaskSpec, {"task_id": "a", "action": "n", "depends_on": ["b", 1]}, "depends_on"),
    (TaskSpec, {"task_id": "a"}, "action"),
    (DagSpec, {"dag_id": "d", "schedule": {"daily_at": {"minute": "5"}}}, "daily_at.minute"),
    (DagSpec, {"dag_id": "d", "schedule": {"interval": {"period_us": 1}}, "tasks": [{"task_id": 1}]},
     "task_id"),
    (ConnectorState, {"seq_counters": {"k": "1"}}, "seq_counters"),
    (ConnectorState, {"synthetic": {"next_index": 0, "prng_state": 0, "price_e8": 0}},
     "synthetic.last_event_time_us"),
    (ConnectorState, {"replay_offset": None}, "replay_offset"),
    (ColumnChunk, {**_CHUNK, "encoding": "ZSTD"}, "encoding"),
    (ColumnChunk, {**_CHUNK, "encoding": "__class__"}, "encoding"),
    (ColumnChunk, {**_CHUNK, "encoding": 2}, "encoding"),
    (ColumnChunk, {k: v for k, v in _CHUNK.items() if k != "min"}, "min"),
], ids=["not_object", "nested_prefix", "two_union_tags", "array_element", "required",
        "union_member_prefix", "array_record_prefix", "dict_value", "optional_record_field",
        "null_optional", "unknown_enum_name", "enum_attribute_name", "enum_by_value", "missing_any"])
def test_ill_typed_field_is_config_invalid_naming_it(cls, obj, field):
    with pytest.raises(ConfigInvalid) as err:
        record_from_json(cls, obj)
    assert err.value.field == field


def test_enum_field_is_coded_by_member_name():
    chunk = record_from_json(ColumnChunk, _CHUNK)
    assert chunk.encoding is Encoding.DICT
    assert record_to_json(chunk) == _CHUNK


@pytest.mark.parametrize("value", [True, False, 0, -1, "x", "", [1, None, False], {"a": True}, None],
                         ids=["true", "false", "zero", "negative", "text", "empty_text", "array",
                              "object", "null"])
def test_any_field_passes_any_json_value(value):
    chunk = record_from_json(ColumnChunk, {**_CHUNK, "min": value})
    assert chunk.min == value and type(chunk.min) is type(value)


# -- JSON nested deeper than the parser's recursion limit -----------------------------

DEEP = b"[" * 100_000 + b"]" * 100_000


def _deep_log_entry(root):
    table = LakeTable(FsStore(root), "t")
    table.store.put(table._entry_key(1), DEEP)
    table.read_entry(1)


def _deep_run_log_line(root):
    log = RunLog(root / "events.jsonl")
    log.append(Transition(0, "a", 1, "Queued"))
    fsync_append(log.path, DEEP + b"\n")
    log.replay()


def _deep_footer(root):
    body = b'{"schema":' + DEEP + b"}"  # a JSON footer, as format version 1 writes
    read_file(MAGIC + body + struct.pack("<I", len(body)) + MAGIC)


def _deep_staging_file(name, read):
    """Write the deep body as connector c's staging file name (a segment's
    one line) and read it back with read(store)."""
    def write_and_read(root):
        (root / "c").mkdir()
        (root / "c" / name).write_bytes(DEEP + b"\n" if name.startswith("seg-") else DEEP)
        read(StagingStore(root))
    return write_and_read


def _deep_replay_line(root):
    (root / "replay.jsonl").write_bytes(DEEP + b"\n")
    list(replay_file(root / "replay.jsonl"))


def _deep_app_config(root):
    (root / "app.json").write_bytes(DEEP)
    load_config(str(root / "app.json"), env={})


def _deep_lock_body(root):
    with acquire_lock(root / "lock", "x"):
        (root / "lock").write_bytes(DEEP)
        acquire_lock(root / "lock", "x")


# name: (write and read the deep body in its format, the error, the fields locating it)
DEEP_READERS = {
    "log_entry": (_deep_log_entry, CorruptLog, {"version": 1}),
    "run_log_line": (_deep_run_log_line, CorruptRunLog, {"line_no": 2}),
    "footer": (_deep_footer, FooterCorrupt, {}),
    "checkpoint": (_deep_staging_file("checkpoint.json", lambda store: store.committed_offset("c")),
                   CorruptStaging, {"line_no": None}),
    "connector_state": (_deep_staging_file("connector_state.json",
                                           lambda store: store.load_connector_state("c", ConnectorState)),
                        CorruptStaging, {"line_no": None}),
    "staged_line": (_deep_staging_file("seg-00000000000000000000.jsonl", lambda store: store.read_from("c", 0, 9)),
                    CorruptStaging, {"line_no": 1}),
    "replay_line": (_deep_replay_line, MalformedLine, {"line_no": 1}),
    "app_config": (_deep_app_config, ConfigInvalid, {"field": "config"}),
    "lock_body": (_deep_lock_body, SessionLockHeld, {}),
}


def test_lock_body_names_its_holder_by_pid(tmp_path):
    with acquire_lock(tmp_path / "lock", "x"):
        assert json.loads((tmp_path / "lock").read_bytes()) == {"pid": os.getpid()}
        with pytest.raises(SessionLockHeld) as err:
            acquire_lock(tmp_path / "lock", "x")
    assert f"pid {os.getpid()}" in str(err.value)


@pytest.mark.parametrize("name", DEEP_READERS)
def test_json_nested_too_deep_is_the_readers_typed_error(tmp_path, name):
    read, kind, fields = DEEP_READERS[name]
    with pytest.raises(kind) as err:
        read(tmp_path)
    assert {key: err.value.fields[key] for key in fields} == fields
    if kind is SessionLockHeld:
        assert err.value.detail == "x locked by another holder"


def test_json_nested_too_deep_is_typed_under_optimize(tmp_path):
    result = run_optimized(f"""
import tempfile
from pathlib import Path
import conftest
from test_localfile import DEEP_READERS
for name, (read, kind, _) in DEEP_READERS.items():
    try:
        read(Path(tempfile.mkdtemp(dir={str(tmp_path)!r})))
    except kind as exc:
        print(name, exc.kind)
""")
    assert result.stdout.split() == [word for name, (_, kind, _) in DEEP_READERS.items()
                                     for word in (name, kind.__name__)], result.stderr


# -- torn-tail repair --------------------------------------------------------------------

@pytest.mark.parametrize("content", [
    b"", b"torn", b"\n", b"a\n", b"a\nbc", b"ab\ncd\n", b"abcdefgh\nijklmnopq\nrs", b"\n\nabcdefghij\n",
])
def test_last_line_reads_back_from_the_end_in_chunks(tmp_path, monkeypatch, content):
    monkeypatch.setattr(localfile, "TAIL_CHUNK", 3)  # lines and torn tails span chunks
    path = tmp_path / "log"
    path.write_bytes(content)
    lines = read_lines(path)
    expected = lines[-1] if lines else None
    assert last_line(path) == expected and path.read_bytes() == content
    assert last_line(path, repair=True) == expected
    assert path.read_bytes() == b"".join(line + b"\n" for line in lines)


# -- durable publish -------------------------------------------------------------------

def test_publish_replaces_or_links_and_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "obj"
    publish(path, b"one")
    publish(path, b"two")
    assert path.read_bytes() == b"two"
    with pytest.raises(FileExistsError):
        publish(path, b"three", tmp_path, exclusive=True)
    publish(tmp_path / "new", b"four", tmp_path / "a", exclusive=True)
    assert path.read_bytes() == b"two" and (tmp_path / "new").read_bytes() == b"four"
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["new", "obj"]


def test_each_writer_makes_the_directories_its_file_goes_into(tmp_path):
    acquire_lock(tmp_path / "l" / "m" / "lock", "x").close()
    fsync_append(tmp_path / "a" / "b" / "log", b"line\n")
    publish(tmp_path / "p" / "obj", b"x", tmp_path / "t" / "u")
    assert (tmp_path / "a" / "b" / "log").read_bytes() == b"line\n"
    assert (tmp_path / "p" / "obj").read_bytes() == b"x" and (tmp_path / "t" / "u").is_dir()
    assert (tmp_path / "l" / "m" / "lock").is_file()
    store = FsStore(tmp_path / "store")  # the first put makes its directories
    assert not (tmp_path / "store").exists() and store.list() == []
    store.put("t/k", b"x")
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["objects", "tmp"]


def _checkpoint(root):
    store = StagingStore(root / "staging")
    with store.open_session("c") as session:
        session.append_batch([make_event()])
    return lambda: store.commit_checkpoint("c", 1)


def _append(root):
    session = StagingStore(root / "staging").open_session("c")
    return lambda: session.append_batch([make_event()])


# name: set up under root, then return the write that a full disk fails
FULL_DISK_WRITERS = {
    "put": lambda root: lambda: FsStore(root / "store").put("t/k", b"x"),
    "put_if_absent": lambda root: lambda: FsStore(root / "store").put("t/k", b"x", if_none_match=True),
    "checkpoint": _checkpoint,
    "connector_state": lambda root: lambda: StagingStore(root / "staging").save_connector_state(
        "c", ConnectorState()),
    "run_log": lambda root: lambda: RunLog(root / "runs" / "events.jsonl").append(Transition(0, "a", 1, "Queued")),
    "segment_append": _append,
}


@pytest.mark.parametrize("err", [errno.ENOSPC, errno.EDQUOT], ids=["ENOSPC", "EDQUOT"])
@pytest.mark.parametrize("name", FULL_DISK_WRITERS)
def test_full_disk_is_storage_full_and_leaves_no_temp_file(tmp_path, monkeypatch, name, err):
    write = FULL_DISK_WRITERS[name](tmp_path)

    def fsync(fd):
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(StorageFull):
        write()
    assert [p for p in tmp_path.rglob("*") if "tmp" in p.name and p.is_file()] == []


def _prune(root):
    store = StagingStore(root / "staging")
    with store.open_session("c") as session:
        session.append_batch([make_event()] * (SEGMENT_RECORDS + 1))  # seals the first segment
    store.commit_checkpoint("c", SEGMENT_RECORDS)
    return lambda: store.prune("c")


# name: (set up under root, then return the write; the os call that fails
# with EIO; the error the write raises; the file that error names)
WRITE_ERROR_WRITERS = {
    "put": (FULL_DISK_WRITERS["put"], "fsync", BackendUnavailable, None),
    "put_if_absent": (FULL_DISK_WRITERS["put_if_absent"], "fsync", BackendUnavailable, None),
    "checkpoint": (_checkpoint, "fsync", StagingUnavailable, "checkpoint.json"),
    "connector_state": (FULL_DISK_WRITERS["connector_state"], "fsync", StagingUnavailable, "connector_state.json"),
    "prune": (_prune, "unlink", StagingUnavailable, "seg-00000000000000000000.jsonl"),
    "run_log": (FULL_DISK_WRITERS["run_log"], "fsync", RunLogUnavailable, "events.jsonl"),
}


@pytest.mark.parametrize("name", WRITE_ERROR_WRITERS)
def test_write_error_is_the_owners_typed_error(tmp_path, monkeypatch, name):
    setup, call, kind, file_name = WRITE_ERROR_WRITERS[name]
    write = setup(tmp_path)

    def fail(*args, **kwargs):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, call, fail)
    with pytest.raises(kind) as err:
        write()
    assert file_name is None or file_name in err.value.detail
    assert [p for p in tmp_path.rglob("*") if "tmp" in p.name and p.is_file()] == []
