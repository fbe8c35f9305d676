import dataclasses
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake.errors import (
    AlreadyInitialized,
    CommitConflictExhausted,
    CorruptLog,
    InvalidAction,
    NoSuchVersion,
    NotInitialized,
    PreconditionFailed,
)
from brclake.fixedpoint import US_PER_DAY, iso_to_us, us_to_date
from brclake.lakehouse import (
    AddFile,
    LakeTable,
    LogEntry,
    PartitionKey,
    RemoveFile,
    SetSchema,
    Snapshot,
    list_files,
)
from brclake.lakeformat import ColumnSchema
from brclake.localfile import record_bytes
from brclake.objectstore import FsStore
from conftest import run_optimized

DAY0 = iso_to_us("2021-03-01T00:00:00Z")


def _table(tmp_path, table_id="t"):
    return LakeTable(FsStore(tmp_path), table_id)


def _path(name, symbol="BTC-USD", day=0):
    """The key of data file name of table t in the partition of symbol and
    day (days after DAY0), where writers put it."""
    return f"tables/t/data/{PartitionKey(symbol, us_to_date(DAY0 + day * US_PER_DAY)).render()}/{name}"


def _names(paths):
    """The file names of data file keys."""
    return [path.rsplit("/", 1)[1] for path in paths]


def _add(name, symbol="BTC-USD", day=0, lo=0, hi=1000, rows=1, size=100):
    start = DAY0 + day * US_PER_DAY
    return AddFile(
        path=_path(name, symbol, day),
        partition=PartitionKey(symbol, us_to_date(start)),
        rows=rows,
        bytes=size,
        min_event_time_us=start + lo,
        max_event_time_us=start + hi,
    )


def _add_at(path):
    """A file that is good but for its key, path."""
    return dataclasses.replace(_add("c"), path=path)


# -- init ---------------------------------------------------------------------

def test_init_writes_v1_set_schema(tmp_path):
    table = _table(tmp_path)
    entry = table.init("trades_v1", [("event_time_us", "INT64")])
    assert entry.version == 1
    assert table.current_version() == 1
    snapshot = table.snapshot_at()
    assert snapshot.schema_id == "trades_v1" and snapshot.live_files == {}


def test_second_init_rejected(tmp_path):
    table = _table(tmp_path)
    table.init("trades_v1", [])
    with pytest.raises(AlreadyInitialized):
        table.init("trades_v1", [])


def test_uninitialized_current_version(tmp_path):
    with pytest.raises(NotInitialized):
        _table(tmp_path).current_version()


# -- commits and snapshots ---------------------------------------------------------

def test_commit_sequences_versions(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    for i in range(5):
        entry = table.commit([_add(f"f{i}")])
        assert entry.version == i + 2
    assert table.current_version() == 6


def test_snapshot_fold_and_time_travel(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    table.commit([_add("f1"), _add("f2")])  # v2
    table.commit([RemoveFile(_path("f1")), _add("f3")])  # v3
    assert set(_names(table.snapshot_at().live_files)) == {"f2", "f3"}
    assert set(_names(table.snapshot_at(2).live_files)) == {"f1", "f2"}
    with pytest.raises(NoSuchVersion):
        table.snapshot_at(99)


def test_remove_non_live_rejected(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    with pytest.raises(InvalidAction):
        table.commit([RemoveFile("ghost")])


def test_duplicate_add_rejected(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    table.commit([_add("f1")])
    with pytest.raises(InvalidAction):
        table.commit([_add("f1")])


@pytest.mark.parametrize("add", [
    _add("c", size=-5),
    _add("c", lo=-DAY0, hi=-DAY0),
    _add("c", lo=US_PER_DAY - 1, hi=US_PER_DAY),
    AddFile(_path("c"), PartitionKey("BTC-USD", "2021-03-01"), 1, 10, -(2**63), -(2**63)),
    AddFile("tables/t/data/symbol=BTC-USD/date=not-a-date/c", PartitionKey("BTC-USD", "not-a-date"),
            1, 10, DAY0, DAY0),
    _add_at("tables/other/data/symbol=BTC-USD/date=2021-03-01/part-x.brcl"),
    _add_at("tables/t/data/symbol=ETH-USD/date=2021-03-05/part-x.brcl"),
    _add_at("tables/t/_log/00000000000000000001.json"),
], ids=["negative_bytes", "time_in_1970", "ends_next_day", "time_before_year_1", "date_not_a_date",
        "another_tables_file", "partition_disagrees_with_path", "log_entry"])
def test_commit_refuses_a_meaningless_add(tmp_path, add):
    table = _table(tmp_path)
    table.init("s", [])
    with pytest.raises(InvalidAction):
        table.commit([add])
    assert table.current_version() == 1


def test_commit_refuses_an_entry_that_is_empty_or_touches_a_path_twice(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    for actions in ([], [_add("a"), _add("a")], [_add("a"), RemoveFile(_path("a"))]):
        with pytest.raises(InvalidAction):
            table.commit(actions)
    assert table.current_version() == 1


def test_commit_gives_up_after_max_retries_refused_puts(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    refused = []

    def put(key, data, if_none_match=False):
        refused.append(key)
        raise PreconditionFailed(key)

    table.store.put = put  # every conditional put loses, as to a writer that always commits first
    with pytest.raises(CommitConflictExhausted):
        table.commit([_add("a")])
    assert refused == [table._entry_key(2)] * 10


def test_log_entry_json_sorted_keys(tmp_path):
    store = FsStore(tmp_path)
    table = LakeTable(store, "t")
    table.init("s", [("a", "INT64")])
    table.commit([_add("f1")])
    raw = store.get("tables/t/_log/00000000000000000002.json")
    obj = json.loads(raw)
    assert list(obj) == sorted(obj)
    assert raw == json.dumps(obj, sort_keys=True).encode()


def test_two_writers_disjoint_adds_both_land(tmp_path):
    store = FsStore(tmp_path)
    a, b = LakeTable(store, "t"), LakeTable(store, "t")
    a.init("s", [])
    # both observe v=1, then race; the loser rebases
    a_entry = a.commit([_add("fa")])
    b_entry = b.commit([_add("fb")])
    assert {a_entry.version, b_entry.version} == {2, 3}
    final = LakeTable(store, "t").snapshot_at()
    assert set(_names(final.live_files)) == {"fa", "fb"}


def test_concurrent_committers_dense_versions(tmp_path):
    store = FsStore(tmp_path)
    LakeTable(store, "t").init("s", [])
    n_threads, per_thread = 4, 12
    errors = []

    def worker(w):
        table = LakeTable(store, "t")
        for i in range(per_thread):
            try:
                table.commit([_add(f"w{w}-f{i}")], committer=f"w{w}", max_retries=500)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    table = LakeTable(store, "t")
    assert table.current_version() == 1 + n_threads * per_thread
    snapshot = table.snapshot_at()
    assert len(snapshot.live_files) == n_threads * per_thread
    # every committed action appears exactly once across the log
    paths = []
    for entry in table.read_log()[1:]:
        paths.extend(action.path for action in entry.actions)
    assert sorted(paths) == sorted(snapshot.live_files)


def test_losing_remove_fails_on_rebase(tmp_path):
    store = FsStore(tmp_path)
    a, b = LakeTable(store, "t"), LakeTable(store, "t")
    a.init("s", [])
    a.commit([_add("shared")])
    b.commit([RemoveFile(_path("shared")), _add("b-new")])
    with pytest.raises(InvalidAction):
        a.commit([RemoveFile(_path("shared")), _add("a-new")])


# -- fold determinism property ---------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_fold_replay_reproduces_snapshot(script):
    """Apply a random add/remove script through commits; replaying the log on
    an empty snapshot must land on the identical live set."""
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        table = _table(root)
        table.init("s", [])
        live = set()
        counter = 0
        for file_no, is_add in script:
            if is_add or f"f{file_no}" not in live:
                if f"f{file_no}" in live:
                    continue
                table.commit([_add(f"f{file_no}")])
                live.add(f"f{file_no}")
            else:
                table.commit([RemoveFile(_path(f"f{file_no}"))])
                live.discard(f"f{file_no}")
            counter += 1
        replayed = Snapshot("t", version=0)
        for entry in table.read_log():
            replayed.apply(entry)
        assert set(_names(replayed.live_files)) == live
        assert replayed.version == table.current_version() == counter + 1


_LOG_KEY = "tables/t/_log/00000000000000000002.json"


@pytest.mark.parametrize("version, action, path", [
    (4, _add("b"), None),  # skips version 3
    (3, _add("a"), _path("a")),  # adds a live path again
    (3, RemoveFile("b"), "b"),  # removes a path that is not live
    (3, _add("c", rows=0), _path("c")),  # commit refuses an empty file
    (3, _add("c", lo=5, hi=4), _path("c")),  # min > max event time
    (3, SetSchema("other", ()), None),  # a schema change after init
    (3, [_add("new"), RemoveFile("ghost")], "ghost"),  # checked before any change
    (3, _add("c", size=-5), _path("c")),  # negative size
    (3, _add("c", lo=-1), _path("c")),  # starts the day before its partition's
    (3, _add("c", hi=US_PER_DAY), _path("c")),  # ends the day after
    (3, _add_at("c"), "c"),
    (3, _add_at("tables/u/data/c"), "tables/u/data/c"),
    (3, _add_at(_path("c", day=1)), _path("c", day=1)),
    (3, _add_at(_path("c", "ETH-USD")), _path("c", "ETH-USD")),
    (3, _add_at(_LOG_KEY), _LOG_KEY),
    (3, _add_at(_path("")), _path("")),
], ids=["4-action0-None", "3-action1-a", "3-action2-b", "3-action3-c", "3-action4-c", "3-action5-None",
        "3-action6-ghost", "3-action7-c", "3-action8-c", "3-action9-c", "outside_every_table",
        "another_tables_data", "another_dates_directory", "another_symbols_directory", "log_entry",
        "partition_directory"])
def test_corrupt_log_fold_is_typed(version, action, path):
    snapshot = Snapshot("t", version=1, schema_id="s")
    snapshot.apply(LogEntry(2, 1, 0, [_add("a")], "w"))
    actions = action if isinstance(action, list) else [action]
    with pytest.raises(CorruptLog) as err:
        snapshot.apply(LogEntry(version, version - 1, 0, actions, "w"))
    assert (err.value.version, err.value.path) == (version, path)
    assert (snapshot.version, set(snapshot.live_files), snapshot.schema_id) == (2, {_path("a")}, "s")


_GOOD_ENTRY = json.loads(record_bytes(LogEntry(2, 1, 0, [_add("a")], "w")))


def _entry_with(**fields) -> bytes:
    return json.dumps({**_GOOD_ENTRY, **fields}).encode()


def _entry_with_add(**fields) -> bytes:
    add = {**_GOOD_ENTRY["actions"][0]["add_file"], **fields}
    return _entry_with(actions=[{"add_file": add}])


@pytest.mark.parametrize("data", [
    b'{"version": 2}',
    b"not json",
    b"[2]",
    _entry_with(actions=[{"set_schemata": {}}]),
    _entry_with_add(rows="many"),
    _entry_with_add(rows=True),
    _entry_with_add(partition={"symbol": "BTC-USD"}),
    _entry_with(committed_at_us=1.5),
    _entry_with(actions=[{"remove_file": {"path": "a"}, "add_file": _GOOD_ENTRY["actions"][0]["add_file"]}]),
    _entry_with(actions=[{"set_schema": {"schema_id": "s", "columns": [["ts", "INT64"]]}}]),
], ids=["missing_fields", "not_json", "not_object", "unknown_action", "string_rows",
        "bool_rows", "partition_without_date", "float_time", "two_action_kinds", "column_pair"])
def test_malformed_log_entry_is_corrupt_log(tmp_path, data):
    table = _table(tmp_path)
    table.init("trades_v1", [])
    table.store.put(table._entry_key(2), data)
    with pytest.raises(CorruptLog) as err:
        table.read_entry(2)
    assert err.value.version == 2


def test_entry_bytes_are_pinned():
    entry = LogEntry(3, 2, 1_600_000_000_123_456, [
        SetSchema("trades_v1", (ColumnSchema("event_time_us", "INT64"), ColumnSchema("symbol", "BYTES"))),
        AddFile("tables/t/data/symbol=BTC-USD/date=2020-09-13/part-a.brcl",
                PartitionKey("BTC-USD", "2020-09-13"), 2, 310, 1_600_000_000_000_000, 1_600_000_000_999_999),
        RemoveFile("tables/t/data/symbol=BTC-USD/date=2020-09-13/part-0.brcl"),
    ], "brc")
    data = record_bytes(entry)
    assert data == (
        b'{"actions": [{"set_schema": {"columns": [{"name": "event_time_us", "physical_type": "INT64"}, '
        b'{"name": "symbol", "physical_type": "BYTES"}], "schema_id": "trades_v1"}}, '
        b'{"add_file": {"bytes": 310, "max_event_time_us": 1600000000999999, '
        b'"min_event_time_us": 1600000000000000, "partition": {"date": "2020-09-13", "symbol": "BTC-USD"}, '
        b'"path": "tables/t/data/symbol=BTC-USD/date=2020-09-13/part-a.brcl", "rows": 2}}, '
        b'{"remove_file": {"path": "tables/t/data/symbol=BTC-USD/date=2020-09-13/part-0.brcl"}}], '
        b'"committed_at_us": 1600000000123456, "committer": "brc", "parent": 2, "version": 3}')


def test_ill_typed_records_are_typed_errors_under_optimize(tmp_path):
    result = run_optimized(f"""
import conftest
from brclake.errors import BrcError
from brclake.lakehouse import LakeTable
from brclake.objectstore import FsStore
from brclake.orchestrator import DagSpec
table = LakeTable(FsStore({str(tmp_path)!r}), "t")
table.store.put(table._entry_key(1), b'{{"version": 1, "parent": 0, "committed_at_us": 0, '
                b'"actions": [{{"remove_file": {{"path": 7}}}}], "committer": "w"}}')
dag = {{"dag_id": "d", "schedule": {{"interval": {{"period_us": "60"}}}}}}
for read in (lambda: table.read_entry(1), lambda: DagSpec.from_dict(dag)):
    try:
        read()
    except BrcError as exc:
        print(exc.kind, exc.fields.get("version", exc.fields.get("field")))
""")
    assert result.stdout.split() == ["CorruptLog", "1", "ConfigInvalid", "interval.period_us"], result.stderr


# -- pruning ------------------------------------------------------------------------------

def _brute_force_filter(files, t0, t1, symbols):
    out = []
    for f in files:
        if f.partition.symbol not in symbols:
            continue
        if not (us_to_date(t0) <= f.partition.date <= us_to_date(t1 - 1)):
            continue
        if f.max_event_time_us >= t0 and f.min_event_time_us < t1:
            out.append(f)
    return sorted(out, key=lambda f: (f.partition.symbol, f.partition.date, f.path))


def test_list_files_thirty_days_two_day_window(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    adds = []
    for day in range(30):
        for symbol in ("BTC-USD", "ETH-USD"):
            add = _add(f"{symbol}-d{day:02}", symbol=symbol, day=day, lo=100, hi=US_PER_DAY - 100)
            adds.append(add)
    table.commit(adds)
    snapshot = table.snapshot_at()
    t0 = DAY0 + 5 * US_PER_DAY
    t1 = DAY0 + 7 * US_PER_DAY
    planned = list_files(snapshot, (t0, t1), ["BTC-USD"])
    assert _names(f.path for f in planned) == ["BTC-USD-d05", "BTC-USD-d06"]
    assert planned == _brute_force_filter(adds, t0, t1, ["BTC-USD"])


def test_list_files_overlap_rule_excludes_edge(tmp_path):
    table = _table(tmp_path)
    table.init("s", [])
    table.commit([_add("early", lo=0, hi=499), _add("late", lo=500, hi=900)])
    snapshot = table.snapshot_at()
    t0 = DAY0 + 500
    planned = list_files(snapshot, (t0, t0 + 100), ["BTC-USD"])
    assert _names(f.path for f in planned) == ["late"]  # max == t0 - 1 excluded


@given(st.integers(0, 2**31), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_list_files_matches_brute_force(seed, n_files):
    import random
    rng = random.Random(seed)
    symbols = ["BTC-USD", "ETH-USD", "XRP-USD"]
    files = []
    for i in range(n_files):
        day = rng.randrange(10)
        lo = rng.randrange(US_PER_DAY - 1)
        hi = rng.randrange(lo, US_PER_DAY)
        files.append(_add(f"f{i}", symbol=rng.choice(symbols), day=day, lo=lo, hi=hi))
    snapshot = Snapshot("t", version=1, live_files={f.path: f for f in files})
    t0 = DAY0 + rng.randrange(10 * US_PER_DAY)
    t1 = t0 + 1 + rng.randrange(3 * US_PER_DAY)
    wanted = rng.sample(symbols, rng.randrange(1, 4))
    assert list_files(snapshot, (t0, t1), wanted) == _brute_force_filter(files, t0, t1, wanted)


# -- audit ------------------------------------------------------------------------------------

def test_audit_reports_orphans_and_dangling(tmp_path):
    store = FsStore(tmp_path)
    table = LakeTable(store, "t")
    table.init("s", [])
    store.put(_path("real"), b"x")
    table.commit([_add("real")])
    report = table.audit()
    assert report["dangling"] == [] and report["orphans"] == []
    store.put("tables/t/data/orphan", b"y")
    table.commit([_add("ghost")])  # referenced but never written
    report = table.audit()
    assert report["orphans"] == ["tables/t/data/orphan"]
    assert report["dangling"] == [_path("ghost")]
