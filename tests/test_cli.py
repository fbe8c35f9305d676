import ast
import contextlib
import errno
import io
import json
import os
import pathlib
import shlex
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake import errors, staging
from brclake.cli import build_parser, main, parse_bucket_width
from brclake.config import AppContext, load_config
from brclake.errors import ConfigInvalid
from brclake.etl import SCHEMA_ID, TABLE_COLUMNS, build_action_registry
from brclake.fixedpoint import iso_to_us
from brclake.lakehouse import AddFile, LakeTable, LogEntry, PartitionKey
from brclake.localfile import record_bytes
from brclake.objectstore import FsStore
from brclake.orchestrator import DagSpec, Interval, Scheduler, SimClock, TaskSpec
from brclake.staging import StagingStore


def _brc(*args, data_root=None, env_extra=None, optimize=False):
    # python -O strips assert statements, so validation must not rest on them
    env = dict(os.environ)
    env.pop("BRC_CONFIG", None)
    if data_root is not None:
        env["BRC_DATA_ROOT"] = str(data_root)
    if env_extra:
        env.update(env_extra)
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "brclake.cli", *args],
                          capture_output=True, text=True, env=env)


def _connector_file(tmp_path, count=50, connector_id="c1"):
    path = tmp_path / f"{connector_id}.json"
    path.write_text(json.dumps({
        "connector_id": connector_id, "kind": "synthetic", "source": "syn",
        "symbols": {"BTCUSDT": "BTC-USDT"}, "seed": 5, "count": count,
        "ingest_time_mode": "event_time",
    }))
    return path


# -- config ---------------------------------------------------------------------

def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "data")}))
    config = load_config(str(path), env={})
    assert config.store_kind == "fs"
    assert config.dags_dir == tmp_path / "data" / "dags"


def test_s3_config_requires_secret(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({
        "data_root": str(tmp_path / "data"), "store": "s3",
        "s3": {"endpoint": "http://x:1", "region": "r", "access_key": "k", "bucket": "b"},
    }))
    with pytest.raises(ConfigInvalid):
        load_config(str(path), env={})
    config = load_config(str(path), env={"BRC_S3_SECRET_KEY": "s"})
    assert config.s3.secret_key == "s"


def test_env_data_root_overrides_file(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "from-file")}))
    config = load_config(str(path), env={"BRC_DATA_ROOT": str(tmp_path / "from-env")})
    assert config.data_root == tmp_path / "from-env"


def test_missing_data_root_rejected():
    with pytest.raises(ConfigInvalid):
        load_config(None, env={})


# -- exit codes and error kinds ------------------------------------------------------

def test_lake_init_fresh_exit_zero(tmp_path):
    result = _brc("lake", "init", "--table", "trades", data_root=tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["version"] == 1


def test_unknown_flag_exit_two(tmp_path):
    result = _brc("--bogus", data_root=tmp_path)
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_query_uninitialized_table_error_kind(tmp_path):
    result = _brc("query", "--table", "trades", "--symbols", "BTC-USDT",
                  "--from", "2020-01-01T00:00:00Z", "--to", "2020-01-02T00:00:00Z",
                  data_root=tmp_path)
    assert result.returncode == 1
    assert json.loads(result.stderr.splitlines()[-1])["error"] == "NotInitialized"


def test_second_init_error_kind(tmp_path):
    assert _brc("lake", "init", "--table", "t", data_root=tmp_path).returncode == 0
    result = _brc("lake", "init", "--table", "t", data_root=tmp_path)
    assert result.returncode == 1
    assert json.loads(result.stderr)["error"] == "AlreadyInitialized"


def test_bad_partition_rejected_under_optimize(tmp_path):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    result = _brc("etl", "compact", "--table", "trades", "--partition", "foo/bar",
                  data_root=tmp_path, optimize=True)
    assert result.returncode == 1
    assert json.loads(result.stderr.splitlines()[-1])["error"] == "InvalidAction"


def _error_kind(result) -> str:
    return json.loads(result.stderr.splitlines()[-1])["error"]


@pytest.mark.parametrize("case", ["bad_json", "missing_file", "ill_typed_count"])
def test_connector_config_errors_are_typed(tmp_path, case):
    path = _connector_file(tmp_path)
    if case == "bad_json":
        path.write_text("{not json")
    elif case == "missing_file":
        path.unlink()
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), "count": "abc"}))
    result = _brc("ingest", "run", "--config", str(path), data_root=tmp_path / "data")
    assert result.returncode == 1
    assert _error_kind(result) == "ConfigInvalid"


def test_dag_task_without_id_is_config_invalid(tmp_path):
    dags = tmp_path / "dags"
    dags.mkdir()
    (dags / "d.json").write_text(json.dumps({
        "dag_id": "d", "schedule": {"interval": {"period_us": 3_600_000_000}},
        "tasks": [{"action": "etl.export"}],
    }))
    result = _brc("sched", "run-once", "--dag", "d", "--at", "2021-01-01T00:00:00Z",
                  "--dags", str(dags), data_root=tmp_path / "data")
    assert result.returncode == 1
    assert _error_kind(result) == "ConfigInvalid"


def test_ill_typed_app_config_is_config_invalid(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": 5}))
    result = _brc("--config", str(path), "lake", "init", "--table", "trades")
    assert result.returncode == 1
    assert _error_kind(result) == "ConfigInvalid"


_DAY = ["--from", "2021-01-01T00:00:00Z", "--to", "2021-01-02T00:00:00Z"]


@pytest.mark.parametrize("args", [
    ["--from", "2021-01-01T00:00:00Z", "--to", "2021-01-01T00:00:00Z"],
    ["--from", "bad", "--to", "2021-01-02T00:00:00Z"],
    [*_DAY, "--ohlcv", "0s"],
    ["--from", "2021-01-01T00:00:00Z", "--to", "9999-12-31T23:00:00-05:00"],
    [*_DAY, "--ohlcv", "1m\n"],
])
def test_query_argument_errors_are_typed(tmp_path, args):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    result = _brc("query", "--table", "trades", "--symbols", "BTC-USDT", *args, data_root=tmp_path)
    assert result.returncode == 1
    assert _error_kind(result) == "ConfigInvalid"


@pytest.mark.parametrize("symbols", ["", "btc-usdt", "BTC-USDT,", "BTC-USDT\n", "BTCUSDT"])
def test_query_symbol_that_is_not_normalized_is_config_invalid(tmp_path, symbols):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    result = _brc("query", "--table", "trades", "--symbols", symbols, *_DAY, data_root=tmp_path)
    assert result.returncode == 1 and result.stdout == ""
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "symbols")


def test_empty_query_range_rejected_under_optimize(tmp_path):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    result = _brc("query", "--table", "trades", "--symbols", "BTC-USDT",
                  "--from", "2021-01-01T00:00:00Z", "--to", "2021-01-01T00:00:00Z",
                  data_root=tmp_path, optimize=True)
    assert result.returncode == 1
    assert _error_kind(result) == "ConfigInvalid"


def _ingest_one_replay_line(tmp_path, source="rep-x", event_id="a", optimize=False):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(json.dumps({
        "source": source, "stream": "trade", "raw_symbol": "BTCUSDT",
        "event_time_us": 1_600_000_000_000_000,
        "payload": {"price": "1", "qty": "1", "side": "buy", "id": event_id},
    }) + "\n")
    config = tmp_path / "r.json"
    config.write_text(json.dumps({
        "connector_id": "r", "kind": "replay", "source": "rep",
        "symbols": {"BTCUSDT": "BTC-USDT"}, "replay_path": str(feed),
    }))
    return _brc("ingest", "run", "--config", str(config), data_root=tmp_path / "data", optimize=optimize)


@pytest.mark.parametrize("optimize", [False, True])
def test_invalid_replay_event_is_typed_and_stages_nothing(tmp_path, optimize):
    result = _ingest_one_replay_line(tmp_path, source="Bad Source", optimize=optimize)
    assert result.returncode == 1
    assert _error_kind(result) == "InvalidEvent"
    assert StagingStore(tmp_path / "data" / "staging").tail_offset("r") == 0


def test_non_utf8_event_id_is_rejected_at_ingest(tmp_path):
    # A lone surrogate survives JSON decoding but cannot be encoded as a row,
    # so staging it would fail every later export of the connector.
    result = _ingest_one_replay_line(tmp_path, event_id="\ud800")
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["field"]) == ("InvalidEvent", "event_id")
    assert StagingStore(tmp_path / "data" / "staging").tail_offset("r") == 0


def _run_one_task_dag(tmp_path, task) -> dict:
    """Run a one-task DAG once and return the task's final run-log line."""
    dags = tmp_path / "dags"
    dags.mkdir()
    (dags / "d.json").write_text(json.dumps({
        "dag_id": "d", "schedule": {"interval": {"period_us": 3_600_000_000}}, "tasks": [task],
    }))
    result = _brc("sched", "run-once", "--dag", "d", "--at", "1970-01-01T00:00:00Z",
                  "--dags", str(dags), data_root=tmp_path / "data")
    assert result.returncode == 1
    assert json.loads(result.stdout)["states"] == {task["task_id"]: "Failed"}
    log = tmp_path / "data" / "runs" / "d" / "0" / "events.jsonl"
    return json.loads(log.read_text().splitlines()[-1])


def test_ill_typed_inline_connector_fails_task_with_config_invalid(tmp_path):
    failed = _run_one_task_dag(tmp_path, {
        "task_id": "ingest", "action": "ingest.run", "params": {"connector": {
            "connector_id": "c1", "kind": "synthetic", "source": "syn",
            "symbols": {"BTCUSDT": "BTC-USDT"}, "count": "abc"}}})
    assert failed["state"] == "Failed"
    assert failed["error"] == str(ConfigInvalid("count", "must be an integer, got 'abc'"))


def test_ill_typed_action_param_fails_task_with_config_invalid(tmp_path):
    failed = _run_one_task_dag(tmp_path, {
        "task_id": "export", "action": "etl.export",
        "params": {"connector_id": "c1", "table_id": "trades", "max_records": "abc"}})
    assert failed["state"] == "Failed"
    assert failed["error"] == str(ConfigInvalid("max_records", "must be an integer, got 'abc'"))


def test_nul_byte_in_action_config_path_is_config_invalid(tmp_path):
    failed = _run_one_task_dag(tmp_path, {
        "task_id": "ingest", "action": "ingest.run", "params": {"config_path": "c1\u0000.json"}})
    assert failed["state"] == "Failed"
    assert failed["error"].startswith(str(ConfigInvalid("config", "cannot read")))


def test_nul_byte_in_replay_path_is_config_invalid(tmp_path):
    path = tmp_path / "c1.json"
    path.write_text(json.dumps({"connector_id": "c1", "kind": "replay", "source": "rep",
                                "symbols": {"BTCUSDT": "BTC-USDT"}, "replay_path": "x\u0000.jsonl"}))
    result = _brc("ingest", "run", "--config", str(path), data_root=tmp_path / "data")
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "replay_path")


def test_missing_dags_dir_is_config_invalid(tmp_path, monkeypatch):
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(tmp_path / "data"))
    (tmp_path / "empty").mkdir()
    until = ["--until", "1970-01-01T01:00:00Z"]
    assert _main("sched", "start", "--dags", str(tmp_path / "empty"), *until) == (0, "")
    # A mistyped --dags, and the default <data_root>/dags that nothing created.
    for dags in (["--dags", str(tmp_path / "typo")], []):
        code, err = _main("sched", "start", *dags, *until)
        assert code == 1
        error = json.loads(err.splitlines()[-1])
        assert (error["error"], error["field"]) == ("ConfigInvalid", "dags_dir")


@pytest.mark.parametrize("task, field", [
    ({"task_id": "export", "action": "etl.export",
      "params": {"connector_id": "c1", "table_id": "trades", "max_record": 0}}, "max_record"),
    ({"task_id": "compact", "action": "etl.compact", "params": {"table_id": "trades", "min_files": 2}},
     "min_files"),
    ({"task_id": "ingest", "action": "ingest.run", "params": {"config": "c1.json"}}, "config"),
    ({"task_id": "prune", "action": "staging.prune", "params": {"connector_id": "c1", "table_id": "trades"}},
     "table_id"),
    ({"task_id": "ingest", "action": "ingest.run", "params": {"connector": {
        "connector_id": "c1", "kind": "synthetic", "source": "syn", "symbols": {"BTCUSDT": "BTC-USDT"},
        "cout": 5}}}, "cout"),
], ids=["export_param", "compact_param", "ingest_param", "prune_param", "inline_connector_key"])
def test_action_param_that_names_no_field_fails_task_with_config_invalid(tmp_path, task, field):
    failed = _run_one_task_dag(tmp_path, task)
    assert failed["state"] == "Failed"
    assert failed["error"] == str(ConfigInvalid(field, "names no field"))


def test_scheduled_prune_after_export_keeps_only_the_newest_segment(tmp_path, monkeypatch):
    monkeypatch.setattr(staging, "SEGMENT_RECORDS", 7)
    config = tmp_path / "app.json"
    config.write_text(json.dumps({"data_root": str(tmp_path / "data")}))
    app = AppContext(load_config(str(config), env={}))
    app.table("trades").init(SCHEMA_ID, TABLE_COLUMNS)
    dag = DagSpec("d", Interval(0, 3_600_000_000), [
        TaskSpec("ingest", [], "ingest.run", {"config_path": str(_connector_file(tmp_path, count=50))}),
        TaskSpec("export", ["ingest"], "etl.export", {"connector_id": "c1", "table_id": "trades"}),
        TaskSpec("prune", ["export"], "staging.prune", {"connector_id": "c1"}),
    ])
    with Scheduler(app.runs_root, build_action_registry(app), clock=SimClock(0)) as scheduler:
        assert scheduler.run_once(dag, 0).succeeded
    tail = app.staging.tail_offset("c1")
    assert tail > 7 and app.staging.committed_offset("c1") == tail
    segments = [p.name for p in (tmp_path / "data" / "staging" / "c1").glob("seg-*")]
    assert segments == [f"seg-{(tail - 1) // 7 * 7:020}.jsonl"]


def test_dag_file_key_that_names_no_field_is_config_invalid(tmp_path):
    dags = tmp_path / "dags"
    dags.mkdir()
    (dags / "d.json").write_text(json.dumps({
        "dag_id": "d", "schedule": {"interval": {"period_us": 3_600_000_000}},
        "tasks": [{"task_id": "t", "action": "etl.compact", "max_attempt": 3}],
    }))
    result = _brc("sched", "run-once", "--dag", "d", "--at", "2021-01-01T00:00:00Z",
                  "--dags", str(dags), data_root=tmp_path / "data")
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "max_attempt")


@pytest.mark.parametrize("extra, field", [({"dag_dir": "x"}, "dag_dir"),
                                          ({"store": "s3", "s3": {"secret": "s"}}, "s3.secret"),
                                          ({"s3": {"secret": "x"}}, "s3.secret")])  # fs store
def test_app_config_key_that_names_no_field_is_config_invalid(tmp_path, extra, field):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "data"), **extra}))
    with pytest.raises(ConfigInvalid) as info:
        load_config(str(path), env={})
    assert (info.value.field, info.value.reason) == (field, "names no field")


def test_app_config_s3_section_is_read_with_fs_store(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "data"), "store": "fs", "s3": 5}))
    with pytest.raises(ConfigInvalid) as info:
        load_config(str(path), env={})
    assert (info.value.field, info.value.reason) == ("s3", "must be an object, got 5")


def test_app_config_partial_s3_section_is_filled_from_env(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "data"), "store": "s3",
                                "s3": {"endpoint": "http://x:1", "bucket": "b"}}))
    env = {"BRC_S3_REGION": "r", "BRC_S3_ACCESS_KEY": "k", "BRC_S3_SECRET_KEY": "s", "BRC_S3_BUCKET": "e"}
    s3 = load_config(str(path), env=env).s3
    assert (s3.endpoint, s3.region, s3.access_key, s3.secret_key, s3.bucket) == (
        "http://x:1", "r", "k", "s", "e")


@pytest.mark.parametrize("body", ["[1]", '"data_root"', "5"])
def test_app_config_that_is_not_an_object_is_config_invalid(tmp_path, body):
    path = tmp_path / "app.json"
    path.write_text(body)
    with pytest.raises(ConfigInvalid) as info:
        load_config(str(path), env={"BRC_DATA_ROOT": str(tmp_path / "data")})
    assert info.value.field == "config"


def test_corrupt_log_is_typed_under_optimize(tmp_path):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    noon = iso_to_us("2021-01-01T12:00:00Z")
    add = AddFile("tables/trades/data/symbol=BTC-USD/date=2021-01-01/part-x.brcl",
                  PartitionKey("BTC-USD", "2021-01-01"), 1, 10, noon, noon)
    store = FsStore(tmp_path / "store")
    for version in (2, 3):  # the second entry adds the same path again
        store.put(f"tables/trades/_log/{version:020}.json",
                  record_bytes(LogEntry(version, version - 1, 0, [add], "hand")))
    result = _brc("lake", "audit", "--table", "trades", data_root=tmp_path, optimize=True)
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["version"], error["path"]) == ("CorruptLog", 3, add.path)


def test_help_lists_every_subcommand():
    result = subprocess.run([sys.executable, "-m", "brclake.cli", "--help"],
                            capture_output=True, text=True)
    for group in ("ingest", "staging", "etl", "sched", "query", "lake"):
        assert group in result.stdout
    for group, subs in [("ingest", ["run"]), ("staging", ["prune"]),
                        ("etl", ["export", "compact"]),
                        ("sched", ["start", "run-once", "backfill"]),
                        ("lake", ["init", "log", "audit"])]:
        sub_help = subprocess.run([sys.executable, "-m", "brclake.cli", group, "--help"],
                                  capture_output=True, text=True)
        for name in subs:
            assert name in sub_help.stdout


def test_bucket_width_parsing():
    assert parse_bucket_width("1m") == 60_000_000
    assert parse_bucket_width("500ms") == 500_000
    assert parse_bucket_width("2h") == 7_200_000_000
    for bad in ("five minutes", "0s", "9" * 5000 + "m"):
        with pytest.raises(ConfigInvalid):
            parse_bucket_width(bad)


def test_parser_covers_spec_flags():
    parser = build_parser()
    args = parser.parse_args([
        "query", "--table", "trades", "--symbols", "BTC-USD,ETH-USD",
        "--from", "2021-01-01T00:00:00Z", "--to", "2021-01-02T00:00:00Z",
        "--version", "3", "--ohlcv", "1m", "--format", "jsonl", "--out", "-",
    ])
    assert args.version == 3 and args.format == "jsonl"


def test_readme_commands_parse():
    """Every ``brc`` line of the README's code blocks, its backslash
    continuations joined, parses; a removed or renamed flag cannot leave a
    stale command behind."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.replace("\\\n", " ").split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("brc ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_no_source_module_has_an_assert_statement():
    """python -O strips assert statements, so no check of the package may
    rest on one: every module under src/brclake parses without one."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "brclake"
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    asserts = [f"{path.name}:{node.lineno}" for path in modules
               for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Assert)]
    assert asserts == []


# -- in-process CLI ------------------------------------------------------------------------

def _main(*argv: str) -> tuple[int, str]:
    """Run brc in this process; return its exit code and stderr."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # query writes to stdout.buffer
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    return code, err.getvalue()


def _small_table(tmp_path, monkeypatch) -> None:
    """A trades table holding 50 events in several files, set up in-process."""
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(tmp_path / "data"))
    connector = _connector_file(tmp_path, count=50)
    for argv in (["lake", "init", "--table", "trades"],
                 ["ingest", "run", "--config", str(connector)],
                 ["etl", "export", "--connector", "c1", "--table", "trades", "--max-records", "20"]):
        assert _main(*argv) == (0, "")


def test_compact_without_partition_compacts_every_partition(tmp_path, monkeypatch):
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(tmp_path / "data"))
    connector = _connector_file(tmp_path, count=60)
    connector.write_text(json.dumps({**json.loads(connector.read_text()),
                                     "symbols": {"BTCUSDT": "BTC-USDT", "ETHUSDT": "ETH-USDT"}}))
    for argv in (["lake", "init", "--table", "trades"],
                 ["ingest", "run", "--config", str(connector)],
                 ["etl", "export", "--connector", "c1", "--table", "trades", "--max-records", "20"]):
        assert _main(*argv) == (0, "")
    table = LakeTable(FsStore(tmp_path / "data" / "store"), "trades")
    before = table.snapshot_at().live_files
    for flags in (["--all"], ["--min-files", "2"]):  # no flags of brc etl compact
        assert _main("etl", "compact", "--table", "trades", *flags)[0] == 2
    assert table.snapshot_at().live_files == before
    assert _main("etl", "compact", "--table", "trades") == (0, "")
    partitions = {add.partition for add in before.values()}
    assert len(partitions) > 1 and len(before) > len(partitions)
    after = [add.partition for add in table.snapshot_at().live_files.values()]
    assert len(after) == len(partitions) and set(after) == partitions  # one file each


def test_audit_of_a_file_holding_another_files_bytes_exits_one(tmp_path, monkeypatch):
    _small_table(tmp_path, monkeypatch)
    store = FsStore(tmp_path / "data" / "store")
    first, second = sorted(LakeTable(store, "trades").snapshot_at().live_files)[:2]
    store.put(first, store.get(second))
    result = _brc("lake", "audit", "--table", "trades", data_root=tmp_path / "data")
    report = json.loads(result.stdout)
    assert result.returncode == 1
    assert (report["mismatched"], report["dangling"]) == ([first], [])


def test_table_id_cannot_escape_the_store(tmp_path):
    result = _brc("lake", "init", "--table", "../../..", data_root=tmp_path)
    assert result.returncode == 1
    assert json.loads(result.stderr.splitlines()[-1])["field"] == "table_id"
    assert _error_kind(result) == "ConfigInvalid"
    objects = tmp_path / "store" / "objects"
    assert [p for p in tmp_path.rglob("*") if p.is_file() and objects not in p.parents] == []


@pytest.mark.parametrize("table", ["a/data", pytest.param("t" * 256, id="256_bytes"),
                                   pytest.param("a/" + "t" * 300, id="nested_300_bytes")])
@pytest.mark.parametrize("command", [["lake", "init"], ["query", "--symbols", "BTC-USDT", *_DAY]])
def test_table_id_is_one_path_segment(tmp_path, monkeypatch, command, table):
    """A nested table id would put one table's log inside another's data
    prefix, where an audit lists it as an orphan; a segment longer than a
    file name is OSError on the filesystem store."""
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(tmp_path / "data"))
    assert _main("lake", "init", "--table", "a")[0] == 0
    code, err = _main(*command, "--table", table)
    assert code == 1
    error = json.loads(err.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "table_id")
    assert LakeTable(FsStore(tmp_path / "data" / "store"), "a").audit()["orphans"] == []


def _files_outside(tmp_path, data_root) -> list:
    return [p for p in tmp_path.rglob("*") if p.is_file() and data_root not in p.parents]


@pytest.mark.parametrize("connector", ["../../escaped", "", "a/b", ".", "..", "c\n",
                                       pytest.param("c" * 256, id="256_bytes")])
@pytest.mark.parametrize("command", [["etl", "export", "--table", "trades"], ["staging", "prune"]])
def test_connector_id_is_one_path_segment(tmp_path, monkeypatch, command, connector):
    data_root = tmp_path / "a" / "data"
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(data_root))
    code, err = _main(*command, "--connector", connector)
    assert code == 1
    error = json.loads(err.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "connector_id")
    assert _files_outside(tmp_path, data_root) == []
    assert not (data_root / "staging").exists() or list((data_root / "staging").iterdir()) == []


@pytest.mark.parametrize("dag_id", ["../../esc", "a/b", "..", pytest.param("d" * 256, id="256_bytes")])
def test_dag_id_is_one_path_segment(tmp_path, dag_id):
    data_root = tmp_path / "a" / "data"
    dags = data_root / "dags"
    dags.mkdir(parents=True)
    (dags / "d.json").write_text(json.dumps({
        "dag_id": dag_id, "schedule": {"interval": {"period_us": 3_600_000_000}},
        "tasks": [{"task_id": "t", "action": "etl.compact", "params": {"table_id": "trades"}}],
    }))
    result = _brc("sched", "run-once", "--dag", dag_id, "--at", "1970-01-01T00:00:00Z", data_root=data_root)
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert (error["error"], error["field"]) == ("ConfigInvalid", "dag_id")
    assert _files_outside(tmp_path, data_root) == []
    assert [p.name for p in (data_root / "runs").iterdir()] == ["lock"]


def _unreadable(data_root, case) -> list[str]:
    """Put a directory where case's file should be; return the command that reads it."""
    if case.startswith("replay"):
        feed = data_root / "feed.jsonl"
        if case == "replay_directory":
            feed.mkdir(parents=True)
        config = data_root / "r.json"
        config.write_text(json.dumps({"connector_id": "r", "kind": "replay", "source": "rep",
                                      "symbols": {"BTCUSDT": "BTC-USDT"}, "replay_path": str(feed)}))
        return ["ingest", "run", "--config", str(config)]
    if case == "run_log":
        (data_root / "dags").mkdir()
        (data_root / "dags" / "d.json").write_text(json.dumps({
            "dag_id": "d", "schedule": {"interval": {"period_us": 3_600_000_000}},
            "tasks": [{"task_id": "t", "action": "etl.compact", "params": {"table_id": "trades"}}]}))
        (data_root / "runs" / "d" / "0" / "events.jsonl").mkdir(parents=True)
        return ["sched", "run-once", "--dag", "d", "--at", "1970-01-01T00:00:00Z"]
    (data_root / "staging" / "c" / case).mkdir(parents=True)
    return ["etl", "export", "--table", "trades", "--connector", "c"]


@pytest.mark.parametrize("case, kind", [
    ("replay_missing", "ConfigInvalid"),
    ("replay_directory", "ConfigInvalid"),
    ("checkpoint.json", "StagingUnavailable"),
    ("seg-00000000000000000000.jsonl", "StagingUnavailable"),
    ("run_log", "CorruptRunLog"),
], ids=["replay_missing", "replay_directory", "checkpoint", "segment", "run_log"])
def test_local_file_that_cannot_be_read_is_a_typed_error(tmp_path, monkeypatch, case, kind):
    data_root = tmp_path / "data"
    monkeypatch.delenv("BRC_CONFIG", raising=False)
    monkeypatch.setenv("BRC_DATA_ROOT", str(data_root))
    assert _main("lake", "init", "--table", "trades")[0] == 0
    code, err = _main(*_unreadable(data_root, case))
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == kind


@pytest.mark.parametrize("command", [["staging", "prune"], ["etl", "export", "--table", "trades"]],
                         ids=["prune", "export"])
def test_stray_segment_name_is_corrupt_staging(tmp_path, monkeypatch, command):
    _small_table(tmp_path, monkeypatch)
    stray = tmp_path / "data" / "staging" / "c1" / "seg-x.jsonl"
    stray.write_text("")
    code, err = _main(*command, "--connector", "c1")
    assert code == 1
    error = json.loads(err.splitlines()[-1])
    assert (error["error"], error["path"]) == ("CorruptStaging", str(stray))


@pytest.mark.parametrize("out", ["missing/out.csv", ".", "trades.csv/x"])
def test_query_sink_that_cannot_be_written_is_sink_error(tmp_path, monkeypatch, out):
    _small_table(tmp_path, monkeypatch)
    (tmp_path / "data" / "trades.csv").write_text("")
    code, err = _main("query", "--table", "trades", "--symbols", "BTC-USDT",
                      "--from", "2020-09-13T00:00:00Z", "--to", "2020-09-15T00:00:00Z",
                      "--out", str(tmp_path / "data" / out))
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "SinkError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose writes fail with ENOSPC")
def test_query_sink_flush_error_is_sink_error(tmp_path, monkeypatch):
    _small_table(tmp_path, monkeypatch)
    code, err = _main("query", "--table", "trades", "--symbols", "BTC-USDT",
                      "--from", "2020-09-13T00:00:00Z", "--to", "2020-09-15T00:00:00Z", "--out", "/dev/full")
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "SinkError"


_QUERY = ["query", "--table", "trades", "--symbols", "BTC-USDT",
          "--from", "2020-09-13T00:00:00Z", "--to", "2020-09-15T00:00:00Z"]


def test_failed_query_leaves_out_file_as_it_was(tmp_path, monkeypatch):
    _small_table(tmp_path, monkeypatch)
    out = tmp_path / "prev.csv"
    assert _main(*_QUERY, "--out", str(out)) == (0, "50 rows\n")
    before = out.read_bytes()
    data_file = next((tmp_path / "data" / "store" / "objects").rglob("*.brcl"))
    body = bytearray(data_file.read_bytes())
    body[5] ^= 0xFF  # inside the first column chunk
    data_file.write_bytes(bytes(body))
    code, err = _main(*_QUERY, "--out", str(out))
    assert (code, json.loads(err.splitlines()[-1])["error"]) == (1, "ChecksumMismatch")
    assert out.read_bytes() == before


def test_query_out_file_keeps_its_mode_and_links(tmp_path, monkeypatch):
    _small_table(tmp_path, monkeypatch)
    out, link = tmp_path / "private.csv", tmp_path / "link.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    os.link(out, link)
    assert _main(*_QUERY, "--out", str(out)) == (0, "50 rows\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert link.read_bytes() == out.read_bytes() != b"old\n"


def test_store_read_error_is_not_a_sink_error(tmp_path, monkeypatch):
    _small_table(tmp_path, monkeypatch)
    read_bytes = pathlib.Path.read_bytes

    def failing_read(path):
        if path.suffix == ".brcl":
            raise OSError(errno.EIO, "Input/output error")
        return read_bytes(path)

    monkeypatch.setattr(pathlib.Path, "read_bytes", failing_read)
    code, err = _main(*_QUERY, "--out", str(tmp_path / "x.csv"))
    assert (code, json.loads(err.splitlines()[-1])["error"]) == (1, "BackendUnavailable")
    assert not (tmp_path / "x.csv").exists()


# The last name puts the table's keys below an existing object, the log entry.
_TABLES = st.one_of(
    st.lists(st.sampled_from(["trades", "t", ".", "..", "/"]), max_size=4).map("".join),
    st.sampled_from(["trades", "../../..", "trades/_log/00000000000000000001.json"]))
_TIMES = st.one_of(st.text(max_size=30), st.sampled_from(["2020-09-13T00:00:00Z", "2020-09-15T00:00:00Z"]))
# --out values, paths under the data root once the fuzz test joins them to it:
# a new file, a file in a missing directory, two directories; or stdout.
_OUTS = st.none() | st.sampled_from(["out.csv", "missing/out.csv", ".", "store", "-"])
_QUERY_ARGS = st.tuples(
    _TABLES, st.one_of(st.text(max_size=20), st.just("BTC-USDT")), _TIMES, _TIMES,
    st.none() | st.integers(), st.none() | st.text(max_size=10) | st.just("1m"), _OUTS,
).map(lambda a: ["query", "--table", a[0], "--symbols", a[1], "--from", a[2], "--to", a[3]]
      + ([] if a[4] is None else ["--version", str(a[4])])
      + ([] if a[5] is None else ["--ohlcv", a[5]])
      + ([] if a[6] is None else ["--out", a[6]]))
_COMPACT_ARGS = st.tuples(
    _TABLES, st.none() | st.text(max_size=40) | st.just("symbol=BTC-USDT/date=2020-09-13"),
).map(lambda a: ["etl", "compact", "--table", a[0]] + ([] if a[1] is None else ["--partition", a[1]]))
_CONNECTORS = st.one_of(st.text(max_size=12),
                        st.sampled_from(["c1", "../../escaped", "", "a/b", ".", "..", "c1/../.."]))
_EXPORT_ARGS = st.tuples(_TABLES, _CONNECTORS, st.none() | st.integers()).map(
    lambda a: ["etl", "export", "--table", a[0], "--connector", a[1]]
    + ([] if a[2] is None else ["--max-records", str(a[2])]))
_PRUNE_ARGS = _CONNECTORS.map(lambda c: ["staging", "prune", "--connector", c])


def test_cli_argument_fuzz(tmp_path, monkeypatch):
    """Any query, compaction, export or prune arguments end in success, a
    typed error or a usage error, never in an untyped exception, and write
    nothing outside the data root."""
    _small_table(tmp_path, monkeypatch)
    data_root = tmp_path / "data"
    outside = _files_outside(tmp_path, data_root)
    kinds = {name for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.BrcError)}

    @given(st.one_of(_QUERY_ARGS, _COMPACT_ARGS, _EXPORT_ARGS, _PRUNE_ARGS))
    @settings(max_examples=250, deadline=None, database=None)
    def run(argv):
        if argv[-2:-1] == ["--out"] and argv[-1] != "-":
            argv[-1] = str(data_root / argv[-1])
        code, err = _main(*argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 1:
            assert json.loads(err.splitlines()[-1])["error"] in kinds, (argv, err)
        assert _files_outside(tmp_path, data_root) == outside, argv

    run()


# -- full pipeline through the CLI ---------------------------------------------------------

def test_pipeline_and_prune_via_cli(tmp_path):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    connector = _connector_file(tmp_path, count=120)
    result = _brc("ingest", "run", "--config", str(connector), data_root=tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["events_appended"] == 120

    result = _brc("etl", "export", "--connector", "c1", "--table", "trades",
                  "--max-records", "50", data_root=tmp_path)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["rows_published"] == 120 and out["next_checkpoint"] == 120

    result = _brc("etl", "compact", "--table", "trades", data_root=tmp_path)
    assert result.returncode == 0

    result = _brc("query", "--table", "trades", "--symbols", "BTC-USDT",
                  "--from", "2020-09-13T00:00:00Z", "--to", "2020-09-15T00:00:00Z",
                  "--format", "jsonl", data_root=tmp_path)
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 120

    result = _brc("staging", "prune", "--connector", "c1", data_root=tmp_path)
    assert result.returncode == 0

    result = _brc("lake", "audit", "--table", "trades", data_root=tmp_path)
    report = json.loads(result.stdout)
    assert result.returncode == 0 and report["dangling"] == []
    assert len(report["orphans"]) >= 1  # compaction leaves originals unreferenced

    result = _brc("lake", "log", "--table", "trades", data_root=tmp_path)
    entries = [json.loads(line) for line in result.stdout.splitlines()]
    assert [e["version"] for e in entries] == list(range(1, len(entries) + 1))


def test_sched_backfill_via_cli(tmp_path):
    assert _brc("lake", "init", "--table", "trades", data_root=tmp_path).returncode == 0
    connector = _connector_file(tmp_path, count=30)
    dags = tmp_path / "dags"
    dags.mkdir()
    (dags / "pipeline.json").write_text(json.dumps({
        "dag_id": "pipeline",
        "schedule": {"interval": {"anchor_us": 0, "period_us": 3_600_000_000}},
        "tasks": [
            {"task_id": "ingest", "action": "ingest.run",
             "params": {"config_path": str(connector)}},
            {"task_id": "export", "depends_on": ["ingest"], "action": "etl.export",
             "params": {"connector_id": "c1", "table_id": "trades"}},
        ],
    }))
    result = _brc("sched", "backfill", "--dag", "pipeline",
                  "--from", "1970-01-01T00:00:00Z", "--to", "1970-01-01T03:00:00Z",
                  "--dags", str(dags), data_root=tmp_path)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert len(out["runs"]) == 3 and out["failed"] == 0
    # ingest ran 3 times but the table holds each identity once
    result = _brc("query", "--table", "trades", "--symbols", "BTC-USDT",
                  "--from", "2020-09-13T00:00:00Z", "--to", "2020-09-15T00:00:00Z",
                  data_root=tmp_path)
    assert len(result.stdout.splitlines()) == 31  # header + 30 rows
