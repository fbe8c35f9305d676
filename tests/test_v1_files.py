"""Files of format version 1 keep reading. ``tests/fixtures/v1/`` holds a
table that the version-1 writer wrote (see its ``generate.py``): three
exports into partitions BTC-USD and ETH-USD of one day, then a compaction of
BTC-USD alone, and the CSV of a scan of it."""

import io
import shutil
from dataclasses import replace
from pathlib import Path

from brclake.etl import compact, export_all
from brclake.events import event_from_row
from brclake.fixedpoint import US_PER_DAY, iso_to_us
from brclake.lakeformat import FORMAT_VERSION, read_file
from brclake.lakehouse import LakeTable, PartitionKey
from brclake.objectstore import FsStore
from brclake.query import ScanRequest, export_events, scan
from brclake.staging import StagingStore

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v1"
T0 = iso_to_us("2021-03-04T00:00:00Z")
BTC, ETH = PartitionKey("BTC-USD", "2021-03-04"), PartitionKey("ETH-USD", "2021-03-04")


def _csv(events) -> bytes:
    sink = io.BytesIO()
    export_events(events, "csv", sink)
    return sink.getvalue()


def _scan(store, table) -> bytes:
    return _csv(scan(store, table, ScanRequest("trades", (T0, T0 + US_PER_DAY), {"BTC-USD", "ETH-USD"})))


def _versions(store, table, partition) -> list[int]:
    """The format version of each live file of partition, in path order."""
    return [read_file(store.get(path)).footer.format_version
            for path, add in sorted(table.snapshot_at().live_files.items()) if add.partition == partition]


def test_a_v1_table_scans_audits_compacts_and_dedups(tmp_path):
    shutil.copytree(FIXTURES / "store", tmp_path / "store")
    store = FsStore(tmp_path / "store")
    table = LakeTable(store, "trades")
    expected = (FIXTURES / "events.csv").read_bytes()
    assert (_versions(store, table, BTC), _versions(store, table, ETH)) == ([1], [1, 1, 1])
    assert _scan(store, table) == expected
    report = table.audit()
    assert (report["live_files"], report["dangling"], report["mismatched"]) == (4, [], [])

    # Compaction merges the three v1 files of ETH-USD into one file of the current version.
    assert compact(store, table, ETH) is not None
    assert _versions(store, table, ETH) == [FORMAT_VERSION]
    assert _scan(store, table) == expected

    # An export makes BTC-USD a mixed partition; then a handle that read no
    # file yet drops every redelivered row, against the v1 and the new file.
    (v1_file,) = (add for add in table.snapshot_at().live_files.values() if add.partition == BTC)
    old = [event_from_row(row) for row in read_file(store.get(v1_file.path)).rows()]
    new = replace(old[-1], event_id="BTC-USD-3-0", sequence=12, event_time_us=old[-1].event_time_us + 60_000_000)
    staging = StagingStore(tmp_path / "staging")
    with staging.open_session("c") as session:
        session.append_batch([new])
    assert export_all(staging, store, table, "c").rows_published == 1
    assert sorted(_versions(store, table, BTC)) == [1, FORMAT_VERSION]
    with staging.open_session("c") as session:
        session.append_batch([*old, new])
    result = export_all(staging, store, LakeTable(store, "trades"), "c")
    assert (result.rows_published, result.dropped_duplicates) == (0, len(old) + 1)
    assert _scan(store, table) == expected + _csv([new]).split(b"\n", 1)[1]
