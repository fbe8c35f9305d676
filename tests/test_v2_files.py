"""Files of format version 2 keep reading. ``tests/fixtures/v2/`` holds a
table that the version-2 writer wrote (see its ``generate.py``): three
exports into partitions BTC-USD and ETH-USD of one day, then a compaction of
BTC-USD alone, and the CSV of a scan of it. Its DICT and DELTA chunks are
in the version-2 layouts, which version 3 replaced."""

import shutil
from dataclasses import replace
from pathlib import Path

from brclake.etl import compact, export_all
from brclake.events import event_from_row
from brclake.fixedpoint import iso_to_us
from brclake.lakeformat import FORMAT_VERSION, Encoding, read_file
from brclake.lakehouse import LakeTable
from brclake.objectstore import FsStore
from brclake.staging import StagingStore

from test_v1_files import BTC, ETH, _csv, _scan, _versions

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v2"
T_NEW = iso_to_us("2021-03-04T12:00:00Z")  # after every row of the fixture


def test_a_v2_table_scans_audits_compacts_and_dedups(tmp_path):
    shutil.copytree(FIXTURES / "store", tmp_path / "store")
    store = FsStore(tmp_path / "store")
    table = LakeTable(store, "trades")
    expected = (FIXTURES / "events.csv").read_bytes()
    assert (_versions(store, table, BTC), _versions(store, table, ETH)) == ([2], [2, 2, 2])
    for path in table.snapshot_at().live_files:
        encodings = {chunk.encoding for chunk in read_file(store.get(path)).footer.chunks}
        assert {Encoding.DICT, Encoding.DELTA} <= encodings
    assert _scan(store, table) == expected
    report = table.audit()
    assert (report["live_files"], report["dangling"], report["mismatched"]) == (4, [], [])

    # An export adds a current-version file to each partition, so both mix
    # versions; compaction merges ETH-USD's three v2 files and its new one.
    news = [replace(_last_row(store, table, partition), event_id=f"{partition.symbol}-3-0", sequence=24,
                    event_time_us=T_NEW) for partition in (BTC, ETH)]
    staging = StagingStore(tmp_path / "staging")
    with staging.open_session("c") as session:
        session.append_batch(news)
    assert export_all(staging, store, table, "c").rows_published == 2
    assert _versions(store, table, BTC) == [2, FORMAT_VERSION]
    assert _versions(store, table, ETH) == [2, 2, 2, FORMAT_VERSION]
    expected += _csv(news).split(b"\n", 1)[1]
    assert _scan(store, table) == expected
    assert compact(store, table, ETH) is not None
    assert _versions(store, table, ETH) == [FORMAT_VERSION]
    assert _scan(store, table) == expected

    # A handle that read no file yet drops every redelivered row, against
    # the v2 and the current-version files.
    olds = [event_from_row(row) for path in sorted(table.snapshot_at().live_files)
            for row in read_file(store.get(path)).rows()]
    with staging.open_session("c") as session:
        session.append_batch(olds)
    result = export_all(staging, store, LakeTable(store, "trades"), "c")
    assert (result.rows_published, result.dropped_duplicates) == (0, len(olds))
    assert _scan(store, table) == expected


def _last_row(store, table, partition):
    """The event of the last row of partition's first live file."""
    path = min(path for path, add in table.snapshot_at().live_files.items() if add.partition == partition)
    return event_from_row(read_file(store.get(path)).rows()[-1])
