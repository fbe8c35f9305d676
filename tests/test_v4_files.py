"""Files of format version 4 keep reading. ``tests/fixtures/v4/`` holds a
table that the version-4 writer wrote (see its ``generate.py``): three
exports into partitions BTC-USD and ETH-USD of one day, then a compaction of
BTC-USD alone, and the CSV of a scan of it. Every column of a version-4
file stores its own chunk; from version 5 on, a column whose values equal
an earlier column's shares that column's chunk."""

import shutil
import struct
from dataclasses import replace
from pathlib import Path

from brclake.etl import compact, export_all
from brclake.events import event_from_row
from brclake.fixedpoint import iso_to_us
from brclake.lakeformat import FORMAT_VERSION, Encoding, read_file, write_file
from brclake.lakehouse import LakeTable
from brclake.objectstore import FsStore
from brclake.staging import StagingStore

from test_lakeformat import SCHEMA, SMALL_ROWS
from test_v1_files import BTC, ETH, _csv, _scan, _versions
from test_v2_files import _last_row

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v4"
T_NEW = iso_to_us("2021-03-04T12:00:00Z")  # after every row of the fixture


def _shares_ingest_time(store, path) -> bool:
    """Whether the file at path stores ingest_time_us as event_time_us's chunk."""
    event, ingest = read_file(store.get(path)).footer.chunks[:2]
    return ingest is event


def test_a_v4_table_scans_audits_compacts_and_dedups(tmp_path):
    shutil.copytree(FIXTURES / "store", tmp_path / "store")
    store = FsStore(tmp_path / "store")
    table = LakeTable(store, "trades")
    expected = (FIXTURES / "events.csv").read_bytes()
    assert (_versions(store, table, BTC), _versions(store, table, ETH)) == ([4], [4, 4, 4])
    for path in table.snapshot_at().live_files:
        footer = read_file(store.get(path)).footer
        encodings = {col.name: chunk.encoding for col, chunk in zip(footer.schema, footer.chunks)}
        assert (encodings["event_id"], encodings["symbol"], encodings["side"], encodings["sequence"]) == (
            Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA)
        assert not _shares_ingest_time(store, path)
    assert _scan(store, table) == expected
    report = table.audit()
    assert (report["live_files"], report["dangling"], report["mismatched"]) == (4, [], [])

    # An export adds a current-version file to each partition, so both mix
    # versions. Its rows are ingested at their event time, so the new files
    # share one chunk between the two times; compaction merges ETH-USD's
    # three v4 files and its new one, whose times differ, into one file.
    news = [replace(_last_row(store, table, partition), event_id=f"{partition.symbol}-3-0", sequence=24,
                    event_time_us=T_NEW, ingest_time_us=T_NEW) for partition in (BTC, ETH)]
    staging = StagingStore(tmp_path / "staging")
    with staging.open_session("c") as session:
        session.append_batch(news)
    old_paths = set(table.snapshot_at().live_files)
    assert export_all(staging, store, table, "c").rows_published == 2
    assert _versions(store, table, BTC) == [4, FORMAT_VERSION]
    assert _versions(store, table, ETH) == [4, 4, 4, FORMAT_VERSION]
    new_paths = set(table.snapshot_at().live_files) - old_paths
    assert len(new_paths) == 2 and all(_shares_ingest_time(store, path) for path in new_paths)
    expected += _csv(news).split(b"\n", 1)[1]
    assert _scan(store, table) == expected
    assert compact(store, table, ETH) is not None
    assert _versions(store, table, ETH) == [FORMAT_VERSION] == [5]
    assert _scan(store, table) == expected

    # A handle that read no file yet drops every redelivered row, against
    # the v4 and the current-version files.
    olds = [event_from_row(row) for path in sorted(table.snapshot_at().live_files)
            for row in read_file(store.get(path)).rows()]
    with staging.open_session("c") as session:
        session.append_batch(olds)
    result = export_all(staging, store, LakeTable(store, "trades"), "c")
    assert (result.rows_published, result.dropped_duplicates) == (0, len(olds))
    assert _scan(store, table) == expected


def test_the_v4_small_file_reads_as_written():
    """A file whose columns all differ is laid out by version 5 as by
    version 4, but for the footer's version byte and so its CRC-32C."""
    data = (FIXTURES / "small.brcl").read_bytes()
    current = write_file(SMALL_ROWS, SCHEMA)
    v4 = read_file(data)
    assert v4.rows() == SMALL_ROWS and (v4.footer.format_version, v4.footer.schema) == (4, SCHEMA)
    assert v4.footer.chunks == read_file(current).footer.chunks
    (footer_len,) = struct.unpack("<I", data[-8:-4])
    start = len(data) - 8 - footer_len
    assert len(current) == len(data) and current[:start] == data[:start] and current[-8:] == data[-8:]
    assert (data[start], current[start]) == (4, FORMAT_VERSION)
    assert current[start + 1:-12] == data[start + 1:-12]  # all but the version byte and the footer CRC
