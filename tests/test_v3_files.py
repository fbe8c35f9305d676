"""Files of format version 3 keep reading. ``tests/fixtures/v3/`` holds a
table that the version-3 writer wrote (see its ``generate.py``): three
exports into partitions BTC-USD and ETH-USD of one day, then a compaction of
BTC-USD alone, and the CSV of a scan of it. Its BYTES values, in PLAIN and
RLE chunks, DICT dictionaries and footers, are each a u32 length and its
bytes, which version 4 replaced with front coding."""

import shutil
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

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v3"
T_NEW = iso_to_us("2021-03-04T12:00:00Z")  # after every row of the fixture


def test_a_v3_table_scans_audits_compacts_and_dedups(tmp_path):
    shutil.copytree(FIXTURES / "store", tmp_path / "store")
    store = FsStore(tmp_path / "store")
    table = LakeTable(store, "trades")
    expected = (FIXTURES / "events.csv").read_bytes()
    assert (_versions(store, table, BTC), _versions(store, table, ETH)) == ([3], [3, 3, 3])
    for path in table.snapshot_at().live_files:
        footer = read_file(store.get(path)).footer
        encodings = {col.name: chunk.encoding for col, chunk in zip(footer.schema, footer.chunks)}
        assert (encodings["event_id"], encodings["symbol"], encodings["side"], encodings["sequence"]) == (
            Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA)
    assert _scan(store, table) == expected
    report = table.audit()
    assert (report["live_files"], report["dangling"], report["mismatched"]) == (4, [], [])

    # An export adds a current-version file to each partition, so both mix
    # versions; compaction merges ETH-USD's three v3 files and its new one.
    news = [replace(_last_row(store, table, partition), event_id=f"{partition.symbol}-3-0", sequence=24,
                    event_time_us=T_NEW) for partition in (BTC, ETH)]
    staging = StagingStore(tmp_path / "staging")
    with staging.open_session("c") as session:
        session.append_batch(news)
    assert export_all(staging, store, table, "c").rows_published == 2
    assert _versions(store, table, BTC) == [3, FORMAT_VERSION]
    assert _versions(store, table, ETH) == [3, 3, 3, FORMAT_VERSION]
    expected += _csv(news).split(b"\n", 1)[1]
    assert _scan(store, table) == expected
    assert compact(store, table, ETH) is not None
    assert _versions(store, table, ETH) == [FORMAT_VERSION] == [4]
    assert _scan(store, table) == expected

    # A handle that read no file yet drops every redelivered row, against
    # the v3 and the current-version files.
    olds = [event_from_row(row) for path in sorted(table.snapshot_at().live_files)
            for row in read_file(store.get(path)).rows()]
    with staging.open_session("c") as session:
        session.append_batch(olds)
    result = export_all(staging, store, LakeTable(store, "trades"), "c")
    assert (result.rows_published, result.dropped_duplicates) == (0, len(olds))
    assert _scan(store, table) == expected


def test_the_v3_small_file_reads_as_written():
    v3 = read_file((FIXTURES / "small.brcl").read_bytes())
    current = read_file(write_file(SMALL_ROWS, SCHEMA))
    assert v3.rows() == SMALL_ROWS and (v3.footer.format_version, v3.footer.schema) == (3, SCHEMA)
    assert [(c.encoding, c.min, c.max) for c in v3.footer.chunks] == [
        (c.encoding, c.min, c.max) for c in current.footer.chunks]
    # "x" and "y" as PLAIN BYTES: u32 lengths in version 3, front-coded in version 4
    assert (v3.footer.chunks[1].byte_length, current.footer.chunks[1].byte_length) == (10, 7)
