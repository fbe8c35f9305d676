"""Files of every earlier format version keep reading. ``tests/fixtures/vN/``
holds what the version-N writer wrote (see ``tests/fixtures/generate.py``):
a table of three exports into partitions BTC-USD and ETH-USD of one day,
then a compaction of BTC-USD alone, the CSV of a scan of it, and a small
three-column file. What each version lays out otherwise:

- 1: a JSON footer, and 4 rows a file where the others have 8;
- 2: DICT and DELTA chunks in the version-2 layouts, which version 3
  replaced;
- 3: BYTES values, in PLAIN and RLE chunks, DICT dictionaries and footers,
  each a u32 length and its bytes, which version 4 replaced with front
  coding;
- 4: a chunk for every column; from version 5 on, a column whose values
  equal an earlier column's shares that column's chunk;
- 5: a footer that spells out every name, type and stat; from version 6
  on, a footer of a known schema names it by index and keeps only the
  stats of that schema's stats columns.
"""

import io
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from brclake.etl import compact, export_all
from brclake.events import event_from_row
from brclake.fixedpoint import US_PER_DAY, iso_to_us
from brclake.lakeformat import FORMAT_VERSION, Encoding, read_file, write_file
from brclake.lakehouse import LakeTable, PartitionKey
from brclake.objectstore import FsStore
from brclake.query import ScanRequest, export_events, scan
from brclake.staging import StagingStore

from test_lakeformat import SCHEMA, SMALL_ROWS

VERSIONS = [1, 2, 3, 4, 5]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
T0 = iso_to_us("2021-03-04T00:00:00Z")
T_NEW = iso_to_us("2021-03-04T12:00:00Z")  # after every row of every fixture
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


def _last_row(store, table, partition):
    """The event of the last row of partition's first live file."""
    path = min(path for path, add in table.snapshot_at().live_files.items() if add.partition == partition)
    return event_from_row(read_file(store.get(path)).rows()[-1])


def _shares_ingest_time(store, path) -> bool:
    """Whether the file at path stores ingest_time_us as event_time_us's chunk."""
    event, ingest = read_file(store.get(path)).footer.chunks[:2]
    return ingest is event


@pytest.mark.parametrize("version", VERSIONS)
def test_a_table_scans_audits_compacts_and_dedups(tmp_path, version):
    shutil.copytree(FIXTURES / f"v{version}" / "store", tmp_path / "store")
    store = FsStore(tmp_path / "store")
    table = LakeTable(store, "trades")
    expected = (FIXTURES / f"v{version}" / "events.csv").read_bytes()
    assert (_versions(store, table, BTC), _versions(store, table, ETH)) == ([version], [version] * 3)
    for path in table.snapshot_at().live_files:
        footer = read_file(store.get(path)).footer
        encodings = {col.name: chunk.encoding for col, chunk in zip(footer.schema, footer.chunks)}
        if version > 1:  # version 1's export files store side PLAIN
            assert (encodings["event_id"], encodings["symbol"], encodings["side"], encodings["sequence"]) == (
                Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA)
        assert not _shares_ingest_time(store, path)
    assert _scan(store, table) == expected
    report = table.audit()
    assert (report["live_files"], report["dangling"], report["mismatched"]) == (4, [], [])

    # An export adds a current-version file to each partition, so both mix
    # versions. Its rows are ingested at their event time, so the new files
    # share one chunk between the two times; compaction merges ETH-USD's
    # three old files and its new one, whose times differ, into one file.
    news = [replace(_last_row(store, table, partition), event_id=f"{partition.symbol}-3-0", sequence=24,
                    event_time_us=T_NEW, ingest_time_us=T_NEW) for partition in (BTC, ETH)]
    staging = StagingStore(tmp_path / "staging")
    with staging.open_session("c") as session:
        session.append_batch(news)
    old_paths = set(table.snapshot_at().live_files)
    assert export_all(staging, store, table, "c").rows_published == 2
    assert _versions(store, table, BTC) == [version, FORMAT_VERSION]
    assert _versions(store, table, ETH) == [version] * 3 + [FORMAT_VERSION]
    new_paths = set(table.snapshot_at().live_files) - old_paths
    assert len(new_paths) == 2 and all(_shares_ingest_time(store, path) for path in new_paths)
    expected += _csv(news).split(b"\n", 1)[1]
    assert _scan(store, table) == expected
    assert compact(store, table, ETH) is not None
    assert _versions(store, table, ETH) == [FORMAT_VERSION] == [6]
    assert _scan(store, table) == expected

    # A handle that read no file yet drops every redelivered row, against
    # the old and the current-version files.
    olds = [event_from_row(row) for path in sorted(table.snapshot_at().live_files)
            for row in read_file(store.get(path)).rows()]
    with staging.open_session("c") as session:
        session.append_batch(olds)
    result = export_all(staging, store, LakeTable(store, "trades"), "c")
    assert (result.rows_published, result.dropped_duplicates) == (0, len(olds))
    assert _scan(store, table) == expected


@pytest.mark.parametrize("version", VERSIONS)
def test_the_small_file_reads_as_written(version):
    data = (FIXTURES / f"v{version}" / "small.brcl").read_bytes()
    current = write_file(SMALL_ROWS, SCHEMA)
    old, new = read_file(data), read_file(current)
    assert old.rows() == SMALL_ROWS and (old.footer.format_version, old.footer.schema) == (version, SCHEMA)
    assert [(c.encoding, c.min, c.max) for c in old.footer.chunks] == [
        (c.encoding, c.min, c.max) for c in new.footer.chunks]
    if version == 3:
        # "x" and "y" as PLAIN BYTES: u32 lengths in version 3, front-coded from version 4 on
        assert (old.footer.chunks[1].byte_length, new.footer.chunks[1].byte_length) == (10, 7)
    if version < 4:
        return
    # A file whose columns all differ and are no known schema is laid out by
    # versions 4 to 6 alike, but for the footer's version byte, version 6's
    # schema index 0 after the row count, and so the footer's CRC-32C.
    assert old.footer.chunks == new.footer.chunks
    (footer_len,) = struct.unpack("<I", data[-8:-4])
    start = len(data) - 8 - footer_len
    assert len(current) == len(data) + 1 and current[:start] == data[:start] and current[-4:] == data[-4:]
    assert (data[start], current[start]) == (version, FORMAT_VERSION)
    assert current[start + 1:start + 5] == data[start + 1:start + 5] and current[start + 5] == 0
    assert current[start + 6:-12] == data[start + 5:-12]  # from the column count to the footer's CRC-32C
