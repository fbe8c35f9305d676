#!/usr/bin/env python3
"""Write the format-version-3 fixtures of this directory.

    python3 tests/fixtures/v3/generate.py --src PATH

PATH is the ``src/`` directory of a checkout whose ``lakeformat`` writes
format version 3 (a binary footer, bit-packed DICT indices, DELTA blocks of
byte planes, and BYTES values each a u32 length and its bytes); the
fixtures exist to pin that writer's bytes, so a writer of any other version
refuses to run this. It writes, into this directory:

- ``store/``: an ``FsStore`` root holding table ``trades``. Three exports
  each add an 8-row file to partitions BTC-USD and ETH-USD of one day, then
  BTC-USD alone is compacted, so BTC-USD holds one merged file and ETH-USD
  three. Their ``side`` chunks are DICT, their times DELTA, their
  ``symbol`` chunks RLE and their ``event_id`` chunks PLAIN;
- ``events.csv``: ``query.export_events`` over a scan of the whole table;
- ``small.brcl``: ``write_file([(1, b"x", True), (2, b"y", False)], SCHEMA)``
  with the three-column ``SCHEMA`` of ``tests/test_lakeformat.py``.

``uuid.uuid4`` and ``time.time_ns`` are pinned, so a rerun writes the same
bytes.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
T0 = 1_614_816_000_000_000  # 2021-03-04T00:00:00Z
SYMBOLS = ("BTC-USD", "ETH-USD")
EXPORTS, ROWS_PER_FILE = 3, 8


def pin_nondeterminism() -> None:
    counter = {"uuid": 0, "ns": 1_614_900_000_000_000_000}

    def uuid4() -> uuid.UUID:
        counter["uuid"] += 1
        return uuid.UUID(int=counter["uuid"])

    def time_ns() -> int:
        counter["ns"] += 1_000_000
        return counter["ns"]

    uuid.uuid4 = uuid4
    time.time_ns = time_ns


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    sys.path.insert(0, str(parser.parse_args(argv).src.resolve()))
    pin_nondeterminism()

    from brclake import etl, lakeformat
    from brclake.events import MarketEvent
    from brclake.lakehouse import LakeTable, PartitionKey
    from brclake.objectstore import FsStore
    from brclake.query import ScanRequest, export_events, scan
    from brclake.staging import StagingStore

    if lakeformat.FORMAT_VERSION != 3:
        sys.exit(f"the writer under --src writes format version {lakeformat.FORMAT_VERSION}, not 3")
    schema = [lakeformat.ColumnSchema("ts", lakeformat.INT64), lakeformat.ColumnSchema("sym", lakeformat.BYTES),
              lakeformat.ColumnSchema("up", lakeformat.BOOL)]
    (HERE / "small.brcl").write_bytes(lakeformat.write_file([(1, b"x", True), (2, b"y", False)], schema))

    shutil.rmtree(HERE / "store", ignore_errors=True)
    store = FsStore(HERE / "store")
    table = LakeTable(store, "trades")
    table.init(etl.SCHEMA_ID, etl.TABLE_COLUMNS)
    with tempfile.TemporaryDirectory() as staging_dir:
        staging = StagingStore(Path(staging_dir))
        for k in range(EXPORTS):
            events = [
                MarketEvent(source="syn", stream="trade", symbol=symbol,
                            event_time_us=T0 + (k * ROWS_PER_FILE + i) * 60_000_000,
                            ingest_time_us=T0 + (k * ROWS_PER_FILE + i) * 60_000_000 + 500,
                            sequence=k * ROWS_PER_FILE + i, event_id=f"{symbol}-{k}-{i}",
                            price_e8=(30_000 + 7 * i - 3 * k) * 10**8, qty_e8=(i % 3 + 1) * 10**7,
                            side=("buy", "sell")[(i + k) % 2])
                for symbol in SYMBOLS for i in range(ROWS_PER_FILE)
            ]
            with staging.open_session("c") as session:
                session.append_batch(events)
            etl.export_all(staging, store, table, "c")
    etl.compact(store, table, PartitionKey("BTC-USD", "2021-03-04"))
    with open(HERE / "events.csv", "wb") as sink:
        export_events(scan(store, table, ScanRequest("trades", (T0, T0 + 86_400_000_000), set(SYMBOLS))),
                      "csv", sink)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
