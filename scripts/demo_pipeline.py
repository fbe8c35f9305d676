#!/usr/bin/env python3
"""Run the whole pipeline once against a local data root and print a summary.

Builds a demo layout (connector config, a 5-minute export DAG, one table),
ingests two synthetic connectors, exports to the lakehouse, compacts, then
queries a time slice and prints OHLCV bars. Everything runs through the same
code paths the ``brc`` CLI uses.

    python scripts/demo_pipeline.py --data-root /tmp/brc-demo [--events 20000]
"""

import argparse
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brclake.etl import TABLE_COLUMNS, compact, export_all, live_partitions
from brclake.events import ConnectorConfig
from brclake.fixedpoint import us_to_iso
from brclake.ingest import run_connector
from brclake.lakehouse import LakeTable
from brclake.localfile import record_to_json
from brclake.objectstore import FsStore
from brclake.query import ScanRequest, export_bars, ohlcv, scan
from brclake.staging import StagingStore

SAMPLE_DAG = {
    "dag_id": "export-every-5m",
    "schedule": {"interval": {"anchor_us": 0, "period_us": 300_000_000}},
    "max_parallel_tasks": 1,
    "tasks": [
        {"task_id": "export-demo1", "action": "etl.export",
         "params": {"connector_id": "demo1", "table_id": "trades"}},
        {"task_id": "export-demo2", "action": "etl.export",
         "params": {"connector_id": "demo2", "table_id": "trades"}},
        {"task_id": "compact", "depends_on": ["export-demo1", "export-demo2"],
         "action": "etl.compact", "params": {"table_id": "trades", "partition": "all"},
         "retry": {"max_attempts": 3, "base_delay_s": 5, "cap_delay_s": 300}},
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-root", required=True)
    parser.add_argument("--events", type=int, default=20_000, help="events per connector")
    args = parser.parse_args()

    root = Path(args.data_root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "dags").mkdir(exist_ok=True)
    (root / "dags" / "export-every-5m.json").write_text(json.dumps(SAMPLE_DAG, indent=2))

    store = FsStore(root / "store")
    staging = StagingStore(root / "staging")
    table = LakeTable(store, "trades")
    table.init("trades_v1", TABLE_COLUMNS)

    symbols = {"BTCUSDT": "BTC-USDT", "ETHUSDT": "ETH-USDT", "XRPUSDT": "XRP-USDT"}
    for i, connector_id in enumerate(("demo1", "demo2")):
        config = ConnectorConfig(
            connector_id=connector_id, kind="synthetic", source=f"exchange{i}",
            symbols=dict(symbols), seed=100 + i, count=args.events, dup_prob_bp=150,
            ingest_time_mode="event_time",
        )
        (root / f"connector-{connector_id}.json").write_text(json.dumps(record_to_json(config), indent=2))
        summary = run_connector(config, staging)
        print(f"[ingest]  {connector_id}: appended {summary.events_appended} events")
        result = export_all(staging, store, table, connector_id, max_records=8000)
        print(f"[export]  {connector_id}: published {result.rows_published} rows "
              f"(dropped {result.dropped_duplicates} duplicates), version {result.version}")

    for partition in live_partitions(table):
        version = compact(store, table, partition)
        if version:
            print(f"[compact] {partition.render()} -> version {version}")

    snapshot = table.snapshot_at()
    total = sum(a.rows for a in snapshot.live_files.values())
    lo = min(a.min_event_time_us for a in snapshot.live_files.values())
    hi = max(a.max_event_time_us for a in snapshot.live_files.values())
    print(f"[table]   version {snapshot.version}, {len(snapshot.live_files)} live files, "
          f"{total} rows, {us_to_iso(lo)} .. {us_to_iso(hi)}")

    request = ScanRequest("trades", (lo, lo + (hi - lo) // 4 + 1), {"BTC-USDT"})
    events = list(scan(store, table, request))
    bars = ohlcv(events, 3_600_000_000)
    sink = io.BytesIO()
    export_bars(bars, "csv", sink)
    print(f"[query]   {len(events)} BTC-USDT trades in the first quarter of the range, "
          f"{len(bars)} hourly bars:")
    print(sink.getvalue().decode(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
