"""Single operational entrypoint: ``brc <group> <command>``.

Exit codes: 0 success, 1 operational error (the typed error is printed to
stderr as one JSON line), 2 usage error. Commands never raise to the caller.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from contextlib import nullcontext
from pathlib import Path

from .config import AppContext, load_config
from .errors import BrcError, ConfigInvalid, SinkError
from .etl import SCHEMA_ID, TABLE_COLUMNS, build_action_registry, compact_partitions, export_all
from .events import ConnectorConfig
from .fixedpoint import iso_to_us
from .ingest import run_connector
from .localfile import load_json_config, record_bytes, record_to_json
from .orchestrator import Scheduler, load_dags
from .query import ScanRequest, export_bars, export_events, ohlcv, scan

EPILOG = """\
configuration:
  --config/BRC_CONFIG points at a JSON file: {"data_root": ..., "store":
  "fs"|"s3", "s3": {...}, "dags_dir": ...}. Environment
  overrides the file: BRC_DATA_ROOT, BRC_S3_ENDPOINT, BRC_S3_REGION,
  BRC_S3_ACCESS_KEY, BRC_S3_SECRET_KEY, BRC_S3_BUCKET. Defaults: fs store
  under <data_root>/store, staging under <data_root>/staging, dags under
  <data_root>/dags. A DAGs directory that does not exist, the default
  one included, is ConfigInvalid. Every table has the trades_v1 schema.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brc",
        description="Desk-scale market-data lakehouse pipeline.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="app config JSON (or env BRC_CONFIG)")
    sub = parser.add_subparsers(dest="group", required=True)

    ingest = sub.add_parser("ingest", help="run connectors").add_subparsers(dest="cmd", required=True)
    p = ingest.add_parser("run", help="run one connector session to staging")
    p.add_argument("--config", dest="connector_config", required=True, help="connector config JSON")

    staging = sub.add_parser("staging", help="staging maintenance").add_subparsers(dest="cmd", required=True)
    p = staging.add_parser("prune", help="drop fully exported segments")
    p.add_argument("--connector", required=True)

    etl = sub.add_parser("etl", help="export and compaction").add_subparsers(dest="cmd", required=True)
    p = etl.add_parser("export", help="drain staging into the table")
    p.add_argument("--connector", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--max-records", type=int, default=100_000)
    p = etl.add_parser("compact", help="merge a partition's small files")
    p.add_argument("--table", required=True)
    p.add_argument("--partition", default="all", help="symbol=SYM/date=YYYY-MM-DD, or all (default)")

    sched = sub.add_parser("sched", help="DAG scheduling").add_subparsers(dest="cmd", required=True)
    p = sched.add_parser("start", help="run schedules until stopped")
    p.add_argument("--dags", help="directory of DAG JSON files")
    p.add_argument("--until", help="stop at this ISO8601 instant")
    p = sched.add_parser("run-once", help="execute one logical run")
    p.add_argument("--dag", required=True)
    p.add_argument("--at", required=True, help="logical time, ISO8601")
    p.add_argument("--dags", help="directory of DAG JSON files")
    p = sched.add_parser("backfill", help="run every instant in a window")
    p.add_argument("--dag", required=True)
    p.add_argument("--from", dest="from_ts", required=True, help="ISO8601 window start")
    p.add_argument("--to", dest="to_ts", required=True, help="ISO8601 window end (exclusive)")
    p.add_argument("--dags", help="directory of DAG JSON files")

    p = sub.add_parser("query", help="pruned time-range scan")
    p.add_argument("--table", required=True)
    p.add_argument("--symbols", required=True, help="comma-separated normalized symbols")
    p.add_argument("--from", dest="from_ts", required=True, help="ISO8601, inclusive")
    p.add_argument("--to", dest="to_ts", required=True, help="ISO8601, exclusive")
    p.add_argument("--version", type=int, help="snapshot version (time travel)")
    p.add_argument("--ohlcv", help="aggregate to bars, e.g. 1m, 30s, 500ms, 1h, 1d")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default="-", help="output path, or - for stdout")

    lake = sub.add_parser("lake", help="table log operations").add_subparsers(dest="cmd", required=True)
    p = lake.add_parser("init", help="create an empty table")
    p.add_argument("--table", required=True)
    p = lake.add_parser("log", help="print the transaction log")
    p.add_argument("--table", required=True)
    p = lake.add_parser("audit", help="referential integrity report")
    p.add_argument("--table", required=True)

    return parser


_WIDTH_RE = re.compile(r"(\d{1,18})(ms|s|m|h|d)")  # bounded: int() refuses > 4300 digits
_WIDTH_US = {"ms": 1_000, "s": 1_000_000, "m": 60_000_000, "h": 3_600_000_000, "d": 86_400_000_000}


def parse_bucket_width(text: str) -> int:
    m = _WIDTH_RE.fullmatch(text)
    if not m or int(m.group(1)) == 0:
        raise ConfigInvalid("ohlcv", f"bad bucket width {text!r}; want e.g. 1m, 30s, 500ms")
    return int(m.group(1)) * _WIDTH_US[m.group(2)]


def parse_time(flag: str, text: str) -> int:
    try:
        return iso_to_us(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigInvalid(flag, f"bad ISO8601 time {text!r}: {exc}")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _run(args: argparse.Namespace) -> int:
    app = AppContext(load_config(args.config))

    if args.group == "ingest":
        config = load_json_config(args.connector_config, ConnectorConfig.from_dict)
        _emit(record_to_json(run_connector(config, app.staging)))

    elif args.group == "staging":
        removed = app.staging.prune(args.connector)
        _emit({"segments_removed": removed})

    elif args.group == "etl" and args.cmd == "export":
        _emit(record_to_json(export_all(app.staging, app.store, app.table(args.table),
                                        args.connector, max_records=args.max_records)))

    elif args.group == "etl" and args.cmd == "compact":
        _emit({"compacted": compact_partitions(app.store, app.table(args.table), args.partition)})

    elif args.group == "sched":
        dags_dir = Path(args.dags) if args.dags else app.config.dags_dir
        dags = load_dags(dags_dir)
        registry = build_action_registry(app)
        with Scheduler(app.runs_root, registry) as scheduler:
            if args.cmd == "start":
                until = parse_time("until", args.until) if args.until else None
                results = scheduler.run_forever(dags, until_us=until)
                _emit({"runs": len(results), "failed": sum(not r.succeeded for r in results)})
            else:
                if args.dag not in dags:
                    raise ConfigInvalid("dag", f"no DAG {args.dag!r} in {dags_dir}")
                dag = dags[args.dag]
                if args.cmd == "run-once":
                    result = scheduler.run_once(dag, parse_time("at", args.at))
                    _emit({"succeeded": result.succeeded, "states": result.states})
                    if not result.succeeded:
                        return 1
                else:
                    results = scheduler.backfill(
                        dag, parse_time("from", args.from_ts), parse_time("to", args.to_ts))
                    _emit({
                        "runs": [r.logical_time_us for r in results],
                        "failed": sum(not r.succeeded for r in results),
                    })
                    if any(not r.succeeded for r in results):
                        return 1

    elif args.group == "query":
        request = ScanRequest(
            table_id=args.table,
            time_range=(parse_time("from", args.from_ts), parse_time("to", args.to_ts)),
            symbols=set(args.symbols.split(",")),
            version=args.version,
        )
        width_us = parse_bucket_width(args.ohlcv) if args.ohlcv else None
        events = scan(app.store, app.table(args.table), request)
        bars = ohlcv(events, width_us) if args.ohlcv else None
        # Rendered whole before the sink is opened, so a scan that fails
        # leaves an earlier --out file as it was.
        rendered = io.BytesIO()
        if bars is None:
            count = export_events(events, args.format, rendered)
        else:
            count = export_bars(bars, args.format, rendered)
        try:
            with nullcontext(sys.stdout.buffer) if args.out == "-" else open(args.out, "wb") as sink:
                sink.write(rendered.getbuffer())
                sink.flush()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in --out
            raise SinkError(f"--out {args.out}: {exc}") from None
        sys.stderr.write(f"{count} rows\n")

    elif args.group == "lake":
        table = app.table(args.table)
        if args.cmd == "init":
            entry = table.init(SCHEMA_ID, TABLE_COLUMNS)
            _emit({"table": args.table, "version": entry.version, "schema_id": SCHEMA_ID})
        elif args.cmd == "log":
            for entry in table.read_log():
                sys.stdout.write(record_bytes(entry).decode() + "\n")
        else:
            report = table.audit()
            _emit(report)
            if report["dangling"] or report["mismatched"]:
                return 1

    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrcError as exc:
        sys.stderr.write(exc.to_json() + "\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - operational surface never panics
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
