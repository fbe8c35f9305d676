"""Deterministic end-to-end scenario runner with process-level crash injection.

A scenario wires synthetic connectors through ingest, export, optional
compaction, and a final full-range query, executing every step as a real
``brc`` subprocess. Crash points name fault-injection sites (see crashpoints
module); the harness runs the victim step once with BRC_CRASH_AT set, asserts
the process actually died, then restarts it clean — so recovery always runs
against genuine kill -9 leftovers.

The final query output is compared byte-for-byte against a brute-force oracle
computed directly from the generator's event stream: normalize, dedup by
identity keeping the first occurrence, filter, sort, render. Connectors must
use ingest_time_mode="event_time" so the oracle can reproduce ingest stamps.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .crashpoints import CRASH_ENV, CRASH_EXIT_CODE, SITES
from .errors import AssertionFailed, BrcError
from .events import ConnectorConfig, MarketEvent
from .fixedpoint import us_to_iso
from .ingest import ConnectorState, generate_synthetic, normalize, replay_file
from .localfile import config_from_json, load_json_config, record_bytes
from .query import export_events

_SITE_FOR_STEP = {
    "ingest": ("ingest.append",),
    "export": ("etl.post_drain", "etl.pre_commit", "etl.post_commit_pre_checkpoint"),
    "compact": ("etl.mid_compaction",),
}


@dataclass
class Expected:
    """What a scenario's run must show beyond oracle equality; None checks nothing."""

    rows: int | None = None


@dataclass
class Scenario:
    name: str = "scenario"
    connectors: list[ConnectorConfig] = field(default_factory=list)
    table_id: str = "trades"
    export_max_records: int = 100_000
    compact_after: bool = False
    crash_points: list[str] = field(default_factory=list)
    expected: Expected = field(default_factory=Expected)

    def validate(self) -> None:
        ids = [c.connector_id for c in self.connectors]
        if len(set(ids)) != len(ids):
            raise AssertionFailed(f"duplicate connector ids in scenario {self.name!r}")
        for config in self.connectors:
            config.validate()
            if config.ingest_time_mode != "event_time":
                raise AssertionFailed(
                    f"connector {config.connector_id!r} must use "
                    "ingest_time_mode=event_time for oracle comparison"
                )
        for point in self.crash_points:
            site = point.partition(":")[0]
            if site not in SITES:
                raise AssertionFailed(f"unknown crash site {site!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        scenario = config_from_json(cls, obj)
        scenario.validate()
        return scenario


# -- brute-force oracle -------------------------------------------------------

def oracle_events(connectors: list[ConnectorConfig]) -> list[MarketEvent]:
    """The events the final table must contain: generate, normalize with the
    connector's deterministic stamps, dedup by identity (first occurrence in
    append order wins), and sort the union."""
    deduped: list[MarketEvent] = []
    seen: set[tuple] = set()
    for config in connectors:
        state = ConnectorState()
        raws = generate_synthetic(config) if config.kind == "synthetic" else replay_file(config.replay_path)
        for raw in raws:
            sequence = state.next_sequence((raw.source, raw.stream, config.symbols[raw.raw_symbol]))
            event = normalize(raw, config, raw.event_time_us, sequence)
            if event.identity in seen:
                continue
            seen.add(event.identity)
            deduped.append(event)
    deduped.sort(key=lambda e: e.sort_key())
    return deduped


def oracle_csv(events: list[MarketEvent], time_range: tuple[int, int], symbols: set[str]) -> bytes:
    t0, t1 = time_range
    filtered = [e for e in events if t0 <= e.event_time_us < t1 and e.symbol in symbols]
    sink = io.BytesIO()
    export_events(filtered, "csv", sink)
    return sink.getvalue()


# -- step execution ----------------------------------------------------------------

class StepRunner:
    """Runs brc subcommands as subprocesses, injecting at most one crash per
    step and restarting after it."""

    def __init__(self, data_root: Path, crash_points: list[str]):
        self.data_root = data_root
        self.pending = list(crash_points)

    def _take_crash(self, step_kind: str) -> str | None:
        for i, point in enumerate(self.pending):
            if point.partition(":")[0] in _SITE_FOR_STEP.get(step_kind, ()):
                return self.pending.pop(i)
        return None

    def run(self, step_kind: str, *argv: str) -> dict:
        crash = self._take_crash(step_kind)
        if crash is not None:
            proc = self._invoke(argv, crash_at=crash)
            if proc.returncode != CRASH_EXIT_CODE:
                raise AssertionFailed(
                    f"step {argv} with {crash!r} exited {proc.returncode}, "
                    f"expected crash ({proc.stderr.strip()})"
                )
        proc = self._invoke(argv)
        if proc.returncode != 0:
            raise AssertionFailed(f"step {argv} failed: {proc.stderr.strip()}")
        out = proc.stdout.strip().splitlines()
        return json.loads(out[-1]) if out else {}

    def _invoke(self, argv: tuple[str, ...], crash_at: str | None = None):
        env = dict(os.environ)
        env["BRC_DATA_ROOT"] = str(self.data_root)
        env.pop(CRASH_ENV, None)
        if crash_at:
            env[CRASH_ENV] = crash_at
        return subprocess.run(
            [sys.executable, "-m", "brclake.cli", *argv],
            capture_output=True, text=True, env=env,
        )


# -- scenario runner ---------------------------------------------------------------------

def run_scenario(scenario: Scenario, data_root: str | Path) -> dict:
    """Execute the pipeline under the scenario and compare against the oracle.

    Returns a report: row counts, final table version, and one entry per
    assertion. Raises AssertionFailed when the data root is not clean or a
    crash point never fired.
    """
    scenario.validate()
    root = Path(data_root)
    if root.exists() and any(root.iterdir()):
        raise AssertionFailed(f"data root {root} is not clean")
    root.mkdir(parents=True, exist_ok=True)

    runner = StepRunner(root, scenario.crash_points)
    runner.run("init", "lake", "init", "--table", scenario.table_id)

    for config in scenario.connectors:
        config_path = root / f"connector-{config.connector_id}.json"
        config_path.write_bytes(record_bytes(config))
        runner.run("ingest", "ingest", "run", "--config", str(config_path))

    exports = {}
    for config in scenario.connectors:
        exports[config.connector_id] = runner.run(
            "export", "etl", "export",
            "--connector", config.connector_id,
            "--table", scenario.table_id,
            "--max-records", str(scenario.export_max_records),
        )

    if scenario.compact_after:
        runner.run("compact", "etl", "compact", "--table", scenario.table_id)

    if runner.pending:
        raise AssertionFailed(f"unused crash points: {runner.pending}")

    events = oracle_events(scenario.connectors)
    symbols = sorted({s for c in scenario.connectors for s in c.symbols.values()})
    if events:
        t0 = events[0].event_time_us
        t1 = max(e.event_time_us for e in events) + 1
    else:
        t0, t1 = 0, 1
    expected_csv = oracle_csv(events, (t0, t1), set(symbols))

    out_path = root / "query.csv"
    runner.run(
        "query", "query", "--table", scenario.table_id,
        "--symbols", ",".join(symbols),
        "--from", us_to_iso(t0), "--to", us_to_iso(t1),
        "--format", "csv", "--out", str(out_path),
    )
    actual_csv = out_path.read_bytes()

    audit = runner.run("audit", "lake", "audit", "--table", scenario.table_id)

    assertions = [
        {"name": "oracle_csv_equality", "passed": actual_csv == expected_csv},
        {"name": "no_dangling_references", "passed": audit["dangling"] == []},
    ]
    if scenario.expected.rows is not None:
        assertions.append({
            "name": "expected_row_count",
            "passed": len(events) == scenario.expected.rows,
        })

    report = {
        "scenario": scenario.name,
        "row_counts": {
            "oracle": len(events),
            "query": actual_csv.count(b"\n") - 1,
            "published": {cid: r.get("rows_published") for cid, r in exports.items()},
        },
        "versions": {scenario.table_id: audit["version"]},
        "crash_points": list(scenario.crash_points),
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brc-harness",
        description="Run an end-to-end pipeline scenario against its oracle.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--data-root", help="clean directory for the run (or env BRC_DATA_ROOT)")
    args = parser.parse_args(argv)

    if not args.data_root:
        args.data_root = os.environ.get("BRC_DATA_ROOT", "")
    if not args.data_root:
        parser.error("--data-root or BRC_DATA_ROOT required")
    try:
        report = run_scenario(load_json_config(args.scenario, Scenario.from_dict), args.data_root)
    except BrcError as exc:
        sys.stderr.write(exc.to_json() + "\n")
        return 1
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
