#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced input sizes.

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints every end-to-end
metric and a traced run every per-layer metric, that every oracle check
passed, and that the traced run saw work in each layer the workload
exercises. It checks that two runs of one seed record identical
exact-repeat counts, that two seeds give different inputs and the same
metric names, and that the command fails without printing a result when the
program's sources are missing. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORK, WORKLOAD_NAMES  # noqa: E402
from spans import PER_LAYER  # noqa: E402

_WRITE_PATH = [
    "ingest.events", "ingest.self_s", "staging.append_calls", "staging.append_s", "staging.bytes_appended",
    "staging.read_s", "staging.records_read", "staging.checkpoint_s", "etl.export_s", "etl.export_self_s",
    "etl.rows_published", "etl.duplicates_dropped", "etl.dedup_get_ops", "etl.dedup_bytes_read",
    "etl.compact_s", "etl.compact_bytes_rewritten", "lakeformat.write_s", "lakeformat.bytes_written",
    "objectstore.put.ops", "objectstore.put.bytes", "objectstore.put.s",
    "lakehouse.commit_calls", "lakehouse.commit_attempts", "lakehouse.commit_s",
]
_READ_PATH = [
    "lakeformat.read_s", "lakeformat.read_self_s", "lakeformat.bytes_read", "lakeformat.rows_decoded",
    "crc32c.calls", "crc32c.bytes", "crc32c.s", "crc32c.bytes_per_s",
    "objectstore.get.ops", "objectstore.get.bytes", "objectstore.get.s",
    "lakehouse.snapshot_s", "lakehouse.log_entries_read", "lakehouse.log_length", "lakehouse.files_live",
    "lakehouse.files_planned", "query.plan_s", "query.fetch_s", "query.decode_s", "query.merge_s",
    "query.render_s", "query.rows_returned", "query.rows_decoded_per_row_returned",
    "query.bytes_fetched_per_row_returned",
]
# Per-layer metrics that must be above zero in a traced run of each workload.
EXERCISED = {
    "bulk_load": _WRITE_PATH + _READ_PATH,
    "late_increments": _WRITE_PATH + _READ_PATH + [
        "orchestrator.runs", "orchestrator.transitions", "orchestrator.self_s"],
    "research_reads": _READ_PATH + ["lakehouse.files_pruned_share", "query.ohlcv_s"],
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--scale", "smoke")
    check(code == 0, f"{workload} seed {seed} trace {trace} exited {code}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: oracle checks failed: {result}")
    return details, result


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)


def main() -> int:
    for workload in WORKLOAD_NAMES:
        first, result = run(workload, 1, 0)
        metrics = result["metrics"]
        check(list(metrics) == list(END_TO_END), f"{workload}: end-to-end metric names")
        check(all(metrics[k]["unit"] == u and metrics[k]["value"] > 0 for k, u in END_TO_END.items()),
              f"{workload}: end-to-end metrics must be positive with their units: {metrics}")
        again, _ = run(workload, 1, 0)
        check(first["counts"] == again["counts"] and first["counts"],
              f"{workload}: exact-repeat counts differ between two runs of one seed")
        check(first["counts_repeat_within_run"] is not False, f"{workload}: counts differ between units of one run")
        other, other_result = run(workload, 2, 0)
        check(other["inputs"] != first["inputs"], f"{workload}: seeds 1 and 2 gave the same inputs")
        check(list(other_result["metrics"]) == list(metrics), f"{workload}: metric names depend on the seed")

        traced, result = run(workload, 1, 1)
        layer = result["metrics"]
        check(list(layer) == [k for k, _ in PER_LAYER], f"{workload}: per-layer metric names")
        zero = [k for k in EXERCISED[workload] if not layer[k]["value"] > 0]
        check(not zero, f"{workload}: traced run saw no work in {zero}")
        check(traced["counts"] == first["counts"], f"{workload}: traced run's counts differ from untraced")
        print(f"ok {workload}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "bulk_load", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not lines, f"without sources the command exited {code} and printed {lines}")
    print("ok: fails without program sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
