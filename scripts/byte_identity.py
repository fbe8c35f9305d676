#!/usr/bin/env python3
"""Print a sha256 manifest of every file one benchmark-shaped run leaves behind.

    python3 scripts/byte_identity.py --seed 3 [--checkout PATH] > manifest.txt

Runs, in this process and against the program of the checkout at PATH
(default: the checkout holding this script), one seed-N ``bulk_load`` job
and one ``late_increments`` episode, built by that checkout's ``perfbench/``
modules (imported, never changed), and one simulated-clock DAG run whose
run log holds the optional transition fields (``delay_s``, ``error`` and
``cause``) that the episode's all-green runs never write. The DAG run calls
only ``execute_run``, ``DagSpec``, ``TaskSpec``, ``RetryPolicy``,
``Interval`` and ``SimClock``, so older checkouts run it too.
``uuid.uuid4`` and ``time.time_ns`` are pinned to deterministic sequences,
so two checkouts whose output bytes agree print the same manifest: diff the
manifests of two checkouts to check that a change keeps every staging
segment, ``.brcl`` file, log entry, checkpoint, connector state, run log and
CSV byte-identical.

Each line is ``<sha256>  <path>``, sorted by path, paths relative to the run
directory; the two CSV outputs appear as ``csv/<workload>.csv``. Each
``.brcl`` file is followed by ``<sha256>  rows:<path>``, a digest of its
column names and the rows the checkout's reader decodes from it. Lock files
hold their holder's pid, so they are listed with ``lock`` in place of a
hash. The exit code is 1 if an operation failed, a CSV differs from the
benchmark's oracle, or a task of the DAG run ended otherwise than intended.

A change to the writer's encoding choice may change ``.brcl`` hashes, and
with them the ``_log/`` entries that record each file's ``bytes``; the CSV
lines and every ``rows:`` line may not change.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
import time
import uuid
from pathlib import Path

LOCK_NAMES = ("lock", "export.lock")  # staging, exporter and scheduler locks


def pin_nondeterminism() -> None:
    """Replace uuid.uuid4 and time.time_ns with counters."""
    counter = {"uuid": 0, "ns": 1_600_000_000_000_000_000}

    def uuid4() -> uuid.UUID:
        counter["uuid"] += 1
        return uuid.UUID(int=counter["uuid"])

    def time_ns() -> int:
        counter["ns"] += 1_000_000
        return counter["ns"]

    uuid.uuid4 = uuid4
    time.time_ns = time_ns


def rows_digest(data: bytes) -> str:
    """sha256 of a .brcl file's column names and decoded rows."""
    from brclake.lakeformat import read_file

    parsed = read_file(data)
    return hashlib.sha256(repr((list(parsed.columns), parsed.rows())).encode()).hexdigest()


def manifest(root: Path, csvs: dict[str, bytes]) -> list[str]:
    entries = {(f"csv/{name}.csv", ""): hashlib.sha256(data).hexdigest() for name, data in csvs.items()}
    for path in root.rglob("*"):
        if path.is_file():
            rel = path.relative_to(root).as_posix()
            is_lock = path.name in LOCK_NAMES
            data = path.read_bytes()
            entries[rel, ""] = "lock" if is_lock else hashlib.sha256(data).hexdigest()
            if path.suffix == ".brcl":
                entries[rel, "rows:"] = rows_digest(data)
    return [f"{digest}  {label}{rel}" for (rel, label), digest in sorted(entries.items())]


def scheduler_run(runs_root: Path) -> bool:
    """Run a three-task DAG once under a SimClock: "flaky" fails twice and
    then succeeds (its Retrying lines carry delay_s and error), "broken"
    always fails (error), and "downstream", which depends on it, fails
    without running (cause). True if every task ended as intended."""
    from brclake.orchestrator import DagSpec, Interval, RetryPolicy, SimClock, TaskSpec, execute_run

    failures_left = [2]

    def flaky(ctx) -> None:
        if failures_left[0]:
            failures_left[0] -= 1
            raise RuntimeError(f"flaky failure, {failures_left[0]} left")

    def broken(ctx) -> None:
        raise RuntimeError("always fails")

    dag = DagSpec("byte-identity", Interval(0, 60_000_000), [
        TaskSpec("broken", [], "broken"),
        TaskSpec("downstream", ["broken"], "flaky"),
        TaskSpec("flaky", [], "flaky", retry=RetryPolicy(3, 5, 300)),
    ])
    result = execute_run(dag, 0, {"flaky": flaky, "broken": broken}, SimClock(0), runs_root)
    return result.states == {"broken": "Failed", "downstream": "Failed", "flaky": "Succeeded"}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    pin_nondeterminism()
    import workloads

    work = Path(tempfile.mkdtemp(prefix="byte-identity-"))
    try:
        ops = workloads.Ops()
        scale = workloads.SCALES["full"]
        bulk = workloads.BulkLoad(args.seed, scale, work)
        job = bulk.start(ops)
        late = workloads.LateIncrements(args.seed, scale, work)
        episode = late.run(ops, late.setup(ops))
        dag_ok = scheduler_run(work / "scheduler")
        ok = ops.failed == 0 and job["csv"] == bulk.expected and episode["csv"] == late.expected and dag_ok
        print("\n".join(manifest(work, {"bulk_load": job["csv"], "late_increments": episode["csv"]})))
    finally:
        shutil.rmtree(work)
    if not ok:
        print(f"failed operations: {ops.failed}, a CSV differs from its oracle, or the DAG run "
              "ended otherwise than intended", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
