#!/usr/bin/env python3
"""Print how the per-run cost of hourly increments grows with history.

    python3 scripts/growth_probe.py [--checkout PATH]

Builds ``feeds.late_feed(3, 2000, 200, 150)`` with the ``perfbench/``
modules of the checkout at PATH (default: the checkout holding this
script; imported, never changed) and feeds it to one replay
connector of that checkout's program: first the history, then one increment
per instant. Each instant appends its increment to the feed, runs the
connector, and exports through one warm ``LakeTable`` handle; every tenth
instant then compacts every live partition, as the ``late_increments``
workload does. Loading the history is not timed.

For instants 0-20 and 180-200 it prints the median per-run
ingest, export and ``etl._live_identities`` milliseconds, each with the
ratio of the last window's median to the first's, the median milliseconds
of the window's compaction passes, the dedup GETs (data files fetched
during exports) and the rows that compaction rewrote (the rows of the files
it published) in each window. Then come the dedup GETs, compaction seconds
and rows rewritten over every instant, the store's ``stored_bytes_per_row``
after the last instant (every byte under the store root over the live rows,
as perfbench counts it), and last the peak resident set size in MiB
(``ru_maxrss``). That peak covers the whole process: the program, the
probe, and the generation of the feed. The program runs in this process
against a temporary directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

SEED, HISTORY, INSTANTS, PER_INSTANT = 3, 2000, 200, 150
WINDOW = 20  # instants at each end whose medians are printed


def probe(history: int = HISTORY, instants: int = INSTANTS, per_instant: int = PER_INSTANT
          ) -> tuple[list[tuple[float, float, float, int, float | None, int]], float]:
    """(ingest s, export s, _live_identities s, dedup GETs, compaction pass
    s or None where the instant does not compact, rows rewritten by
    compaction) of each instant of ``feeds.late_feed(SEED, history,
    instants, per_instant)``, and the stored bytes per live row after the
    last instant. The ``perfbench/`` and ``src/`` directories must be on
    ``sys.path``."""
    import feeds
    from spans import CountingStore, clock, tree_bytes
    from workloads import COMPACT_EVERY, TABLE

    from brclake import etl, ingest
    from brclake.lakehouse import LakeTable
    from brclake.objectstore import FsStore
    from brclake.staging import StagingStore

    feed = feeds.late_feed(SEED, history, instants, per_instant)
    work = Path(tempfile.mkdtemp(prefix="growth-probe-"))
    live_identities = etl._live_identities
    live_s = 0.0

    def timed_live_identities(*a):
        nonlocal live_s
        t0 = clock()
        try:
            return live_identities(*a)
        finally:
            live_s += clock() - t0

    def feed_lines(lines: list[str]) -> None:
        with open(feed_path, "a", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))

    def export() -> None:
        store.phase = "export"
        etl.export_all(staging, store, table, "desk")

    def compact_all() -> int:
        """The rows of the files the pass published."""
        store.phase = "compact"
        before = table.snapshot_at().live_files
        for partition in etl.live_partitions(table):
            etl.compact(store, table, partition)
        return sum(add.rows for path, add in table.snapshot_at().live_files.items() if path not in before)

    etl._live_identities = timed_live_identities  # export_job looks it up at each call
    try:
        feed_path = work / "feed.jsonl"
        config = feeds.replay_config("desk", "desk", feed_path)
        store = CountingStore(FsStore(work / "store"))
        staging = StagingStore(work / "staging")
        table = LakeTable(store, TABLE)
        table.init(etl.SCHEMA_ID, etl.TABLE_COLUMNS)
        feed_lines(feed.history)
        ingest.run_connector(config, staging)
        export()
        compact_all()
        runs = []
        for k, increment in enumerate(feed.increments):
            feed_lines(increment)
            t0 = clock()
            ingest.run_connector(config, staging)
            t1 = clock()
            live_s, gets = 0.0, store.counts["export.data_get_ops"]
            export()
            t2 = clock()
            run = (t1 - t0, t2 - t1, live_s, store.counts["export.data_get_ops"] - gets)
            if k % COMPACT_EVERY == COMPACT_EVERY - 1:
                rewritten = compact_all()
                run += (clock() - t2, rewritten)
            else:
                run += (None, 0)
            runs.append(run)
        live_rows = sum(add.rows for add in table.snapshot_at().live_files.values())
        return runs, tree_bytes(work / "store") / live_rows
    finally:
        etl._live_identities = live_identities
        shutil.rmtree(work)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    checkout = parser.parse_args(argv).checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]

    runs, stored_bytes_per_row = probe()
    first, last = runs[:WINDOW], runs[-WINDOW:]
    print(f"seed {SEED}, history {HISTORY}, {PER_INSTANT} lines per instant; "
          f"medians at instants 0-{WINDOW} and {INSTANTS - WINDOW}-{INSTANTS}")
    for i, name in enumerate(("ingest_ms", "export_ms", "live_identities_ms")):
        a = 1000 * statistics.median(r[i] for r in first)
        b = 1000 * statistics.median(r[i] for r in last)
        print(f"{name:<20} {a:9.2f} {b:9.2f}  x{b / a if a else float('nan'):.2f}")
    passes = [[1000 * r[4] for r in window if r[4] is not None] for window in (first, last)]
    print(f"{'compact_pass_ms':<20} " + " ".join(
        f"{statistics.median(p) if p else float('nan'):9.2f}" for p in passes))
    for i, name in ((3, "dedup_gets"), (5, "compact_rows")):
        print(f"{name:<20} {sum(r[i] for r in first):9d} {sum(r[i] for r in last):9d}")
    print(f"dedup_gets_total {sum(r[3] for r in runs)}")
    print(f"compact_s_total {sum(r[4] for r in runs if r[4] is not None):.2f}")
    print(f"compact_rows_total {sum(r[5] for r in runs)}")
    print(f"stored_bytes_per_row {stored_bytes_per_row:.2f}")
    print(f"peak_rss_mib {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")  # ru_maxrss is KiB
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
