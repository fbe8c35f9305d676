#!/usr/bin/env python3
"""Print where the stored bytes of one benchmark-shaped run go, per live row.

    python3 scripts/stored_bytes.py --seed 3 [--checkout PATH]

Runs one seed-N ``bulk_load`` job and one ``late_increments`` episode,
built by the ``perfbench/`` modules of the checkout at PATH (default: the
checkout holding this script; the modules are imported, never changed),
against that checkout's program. For each it walks the store root, whose
bytes over the live rows are the benchmark's ``stored_bytes_per_row``, and
prints the bytes per live row of:

- ``log entries``: the files under the table's ``_log/``;
- ``live data files`` and ``compacted-away data files``: ``.brcl`` files
  that the current snapshot holds, and those it no longer holds (nothing
  deletes them);
- ``other files``: anything else under the store root;
- then, over every data file, live or not: ``footers`` (each file's
  footer, footer length and both magics) and each column's chunks.

The first four add up to ``total``, and the footers and chunks to the data
files. The exit code is 1 if an operation failed, a CSV differs from the
benchmark's oracle, or ``total`` is not the benchmark's gauge.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path


def breakdown(store_root: Path, live_files: dict) -> tuple[Counter, list[str]]:
    """Bytes under store_root by part, and the column names in schema order."""
    from brclake.lakeformat import read_file

    parts: Counter = Counter()
    columns: list[str] = []
    objects = store_root / "objects"
    for path in sorted(store_root.rglob("*")):
        if not path.is_file():
            continue
        size = path.stat().st_size
        key = path.relative_to(objects).as_posix() if path.is_relative_to(objects) else None
        if key is None or not (key.endswith(".brcl") or "/_log/" in key):
            parts["other files"] += size
        elif "/_log/" in key:
            parts["log entries"] += size
        else:
            parts["live data files" if key in live_files else "compacted-away data files"] += size
            footer = read_file(path.read_bytes(), projection=()).footer
            chunk_bytes = 0
            for col, chunk in zip(footer.schema, footer.chunks):
                if col.name not in columns:
                    columns.append(col.name)
                parts[f"chunks: {col.name}"] += chunk.byte_length
                chunk_bytes += chunk.byte_length
            parts["footers"] += size - chunk_bytes
    return parts, columns


def report(name: str, unit: dict, gauge: dict, live_files: dict) -> tuple[list[str], bool]:
    """The lines of one workload's breakdown, and whether its total is the gauge."""
    live_rows = sum(add.rows for add in live_files.values())
    parts, columns = breakdown(unit["store"].root, live_files)
    files = ("log entries", "live data files", "compacted-away data files", "other files")
    total = sum(parts[part] for part in files)
    lines = [f"{name}: {live_rows} live rows, {len(live_files)} live data files"]
    lines += [f"  {part:<28} {parts[part] / live_rows:9.2f}" for part in files]
    lines.append(f"  {'total':<28} {total / live_rows:9.2f}")
    lines.append("  data files by part:")
    lines += [f"    {part:<26} {parts[part] / live_rows:9.2f}"
              for part in ["footers", *(f"chunks: {column}" for column in columns)]]
    return lines, total / live_rows == gauge["stored_bytes_per_row"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    work = Path(tempfile.mkdtemp(prefix="stored-bytes-"))
    try:
        ops = workloads.Ops()
        scale = workloads.SCALES["full"]
        lines, ok = [], True
        bulk = workloads.BulkLoad(args.seed, scale, work)
        late = workloads.LateIncrements(args.seed, scale, work)
        for name, bench, unit in (("bulk_load", bulk, bulk.start(ops)),
                                  ("late_increments", late, late.run(ops, late.setup(ops)))):
            live_files = unit["table"].snapshot_at().live_files
            gauge = workloads._table_gauges(unit["table"], unit["store"])
            unit_lines, agrees = report(f"{name} seed {args.seed}", unit, gauge, live_files)
            lines += unit_lines
            ok = ok and agrees and unit["csv"] == bench.expected
        ok = ok and ops.failed == 0
        print("\n".join(lines))
    finally:
        shutil.rmtree(work)
    if not ok:
        print("failed operations, a CSV that differs from its oracle, or a total that is not "
              "the benchmark's stored_bytes_per_row", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
