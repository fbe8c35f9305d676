#!/usr/bin/env python3
"""brclake benchmark: one stdlib-only command, three seeded workloads.

    python3 perfbench/run.py --workload bulk_load --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run. The line before it records the seed, the machine, the sample counts
and the counts that must repeat exactly for a seed. The exit code is 0 only
when every output matched its oracle. Scratch files go to
``.perfbench_work/`` in the checkout. See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "stored_bytes_per_row": "bytes/row",
}
WORKLOAD_NAMES = ("bulk_load", "late_increments", "research_reads")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is the reduced size the smoke test uses")
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (details, result)."""
    import spans
    import workloads

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "loadavg_start": os.getloadavg(),
    }
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.Ops()
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale], work)
        # The inputs and oracles live as long as the run; keep the program's
        # garbage collections from scanning them.
        gc.freeze()
        if args.trace:
            values, counts = bench.traced(ops)
            units = dict(spans.PER_LAYER)
            details["counts"] = counts
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ops.tracer.dump(spans_path)
            details["spans"] = str(spans_path.relative_to(ROOT))
        else:
            outcome = bench.measure(ops, args.seconds)
            values, units = outcome.metrics, END_TO_END
            details.update(inputs=outcome.inputs, samples=outcome.samples, counts=outcome.counts,
                           counts_repeat_within_run=outcome.counts_repeat, **outcome.extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["failed_ops_share"] = ops.failed / max(ops.attempted, 1)
    result = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "brclake" / "__init__.py").is_file():
        print(f"error: no program sources at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    details, result = run(args)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
