"""Instrumentation that lives outside the program: a counting store and a
span tracer that wraps the public functions of each ``brclake`` module.

``CountingStore`` is on in every run. It sits between the program and its
``FsStore`` and counts operations and bytes, so every run can record the
counts that must repeat exactly for a given seed. It adds one counter update
per store call, which is small against the file I/O each call does.

``Tracer`` is on only in ``--trace 1`` runs. It replaces functions and
methods with wrappers that record one span per call (name, start, end,
parent span, operation id and a small payload). Spans stay in memory and
are folded into per-layer metrics, and written out, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from brclake import crc32c, etl, ingest, lakeformat, lakehouse, objectstore, orchestrator, query, staging

clock = time.perf_counter

LOG_MARK = "/_log/"
DATA_MARK = "/data/"


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under root."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class CountingStore:
    """Object store wrapper that counts calls and bytes.

    These are the counts that must repeat exactly for a seed, and the traced
    run reports them for its traced units too, so each count has one source.
    ``phase`` names the benchmark step in progress and attributes data-file
    traffic to it: a data-file read while it is ``"export"`` is the export's
    cross-batch dedup check, one while it is ``"query"`` is a scan's fetch,
    and a data-file write while it is ``"compact"`` is the compaction rewrite.
    """

    def __init__(self, inner: objectstore.FsStore):
        self.inner = inner
        self.root = inner.root
        self.phase = ""
        self.counts: Counter = Counter()

    def put(self, key, data, if_none_match=False):
        c = self.counts
        c["objectstore.put.ops"] += 1
        c["objectstore.put.bytes"] += len(data)
        if if_none_match and LOG_MARK in key:
            c["lakehouse.commit_attempts"] += 1
        elif DATA_MARK in key:
            c[f"{self.phase}.data_bytes_written"] += len(data)
        return self.inner.put(key, data, if_none_match)

    def get(self, key):
        c = self.counts
        c["objectstore.get.ops"] += 1
        data = self.inner.get(key)
        c["objectstore.get.bytes"] += len(data)
        if LOG_MARK in key:
            c["lakehouse.log_entries_read"] += 1
        elif DATA_MARK in key:
            c[f"{self.phase}.data_get_ops"] += 1
            c[f"{self.phase}.data_bytes_read"] += len(data)
        return data

    def head(self, key):
        self.counts["objectstore.head.ops"] += 1
        return self.inner.head(key)

    def list(self, prefix=""):
        self.counts["objectstore.list.ops"] += 1
        return self.inner.list(prefix)

    def delete(self, key):
        self.counts["objectstore.delete.ops"] += 1
        return self.inner.delete(key)


# -- tracing -------------------------------------------------------------------

_END = object()


class Tracer:
    """Stack-based span recorder. Spans are lists
    ``[name, start, end, parent_index, op_id, payload]``; a parent is always
    recorded before its children."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name, fn, payload=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if payload is not None:
                rec[5] = payload(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def iterate(self, name, iterator):
        """Yield from iterator, one span per step; payload 1 for a row."""
        spans, stack = self.spans, self._stack
        while True:
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                item = next(iterator, _END)
            finally:
                rec[2] = clock()
                stack.pop()
            if item is _END:
                return
            rec[5] = 1
            yield item

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        undo: list[tuple[object, str, object]] = []

        def patch_method(cls, attr, name, payload=None):
            fn = cls.__dict__[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn, payload))

        def patch_function(fn, replacement):
            # Modules bind imported names at import time, so replace every
            # binding of fn in the program's modules. The benchmark calls the
            # program through module attributes, so it sees the wrappers too.
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("brclake"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, fn))
                        setattr(mod, attr, replacement)

        def trace_function(fn, name, payload=None):
            patch_function(fn, self.wrap(name, fn, payload))

        try:
            trace_function(ingest.run_connector, "ingest.run_connector", lambda a, r: r.events_appended)

            for attr in ("open_session", "tail_offset", "committed_offset", "drain_batch",
                         "commit_checkpoint", "save_connector_state", "load_connector_state"):
                patch_method(staging.StagingStore, attr, f"staging.{attr}")
            patch_method(staging.StagingStore, "read_from", "staging.read_from", lambda a, r: len(r))
            patch_method(staging.StagingSession, "append_batch", "staging.append_batch")

            trace_function(etl.export_all, "etl.export_all",
                           lambda a, r: (r.rows_published, r.dropped_duplicates))
            trace_function(etl.export_job, "etl.export_job")
            trace_function(etl.dedup, "etl.dedup")
            trace_function(etl._live_identities, "etl.live_identities")
            trace_function(etl.compact, "etl.compact")
            trace_function(etl.live_partitions, "etl.live_partitions")

            trace_function(lakeformat.write_file, "lakeformat.write_file", lambda a, r: len(r))
            trace_function(lakeformat.read_file, "lakeformat.read_file",
                           lambda a, r: (len(a[0]), r.footer.row_count))
            trace_function(crc32c.crc32c, "crc32c.crc32c", lambda a, r: len(a[0]))

            fs = objectstore.FsStore
            patch_method(fs, "get", "objectstore.get")
            patch_method(fs, "put", "objectstore.put")
            patch_method(fs, "list", "objectstore.list")

            lt = lakehouse.LakeTable
            for attr in ("init", "commit", "read_entry", "current_version", "snapshot_at"):
                patch_method(lt, attr, f"lakehouse.{attr}")
            trace_function(lakehouse.list_files, "lakehouse.list_files",
                           lambda a, r: (len(r), len(a[0].live_files)))

            traced_scan = self.wrap("query.scan", query.scan)
            patch_function(query.scan, lambda *a, **k: self.iterate("query.merge", traced_scan(*a, **k)))
            trace_function(query.ohlcv, "query.ohlcv")
            trace_function(query.export_events, "query.export_events")
            trace_function(query.export_bars, "query.export_bars")

            trace_function(orchestrator.execute_run, "orchestrator.execute_run")
            patch_method(orchestrator.RunLog, "append", "orchestrator.runlog_append")
            patch_method(orchestrator.RunLog, "replay", "orchestrator.runlog_replay")
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, payload in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7), parent, op, payload]) + "\n")


# -- per-layer metrics -----------------------------------------------------------

_EXPORT_SPANS = ("etl.export_all", "etl.export_job", "etl.dedup", "etl.live_identities")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("ingest.events", "count"), ("ingest.self_s", "s"), ("ingest.self_s_per_event", "s/event"),
    ("staging.append_calls", "count"), ("staging.append_s", "s"), ("staging.bytes_appended", "bytes"),
    ("staging.read_s", "s"), ("staging.records_read", "count"), ("staging.checkpoint_s", "s"),
    ("etl.export_s", "s"), ("etl.export_self_s", "s"), ("etl.rows_published", "count"),
    ("etl.duplicates_dropped", "count"), ("etl.dedup_get_ops", "count"), ("etl.dedup_bytes_read", "bytes"),
    ("etl.dedup_bytes_per_row_published", "bytes/row"),
    ("etl.compact_s", "s"), ("etl.compact_bytes_rewritten", "bytes"),
    ("etl.compact_rewrite_per_user_byte", "ratio"),
    ("lakeformat.write_s", "s"), ("lakeformat.bytes_written", "bytes"), ("lakeformat.read_s", "s"),
    ("lakeformat.read_self_s", "s"), ("lakeformat.bytes_read", "bytes"), ("lakeformat.rows_decoded", "count"),
    ("crc32c.calls", "count"), ("crc32c.bytes", "bytes"), ("crc32c.s", "s"), ("crc32c.bytes_per_s", "bytes/s"),
    ("objectstore.get.ops", "count"), ("objectstore.get.bytes", "bytes"), ("objectstore.get.s", "s"),
    ("objectstore.put.ops", "count"), ("objectstore.put.bytes", "bytes"), ("objectstore.put.s", "s"),
    ("objectstore.list.ops", "count"), ("objectstore.list.s", "s"),
    ("lakehouse.commit_calls", "count"), ("lakehouse.commit_attempts", "count"), ("lakehouse.commit_s", "s"),
    ("lakehouse.snapshot_s", "s"), ("lakehouse.log_entries_read", "count"), ("lakehouse.log_length", "count"),
    ("lakehouse.files_live", "count"), ("lakehouse.files_planned", "count"),
    ("lakehouse.files_pruned_share", "ratio"),
    ("query.plan_s", "s"), ("query.fetch_s", "s"), ("query.decode_s", "s"), ("query.merge_s", "s"),
    ("query.render_s", "s"), ("query.ohlcv_s", "s"), ("query.rows_returned", "count"),
    ("query.rows_decoded_per_row_returned", "ratio"), ("query.bytes_fetched_per_row_returned", "bytes/row"),
    ("orchestrator.runs", "count"), ("orchestrator.transitions", "count"), ("orchestrator.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: Counter, gauges: dict) -> dict[str, float]:
    """Fold spans into the per-layer timings and the payloads only spans see
    (events ingested, records read, rows published and decoded, files
    planned, CRC bytes); take operation and byte counts from ``counts``, the
    ``CountingStore`` totals of the traced units. ``gauges`` supplies the
    rest: staging bytes appended, the final log length and live file count,
    and the tracing overhead."""
    n = len(spans)
    child = [0.0] * n
    in_merge = [False] * n  # under a query.merge step: a scan's fetch and decode
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_merge[i] = in_merge[parent]
        in_merge[i] = in_merge[i] or name == "query.merge"

    total: Counter = Counter()   # name -> summed duration
    excl: Counter = Counter()    # name -> summed self time
    calls: Counter = Counter()
    m: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, start, end, parent, _, payload) in enumerate(spans):
        dur = end - start
        self_time = dur - child[i]
        total[name] += dur
        excl[name] += self_time
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_time
        if name == "objectstore.get":
            if parent >= 0 and spans[parent][0] == "objectstore.list":
                total[name] -= dur  # the store's own reads inside list
            elif in_merge[i]:
                m["fetch_s"] += dur
        elif name == "lakeformat.write_file" and payload is not None:
            m["write.bytes"] += payload
        elif name == "lakeformat.read_file" and payload is not None:
            m["read.bytes"] += payload[0]
            m["rows_decoded"] += payload[1]
            if in_merge[i]:
                m["decode_s"] += dur
                m["merge_rows_decoded"] += payload[1]
        elif name == "etl.export_all" and payload is not None:
            m["rows_published"] += payload[0]
            m["duplicates_dropped"] += payload[1]
        elif name == "lakehouse.list_files" and payload is not None:
            m["files_planned"] += payload[0]
            m["files_considered"] += payload[1]
        elif name == "query.merge":
            m["rows_returned"] += payload
        elif name == "ingest.run_connector" and payload is not None:
            m["ingest.events"] += payload
        elif name == "crc32c.crc32c" and payload is not None:
            m["crc.bytes"] += payload
        elif name == "staging.read_from" and payload is not None:
            m["records_read"] += payload

    events = m["ingest.events"]
    rows = m["rows_returned"]
    crc_s = total["crc32c.crc32c"]
    dedup_bytes = counts["export.data_bytes_read"]
    return {
        "ingest.events": events,
        "ingest.self_s": excl["ingest.run_connector"],
        "ingest.self_s_per_event": _ratio(excl["ingest.run_connector"], events),
        "staging.append_calls": calls["staging.append_batch"],
        "staging.append_s": total["staging.append_batch"],
        "staging.bytes_appended": gauges["staging.bytes_appended"],
        "staging.read_s": total["staging.read_from"],
        "staging.records_read": m["records_read"],
        "staging.checkpoint_s": total["staging.commit_checkpoint"],
        "etl.export_s": total["etl.export_all"],
        "etl.export_self_s": sum(excl[k] for k in _EXPORT_SPANS),
        "etl.rows_published": m["rows_published"],
        "etl.duplicates_dropped": m["duplicates_dropped"],
        "etl.dedup_get_ops": counts["export.data_get_ops"],
        "etl.dedup_bytes_read": dedup_bytes,
        "etl.dedup_bytes_per_row_published": _ratio(dedup_bytes, m["rows_published"]),
        "etl.compact_s": total["etl.compact"],
        "etl.compact_bytes_rewritten": counts["compact.data_bytes_written"],
        "etl.compact_rewrite_per_user_byte": _ratio(counts["compact.data_bytes_written"],
                                                    counts["export.data_bytes_written"]),
        "lakeformat.write_s": total["lakeformat.write_file"],
        "lakeformat.bytes_written": m["write.bytes"],
        "lakeformat.read_s": total["lakeformat.read_file"],
        "lakeformat.read_self_s": excl["lakeformat.read_file"],
        "lakeformat.bytes_read": m["read.bytes"],
        "lakeformat.rows_decoded": m["rows_decoded"],
        "crc32c.calls": calls["crc32c.crc32c"],
        "crc32c.bytes": m["crc.bytes"],
        "crc32c.s": crc_s,
        "crc32c.bytes_per_s": _ratio(m["crc.bytes"], crc_s),
        "objectstore.get.ops": counts["objectstore.get.ops"],
        "objectstore.get.bytes": counts["objectstore.get.bytes"],
        "objectstore.get.s": total["objectstore.get"],
        "objectstore.put.ops": counts["objectstore.put.ops"],
        "objectstore.put.bytes": counts["objectstore.put.bytes"],
        "objectstore.put.s": total["objectstore.put"],
        "objectstore.list.ops": counts["objectstore.list.ops"],
        "objectstore.list.s": total["objectstore.list"],
        "lakehouse.commit_calls": calls["lakehouse.commit"],
        "lakehouse.commit_attempts": counts["lakehouse.commit_attempts"],
        "lakehouse.commit_s": total["lakehouse.commit"],
        "lakehouse.snapshot_s": total["lakehouse.snapshot_at"],
        "lakehouse.log_entries_read": counts["lakehouse.log_entries_read"],
        "lakehouse.log_length": gauges["lakehouse.log_length"],
        "lakehouse.files_live": gauges["lakehouse.files_live"],
        "lakehouse.files_planned": m["files_planned"],
        "lakehouse.files_pruned_share": 1.0 - _ratio(m["files_planned"], m["files_considered"])
        if m["files_considered"] else 0.0,
        "query.plan_s": total["query.scan"],
        "query.fetch_s": m["fetch_s"],
        "query.decode_s": m["decode_s"],
        "query.merge_s": excl["query.merge"],
        "query.render_s": excl["query.export_events"] + excl["query.export_bars"],
        "query.ohlcv_s": excl["query.ohlcv"],
        "query.rows_returned": rows,
        "query.rows_decoded_per_row_returned": _ratio(m["merge_rows_decoded"], rows),
        "query.bytes_fetched_per_row_returned": _ratio(counts["query.data_bytes_read"], rows),
        "orchestrator.runs": calls["orchestrator.execute_run"],
        "orchestrator.transitions": calls["orchestrator.runlog_append"],
        "orchestrator.self_s": layer_self["orchestrator"],
        "trace.overhead_s": gauges["trace.overhead_s"],
        "trace.overhead_share": gauges["trace.overhead_share"],
    }
