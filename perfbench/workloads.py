"""The three benchmark workloads, run in-process against ``FsStore`` as one
closed-loop client: each operation starts after the previous one returned.

Each workload repeats a unit of work until ``seconds`` have passed and
reports medians over the units, so a faster program completes more units of
the same shape rather than different work:

* ``bulk_load``: one unit is a load job into a fresh table.
* ``late_increments``: one unit is an episode of scheduler instants over a
  fresh table, preceded by loading its history.
* ``research_reads``: one unit is a query against one prebuilt table.

Every output is compared with a brute-force oracle outside the timed spans;
a mismatch counts as a failed operation. A traced run (``trace=True``) runs
a fixed amount of the same work twice, untraced and then traced, and reports
the per-layer metrics of the traced pass and the difference between the two.
"""

from __future__ import annotations

import gc
import importlib
import io
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from brclake import etl, harness, ingest, orchestrator, query
from brclake.lakehouse import LakeTable
from brclake.objectstore import FsStore
from brclake.orchestrator import DagSpec, Interval, SimClock, TaskSpec
from brclake.query import ScanRequest
from brclake.staging import StagingStore

import feeds
from spans import CountingStore, Tracer, clock, layer_metrics, tree_bytes

TABLE = "trades"
COMPACT_EVERY = 10  # late_increments compacts on every tenth instant
SETUP_SAMPLES = 20  # set-up samples spread over a run of bulk_load and late_increments

# Tail percentile of each workload: the highest with at least ten samples
# beyond it at the sample count a 50-second run gets on a 2-vCPU machine
# (about 60 jobs; 4 to 6 episodes of 50 runs; 700 to 1,000 point queries). It is
# fixed, so the metric's definition does not change with the program's
# speed.
BULK_TAIL = 0.8
LATE_TAIL = 0.8
RESEARCH_TAIL = 0.9


@dataclass(frozen=True)
class Scale:
    bulk_events_per_connector: int
    bulk_export_batch: int
    bulk_trace_jobs: int
    late_history: int
    late_instants: int
    late_per_instant: int
    research_days: int
    research_per_day: int
    research_export_batch: int
    research_builds: int
    research_counted_queries: int


SCALES = {
    "full": Scale(
        # The acceptance scenario exports 50,000 events per connector in
        # batches of 30,000; the batch keeps that ratio, so each connector
        # is drained by two export jobs here too.
        bulk_events_per_connector=2_000, bulk_export_batch=1_200, bulk_trace_jobs=3,
        late_history=2_000, late_instants=50, late_per_instant=150,
        research_days=3, research_per_day=6_000, research_export_batch=500,
        research_builds=3, research_counted_queries=40,
    ),
    "smoke": Scale(
        bulk_events_per_connector=300, bulk_export_batch=180, bulk_trace_jobs=1,
        late_history=300, late_instants=20, late_per_instant=60,
        research_days=2, research_per_day=600, research_export_batch=100,
        research_builds=2, research_counted_queries=30,
    ),
}


class UnitFailed(Exception):
    """An operation of the current unit failed; the unit is abandoned."""


class Ops:
    """Attempted and failed operation counts. Operations are connector
    sessions, exports, compactions, scheduler runs, scans and queries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise UnitFailed(str(exc)) from exc

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"oracle mismatch: {what}", file=sys.stderr)


@dataclass
class Outcome:
    """What one run reports besides the final result line."""

    metrics: dict[str, float]
    samples: dict[str, int]
    counts: dict[str, float]
    counts_repeat: bool | None  # None where a run has one counted unit
    inputs: str
    extra: dict = field(default_factory=dict)


def repeat(unit, seconds: float, min_units: int) -> list:
    """Results of unit() run until seconds have passed and at least
    min_units were tried. Failed units count as tried, so a broken program
    cannot keep a run going past its time."""
    deadline = clock() + seconds
    done, tried = [], 0
    while clock() < deadline or tried < min_units:
        tried += 1
        try:
            done.append(unit())
        except UnitFailed:
            continue
    if not done:
        raise RuntimeError(f"all {tried} units failed")
    return done


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of values, interpolating between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def fresh_import_s() -> float:
    """Seconds to import every brclake module afresh, as each `brc` process
    does, with the collector off so the benchmark's own objects do not add
    to it. The modules in use are put back afterwards, so the run keeps
    using one copy of the program."""
    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "brclake" or name.startswith("brclake.")}
    for name in loaded:
        del sys.modules[name]
    gc.disable()
    try:
        t0 = clock()
        importlib.import_module("brclake.cli")
        importlib.import_module("brclake.harness")
        return clock() - t0
    finally:
        gc.enable()
        for name in [n for n in sys.modules if n == "brclake" or n.startswith("brclake.")]:
            del sys.modules[name]
        sys.modules.update(loaded)


class SetupSampler:
    """Set-up time, sampled at points spread over the whole run, so that the
    host's speed at one moment does not decide it. A sample is a fresh
    import of the program plus one build of the workload's starting state
    (``setup`` returns its seconds); ``setup_s`` is the median sample."""

    def __init__(self, setup, seconds: float):
        self.setup = setup
        self.every = seconds / SETUP_SAMPLES
        self.due = 0.0
        self.imports: list[float] = []
        self.samples: list[float] = []

    def poll(self) -> None:
        """Take a sample if one is due."""
        if clock() < self.due:
            return
        import_s = fresh_import_s()
        self.imports.append(import_s)
        self.samples.append(import_s + self.setup())
        self.due = clock() + self.every

    def metrics(self) -> tuple[float, dict]:
        return statistics.median(self.samples), {"import_s": statistics.median(self.imports)}


def _fresh(root: Path):
    store = CountingStore(FsStore(root / "store"))
    stg = StagingStore(root / "staging")
    table = LakeTable(store, TABLE)
    table.init(etl.SCHEMA_ID, etl.TABLE_COLUMNS)
    return store, stg, table


def _compact_all(ops: Ops, store: CountingStore, table: LakeTable) -> None:
    store.phase = "compact"
    for partition in etl.live_partitions(table):
        ops.call(etl.compact, store, table, partition)


def _table_gauges(table: LakeTable, store: CountingStore) -> dict:
    snapshot = table.snapshot_at()
    live_rows = sum(a.rows for a in snapshot.live_files.values())
    return {
        "lakehouse.log_length": snapshot.version,
        "lakehouse.files_live": len(snapshot.live_files),
        "stored_bytes_per_row": tree_bytes(store.root) / live_rows,
    }


def _segment_bytes(stg: StagingStore) -> int:
    return sum(p.stat().st_size for p in stg.root.rglob("seg-*.jsonl"))


def _unit_counts(store: CountingStore, gauges: dict) -> dict:
    """The exact-repeat counts of a finished unit."""
    return {**store.counts, "stored_bytes_per_row": gauges["stored_bytes_per_row"]}


def _traced_metrics(tracer: Tracer, counts: Counter, gauges: dict, staged: int,
                    untraced_s: float, traced_s: float) -> dict:
    return layer_metrics(tracer.spans, counts, {
        **gauges, "staging.bytes_appended": staged,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    })


# -- bulk_load -------------------------------------------------------------------------

class BulkLoad:
    def __init__(self, seed: int, scale: Scale, work: Path):
        self.scale = scale
        self.work = work
        self.configs = feeds.bulk_configs(seed, scale.bulk_events_per_connector)
        events = harness.oracle_events(self.configs)
        self.range = (events[0].event_time_us, max(e.event_time_us for e in events) + 1)
        self.expected = harness.oracle_csv(events, self.range, feeds.ALL_SYMBOLS)
        self.inputs = feeds.digest(c.seed for c in self.configs)
        self.jobs = 0

    def root(self) -> Path:
        root = self.work / f"job{self.jobs}"
        self.jobs += 1
        return root

    def setup(self) -> float:
        """Seconds to create a fresh store, staging area and table."""
        root = self.root()
        t0 = clock()
        _fresh(root)
        setup_s = clock() - t0
        shutil.rmtree(root)
        return setup_s

    def start(self, ops: Ops) -> dict:
        """Load a fresh table and render the full range to CSV."""
        root = self.root()
        store, stg, table = _fresh(root)
        t_start = clock()
        offered = 0
        for config in self.configs:
            offered += ops.call(ingest.run_connector, config, stg).events_appended
        store.phase = "export"
        for config in self.configs:
            ops.call(etl.export_all, stg, store, table, config.connector_id, self.scale.bulk_export_batch)
        _compact_all(ops, store, table)
        t_loaded = clock()
        store.phase = "query"
        sink = io.BytesIO()
        request = ScanRequest(TABLE, self.range, set(feeds.ALL_SYMBOLS))
        ops.call(lambda: query.export_events(query.scan(store, table, request), "csv", sink))
        t_end = clock()
        return {"root": root, "store": store, "staging": stg, "table": table, "csv": sink.getvalue(),
                "latency": t_end - t_start, "load": t_loaded - t_start, "offered": offered}

    def finish(self, ops: Ops, job: dict) -> dict:
        ops.expect(job["csv"] == self.expected, "bulk_load CSV differs from harness oracle")
        job["store_counts"] = Counter(job["store"].counts)  # before the gauges' own reads
        job["gauges"] = _table_gauges(job["table"], job["store"])
        job["counts"] = _unit_counts(job["store"], job["gauges"])
        job["staged"] = _segment_bytes(job["staging"])
        shutil.rmtree(job["root"])
        return job

    def measure(self, ops: Ops, seconds: float) -> Outcome:
        sampler = SetupSampler(self.setup, seconds)

        def job():
            sampler.poll()
            return self.finish(ops, self.start(ops))

        jobs = repeat(job, seconds, 3)
        latencies = [j["latency"] for j in jobs]
        rows = self.expected.count(b"\n") - 1
        setup_s, setup_extra = sampler.metrics()
        return Outcome(
            metrics={
                "setup_s": setup_s,
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_tail_ms": 1000 * quantile(latencies, BULK_TAIL),
                "throughput_per_s": statistics.median(j["offered"] / j["load"] for j in jobs),
                "stored_bytes_per_row": jobs[0]["counts"]["stored_bytes_per_row"],
            },
            samples={"jobs": len(jobs), "setups": len(sampler.samples)},
            counts=jobs[0]["counts"],
            counts_repeat=all(j["counts"] == jobs[0]["counts"] for j in jobs),
            inputs=self.inputs,
            extra={
                **setup_extra,
                "tail_percentile": 100 * BULK_TAIL,
                "events_offered_per_job": jobs[0]["offered"],
                "csv_export_rows_per_s": statistics.median(rows / (j["latency"] - j["load"]) for j in jobs),
            },
        )

    def traced(self, ops: Ops) -> dict:
        tracer = Tracer()
        ops.tracer = tracer
        untraced, traced = [], []
        for _ in range(self.scale.bulk_trace_jobs):  # alternate, so warm-up favours neither
            untraced.append(self.finish(ops, self.start(ops)))
            with tracer.installed():
                job = self.start(ops)
            traced.append(self.finish(ops, job))
        metrics = _traced_metrics(tracer, sum((j["store_counts"] for j in traced), Counter()),
                                  traced[-1]["gauges"], sum(j["staged"] for j in traced),
                                  sum(j["latency"] for j in untraced), sum(j["latency"] for j in traced))
        return metrics, traced[-1]["counts"]


# -- late_increments -----------------------------------------------------------------------

class LateIncrements:
    def __init__(self, seed: int, scale: Scale, work: Path):
        self.scale = scale
        self.work = work
        self.feed = feeds.late_feed(seed, scale.late_history, scale.late_instants, scale.late_per_instant)
        full = work / "late-all.jsonl"
        full.write_text("".join(line + "\n" for block in [self.feed.history, *self.feed.increments]
                                for line in block))
        events = harness.oracle_events([feeds.replay_config("desk", "desk", full)])
        self.range = (events[0].event_time_us, max(e.event_time_us for e in events) + 1)
        self.expected = harness.oracle_csv(events, self.range, feeds.ALL_SYMBOLS)
        self.inputs = feeds.digest(self.feed.history + [line for b in self.feed.increments for line in b])
        self.dag = DagSpec("desk-increments", Interval(self.feed.anchor_us, self.feed.period_us), [
            TaskSpec("ingest", [], "ingest.run"),
            TaskSpec("export", ["ingest"], "etl.export"),
            TaskSpec("compact", ["export"], "etl.compact"),
        ])
        self.episodes = 0

    def setup(self, ops: Ops) -> dict:
        """A fresh table holding the day of history."""
        root = self.work / f"episode{self.episodes}"
        self.episodes += 1
        root.mkdir()
        feed_path = root / "feed.jsonl"
        feed_path.write_text("".join(line + "\n" for line in self.feed.history))
        config = feeds.replay_config("desk", "desk", feed_path)
        t0 = clock()
        store, stg, table = _fresh(root)
        ops.call(ingest.run_connector, config, stg)
        store.phase = "export"
        ops.call(etl.export_all, stg, store, table, "desk")
        _compact_all(ops, store, table)
        return {"root": root, "feed": feed_path, "config": config, "store": store, "staging": stg,
                "table": table, "setup": clock() - t0, "staged_before": _segment_bytes(stg),
                "setup_counts": Counter(store.counts)}

    def run(self, ops: Ops, ep: dict, sampler: SetupSampler | None = None) -> dict:
        """Backfill the DAG over every instant, appending that instant's
        increment to the feed (untimed) just before its run, then render
        the full range to CSV. Set-up samples fall between instants."""
        store, stg, table, config = ep["store"], ep["staging"], ep["table"], ep["config"]
        anchor, period = self.feed.anchor_us, self.feed.period_us

        def ingest_run(ctx):
            ops.call(ingest.run_connector, config, stg)

        def etl_export(ctx):
            store.phase = "export"
            ops.call(etl.export_all, stg, store, table, "desk")

        def etl_compact(ctx):
            if (ctx.logical_time_us - anchor) // period % COMPACT_EVERY == COMPACT_EVERY - 1:
                _compact_all(ops, store, table)

        registry = {"ingest.run": ingest_run, "etl.export": etl_export, "etl.compact": etl_compact}
        increments = iter(self.feed.increments)
        latencies: list[float] = []
        real_execute_run = orchestrator.execute_run

        def timed_execute_run(*args, **kwargs):
            if sampler is not None:
                sampler.poll()
            with open(ep["feed"], "a", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in next(increments)))
            t0 = clock()
            result = ops.call(real_execute_run, *args, **kwargs)
            latencies.append(clock() - t0)
            ops.expect(result.succeeded, f"scheduler run at {args[1]} did not succeed")
            return result

        orchestrator.execute_run = timed_execute_run
        try:
            orchestrator.backfill(self.dag, anchor, anchor + len(self.feed.increments) * period,
                                  registry, SimClock(anchor), ep["root"] / "runs")
        finally:
            orchestrator.execute_run = real_execute_run
        store.phase = "query"
        sink = io.BytesIO()
        request = ScanRequest(TABLE, self.range, set(feeds.ALL_SYMBOLS))
        ops.call(lambda: query.export_events(query.scan(store, table, request), "csv", sink))
        ep.update(latencies=latencies, csv=sink.getvalue())
        return ep

    def finish(self, ops: Ops, ep: dict) -> dict:
        ops.expect(ep["csv"] == self.expected, "late_increments CSV differs from dedup oracle")
        # The traced run does not trace set-up, so its counts start after it.
        ep["run_counts"] = Counter(ep["store"].counts) - ep["setup_counts"]  # before the gauges' reads
        ep["gauges"] = _table_gauges(ep["table"], ep["store"])
        ep["counts"] = _unit_counts(ep["store"], ep["gauges"])
        ep["staged"] = _segment_bytes(ep["staging"]) - ep["staged_before"]
        shutil.rmtree(ep["root"])
        return ep

    def events_fed(self) -> int:
        return sum(len(b) for b in self.feed.increments)

    def throwaway_setup(self, ops: Ops) -> float:
        """Seconds to build an episode's starting state, which is then discarded."""
        ep = self.setup(ops)
        shutil.rmtree(ep["root"])
        return ep["setup"]

    def measure(self, ops: Ops, seconds: float) -> Outcome:
        sampler = SetupSampler(lambda: self.throwaway_setup(ops), seconds)
        episodes = repeat(lambda: self.finish(ops, self.run(ops, self.setup(ops), sampler)), seconds, 1)
        # Every episode has the same shape, so pooling their runs keeps each
        # quantile's meaning whatever the number of episodes.
        runs = [t for ep in episodes for t in ep["latencies"]]
        setup_s, setup_extra = sampler.metrics()
        return Outcome(
            metrics={
                "setup_s": setup_s,
                "op_p50_ms": 1000 * statistics.median(runs),
                "op_tail_ms": 1000 * quantile(runs, LATE_TAIL),
                "throughput_per_s": self.events_fed() * len(episodes) / sum(runs),
                "stored_bytes_per_row": episodes[0]["counts"]["stored_bytes_per_row"],
            },
            samples={"episodes": len(episodes), "runs_per_episode": len(episodes[0]["latencies"]),
                     "setups": len(sampler.samples)},
            counts=episodes[0]["counts"],
            counts_repeat=all(ep["counts"] == episodes[0]["counts"] for ep in episodes),
            inputs=self.inputs,
            extra={**setup_extra, "tail_percentile": 100 * LATE_TAIL, "events_fed_per_episode": self.events_fed(),
                   "late_lines_per_episode": self.feed.late_lines,
                   "redelivered_lines_per_episode": self.feed.redelivered_lines},
        )

    def traced(self, ops: Ops) -> dict:
        tracer = Tracer()
        ops.tracer = tracer
        before = self.finish(ops, self.run(ops, self.setup(ops)))
        ep = self.setup(ops)
        with tracer.installed():
            self.run(ops, ep)
        ep = self.finish(ops, ep)
        after = self.finish(ops, self.run(ops, self.setup(ops)))
        # Untraced episodes on both sides, so warm-up favours neither.
        untraced_s = (sum(before["latencies"]) + sum(after["latencies"])) / 2
        metrics = _traced_metrics(tracer, ep["run_counts"], ep["gauges"], ep["staged"],
                                  untraced_s, sum(ep["latencies"]))
        return metrics, ep["counts"]


# -- research_reads ---------------------------------------------------------------------------

class ResearchReads:
    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work
        lines = feeds.research_lines(seed, scale.research_days, scale.research_per_day)
        feed_path = work / "research.jsonl"
        feed_path.write_text("".join(line + "\n" for line in lines))
        self.config = feeds.replay_config("hist", "hist", feed_path)
        self.index = feeds.EventIndex(harness.oracle_events([self.config]))
        self.inputs = feeds.digest(lines)
        self.builds = 0

    def build(self, ops: Ops) -> dict:
        """Load the feed, export it in small batches so the log is long and
        the pre-compaction version has many small files, then compact."""
        root = self.work / f"table{self.builds}"
        self.builds += 1
        t0 = clock()
        store, stg, table = _fresh(root)
        ops.call(ingest.run_connector, self.config, stg)
        store.phase = "export"
        exported = ops.call(etl.export_all, stg, store, table, "hist", self.scale.research_export_batch)
        _compact_all(ops, store, table)
        setup = clock() - t0
        store.phase = "query"
        return {"root": root, "store": store, "table": table, "setup": setup,
                "pre_compaction": exported.version}

    def answer(self, store: CountingStore, q: feeds.Query, pre_compaction: int) -> bytes:
        """One query as a `brc query` process would run it: a fresh table
        handle, so the log is folded cold."""
        table = LakeTable(store, TABLE)
        request = ScanRequest(TABLE, (q.t0_us, q.t1_us), set(q.symbols),
                              pre_compaction if q.pre_compaction else None)
        events = query.scan(store, table, request)
        sink = io.BytesIO()
        if q.kind == "ohlcv":
            query.export_bars(query.ohlcv(events, feeds.OHLCV_WIDTH_US), "csv", sink)
        else:
            query.export_events(events, "jsonl" if q.kind == "full_day" else "csv", sink)
        return sink.getvalue()

    def expected(self, q: feeds.Query) -> bytes:
        events = self.index.select(q.t0_us, q.t1_us, q.symbols)
        if q.kind == "ohlcv":
            return feeds.oracle_bars(events, feeds.OHLCV_WIDTH_US)
        return feeds.render_events(events, "jsonl" if q.kind == "full_day" else "csv")

    def ask(self, ops: Ops, table: dict, q: feeds.Query) -> tuple[float, bytes]:
        t0 = clock()
        out = ops.call(self.answer, table["store"], q, table["pre_compaction"])
        return clock() - t0, out

    def measure(self, ops: Ops, seconds: float) -> Outcome:
        # A set-up sample is a fresh import plus a build; the builds take a
        # few seconds each, so they run before the measured loop.
        imports, tables = [], []
        for _ in range(self.scale.research_builds):
            imports.append(fresh_import_s())
            tables.append(self.build(ops))
        table = tables[-1]
        for old in tables[:-1]:
            shutil.rmtree(old["root"])
        gauges = _table_gauges(table["table"], table["store"])
        store = table["store"]
        store.counts.clear()
        by_kind: dict[str, list[float]] = {k: [] for k, _ in feeds.QUERY_MIX}
        counts: dict = {}
        mix = feeds.query_mix(self.seed, self.scale.research_days)

        def one_query() -> float:
            q = next(mix)
            latency, out = self.ask(ops, table, q)
            by_kind[q.kind].append(latency)
            ops.expect(out == self.expected(q), f"{q.kind} query differs from oracle: {q}")
            if sum(map(len, by_kind.values())) == self.scale.research_counted_queries:
                counts.update(store.counts, stored_bytes_per_row=gauges["stored_bytes_per_row"])
            return latency

        latencies = repeat(one_query, seconds, self.scale.research_counted_queries)
        # Throughput over whole decks only, so it does not depend on where
        # in a deck the time ran out.
        decks = max(1, len(latencies) // feeds.DECK) * feeds.DECK
        points = by_kind["point"]
        return Outcome(
            metrics={
                "setup_s": statistics.median(i + t["setup"] for i, t in zip(imports, tables)),
                "op_p50_ms": 1000 * statistics.median(points),
                "op_tail_ms": 1000 * quantile(points, RESEARCH_TAIL),
                "throughput_per_s": len(latencies[:decks]) / sum(latencies[:decks]),
                "stored_bytes_per_row": gauges["stored_bytes_per_row"],
            },
            samples={"builds": len(tables), **{f"{k}_queries": len(v) for k, v in by_kind.items()}},
            counts=counts,
            counts_repeat=None,
            inputs=self.inputs,
            extra={"import_s": statistics.median(imports), "tail_percentile": 100 * RESEARCH_TAIL,
                   **{f"{k}_query_p50_ms": 1000 * statistics.median(v) for k, v in by_kind.items() if v},
                   "log_length": gauges["lakehouse.log_length"],
                   "pre_compaction_version": table["pre_compaction"]},
        )

    def traced(self, ops: Ops) -> dict:
        table = self.build(ops)
        store = table["store"]
        mix = feeds.query_mix(self.seed, self.scale.research_days)
        queries = [next(mix) for _ in range(self.scale.research_counted_queries)]
        tracer = Tracer()
        ops.tracer = tracer
        untraced_s = traced_s = 0.0
        counts: Counter = Counter()
        for q in queries:  # alternate, so warm-up favours neither
            latency, out = self.ask(ops, table, q)
            untraced_s += latency
            ops.expect(out == self.expected(q), f"{q.kind} query differs from oracle: {q}")
            store.counts.clear()
            with tracer.installed():
                latency, out = self.ask(ops, table, q)
            counts.update(store.counts)
            traced_s += latency
            ops.expect(out == self.expected(q), f"{q.kind} query differs from oracle: {q}")
        gauges = _table_gauges(table["table"], store)
        metrics = _traced_metrics(tracer, counts, gauges, 0, untraced_s, traced_s)
        return metrics, {**counts, "stored_bytes_per_row": gauges["stored_bytes_per_row"]}


WORKLOADS = {"bulk_load": BulkLoad, "late_increments": LateIncrements, "research_reads": ResearchReads}
