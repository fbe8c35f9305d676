"""Transformation stage: drain staged records, deduplicate, partition, write
columnar files, and publish them atomically to the lakehouse; plus compaction,
which merges a partition's small files.

Exactly-once effect is the composition of three guarantees, in this order:
at-least-once staging delivery, exact identity dedup (within the batch and
against live files overlapping the batch's time range), and
commit-then-checkpoint. A crash between the table commit and the checkpoint
merely redelivers records that then die in dedup. One exporter at a time
drains a connector: ``export_job`` holds the connector's exporter lock, a
file beside the staging checkpoint, from the drain through the checkpoint,
so two exporters sharing a checkpoint always share the lock too.

An export job reads the table's head once, after the drain, and checks
every partition against that snapshot: a compaction committed meanwhile
keeps the same rows in readable files, and a commit never re-deduplicates
on rebase. It groups the snapshot's live files by partition once, and tests
each row against the identity set of each live file of its partition that
overlaps the batch. Those sets stay in the ``LakeTable`` handle's
``identity_cache`` while their files are live; an export or compaction puts
there the sets of the files it publishes once its commit succeeds, so a
handle fetches a file for dedup only if another handle wrote it or the
cache evicted it. The cache holds at most ``IDENTITY_CACHE_ROWS``
identities, evicting the least recently used files first, so a long-lived
handle's memory stays bounded as the table grows.

From the drain on, an event travels as its encoded table row
(``events.TABLE_COLUMNS``), which the drain decodes staged lines to. Rows
are grouped by (symbol, UTC day) into partitions, ordered by ``ROW_ORDER``
and deduplicated, in the batch and across batches, by ``ROW_IDENTITY``; both
are defined here and nowhere else. Export and compaction write every data file through
``_publish``.

Compaction is size-tiered, as in LSM stores: a file holding more than
``FULL_RATIO`` times the rows of its partition's smaller live files
together is full, and is neither read nor rewritten; the smaller files merge
into one (``_merge_set``). A partition that keeps receiving late rows then
rewrites each row about log3(rows) times, not at every compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from operator import itemgetter

from . import crashpoints
from .errors import ConfigInvalid, InvalidAction
from .events import SYMBOL_RE, TABLE_COLUMNS, event_from_row  # noqa: F401 (event_from_row re-exported)
from .fixedpoint import US_PER_DAY, us_to_date
from .lakeformat import ColumnSchema, write_file
from .lakehouse import AddFile, LakeTable, PartitionKey, RemoveFile, read_data_file
from .localfile import config_from_json, load_json_config
from .staging import StagingStore

SCHEMA_ID = "trades_v1"

TABLE_SCHEMA = [ColumnSchema(name, ptype) for name, ptype in TABLE_COLUMNS]

_COLUMN_INDEX = {name: i for i, (name, _) in enumerate(TABLE_COLUMNS)}

# MarketEvent.sort_key over encoded rows: the one row order of files, scans
# and the oracle. UTF-8 byte order equals code-point order, so bytes columns
# sort as their strings do.
ROW_ORDER = itemgetter(*(_COLUMN_INDEX[name] for name in (
    "event_time_us", "sequence", "event_id", "symbol", "source", "stream")))

# MarketEvent.identity over encoded rows, and the columns dedup reads for it.
IDENTITY_COLUMNS = ["source", "stream", "symbol", "event_id"]
ROW_IDENTITY = itemgetter(*(_COLUMN_INDEX[name] for name in IDENTITY_COLUMNS))

# Identities a table handle's identity_cache keeps, about 340 bytes each
# (tuple, set slot and its four bytes values): some 170 MB. Beyond it, the
# least recently used files are evicted and fetched again when a batch
# overlaps them.
IDENTITY_CACHE_ROWS = 500_000

# Compaction leaves alone a file whose rows exceed FULL_RATIO times those of
# its partition's smaller files together (``_merge_set``). It counts rows,
# not bytes, because a file of a few rows is mostly footer.
FULL_RATIO = 2


def dedup(rows: list[tuple]) -> tuple[list[tuple], int]:
    """First occurrence per dedup identity (``ROW_IDENTITY``) wins; later
    occurrences are dropped. Rows must arrive in staging offset order."""
    seen: set[tuple] = set()
    kept = []
    for row in rows:
        identity = ROW_IDENTITY(row)
        if identity in seen:
            continue
        seen.add(identity)
        kept.append(row)
    return kept, len(rows) - len(kept)


def _live_identities(table: LakeTable, live: dict[PartitionKey, list[AddFile]], partition: PartitionKey,
                     t_min: int, t_max: int) -> list[frozenset]:
    """The encoded identity sets (``ROW_IDENTITY``) of the partition's live
    files (``live``: a snapshot's live files by partition) that overlap
    [t_min, t_max] — the exact cross-batch dedup check is a row's identity
    being in one of them.

    A file's set comes from ``table.identity_cache``, or else the file is
    read through ``read_data_file`` to fill it; ``export_job`` and
    ``compact`` fill it for the files they publish, once their commit
    succeeds, so a lost race leaves no entry. Data keys are unique and never rewritten, so a cached
    entry cannot go stale."""
    sets = []
    for add in live.get(partition, ()):
        if add.max_event_time_us < t_min or add.min_event_time_us > t_max:
            continue
        known = table.identity_cache.pop(add.path, None)
        if known is None:
            known = frozenset(read_data_file(table.store, add, IDENTITY_COLUMNS).rows())
            _remember(table, {add.path: known})
        else:  # now the most recently used entry; the cache's size is unchanged
            table.identity_cache[add.path] = known
        sets.append(known)
    return sets


def _remember(table: LakeTable, sets: dict[str, frozenset]) -> None:
    """Put the identity sets of files not in the handle's cache into it as
    its most recently used entries, then evict the least recently used
    entries (the dict's first) while the cache holds more than
    ``IDENTITY_CACHE_ROWS`` identities; a set larger than that is not kept."""
    cache = table.identity_cache
    cache.update(sets)
    held = sum(map(len, cache.values()))
    while held > IDENTITY_CACHE_ROWS:
        held -= len(cache.pop(next(iter(cache))))


def _publish(store, table: LakeTable, partition: PartitionKey, rows: list[tuple], committer: str) -> AddFile:
    """Encode rows (in ``ROW_ORDER``) as one data file of the partition, put
    it, and return the AddFile that publishes it."""
    data = write_file(rows, TABLE_SCHEMA)
    key = table.data_key(partition, committer)
    store.put(key, data)
    return AddFile(path=key, partition=partition, rows=len(rows), bytes=len(data),
                   min_event_time_us=rows[0][0], max_event_time_us=rows[-1][0])


@dataclass
class ExportResult:
    rows_published: int
    version: int | None
    next_checkpoint: int
    dropped_duplicates: int


def export_job(
    staging: StagingStore,
    store,
    table: LakeTable,
    connector_id: str,
    max_records: int = 1_000_000_000,
) -> ExportResult:
    """One unit of export work: drain -> dedup -> partition -> write -> commit
    -> checkpoint. Idempotent under replay at any crash point. The
    connector's exporter lock is held from the drain through the checkpoint,
    so a second exporter of the connector raises SessionLockHeld instead of
    publishing the same records again."""
    with staging.exporter_lock(connector_id):
        rows, next_checkpoint = staging.drain_batch(connector_id, max_records)
        crashpoints.crashpoint("etl.post_drain")
        if not rows:
            return ExportResult(0, None, next_checkpoint, 0)
        snapshot = table.snapshot_at()
        for path in table.identity_cache.keys() - snapshot.live_files.keys():
            del table.identity_cache[path]
        live: dict[PartitionKey, list[AddFile]] = {}
        for add in snapshot.live_files.values():
            live.setdefault(add.partition, []).append(add)

        rows, dropped = dedup(rows)
        groups: dict[tuple[bytes, int], list[tuple]] = {}
        for row in rows:
            groups.setdefault((row[4], row[0] // US_PER_DAY), []).append(row)  # (symbol, UTC day)

        published = []  # (AddFile, its rows)
        for (symbol, day), group in sorted(groups.items()):
            partition = PartitionKey(symbol.decode(), us_to_date(day * US_PER_DAY))
            group.sort(key=ROW_ORDER)
            survivors = group
            for identities in _live_identities(table, live, partition, group[0][0], group[-1][0]):
                survivors = [row for row in survivors if ROW_IDENTITY(row) not in identities]
            dropped += len(group) - len(survivors)
            if survivors:
                published.append((_publish(store, table, partition, survivors, "etl"), survivors))

        if not published:
            staging.commit_checkpoint(connector_id, next_checkpoint)
            return ExportResult(0, None, next_checkpoint, dropped)
        crashpoints.crashpoint("etl.pre_commit")
        entry = table.commit([add for add, _ in published], committer="etl")
        # only once committed, as a read of each file would return them
        _remember(table, {add.path: frozenset(map(ROW_IDENTITY, survivors)) for add, survivors in published})
        crashpoints.crashpoint("etl.post_commit_pre_checkpoint")
        staging.commit_checkpoint(connector_id, next_checkpoint)
        return ExportResult(sum(add.rows for add, _ in published), entry.version, next_checkpoint, dropped)


def export_all(
    staging: StagingStore,
    store,
    table: LakeTable,
    connector_id: str,
    max_records: int = 100_000,
) -> ExportResult:
    """Run export_job until a drain comes back short of max_records, which
    means the connector's staging backlog is drained."""
    if max_records < 1:
        raise ConfigInvalid("max_records", "must be >= 1")
    total_rows = 0
    dropped = 0
    version = None
    while True:
        result = export_job(staging, store, table, connector_id, max_records)
        total_rows += result.rows_published
        dropped += result.dropped_duplicates
        version = result.version or version
        # every drained record is either published or dropped as a duplicate
        if result.rows_published + result.dropped_duplicates < max_records:
            return ExportResult(total_rows, version, result.next_checkpoint, dropped)


def _merge_set(files: list[AddFile]) -> list[AddFile]:
    """The files of one partition that compaction merges. Sorted by
    ``(rows, path)``, a file is full when its rows exceed ``FULL_RATIO``
    times the rows of all smaller files together; the walk from the largest
    file down drops full files and stops at the first that is not full,
    which is merged with every smaller file. The smallest file is never
    full."""
    files = sorted(files, key=lambda a: (a.rows, a.path))
    smaller = sum(a.rows for a in files)
    while len(files) > 1:
        smaller -= files[-1].rows
        if files[-1].rows <= FULL_RATIO * smaller:
            break
        files.pop()
    return files


def compact(store, table: LakeTable, partition: PartitionKey) -> int | None:
    """Merge a partition's small files (``_merge_set``) into one, leaving
    its full files unread, and return the new version; None, with nothing
    read or written, when the merge set holds fewer than two files.

    A concurrent compaction of the same partition loses the OCC race: its
    RemoveFiles are no longer live on rebase, so the commit raises
    InvalidAction and the loser aborts cleanly, leaving an orphaned file.
    """
    snapshot = table.snapshot_at()
    victims = sorted(_merge_set([a for a in snapshot.live_files.values() if a.partition == partition]),
                     key=lambda a: a.path)
    if len(victims) < 2:
        return None
    rows: list[tuple] = []
    for add in victims:
        rows.extend(read_data_file(store, add).rows())
    rows.sort(key=ROW_ORDER)
    merged = _publish(store, table, partition, rows, "compact")
    crashpoints.crashpoint("etl.mid_compaction")
    try:
        entry = table.commit([merged] + [RemoveFile(a.path) for a in victims], committer="compact")
    except InvalidAction:
        return None  # lost the race to a concurrent compaction
    _remember(table, {merged.path: frozenset(map(ROW_IDENTITY, rows))})  # only once committed
    return entry.version


def live_partitions(table: LakeTable) -> list[PartitionKey]:
    snapshot = table.snapshot_at()
    return sorted({a.partition for a in snapshot.live_files.values()},
                  key=lambda p: (p.symbol, p.date))


def compact_partitions(store, table: LakeTable, spec: str) -> dict[str, int | None]:
    """Compact every live partition (spec ``"all"``) or the one partition
    ``symbol=S/date=D``; map each rendered partition to its new version, or
    None where ``compact`` did nothing. ``brc etl compact`` and the
    ``etl.compact`` action both run through here, and both default the spec
    to ``"all"``."""
    partitions = live_partitions(table) if spec == "all" else [parse_partition(spec)]
    return {p.render(): compact(store, table, p) for p in partitions}


# -- orchestrator action bindings ------------------------------------------------

@dataclass
class IngestParams:
    """``ingest.run``: a connector config file, or an inline connector config."""

    config_path: str | None = None
    connector: dict | None = None  # read by ConnectorConfig.from_dict, whose errors name its fields


@dataclass
class ExportParams:
    """``etl.export``: drain one connector's staging into one table."""

    connector_id: str
    table_id: str
    max_records: int = 100_000


@dataclass
class CompactParams:
    """``etl.compact``: ``partition`` is ``symbol=S/date=D`` or ``all``."""

    table_id: str
    partition: str = "all"


@dataclass
class PruneParams:
    """``staging.prune``: drop one connector's fully exported segments."""

    connector_id: str


def build_action_registry(app) -> dict:
    """Named actions for DAG tasks, bound to an AppContext (see cli module):
    ``ingest.run``, ``etl.export``, ``etl.compact`` and ``staging.prune``,
    whose params are an ``IngestParams``, ``ExportParams``, ``CompactParams``
    and ``PruneParams`` record. A param key that names no field raises
    ConfigInvalid."""
    from .events import ConnectorConfig
    from .ingest import run_connector

    def ingest_run(ctx) -> None:
        params = config_from_json(IngestParams, ctx.params)
        if params.config_path is not None:
            config = load_json_config(params.config_path, ConnectorConfig.from_dict)
        else:
            config = ConnectorConfig.from_dict(params.connector)
        run_connector(config, app.staging)

    def etl_export(ctx) -> None:
        params = config_from_json(ExportParams, ctx.params)
        export_all(app.staging, app.store, app.table(params.table_id),
                   connector_id=params.connector_id, max_records=params.max_records)

    def etl_compact(ctx) -> None:
        params = config_from_json(CompactParams, ctx.params)
        compact_partitions(app.store, app.table(params.table_id), params.partition)

    def staging_prune(ctx) -> None:
        app.staging.prune(config_from_json(PruneParams, ctx.params).connector_id)

    return {"ingest.run": ingest_run, "etl.export": etl_export, "etl.compact": etl_compact,
            "staging.prune": staging_prune}


def parse_partition(spec: str) -> PartitionKey:
    """Parse the rendered form symbol=SYM/date=YYYY-MM-DD; SYM must be a
    normalized symbol and the date a real calendar day."""
    parts = spec.split("/")
    if (len(parts) != 2 or not parts[0].startswith("symbol=") or not parts[1].startswith("date=")
            or not SYMBOL_RE.fullmatch(parts[0][7:]) or not _is_iso_date(parts[1][5:])):
        raise InvalidAction(f"bad partition spec {spec!r}; want symbol=SYM/date=YYYY-MM-DD")
    return PartitionKey(symbol=parts[0][7:], date=parts[1][5:])


def _is_iso_date(text: str) -> bool:
    try:
        return date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False
