"""Versioned table layer: an append-only log of file-level actions on the
object store, folded into snapshots, committed with optimistic concurrency.

Log entries live at ``tables/{table_id}/_log/{version:020}.json`` and are
written with put-if-absent, so the object store's conditional put is the only
concurrency primitive. Data files are always written before the entry that
references them: a crash can leave orphaned data files but never a dangling
log reference. A table id is one key segment (``objectstore.path_segment``),
so no table's keys lie inside another's. A data file lies under its table's
``data/`` prefix, in its partition's directory
``data/symbol={symbol}/date={date}/``, where every writer puts it, or
directly in ``data/``. Every reader of a live data file goes through
``read_data_file``, which checks the file's size and footer against the
AddFile that publishes it before any chunk of it is decoded.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlreadyInitialized,
    CommitConflictExhausted,
    ConfigInvalid,
    CorruptLog,
    DataFileMismatch,
    InvalidAction,
    NoSuchVersion,
    NotFound,
    NotInitialized,
    PreconditionFailed,
)
from .fixedpoint import us_to_date
from .lakeformat import STATS_TRUNCATE_BYTES, ColumnSchema, ParsedFile, read_file, read_footer
from .localfile import read_json, record_bytes, record_from_json
from .objectstore import path_segment

DEFAULT_COMMITTER = "brc"


@dataclass(frozen=True)
class PartitionKey:
    symbol: str
    date: str  # YYYY-MM-DD, UTC

    def render(self) -> str:
        return f"symbol={self.symbol}/date={self.date}"


@dataclass(frozen=True)
class AddFile:
    path: str
    partition: PartitionKey
    rows: int
    bytes: int
    min_event_time_us: int
    max_event_time_us: int


@dataclass(frozen=True)
class RemoveFile:
    path: str


@dataclass(frozen=True)
class SetSchema:
    schema_id: str
    columns: tuple[ColumnSchema, ...]


Action = AddFile | RemoveFile | SetSchema


@dataclass
class LogEntry:
    version: int
    parent: int
    committed_at_us: int
    actions: list[Action]
    committer: str


def data_prefix(table_id: str) -> str:
    """The key prefix of the table's data files."""
    return f"tables/{table_id}/data/"


@dataclass
class Snapshot:
    table_id: str
    version: int
    live_files: dict[str, AddFile] = field(default_factory=dict)
    schema_id: str = ""

    def check(self, entry: LogEntry) -> None:
        """The one rule for log entries, which folds and commits share: the
        entry is the next version; each add_file has a path not yet live
        that names a file in the table's data directory or in its
        partition's directory under it, rows >= 1, bytes >= 0, min <= max
        event time, both within its partition's UTC day; each remove_file
        names a live path; no path appears twice; set_schema only at init
        (version 1). A breach raises CorruptLog naming the version (and
        path)."""
        if entry.version != self.version + 1:
            raise CorruptLog(entry.version, f"does not follow version {self.version}")
        touched: set[str] = set()
        for action in entry.actions:
            if isinstance(action, SetSchema):
                if entry.version != 1:
                    raise CorruptLog(entry.version, "set_schema is only valid at table init")
                continue
            if action.path in touched:
                raise CorruptLog(entry.version, f"touches path {action.path} twice", action.path)
            touched.add(action.path)
            if isinstance(action, RemoveFile):
                if action.path not in self.live_files:
                    raise CorruptLog(entry.version, f"removes non-live path {action.path}", action.path)
            elif action.path in self.live_files:
                raise CorruptLog(entry.version, f"adds live path {action.path}", action.path)
            elif not self._in_data_dir(action):
                raise CorruptLog(entry.version, f"add_file {action.path}: not a file of "
                                 f"{data_prefix(self.table_id)} or of its partition's directory", action.path)
            elif action.rows < 1:
                raise CorruptLog(entry.version, f"add_file {action.path}: rows must be >= 1", action.path)
            elif action.bytes < 0:
                raise CorruptLog(entry.version, f"add_file {action.path}: bytes must be >= 0", action.path)
            elif action.min_event_time_us > action.max_event_time_us:
                raise CorruptLog(entry.version, f"add_file {action.path}: min > max event time",
                                 action.path)
            elif not _within_day(action):
                raise CorruptLog(entry.version, f"add_file {action.path}: event times outside "
                                 f"partition date {action.partition.date}", action.path)

    def apply(self, entry: LogEntry) -> None:
        """Fold entry onto the snapshot; it is checked first, so an entry
        that breaks the rule changes nothing."""
        self.check(entry)
        for action in entry.actions:
            if isinstance(action, AddFile):
                self.live_files[action.path] = action
            elif isinstance(action, RemoveFile):
                del self.live_files[action.path]
            else:
                self.schema_id = action.schema_id
        self.version = entry.version

    def _in_data_dir(self, add: AddFile) -> bool:
        """add's path names a file directly in the table's data directory
        or in its partition's directory there."""
        prefix = data_prefix(self.table_id)
        directory, _, name = add.path[len(prefix):].rpartition("/")
        return add.path.startswith(prefix) and directory in ("", add.partition.render()) and name != ""


def _within_day(add: AddFile) -> bool:
    """Both event times of add fall in its partition's UTC day."""
    try:
        return us_to_date(add.min_event_time_us) == add.partition.date == us_to_date(add.max_event_time_us)
    except OverflowError:  # a day outside the years 1-9999 is no partition's
        return False


class LakeTable:
    """One versioned table on an object store."""

    def __init__(self, store, table_id: str):
        self.store = store
        self.table_id = path_segment("table_id", table_id)  # one directory under tables/
        self._cache = Snapshot(self.table_id, 0)  # fold of entries 1.._cache.version
        # data-file path -> its encoded dedup identities, least recently
        # used first; see etl._live_identities and etl._remember
        self.identity_cache: dict[str, frozenset] = {}

    # -- layout --------------------------------------------------------------

    @property
    def log_prefix(self) -> str:
        return f"tables/{self.table_id}/_log/"

    def _entry_key(self, version: int) -> str:
        return f"{self.log_prefix}{version:020}.json"

    def data_key(self, partition: PartitionKey, committer: str) -> str:
        return f"{data_prefix(self.table_id)}{partition.render()}/part-{committer}-{uuid.uuid4().hex}.brcl"

    # -- log access --------------------------------------------------------------

    def read_entry(self, version: int) -> LogEntry:
        try:
            data = self.store.get(self._entry_key(version))
        except NotFound:
            raise NoSuchVersion(version, self._cache.version)
        return read_json(data, partial(record_from_json, LogEntry), partial(CorruptLog, version))

    def _entries_after(self, version: int) -> Iterator[LogEntry]:
        """Committed entries newer than version, probed upward until the
        first missing one: one GET per entry and no listing."""
        while True:
            try:
                entry = self.read_entry(version + 1)
            except NoSuchVersion:
                return
            yield entry
            version += 1

    def read_log(self) -> list[LogEntry]:
        entries = list(self._entries_after(0))
        if not entries:
            raise NotInitialized(f"table {self.table_id!r} has no log")
        return entries

    def current_version(self) -> int:
        """Advance the cache past every committed entry and return the current
        version. Reads only entries newer than the cache, so repeated calls
        (the commit retry loop) cost O(new entries), not O(log)."""
        for entry in self._entries_after(self._cache.version):
            self._cache.apply(entry)
        if self._cache.version == 0:
            raise NotInitialized(f"table {self.table_id!r} has no log")
        return self._cache.version

    # -- operations ---------------------------------------------------------------

    def init(self, schema_id: str, columns: Iterable[tuple[str, str]]) -> LogEntry:
        entry = LogEntry(
            version=1,
            parent=0,
            committed_at_us=time.time_ns() // 1000,
            actions=[SetSchema(schema_id, tuple(ColumnSchema(*pair) for pair in columns))],
            committer=DEFAULT_COMMITTER,
        )
        try:
            self.store.put(self._entry_key(1), record_bytes(entry), if_none_match=True)
        except PreconditionFailed:
            raise AlreadyInitialized(f"table {self.table_id!r} already has a log")
        return entry

    def commit(
        self,
        actions: list[Action],
        committer: str = DEFAULT_COMMITTER,
        max_retries: int = 10,
    ) -> LogEntry:
        """Check the entry against the current snapshot with the fold's rule
        (``Snapshot.check``; a breach is InvalidAction) and append it as the
        next version.

        On a conditional-put collision the commit re-reads, re-checks
        against the new snapshot (rebase), and retries; disjoint concurrent
        adds always merge, while removing an already-removed file fails.
        """
        if not actions:
            raise InvalidAction("commit requires at least one action")
        for _ in range(max_retries):
            version = self.current_version()
            entry = LogEntry(
                version=version + 1,
                parent=version,
                committed_at_us=time.time_ns() // 1000,
                actions=list(actions),
                committer=committer,
            )
            try:
                self._cache.check(entry)
            except CorruptLog as exc:
                raise InvalidAction(exc.detail) from None
            try:
                self.store.put(self._entry_key(entry.version), record_bytes(entry), if_none_match=True)
                return entry
            except PreconditionFailed:
                continue
        raise CommitConflictExhausted(
            f"gave up after {max_retries} commit collisions on {self.table_id!r}"
        )

    def snapshot_at(self, version: int | None = None) -> Snapshot:
        current = self.current_version()
        if version is None:
            version = current
        if version < 1 or version > current:
            raise NoSuchVersion(version, current)
        if version == current:  # current_version left the cache at the head
            return Snapshot(self.table_id, current, dict(self._cache.live_files), self._cache.schema_id)
        fresh = Snapshot(self.table_id, 0)  # time travel below the cache: refold
        for v in range(1, version + 1):
            fresh.apply(self.read_entry(v))
        return fresh

    def audit(self) -> dict:
        """Referential integrity report: dangling references and
        ``mismatched`` live files (whose bytes ``read_data_file`` finds
        disagree with their AddFile, from one GET and the footer) are
        failures, orphaned data files are informational."""
        snapshot = self.snapshot_at()
        stored = {m.key for m in self.store.list(data_prefix(self.table_id))}
        live = set(snapshot.live_files)
        mismatched = []
        for path in sorted(live & stored):
            try:
                read_data_file(self.store, snapshot.live_files[path], ())
            except DataFileMismatch:
                mismatched.append(path)
        return {
            "version": snapshot.version,
            "live_files": len(live),
            "dangling": sorted(live - stored),
            "mismatched": mismatched,
            "orphans": sorted(stored - live),
        }


def read_data_file(store, add: AddFile, projection: Sequence[str] | None = None) -> ParsedFile:
    """The live data file ``add`` publishes, fetched and read (its projected
    columns), once its size and footer agree with ``add``: its row count,
    the min and max of ``event_time_us``, and the partition's symbol
    (truncated as the writer truncates stats) as both stats of ``symbol``.
    Other bytes under the key, such as another valid data file, raise
    DataFileMismatch naming the path before any chunk of them is checked
    or decoded."""
    data = store.get(add.path)
    if len(data) != add.bytes:
        raise DataFileMismatch(add.path, f"{len(data)} bytes where its AddFile says {add.bytes}")
    footer = read_footer(lambda offset, length: data[offset:offset + length], len(data))
    stats = {col.name: (chunk.min, chunk.max) for col, chunk in zip(footer.schema, footer.chunks)}
    symbol = add.partition.symbol.encode()[:STATS_TRUNCATE_BYTES]
    found = (footer.row_count, stats.get("event_time_us"), stats.get("symbol"))
    wanted = (add.rows, (add.min_event_time_us, add.max_event_time_us), (symbol, symbol))
    if found != wanted:
        raise DataFileMismatch(add.path, f"footer holds (rows, event time range, symbol range) {found} "
                                         f"where its AddFile says {wanted}")
    return read_file(data, projection)  # reads the footer again; perfbench times decode in read_file


def list_files(
    snapshot: Snapshot,
    time_range: tuple[int, int],
    symbols: Iterable[str],
) -> list[AddFile]:
    """Live files that can hold events for the symbols within [t0, t1).

    A file qualifies when its partition symbol matches, its partition date
    falls inside the range's UTC date span, and its event-time interval
    overlaps the half-open range. Sorted by (partition, path).
    """
    t0, t1 = time_range
    if t0 >= t1:
        raise ConfigInvalid("time_range", "must be non-empty")
    wanted = set(symbols)
    first_date = us_to_date(t0)
    last_date = us_to_date(t1 - 1)
    out = [
        f
        for f in snapshot.live_files.values()
        if f.partition.symbol in wanted
        and first_date <= f.partition.date <= last_date
        and f.max_event_time_us >= t0
        and f.min_event_time_us < t1
    ]
    out.sort(key=lambda f: (f.partition.symbol, f.partition.date, f.path))
    return out
