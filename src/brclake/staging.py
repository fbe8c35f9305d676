"""Durable append-only staging buffer between connectors and ETL.

On-disk layout, one directory per connector under the staging root:

    {connector_id}/seg-{start_offset:020}.jsonl   record lines, dense offsets
    {connector_id}/checkpoint.json                exporter's committed offset
    {connector_id}/connector_state.json           connector resume state
    {connector_id}/lock                           single-writer session lock
    {connector_id}/export.lock                    single-exporter lock

A connector id must be one object-key segment (``objectstore.path_segment``),
so that it names one directory under the root.

Record lines are JSON objects: MarketEvent fields plus "offset", keys sorted,
written from one template (``_staged_line``) whose output equals
``json.dumps({**vars(event), "offset": offset}, sort_keys=True)`` for every
event that passes ``MarketEvent.validate``. Offsets are dense per connector,
starting at 0; a segment holds at most ``SEGMENT_RECORDS`` records and is
immutable once full. The writer session owns the appends: it keeps the
newest segment's start offset and record count, and starts the next segment
at their sum. That count, and so the tail offset, comes from the offset of
the newest segment's last complete line, read from one chunk at the end of
the file, so opening a session does not read the segment. A segment's share
of a batch is a single buffered write + fsync, so a crash between operations
never tears a batch; a torn trailing line, from a crash inside a write or
from a failed write (which ends its session), is truncated the next time a
writer session opens the connector. The session lock, the durable append and the torn-tail
repair are the ``localfile`` helpers the scheduler's run logs use too.

A drain lists a connector's segments once and reads each segment it needs
once, finding the tail from what it read: it is an export's one read of the
active segment, which it reads whole. A checkpoint commit checks the
checkpoint against the tail, so it reads one chunk at the end of the
newest segment.

A drain decodes each record line straight to the event's encoded table row
(``events.TABLE_COLUMNS`` order, text as UTF-8), without building a
MarketEvent. It checks each segment's lines before it reads the next
segment, a column at a time: a line must hold exactly the staged keys, its
text fields JSON strings and its numeric fields JSON integers within int64
(``true`` is not an integer), its event and ingest times must be in (0,
``US_YEAR_10000``), so that etl can date it and query can print it, and
its offset must be its position, the segment's start offset plus the
line's index.

The checkpoint and the connector state are records (``Checkpoint`` and the
connector's own), written by the record codec and made durable by
``localfile.publish``. A checkpoint, connector state or record line that
cannot be read back, a negative checkpoint, a record line that fails those
checks, a newest segment whose last line's offset lies outside it, or a
``seg-*.jsonl`` name that is not ``seg-`` plus 20 digits plus ``.jsonl``, is
CorruptStaging naming its file (and line); a file that cannot be read at
all (a directory in its place, an I/O error), or a checkpoint, connector
state or pruned segment that cannot be written or removed, is
StagingUnavailable naming it. A full disk stays StorageFull.
"""

from __future__ import annotations

import json
import os
import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, TypeVar

from .errors import (
    CheckpointRegression,
    CorruptStaging,
    OffsetOutOfRange,
    StagingUnavailable,
)
from .events import TABLE_COLUMNS, TEXT_FIELDS, MarketEvent
from .fixedpoint import I64_MAX, I64_MIN, US_YEAR_10000
from .localfile import (acquire_lock, fsync_append, last_line, publish, read_json, read_lines,
                        record_bytes, record_from_json)
from .objectstore import path_segment

T = TypeVar("T")

SEGMENT_RECORDS = 10_000  # records per segment
_SEGMENT_NAME = re.compile(r"seg-[0-9]{20}\.jsonl")  # the name _segment_path gives


@dataclass
class Checkpoint:
    """The exporter's committed offset: every record below it is published."""

    committed_offset: int

    def __post_init__(self):
        """An offset is never negative: one that is raises ValueError, which
        makes the checkpoint file that holds it CorruptStaging."""
        if self.committed_offset < 0:
            raise ValueError(f"committed_offset {self.committed_offset} is negative")


def _staged_line(event: MarketEvent, offset: int) -> str:
    """The record line of event at offset, keys in sorted order."""
    e = event
    return (f'{{"event_id": {_json_str(e.event_id)}, "event_time_us": {e.event_time_us}, '
            f'"ingest_time_us": {e.ingest_time_us}, "offset": {offset}, "price_e8": {e.price_e8}, '
            f'"qty_e8": {e.qty_e8}, "sequence": {e.sequence}, "side": {_json_str(e.side)}, '
            f'"source": {_json_str(e.source)}, "stream": {_json_str(e.stream)}, '
            f'"symbol": {_json_str(e.symbol)}}}\n')


_DECODER = json.JSONDecoder()
# A record line's values: its row's cells in TABLE_COLUMNS order, then its offset.
_LINE_VALUES = itemgetter(*(name for name, _ in TABLE_COLUMNS), "offset")
_LINE_KEYS = len(TABLE_COLUMNS) + 1
_TEXT_CELLS = {i for i, (name, _) in enumerate(TABLE_COLUMNS) if name in TEXT_FIELDS}
_FIELD_NAMES = [name for name, _ in TABLE_COLUMNS] + ["offset"]
_TIME_CELLS = [_FIELD_NAMES.index("event_time_us"), _FIELD_NAMES.index("ingest_time_us")]


def _cells(column: tuple, cell: int) -> list | tuple | None:
    """A column of line values as row cells: text encoded to UTF-8, numbers
    as they are. None when a value fails its type check: text must be str
    (and encodable), numbers int (not bool) within int64."""
    types = set(map(type, column))
    if cell in _TEXT_CELLS:
        try:
            return list(map(str.encode, column)) if types == {str} else None
        except UnicodeEncodeError:  # a lone surrogate, which a JSON escape can carry
            return None
    if types != {int} or min(column) < I64_MIN or max(column) > I64_MAX:
        return None
    return column


def _segment_records(path: Path, lines: list[bytes], lo: int, first: int) -> list[tuple]:
    """The encoded table rows of lines, which a segment holds from its line
    index lo on and whose offsets must run from first; a line that is not a
    staged record raises CorruptStaging naming path and its line."""
    values = []  # _LINE_VALUES of each line
    for i, line in enumerate(lines):
        try:
            text = line.decode()
            obj, stop = _DECODER.raw_decode(text)
            if stop != len(text):
                raise ValueError(f"extra data at column {stop + 1}")
            if len(obj) != _LINE_KEYS:
                raise ValueError(f"{len(obj)} keys, want {sorted(_FIELD_NAMES)}")
            values.append(_LINE_VALUES(obj))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorruptStaging(str(path), f"not a staged record: {exc!r}", lo + i + 1)
    columns = [_cells(column, cell) for cell, column in enumerate(zip(*values))]
    if None in columns:
        i, cell = min((next(i for i, v in enumerate(column) if _cells((v,), cell) is None), cell)
                      for cell, column in enumerate(zip(*values)) if columns[cell] is None)
        raise CorruptStaging(str(path), f"{_FIELD_NAMES[cell]} {values[i][cell]!r} has the wrong type", lo + i + 1)
    bad_times = [(next(i for i, t in enumerate(columns[cell]) if not 0 < t < US_YEAR_10000), cell)
                 for cell in _TIME_CELLS if min(columns[cell]) <= 0 or max(columns[cell]) >= US_YEAR_10000]
    if bad_times:
        i, cell = min(bad_times)
        raise CorruptStaging(str(path), f"{_FIELD_NAMES[cell]} {columns[cell][i]} not in (0, US_YEAR_10000)",
                             lo + i + 1)
    offsets = columns.pop()
    if offsets != tuple(range(first, first + len(offsets))):
        i = next(i for i, o in enumerate(offsets) if o != first + i)
        raise CorruptStaging(str(path), f"offset {offsets[i]} is not its position {first + i}", lo + i + 1)
    return list(zip(*columns))


def _read(read: Callable[[Path], T], path: Path) -> T:
    """read(path); an OSError, such as a directory where the file should
    be, raises StagingUnavailable naming path."""
    try:
        return read(path)
    except OSError as exc:
        raise StagingUnavailable(f"cannot read {path}: {exc}") from None


def _write(write: Callable[[Path], None], path: Path) -> None:
    """write(path); an OSError raises StagingUnavailable naming path."""
    try:
        write(path)
    except OSError as exc:
        raise StagingUnavailable(f"cannot write {path}: {exc}") from None


def _read_record(path: Path, cls: type[T]) -> T | None:
    """The record of class cls in the file at path, None if there is no
    file; one that cannot be read back raises CorruptStaging."""
    if not path.exists():
        return None
    data = _read(Path.read_bytes, path)
    return read_json(data, partial(record_from_json, cls), partial(CorruptStaging, str(path)))


class StagingStore:
    """Segmented JSONL staging under a local root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StagingUnavailable(f"cannot create staging root {self.root}: {exc}")

    # -- layout helpers --------------------------------------------------

    def _dir(self, connector_id: str) -> Path:
        return self.root / path_segment("connector_id", connector_id)

    def _segment_path(self, connector_id: str, start_offset: int) -> Path:
        return self._dir(connector_id) / f"seg-{start_offset:020}.jsonl"

    def _segments(self, connector_id: str) -> list[tuple[int, Path]]:
        d = self._dir(connector_id)
        if not d.is_dir():
            return []
        segs = []
        for name in sorted(os.listdir(d)):
            if name.startswith("seg-") and name.endswith(".jsonl"):
                if not _SEGMENT_NAME.fullmatch(name):
                    raise CorruptStaging(str(d / name), "not a segment name: want seg-<20 digits>.jsonl")
                segs.append((int(name[4:-6]), d / name))
        return segs

    def _newest_segment(self, connector_id: str, repair: bool = False) -> tuple[int, int]:
        """(start offset, record count) of the connector's newest segment,
        (0, 0) for a fresh connector. The count comes from the offset of the
        segment's last complete line, read from the end of the file (see
        ``localfile.last_line``, which with repair also truncates a torn
        tail); a last line that is not a staged record, or whose offset lies
        outside the segment, raises CorruptStaging."""
        segs = self._segments(connector_id)
        if not segs:
            return 0, 0
        start, path = segs[-1]
        line = _read(partial(last_line, repair=repair), path)
        if line is None:
            return start, 0
        try:
            offset = _DECODER.decode(line.decode())["offset"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorruptStaging(str(path), f"last line is not a staged record: {exc!r}")
        if type(offset) is not int or not start <= offset < start + SEGMENT_RECORDS:
            raise CorruptStaging(str(path), f"last line's offset {offset!r} lies outside the segment")
        _segment_records(path, [line], offset - start, offset)  # the rest of the record's checks
        return start, offset - start + 1

    def tail_offset(self, connector_id: str) -> int:
        """Offset one past the last appended record (0 for a fresh connector)."""
        return sum(self._newest_segment(connector_id))

    # -- writer session ----------------------------------------------------

    def open_session(self, connector_id: str) -> "StagingSession":
        """Acquire the single-writer lock for a connector.

        The lock dies with its holder's process; a lock held by a live
        session raises SessionLockHeld.
        """
        lock = acquire_lock(self._dir(connector_id) / "lock", f"connector {connector_id!r}")
        try:
            newest = self._newest_segment(connector_id, repair=True)
        except BaseException:
            lock.close()
            raise
        return StagingSession(self, connector_id, lock, newest)

    # -- readers -------------------------------------------------------------

    def read_from(self, connector_id: str, offset: int, max_records: int) -> list[tuple]:
        """The encoded table rows of up to max_records records from offset
        on, in offset order. Lists the connector's segments once and reads
        each segment it needs once; an offset past the tail raises
        OffsetOutOfRange, and a line that is not a staged record raises
        CorruptStaging."""
        segs = self._segments(connector_id)
        idx = max(0, bisect_right([start for start, _ in segs], offset) - 1)
        rows: list[tuple] = []
        end = 0  # one past the last record of the segments read
        for start, path in segs[idx:]:
            lines = _read(read_lines, path)
            end = start + len(lines)
            lo = max(0, offset - start)
            taken = lines[lo:lo + max_records - len(rows)]
            if taken:
                rows += _segment_records(path, taken, lo, start + lo)
            if len(rows) >= max_records:
                break
        # Segments are dense, so only the newest segment can end before
        # offset, and then end is the tail.
        if offset > end:
            raise OffsetOutOfRange(offset, end - 1)
        return rows

    # -- export checkpoint ----------------------------------------------------

    def _checkpoint_path(self, connector_id: str) -> Path:
        return self._dir(connector_id) / "checkpoint.json"

    def committed_offset(self, connector_id: str) -> int:
        checkpoint = _read_record(self._checkpoint_path(connector_id), Checkpoint)
        return checkpoint.committed_offset if checkpoint else 0

    def drain_batch(self, connector_id: str, max_records: int) -> tuple[list[tuple], int]:
        """The rows of the records from the committed offset onward, plus the
        checkpoint to commit after downstream success. Does not advance the
        stored checkpoint."""
        committed = self.committed_offset(connector_id)
        rows = self.read_from(connector_id, committed, max_records)
        return rows, committed + len(rows)

    def commit_checkpoint(self, connector_id: str, next_checkpoint: int) -> None:
        stored = self.committed_offset(connector_id)
        if next_checkpoint < stored:
            raise CheckpointRegression(stored, next_checkpoint)
        tail = self.tail_offset(connector_id)
        if next_checkpoint > tail:
            raise OffsetOutOfRange(next_checkpoint, tail - 1)
        _write(partial(publish, data=record_bytes(Checkpoint(next_checkpoint))), self._checkpoint_path(connector_id))

    # -- connector resume state ------------------------------------------------

    def save_connector_state(self, connector_id: str, state: Any) -> None:
        """Save the connector's resume state, a record."""
        _write(partial(publish, data=record_bytes(state)), self._dir(connector_id) / "connector_state.json")

    def load_connector_state(self, connector_id: str, cls: type[T]) -> T | None:
        """The saved state, a record of class cls, or None before the first save."""
        return _read_record(self._dir(connector_id) / "connector_state.json", cls)

    # -- exporter lock -------------------------------------------------------------

    @contextmanager
    def exporter_lock(self, connector_id: str) -> Iterator[None]:
        """Hold the connector's exporter lock for the body, so that one
        exporter at a time drains the connector and commits its checkpoint.
        A second exporter raises SessionLockHeld; the lock dies with its
        holder's process, and the body's exceptions release it."""
        with acquire_lock(self._dir(connector_id) / "export.lock", f"exporter of connector {connector_id!r}"):
            yield

    # -- maintenance -------------------------------------------------------------

    def prune(self, connector_id: str) -> int:
        """Remove sealed segments fully below the committed checkpoint.

        The newest segment is always kept so the tail offset stays derivable.
        Offsets are dense and only a full segment is sealed, so a sealed
        segment ends where the next one starts, and no segment is read.
        Returns the number of segments removed.
        """
        committed = self.committed_offset(connector_id)
        segs = self._segments(connector_id)
        removed = 0
        for (_, path), (end, _) in zip(segs, segs[1:]):
            if end <= committed:
                _write(os.unlink, path)
                removed += 1
        return removed


class StagingSession:
    """Holder of a connector's single-writer lock; releases on close/exit."""

    def __init__(self, store: StagingStore, connector_id: str, lock: BinaryIO, newest: tuple[int, int]):
        self.store = store
        self.connector_id = connector_id
        self._lock = lock
        self._start, self._count = newest  # the newest segment's start offset and record count

    def append_batch(self, events: list[MarketEvent]) -> tuple[int, int]:
        """Append events with consecutive offsets; returns (first, last),
        which for no events is (tail, tail - 1)."""
        if self._lock.closed:
            raise StagingUnavailable(f"session of connector {self.connector_id!r} is closed")
        first = self._start + self._count
        while events:
            if self._count >= SEGMENT_RECORDS:
                self._start, self._count = self._start + self._count, 0
            room = SEGMENT_RECORDS - self._count
            chunk, events = events[:room], events[room:]
            offset = self._start + self._count
            blob = "".join(map(_staged_line, chunk, range(offset, offset + len(chunk)))).encode()
            # A failed write may leave part of blob in the segment, so it
            # ends the session: the next session's tail repair truncates a
            # torn line before anything is appended after it.
            try:
                fsync_append(self.store._segment_path(self.connector_id, self._start), blob)
            except OSError as exc:
                self.close()
                raise StagingUnavailable(str(exc))
            except BaseException:
                self.close()
                raise
            self._count += len(chunk)
        return first, self._start + self._count - 1

    def close(self) -> None:
        self._lock.close()

    def __enter__(self) -> "StagingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
