"""Typed error surface shared by every pipeline stage.

Each error carries a stable machine-readable ``kind`` (the class name) so the
CLI can emit one JSON line per failure and tests can match kinds exactly.
"""

from __future__ import annotations

import json
from typing import Any


class BrcError(Exception):
    """Base class for all operational errors. The keyword fields a subclass
    passes up are stored once, in ``fields``: they make up the JSON line and
    read as attributes (``exc.version``)."""

    def __init__(self, detail: str = "", **fields: Any):
        super().__init__(detail or self.__class__.__name__)
        self.detail = detail
        self.fields = fields

    def __getattr__(self, name: str) -> Any:
        try:
            return self.__dict__["fields"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def kind(self) -> str:
        return self.__class__.__name__

    def to_json(self) -> str:
        payload = {"error": self.kind, "detail": self.detail}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True)


# -- ingest ------------------------------------------------------------------

class MalformedLine(BrcError):
    def __init__(self, line_no: int, detail: str = ""):
        super().__init__(detail or f"unparseable line {line_no}", line_no=line_no)


class MissingField(BrcError):
    def __init__(self, name: str, line_no: int | None = None):
        where = f" at line {line_no}" if line_no is not None else ""
        super().__init__(f"missing field {name!r}{where}", name=name, line_no=line_no)


class UnknownSymbol(BrcError):
    def __init__(self, raw_symbol: str):
        super().__init__(f"no mapping for raw symbol {raw_symbol!r}", raw_symbol=raw_symbol)


class BadDecimal(BrcError):
    def __init__(self, field: str, detail: str = ""):
        super().__init__(detail or f"unparseable or out-of-range decimal in {field!r}", field=field)


class BadSide(BrcError):
    def __init__(self, value: str):
        super().__init__(f"bad side {value!r}", value=value)


class InvalidEvent(BrcError):
    """A normalized event field outside the table's domain (source, stream,
    symbol, event id, event time or sequence)."""

    def __init__(self, field: str, detail: str):
        super().__init__(detail, field=field)


class StagingUnavailable(BrcError):
    pass


# -- staging -----------------------------------------------------------------

class SessionLockHeld(BrcError):
    pass


class StorageFull(BrcError):
    pass


class OffsetOutOfRange(BrcError):
    def __init__(self, offset: int, tail: int):
        super().__init__(f"offset {offset} beyond tail {tail} + 1", offset=offset, tail=tail)


class CorruptStaging(BrcError):
    """A staging file that cannot be read back: a checkpoint or connector
    state that is not the JSON object its reader expects, or a segment
    record line (``line_no``, from 1) that is not a staged record."""

    def __init__(self, path: str, detail: str, line_no: int | None = None):
        where = f" line {line_no}" if line_no is not None else ""
        super().__init__(f"{path}{where}: {detail}", path=path, line_no=line_no)


class CheckpointRegression(BrcError):
    def __init__(self, stored: int, requested: int):
        super().__init__(
            f"checkpoint regression: stored {stored}, requested {requested}",
            stored=stored, requested=requested,
        )


# -- columnar format ---------------------------------------------------------

class IllegalEncoding(BrcError):
    def __init__(self, physical_type: str, encoding: str):
        super().__init__(
            f"encoding {encoding} illegal for {physical_type}",
            physical_type=physical_type, encoding=encoding,
        )


class CorruptChunk(BrcError):
    pass


class SchemaViolation(BrcError):
    def __init__(self, row_index: int, column: str, detail: str = ""):
        super().__init__(
            detail or f"row {row_index} violates schema at column {column!r}",
            row_index=row_index, column=column,
        )


class BadMagic(BrcError):
    pass


class ChecksumMismatch(BrcError):
    def __init__(self, column: str):
        super().__init__(f"crc32c mismatch in column {column!r}", column=column)


class FooterCorrupt(BrcError):
    pass


# -- object store ------------------------------------------------------------

class InvalidKey(BrcError):
    def __init__(self, key: str, detail: str = ""):
        super().__init__(detail or f"invalid object key {key!r}", key=key)


class PreconditionFailed(BrcError):
    def __init__(self, key: str):
        super().__init__(f"object already exists: {key}", key=key)


class NotFound(BrcError):
    def __init__(self, key: str):
        super().__init__(f"no such object: {key}", key=key)


class BackendUnavailable(BrcError):
    pass


# -- lakehouse ---------------------------------------------------------------

class AlreadyInitialized(BrcError):
    pass


class NotInitialized(BrcError):
    pass


class CommitConflictExhausted(BrcError):
    pass


class InvalidAction(BrcError):
    pass


class CorruptLog(BrcError):
    """A committed log entry that cannot fold onto the entries before it."""

    def __init__(self, version: int, detail: str, path: str | None = None):
        super().__init__(f"log version {version}: {detail}", version=version, path=path)


class NoSuchVersion(BrcError):
    def __init__(self, version: int, current: int):
        super().__init__(f"no version {version} (current {current})", version=version, current=current)


class DataFileMismatch(BrcError):
    """A data file whose bytes are not the file its AddFile describes."""

    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}", path=path)


# -- orchestrator ------------------------------------------------------------

class CycleDetected(BrcError):
    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle), cycle=cycle)


class ActionNotRegistered(BrcError):
    def __init__(self, task_id: str, action: str):
        super().__init__(f"task {task_id!r}: no action {action!r} registered", task_id=task_id, action=action)


class RunLogUnavailable(BrcError):
    """A run log append that failed for another reason than a full disk,
    which is StorageFull."""


class CorruptRunLog(BrcError):
    """A run log line that is no legal transition; line_no 0 is the whole
    file, which could not be read."""

    def __init__(self, line_no: int, detail: str = ""):
        super().__init__(detail or f"corrupt run log at line {line_no}", line_no=line_no)


# -- query / cli / harness ---------------------------------------------------

class NonTradeEvent(BrcError):
    pass


class SinkError(BrcError):
    pass


class ConfigInvalid(BrcError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"config field {field!r}: {reason}", field=field, reason=reason)


class AssertionFailed(BrcError):
    pass
