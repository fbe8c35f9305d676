"""Crash-safe local files shared by the object store, staging and the
scheduler: a lock for the single writer, durable publishes, durable line
appends, and torn-tail repair.

A lock is an exclusive ``flock`` on the lock file, held by the open file
that ``acquire_lock`` returns until it is closed. The kernel drops it when
the holder's process dies, so a dead holder's lock is free to the next
acquirer with no pid probe and nothing to steal; and as every acquirer
locks the same file, which is never unlinked, two cannot both hold it. The
file's body, ``{"pid": N}`` of the latest holder, only names that holder in
SessionLockHeld. The lock is per open file, so two threads of one
process exclude each other too. An append is one buffered write + flush +
fsync, so a crash can tear at most the final line of an append-only file.
Readers see only newline-terminated lines, and the writer truncates a torn
tail before its next append; ``last_line``, the one torn-tail repair, reads
back from the end of the file only, so its cost does not grow with the
file. A whole file is made durable at its name by ``publish``: a temp file
is written and fsynced, then renamed onto the name or linked to it, and no
temp name outlives the call. ``publish`` is the one
place that knows how a name is made durable; it and ``fsync_append`` raise
StorageFull for a full disk or quota. The lock, publish and append helpers
create the directories their files go into, so no caller makes one.

Operators' JSON files (app, connector, DAG and scenario configs) are read by
``load_json_config``, so every way such a file can be wrong is ConfigInvalid.
These configs, the built-in actions' params, log entries, replay and
run-log lines, staging checkpoints, connector state, ``brc`` result lines
and the ``.brcl`` footer of format version 1 are dataclass records, read by
``record_from_json`` and written by ``record_to_json`` from their fields'
names, types and defaults. A stored record's key that names no field is
ignored, so that an older reader reads a newer record; operator input is
read by ``config_from_json``, whose one decode walk refuses such a key at
any depth.
An enum is coded by its member's name. A field annotated ``Any`` holds any
JSON value, which its owner checks. A union of records is an object whose
one key names the member: its class name in snake case (``add_file``).
Where positional construction rules out a dataclass default, a field states
a factory of its JSON default in ``metadata[JSON_DEFAULT]``. A stored
record's bytes are made in one place, ``record_bytes`` (its JSON object with
sorted keys), and read by ``read_json``, which turns every way they can be
wrong, JSON nested too deep included, into its owner's error.
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import fcntl
import functools
import json
import os
import re
import secrets
import types
import typing
from pathlib import Path
from typing import Any, BinaryIO, Callable, Collection, TypeVar

from .errors import ConfigInvalid, SessionLockHeld, StorageFull

T = TypeVar("T")


def acquire_lock(path: Path, what: str) -> BinaryIO:
    """Lock the file at path, creating it and its parent directories if
    needed, and return the open file that holds the lock; closing it
    releases the lock. A lock held by another open file, in this process or
    another, raises SessionLockHeld naming ``what``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    f = os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        try:
            holder = f"pid {json.loads(f.read())['pid']}"
        except (ValueError, KeyError, TypeError, RecursionError):  # e.g. the holder is still writing it
            holder = "another holder"
        f.close()
        raise SessionLockHeld(f"{what} locked by {holder}")
    except BaseException:
        f.close()
        raise
    f.truncate()
    f.write(json.dumps({"pid": os.getpid()}).encode())
    f.flush()
    return f


_FULL = (errno.ENOSPC, errno.EDQUOT)


def publish(path: Path, data: bytes, tmp_dir: Path | None = None, exclusive: bool = False) -> None:
    """Make data durable at path, creating its parent directories and
    tmp_dir: write and fsync a temp file in tmp_dir (default: path's
    directory), then rename it onto path, or with exclusive link it there
    (FileExistsError if the name exists). No temp file outlives the call; a
    full disk raises StorageFull."""
    tmp = (tmp_dir or path.parent) / f"tmp-{secrets.token_hex(8)}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        if exclusive:
            os.link(tmp, path)  # atomic no-replace
        else:
            os.replace(tmp, path)
            tmp = None
    except OSError as exc:
        if exc.errno in _FULL:
            raise StorageFull(str(exc)) from None
        raise
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)


def fsync_append(path: Path, data: bytes) -> None:
    """Append data durably to the file at path, creating it and its parent
    directories: one buffered write, then flush and fsync. A full disk
    raises StorageFull."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
    except OSError as exc:
        if exc.errno in _FULL:
            raise StorageFull(str(exc)) from None
        raise


def read_lines(path: Path) -> list[bytes]:
    """Complete (newline-terminated) lines of an append-only file; a torn
    trailing line from a crash mid-append is left out."""
    return path.read_bytes().split(b"\n")[:-1]


TAIL_CHUNK = 4096  # bytes read per step back from the end of a file


def last_line(path: Path, repair: bool = False) -> bytes | None:
    """The last complete (newline-terminated) line of an append-only file,
    without its newline; None if it has none. Reads back from the end of the
    file one ``TAIL_CHUNK`` at a time, to the newline before that line: one
    chunk unless the torn tail and the line are longer. With repair, a torn
    trailing line is truncated first, so that the next append starts a line
    of its own; only the file's writer repairs."""
    with open(path, "rb") as f:
        size = pos = f.seek(0, os.SEEK_END)
        tail = b""
        end = start = -1  # the newlines that end the last line and the one before it
        while pos and start < 0:
            step = min(TAIL_CHUNK, pos)
            pos -= step
            f.seek(pos)
            tail = f.read(step) + tail
            end = tail.rfind(b"\n") if end < 0 else end + step
            start = tail.rfind(b"\n", 0, max(end, 0))
    complete = pos + end + 1  # bytes up to the last newline, 0 if there is none
    if repair and complete != size:
        with open(path, "r+b") as f:
            f.truncate(complete)
            f.flush()
            os.fsync(f.fileno())
    return None if end < 0 else tail[start + 1:end]


def load_json_config(path: str | Path, build: Callable[[Any], T]) -> T:
    """Parse the JSON file at path and pass it to build. An unreadable file,
    invalid JSON, or a field that is missing or of the wrong type raises
    ConfigInvalid."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in path
        raise ConfigInvalid("config", f"cannot read {path}: {exc}")
    try:
        obj = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise ConfigInvalid("config", f"invalid JSON in {path}: {exc}")
    try:
        return build(obj)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("config", f"ill-typed field in {path}: {exc}")


def read_json(data: bytes, build: Callable[[Any], T], corrupt: Callable[[str], Exception]) -> T:
    """build applied to the JSON value in data, which must be UTF-8. Bytes
    that are not UTF-8 or JSON, JSON nested deeper than the parser's
    recursion limit, and a ConfigInvalid or ValueError from build raise
    corrupt(detail)."""
    try:
        return build(json.loads(data.decode()))
    except ConfigInvalid as exc:
        raise corrupt(f"field {exc.field!r} {exc.reason}") from None
    except ValueError as exc:
        raise corrupt(str(exc)) from None
    except RecursionError:
        raise corrupt("JSON nested too deep") from None


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean",
                    dict: "an object", list: "an array"}


def _has_type(value: Any, kind: type) -> bool:
    """value has the JSON type kind; kind object admits any JSON value."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool) or kind is object)


def _typed_field(obj: dict, name: str, kind: type, prefix: str, items: type | None = None) -> Any:
    """obj[name] if it has the JSON type kind (booleans are not integers).
    With items, every element of an array (value of an object) must have
    that type too. Anything else raises ConfigInvalid naming prefix + name;
    nothing is coerced."""
    value = obj[name]
    if not _has_type(value, kind):
        raise ConfigInvalid(prefix + name, f"must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if items is not None and not all(
            _has_type(v, items) for v in (value.values() if kind is dict else value)):
        raise ConfigInvalid(prefix + name, f"every element must be {_JSON_TYPE_NAMES[items]}")
    return value


def _only_keys(obj: dict, names: Collection[str], prefix: str) -> None:
    """Raise ConfigInvalid naming prefix + the first key of obj that is not
    one of names."""
    for key in obj:
        if key not in names:
            raise ConfigInvalid(prefix + key, "names no field")


# -- record codec --------------------------------------------------------------

JSON_DEFAULT = "json_default"  # field metadata key: a factory of the field's JSON default
_PRIMITIVES = (str, int, bool)


def record_from_json(cls: type[T], obj: Any) -> T:
    """The dataclass cls read from its JSON object obj; keys that name no
    field are ignored, and a field without a default is required. A nested
    record's fields are named with the key that holds it as a prefix (for a
    union, the member's tag); an array's records take the prefix of the
    array's owner. An ``X | None`` field whose default is not None reads
    JSON null as None, as ``record_to_json`` writes it. Anything else raises
    ConfigInvalid naming the field; nothing is coerced."""
    return _record(cls, obj, "", False)


def config_from_json(cls: type[T], obj: Any) -> T:
    """``record_from_json`` for an operator's config: a key that names no
    field, of the record or of a record nested in it (a union object's keys
    must name members), raises ConfigInvalid naming it."""
    return _record(cls, obj, "", True)


def _record(cls: type[T], obj: Any, prefix: str, strict: bool) -> T:
    """The one decode walk; with strict, each record and union object refuses
    a key that names none of its fields or members once its fields are read."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(_tag(cls), "must be an object")
    reads, _, names = _plan(cls)
    args = []
    for name, kind, items, decode, missing, reads_null in reads:
        if name not in obj:
            if missing is None:
                raise ConfigInvalid(prefix + name, "is required")
            args.append(missing())
        elif obj[name] is None and reads_null:
            args.append(None)
        else:
            value = _typed_field(obj, name, kind, prefix, items)
            args.append(value if decode is None else decode(value, prefix, name, strict))
    if strict:
        _only_keys(obj, names, prefix)
    return cls(*args)


def record_to_json(record: Any) -> dict:
    """The JSON object of a dataclass record, the inverse of
    ``record_from_json``; a field holding its default None is left out."""
    obj = {}
    for name, encode, omit_none in _plan(type(record))[1]:
        value = getattr(record, name)
        if value is not None:
            obj[name] = value if encode is None else encode(value)
        elif not omit_none:
            obj[name] = None
    return obj


def record_bytes(record: Any) -> bytes:
    """The stored bytes of a dataclass record, the one place they are made:
    its ``record_to_json`` object as JSON with sorted keys."""
    return json.dumps(record_to_json(record), sort_keys=True).encode()


@functools.cache
def _plan(cls: type) -> tuple[list[tuple], list[tuple], frozenset[str]]:
    """How each field of cls is read, (name, JSON kind, item kind, decode,
    missing, whether null reads as None), and written, (name, encode,
    whether None is left out), and the fields' names; resolved once per
    class. A None is left out where it is the default and written as null
    elsewhere, and null reads back only where an ``X | None`` field writes
    it."""
    hints = typing.get_type_hints(cls)
    reads, writes = [], []
    for f in dataclasses.fields(cls):
        kind, items, decode, encode = _value_codec(hints[f.name])
        missing = f.metadata.get(JSON_DEFAULT, f.default_factory)
        if missing is dataclasses.MISSING:
            missing = None if f.default is dataclasses.MISSING else lambda d=f.default: d
        omit_none = f.default is None
        optional = type(None) in typing.get_args(hints[f.name])
        reads.append((f.name, kind, items, decode, missing, optional and not omit_none))
        writes.append((f.name, encode, omit_none))
    return reads, writes, frozenset(r[0] for r in reads)


def _tag(cls: type) -> str:
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", cls.__name__).lower()


def _value_codec(tp: Any) -> tuple[type, type | None, Callable | None, Callable | None]:
    """(JSON kind, item kind, decode(value, prefix, name, strict),
    encode(value)) of a field annotated tp; a None decode or encode keeps
    the value as it is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _PRIMITIVES:
        return tp, None, None, None
    if tp is Any:  # any JSON value; its owner checks it
        return object, None, None, None
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return str, None, functools.partial(_enum_from_json, tp), lambda v: v.name
    if dataclasses.is_dataclass(tp):
        return dict, None, lambda v, p, n, s: _record(tp, v, p + n + ".", s), record_to_json
    if origin is types.UnionType:
        members = {_tag(cls): cls for cls in args if cls is not type(None)}
        if len(members) == 1:  # X | None: absent and None are the same
            return _value_codec(*members.values())
        return dict, None, functools.partial(_union_from_json, members), _union_to_json
    if tp is dict or origin is dict:
        return dict, args[1] if args and args[1] in _PRIMITIVES else None, lambda v, p, n, s: dict(v), None
    if origin in (list, tuple):
        element = args[0]
        if element in _PRIMITIVES:
            return list, element, lambda v, p, n, s: origin(v), list
        if dataclasses.is_dataclass(element):
            decode, encode = (lambda x, p, n, s: _record(element, x, p, s)), record_to_json
        else:  # a union of records
            _, _, decode, encode = _value_codec(element)
        return (list, dict, lambda v, p, n, s: origin(decode(x, p, n, s) for x in v),
                lambda v: list(map(encode, v)))
    raise TypeError(f"no JSON record codec for {tp!r}")


def _enum_from_json(cls: type[enum.Enum], name: str, prefix: str, field: str, strict: bool) -> enum.Enum:
    try:
        return cls[name]
    except KeyError:
        raise ConfigInvalid(prefix + field, f"must name a member of {cls.__name__}, got {name!r}") from None


def _union_from_json(members: dict[str, type], obj: dict, prefix: str, name: str, strict: bool) -> Any:
    """The member whose tag is the one key of obj that is a member's tag;
    other keys are ignored, as in any record, unless strict."""
    tags = [key for key in obj if key in members]
    if len(tags) != 1:
        raise ConfigInvalid(prefix + name, f"must hold exactly one of {', '.join(members)}")
    tag = tags[0]
    record = _record(members[tag], _typed_field(obj, tag, dict, prefix), prefix + tag + ".", strict)
    if strict:
        _only_keys(obj, members, prefix + name + ".")
    return record


def _union_to_json(record: Any) -> dict:
    return {_tag(type(record)): record_to_json(record)}
