"""Crash-safe local files shared by staging and the scheduler: a lock for
the single writer, durable line appends, and torn-tail repair.

A lock is an exclusive ``flock`` on the lock file, held by the open file
that ``acquire_lock`` returns until it is closed. The kernel drops it when
the holder's process dies, so a dead holder's lock is free to the next
acquirer with no pid probe and nothing to steal; and as every acquirer
locks the same file, which is never unlinked, two cannot both hold it. The
file's body, ``{"pid", "token"}`` of the latest holder, only names that
holder in SessionLockHeld. The lock is per open file, so two threads of one
process exclude each other too. An append is one buffered write + flush +
fsync, so a crash can tear at most the final line of an append-only file.
Readers see only newline-terminated lines, and the writer truncates a torn
tail before its next append.

Operators' JSON files (app, connector, DAG and scenario configs) are read by
``load_json_config`` and their fields by ``typed_field``, so every way such a
file can be wrong is ConfigInvalid.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
from pathlib import Path
from typing import Any, BinaryIO, Callable, TypeVar

from .errors import ConfigInvalid, SessionLockHeld

T = TypeVar("T")


def acquire_lock(path: Path, what: str) -> BinaryIO:
    """Lock the file at path, creating it if needed, and return the open
    file that holds the lock; closing it releases the lock. A lock held by
    another open file, in this process or another, raises SessionLockHeld
    naming ``what``."""
    f = os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        try:
            holder = f"pid {json.loads(f.read())['pid']}"
        except (ValueError, KeyError, TypeError):  # the holder is still writing its body
            holder = "another holder"
        f.close()
        raise SessionLockHeld(f"{what} locked by {holder}")
    except BaseException:
        f.close()
        raise
    f.truncate()
    f.write(json.dumps({"pid": os.getpid(), "token": secrets.token_hex(8)}).encode())
    f.flush()
    return f


def fsync_append(path: Path, data: bytes) -> None:
    """Append data durably: one buffered write, then flush and fsync."""
    with open(path, "ab") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def read_lines(path: Path) -> list[bytes]:
    """Complete (newline-terminated) lines of an append-only file; a torn
    trailing line from a crash mid-append is left out."""
    return path.read_bytes().split(b"\n")[:-1]


def repair_tail(path: Path) -> list[bytes]:
    """Truncate a torn trailing line, so the next append starts a line of its
    own, and return the complete lines. Only the file's writer calls this."""
    lines = read_lines(path)
    size = sum(len(line) + 1 for line in lines)
    if path.stat().st_size != size:
        with open(path, "r+b") as f:
            f.truncate(size)
            f.flush()
            os.fsync(f.fileno())
    return lines


def load_json_config(path: str | Path, build: Callable[[Any], T]) -> T:
    """Parse the JSON file at path and pass it to build. An unreadable file,
    invalid JSON, or a field that is missing or of the wrong type raises
    ConfigInvalid."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigInvalid("config", f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ConfigInvalid("config", f"invalid JSON in {path}: {exc}")
    try:
        return build(obj)
    except KeyError as exc:
        raise ConfigInvalid(str(exc.args[0]), f"missing in {path}")
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigInvalid("config", f"ill-typed field in {path}: {exc}")


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean",
                    dict: "an object", list: "an array"}
_REQUIRED = object()


def _has_type(value: Any, kind: type) -> bool:
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def typed_field(obj: dict, name: str, kind: type, default: Any = _REQUIRED,
                prefix: str = "", items: type | None = None) -> Any:
    """obj[name] if it has the JSON type kind (booleans are not integers),
    default if absent; a field without a default is required. With items,
    every element of an array (value of an object) must have that type too.
    Anything else raises ConfigInvalid naming prefix + name; nothing is
    coerced."""
    if name not in obj:
        if default is _REQUIRED:
            raise ConfigInvalid(prefix + name, "is required")
        return default
    value = obj[name]
    if not _has_type(value, kind):
        raise ConfigInvalid(prefix + name, f"must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if items is not None and not all(
            _has_type(v, items) for v in (value.values() if kind is dict else value)):
        raise ConfigInvalid(prefix + name, f"every element must be {_JSON_TYPE_NAMES[items]}")
    return value
