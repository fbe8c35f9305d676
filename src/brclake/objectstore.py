"""Uniform object storage: local filesystem backend and an S3-protocol client.

Both backends expose the same five operations (put/get/list/head/delete) with
content-MD5 etags, bytewise-sorted listings, and an atomic put-if-absent that
the transaction log uses as its only concurrency-control primitive.

Keys are '/'-separated segments of [A-Za-z0-9._=-], other than '.' and
'..', at most 900 bytes, so no key names a path outside the store. A
segment is at most 255 bytes, the longest file name common filesystems
hold, so either backend holds every valid key. The
filesystem backend maps keys to paths under ``root/objects`` and puts with
``localfile.publish``, staging in ``root/tmp`` (both made by the first
put); a conditional put becomes a link onto the final path, which the
kernel makes atomic.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import re
import secrets
import ssl
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .errors import (
    BackendUnavailable,
    ConfigInvalid,
    InvalidKey,
    NotFound,
    PreconditionFailed,
)
from .localfile import publish
from .sigv4 import EMPTY_PAYLOAD_SHA256, canonical_query, sign_request_v4, uri_encode_path

_SEGMENT_RE = re.compile(r"[A-Za-z0-9._=-]+")
MAX_KEY_BYTES = 900
MAX_SEGMENT_BYTES = 255

# Seconds an S3 request waits to connect, and for each read of the reply,
# before it fails as BackendUnavailable. Nothing retries it.
REQUEST_TIMEOUT_S = 30.0


def _is_segment(name: str) -> bool:
    return (_SEGMENT_RE.fullmatch(name) is not None and name not in (".", "..")
            and len(name) <= MAX_SEGMENT_BYTES)  # the pattern admits only one-byte characters


def path_segment(field: str, name: str) -> str:
    """name, if it is one key segment, so that it names one directory under
    its parent; otherwise ConfigInvalid naming field. Table, connector and
    DAG ids are held to the rule every segment of a table's keys is."""
    if not _is_segment(name):
        raise ConfigInvalid(field, f"{name!r} must be one path segment of at most {MAX_SEGMENT_BYTES} "
                                   "bytes of [A-Za-z0-9._=-], not '.' or '..'")
    return name


def validate_key(key: str) -> str:
    if not key or key.startswith("/"):
        raise InvalidKey(key, "key must be non-empty with no leading '/'")
    if len(key.encode()) > MAX_KEY_BYTES:
        raise InvalidKey(key, f"key exceeds {MAX_KEY_BYTES} bytes")
    for segment in key.split("/"):
        if not _is_segment(segment):
            raise InvalidKey(key, f"bad segment {segment!r}")
    return key


@dataclass(frozen=True)
class ObjectMeta:
    key: str
    size_bytes: int
    etag: str


class FsStore:
    """Filesystem-backed object store rooted at a local directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"

    def _path(self, key: str) -> Path:
        return self._objects / validate_key(key)

    def put(self, key: str, data: bytes, if_none_match: bool = False) -> ObjectMeta:
        """Store data at key. A key that a filesystem cannot hold beside the
        existing keys (below an object, or onto a directory of keys, both of
        which S3 allows) raises InvalidKey; any other I/O error,
        BackendUnavailable."""
        path = self._path(key)
        try:
            publish(path, data, self._tmp, exclusive=if_none_match)
        except (FileExistsError, IsADirectoryError, NotADirectoryError):
            if if_none_match and path.is_file():
                raise PreconditionFailed(key)
            raise InvalidKey(key, f"key {key!r} collides with a key or key prefix in the store")
        except OSError as exc:
            raise BackendUnavailable(f"fs store {self.root}: {exc}")
        return ObjectMeta(key, len(data), hashlib.md5(data).hexdigest())

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise NotFound(key)
        except OSError as exc:
            raise BackendUnavailable(f"fs store {self.root}: {exc}")

    def head(self, key: str) -> ObjectMeta:
        data = self.get(key)
        return ObjectMeta(key, len(data), hashlib.md5(data).hexdigest())

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            pass  # absent, or only a prefix of other keys: a no-op, as on S3

    def list(self, prefix: str = "") -> list[ObjectMeta]:
        """Objects whose keys start with prefix. Only the deepest directory
        the prefix names is walked."""
        directory = prefix.rpartition("/")[0]
        try:
            start = self._path(directory) if directory else self._objects
        except InvalidKey:
            return []  # no valid key lies under an invalid directory
        metas = []
        for dirpath, _, filenames in os.walk(start):
            rel = os.path.relpath(dirpath, self._objects)
            for name in filenames:
                key = name if rel == "." else f"{rel}/{name}".replace(os.sep, "/")
                if key.startswith(prefix):
                    metas.append(self.head(key))
        metas.sort(key=lambda m: m.key)
        return metas


@dataclass
class S3Config:
    endpoint: str = ""
    region: str = ""
    access_key: str = ""
    secret_key: str = ""
    bucket: str = ""

    def validate(self) -> None:
        scheme = urlsplit(self.endpoint).scheme
        if scheme not in ("http", "https"):
            raise ConfigInvalid("endpoint", f"{self.endpoint!r} must be http(s)")
        for field in ("region", "access_key", "secret_key", "bucket"):
            if not getattr(self, field):
                raise ConfigInvalid(field, "required for the s3 store")


class S3Store:
    """Client for any S3-compatible gateway, path-style addressing, SigV4."""

    def __init__(self, config: S3Config):
        config.validate()
        self.config = config
        split = urlsplit(config.endpoint)
        self._https = split.scheme == "https"
        self._host = split.netloc

    # -- request plumbing ---------------------------------------------------

    def _request(
        self,
        method: str,
        key: str | None,
        query: list[tuple[str, str]] | None = None,
        body: bytes = b"",
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        path = f"/{self.config.bucket}" + (f"/{key}" if key else "")
        query = query or []
        payload_hash = hashlib.sha256(body).hexdigest() if body else EMPTY_PAYLOAD_SHA256
        timestamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        headers = {
            "host": self._host,
            "x-amz-date": timestamp,
            "x-amz-content-sha256": payload_hash,
        }
        if extra_headers:
            headers.update(extra_headers)
        authorization = sign_request_v4(
            method, path, query, headers, payload_hash,
            access_key=self.config.access_key,
            secret_key=self.config.secret_key,
            region=self.config.region,
            timestamp=timestamp,
        )
        send_headers = dict(headers)
        send_headers["Authorization"] = authorization
        if body:
            send_headers["Content-Length"] = str(len(body))
        url = uri_encode_path(path)
        if query:
            url += "?" + canonical_query(query)  # the query string that was signed
        try:
            if self._https:
                conn = http.client.HTTPSConnection(self._host, timeout=REQUEST_TIMEOUT_S,
                                                   context=ssl.create_default_context())
            else:
                conn = http.client.HTTPConnection(self._host, timeout=REQUEST_TIMEOUT_S)
            try:
                conn.request(method, url, body=body or None, headers=send_headers)
                resp = conn.getresponse()
                data = resp.read()
                return resp.status, {k.lower(): v for k, v in resp.getheaders()}, data
            finally:
                conn.close()
        except OSError as exc:  # a timeout too
            raise BackendUnavailable(f"s3 endpoint {self.config.endpoint}: {exc}")

    @staticmethod
    def _unexpected(status: int, body: bytes) -> BackendUnavailable:
        return BackendUnavailable(f"unexpected S3 status {status}: {body[:200]!r}")

    # -- operations ------------------------------------------------------------

    def put(self, key: str, data: bytes, if_none_match: bool = False) -> ObjectMeta:
        validate_key(key)
        extra = {"if-none-match": "*"} if if_none_match else {}
        status, headers, body = self._request("PUT", key, body=data, extra_headers=extra)
        if status == 412:
            raise PreconditionFailed(key)
        if status != 200:
            raise self._unexpected(status, body)
        etag = headers.get("etag", "").strip('"')
        return ObjectMeta(key, len(data), etag or hashlib.md5(data).hexdigest())

    def get(self, key: str) -> bytes:
        validate_key(key)
        status, _, body = self._request("GET", key)
        if status == 404:
            raise NotFound(key)
        if status != 200:
            raise self._unexpected(status, body)
        return body

    def head(self, key: str) -> ObjectMeta:
        validate_key(key)
        status, headers, body = self._request("HEAD", key)
        if status == 404:
            raise NotFound(key)
        if status != 200:
            raise self._unexpected(status, body)
        size = _size(headers.get("content-length", "0"), "HEAD content-length")
        return ObjectMeta(key, size, headers.get("etag", "").strip('"'))

    def delete(self, key: str) -> None:
        validate_key(key)
        status, _, body = self._request("DELETE", key)
        if status not in (200, 204, 404):
            raise self._unexpected(status, body)

    def list(self, prefix: str = "") -> list[ObjectMeta]:
        metas: list[ObjectMeta] = []
        token: str | None = None
        asked: set[str | None] = {None}  # every token asked with; the first page has none
        while True:
            query: list[tuple[str, str]] = [("list-type", "2")]
            if prefix:
                query.append(("prefix", prefix))
            if token:
                query.append(("continuation-token", token))
            status, _, body = self._request("GET", None, query=query)
            if status != 200:
                raise self._unexpected(status, body)
            page, token = _parse_list_response(body, prefix, asked)
            metas.extend(page)
            if token is None:
                break
            asked.add(token)
        metas.sort(key=lambda m: m.key)
        return metas

    def probe_conditional_put(self) -> None:
        """Refuse endpoints that ignore If-None-Match.

        Some S3-compatible gateways accept the header without honoring it,
        which silently breaks commit safety; probe with a throwaway key and
        raise BackendUnavailable if the second conditional put succeeds.
        """
        key = f"_probe/{secrets.token_hex(8)}"
        try:
            self.put(key, b"probe", if_none_match=True)
            try:
                self.put(key, b"probe", if_none_match=True)
            except PreconditionFailed:
                return
            raise BackendUnavailable(
                f"endpoint {self.config.endpoint} ignores If-None-Match; refusing unsafe store"
            )
        finally:
            try:
                self.delete(key)
            except BackendUnavailable:
                pass


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _size(text: str, what: str) -> int:
    """The object size an endpoint sent as text; BackendUnavailable unless
    it is a decimal integer."""
    if not re.fullmatch(r"[0-9]+", text):
        raise BackendUnavailable(f"{what} {text!r} is not an object size")
    return int(text)


def _parse_list_response(body: bytes, prefix: str, asked: set[str | None]) -> tuple[list[ObjectMeta], str | None]:
    """The objects of a list page, and the next page's token if it is
    truncated; asked holds None and every token the listing asked with so
    far. So that a listing neither ends early nor loops, a listed key that
    is no valid key under prefix (a missing one included) and a truncated
    page without a token not yet asked with are BackendUnavailable."""
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise BackendUnavailable(f"unparseable list response: {exc}")
    metas = []
    truncated = False
    token = None
    for child in root:
        tag = _strip_ns(child.tag)
        if tag == "Contents":
            fields = {_strip_ns(g.tag): (g.text or "") for g in child}
            key = fields.get("Key", "")
            try:
                if not validate_key(key).startswith(prefix):
                    raise InvalidKey(key, f"not under prefix {prefix!r}")
            except InvalidKey as exc:
                raise BackendUnavailable(f"list <Key> {key!r}: {exc.detail}") from None
            metas.append(
                ObjectMeta(
                    key=key,
                    size_bytes=_size(fields.get("Size", "0"), "list <Size>"),
                    etag=fields.get("ETag", "").strip('"'),
                )
            )
        elif tag == "IsTruncated":
            truncated = (child.text or "").strip() == "true"
        elif tag == "NextContinuationToken":
            token = child.text or None
    if truncated and token in asked:
        raise BackendUnavailable(f"truncated list response without a new continuation token: {token!r}")
    return metas, (token if truncated else None)
