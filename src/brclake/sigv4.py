"""AWS Signature Version 4 request signing for the S3 wire protocol.

Pure functions over the request description; the caller supplies the
x-amz-date header and matching timestamp string, so signatures are
reproducible in tests.
"""

from __future__ import annotations

import hashlib
import hmac
from urllib.parse import quote

ALGORITHM = "AWS4-HMAC-SHA256"
SERVICE = "s3"
EMPTY_PAYLOAD_SHA256 = hashlib.sha256(b"").hexdigest()


def uri_encode_path(path: str) -> str:
    """RFC 3986 percent-encoding with '/' preserved (S3 single-encode rule)."""
    return quote(path, safe="/")


def canonical_query(query: list[tuple[str, str]]) -> str:
    """query's pairs percent-encoded and sorted: the query string a request
    signs and sends."""
    pairs = sorted((quote(str(k), safe=""), quote(str(v), safe="")) for k, v in query)
    return "&".join(f"{k}={v}" for k, v in pairs)


def canonical_headers(headers: dict[str, str]) -> tuple[str, str]:
    """(canonical header block, signed-headers list); all given headers are signed."""
    lowered = sorted((k.lower(), " ".join(str(v).split())) for k, v in headers.items())
    block = "".join(f"{k}:{v}\n" for k, v in lowered)
    signed = ";".join(k for k, _ in lowered)
    return block, signed


def signing_key(secret_key: str, datestamp: str, region: str) -> bytes:
    key = f"AWS4{secret_key}".encode()
    for part in (datestamp, region, SERVICE, "aws4_request"):
        key = hmac.new(key, part.encode(), hashlib.sha256).digest()
    return key


def sign_request_v4(
    method: str,
    path: str,
    query: list[tuple[str, str]],
    headers: dict[str, str],
    payload_hash: str,
    *,
    access_key: str,
    secret_key: str,
    region: str,
    timestamp: str,
) -> str:
    """Authorization header value for one request.

    ``timestamp`` is the x-amz-date value (ISO8601 basic, UTC, e.g.
    "20210304T120000Z") and must match the header being sent. ``headers``
    must include host and x-amz-date; every header given is signed.
    """
    header_block, signed_headers = canonical_headers(headers)
    canonical_request = "\n".join(
        (
            method,
            uri_encode_path(path),
            canonical_query(query),
            header_block,
            signed_headers,
            payload_hash,
        )
    )
    datestamp = timestamp[:8]
    scope = f"{datestamp}/{region}/{SERVICE}/aws4_request"
    string_to_sign = "\n".join(
        (
            ALGORITHM,
            timestamp,
            scope,
            hashlib.sha256(canonical_request.encode()).hexdigest(),
        )
    )
    signature = hmac.new(
        signing_key(secret_key, datestamp, region),
        string_to_sign.encode(),
        hashlib.sha256,
    ).hexdigest()
    return (
        f"{ALGORITHM} Credential={access_key}/{scope}, "
        f"SignedHeaders={signed_headers}, Signature={signature}"
    )
