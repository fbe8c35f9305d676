"""S3 client against an in-process stub endpoint that verifies every SigV4
signature; the FS backend is the reference model for equivalence."""

import random
import socket
import threading

import pytest

from brclake import objectstore
from brclake.errors import BackendUnavailable, NotFound, PreconditionFailed
from brclake.objectstore import FsStore, S3Config, S3Store

from s3stub import S3Stub


def _client(stub: S3Stub) -> S3Store:
    return S3Store(S3Config(
        endpoint=stub.endpoint,
        region=stub.state.region,
        access_key=stub.state.access_key,
        secret_key=stub.state.secret_key,
        bucket=stub.state.bucket,
    ))


def test_put_get_head_delete_cycle():
    with S3Stub() as stub:
        store = _client(stub)
        meta = store.put("a/b.txt", b"hello")
        assert meta.size_bytes == 5
        assert store.get("a/b.txt") == b"hello"
        head = store.head("a/b.txt")
        assert head.size_bytes == 5 and head.etag == meta.etag
        store.delete("a/b.txt")
        store.delete("a/b.txt")  # idempotent
        with pytest.raises(NotFound):
            store.get("a/b.txt")


def test_conditional_put_412():
    with S3Stub() as stub:
        store = _client(stub)
        store.put("k", b"1", if_none_match=True)
        with pytest.raises(PreconditionFailed):
            store.put("k", b"2", if_none_match=True)
        assert store.get("k") == b"1"


def test_list_paginates_with_continuation_token():
    with S3Stub() as stub:
        store = _client(stub)
        keys = [f"logs/{i:03}" for i in range(7)] + ["other/x"]
        for key in keys:
            store.put(key, b"v")
        listed = [m.key for m in store.list("logs/")]
        assert listed == sorted(keys[:7])  # 4 pages of 2 behind the scenes
        assert [m.key for m in store.list("")] == sorted(keys)


def test_keys_with_equals_sign_survive_signing():
    with S3Stub() as stub:
        store = _client(stub)
        key = "tables/t/data/symbol=BTC-USD/date=2021-03-04/part-x-0.brcl"
        store.put(key, b"data", if_none_match=True)
        assert store.get(key) == b"data"
        assert [m.key for m in store.list("tables/t/data/symbol=BTC-USD/")] == [key]


def test_bad_credentials_rejected_by_endpoint():
    with S3Stub() as stub:
        bad = S3Store(S3Config(
            endpoint=stub.endpoint, region=stub.state.region,
            access_key=stub.state.access_key, secret_key="wrong",
            bucket=stub.state.bucket,
        ))
        with pytest.raises(BackendUnavailable):
            bad.put("k", b"x")


def test_endpoint_that_never_answers_fails_fast(monkeypatch):
    """A listener that accepts connections and never replies: the request
    times out as BackendUnavailable instead of waiting for ever."""
    monkeypatch.setattr(objectstore, "REQUEST_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as silent:
        port = silent.getsockname()[1]
        store = S3Store(S3Config(endpoint=f"http://127.0.0.1:{port}", region="r",
                                 access_key="a", secret_key="s", bucket="b"))
        outcome = []

        def get():
            try:
                store.get("k")
            except Exception as exc:  # noqa: BLE001 (the test inspects it)
                outcome.append(exc)

        worker = threading.Thread(target=get, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "the GET is still waiting for a reply"
    assert [type(exc) for exc in outcome] == [BackendUnavailable]


@pytest.mark.parametrize("method, reply", [
    ("list", (200, {}, b"<ListBucketResult><Contents><Key>k</Key><Size>x</Size></Contents>"
                       b"</ListBucketResult>")),
    ("list", (200, {}, b"<ListBucketResult><Contents><Key>k</Key><Size>-1</Size></Contents>"
                       b"</ListBucketResult>")),
    ("head", (200, {"content-length": "12x"}, b"")),
], ids=["list_size_not_a_number", "list_size_negative", "head_content_length"])
def test_malformed_object_size_is_backend_unavailable(monkeypatch, method, reply):
    store = S3Store(S3Config(endpoint="http://127.0.0.1:9", region="r", access_key="a",
                             secret_key="s", bucket="b"))
    monkeypatch.setattr(store, "_request", lambda *a, **k: reply)
    with pytest.raises(BackendUnavailable):
        store.list("") if method == "list" else store.head("k")


def _page(contents: bytes, tail: bytes = b"") -> bytes:
    return b"<ListBucketResult>" + contents + tail + b"</ListBucketResult>"


@pytest.mark.parametrize("body", [
    _page(b"<Contents><Key>logs/a</Key><Size>1</Size></Contents>", b"<IsTruncated>true</IsTruncated>"),
    _page(b"<Contents><Key>logs/a</Key><Size>1</Size></Contents>",
          b"<IsTruncated>true</IsTruncated><NextContinuationToken></NextContinuationToken>"),
    _page(b"<Contents><Size>1</Size></Contents>"),
    _page(b"<Contents><Key>logs/../a</Key><Size>1</Size></Contents>"),
    _page(b"<Contents><Key>other/a</Key><Size>1</Size></Contents>"),
    _page(b"<Contents><Key>logs/a</Key><Size>1</Size></Contents>",
          b"<IsTruncated>true</IsTruncated><NextContinuationToken>t</NextContinuationToken>"),
], ids=["truncated_without_token", "truncated_with_empty_token", "contents_without_key", "invalid_key",
        "key_outside_prefix", "repeated_token"])
def test_malformed_listing_is_backend_unavailable(monkeypatch, body):
    """A listing that would end early, loop, or hold a key that is not one
    under the prefix asked for is refused. A page that only repeats the
    token it was asked with never ends, so the fake gives up after a few
    pages."""
    store = S3Store(S3Config(endpoint="http://127.0.0.1:9", region="r", access_key="a",
                             secret_key="s", bucket="b"))
    pages = []

    def request(*args, **kwargs):
        pages.append(kwargs["query"])
        if len(pages) > 5:
            raise AssertionError("list asked for more pages than the fake holds")
        return 200, {}, body

    monkeypatch.setattr(store, "_request", request)
    with pytest.raises(BackendUnavailable):
        store.list("logs/")


def test_cycling_continuation_tokens_are_backend_unavailable(monkeypatch):
    """A gateway whose tokens cycle (first page -> A -> B -> A) would page
    forever; the token asked for a second time is refused. The fake gives up
    after a few pages, so a client that loops fails instead of hanging."""
    store = S3Store(S3Config(endpoint="http://127.0.0.1:9", region="r", access_key="a",
                             secret_key="s", bucket="b"))
    next_token = {None: "A", "A": "B", "B": "A"}
    asked = []

    def request(*args, **kwargs):
        token = dict(kwargs["query"]).get("continuation-token")
        asked.append(token)
        if len(asked) > 5:
            raise AssertionError("list asked for more pages than the fake holds")
        return 200, {}, _page(b"<Contents><Key>logs/a</Key><Size>1</Size></Contents>",
                              b"<IsTruncated>true</IsTruncated><NextContinuationToken>"
                              + next_token[token].encode() + b"</NextContinuationToken>")

    monkeypatch.setattr(store, "_request", request)
    with pytest.raises(BackendUnavailable):
        store.list("logs/")
    assert asked == [None, "A", "B"]


def test_probe_accepts_honest_endpoint_and_refuses_liar():
    with S3Stub() as stub:
        _client(stub).probe_conditional_put()
    with S3Stub(honor_if_none_match=False) as stub:
        with pytest.raises(BackendUnavailable):
            _client(stub).probe_conditional_put()


def test_backend_equivalence_randomized(tmp_path):
    """The FS backend is the reference model: a randomized op sequence must
    produce identical observable results on both backends."""
    rng = random.Random(20210304)
    keys = [f"d{i}/leaf{j}" for i in range(3) for j in range(3)]
    with S3Stub() as stub:
        s3 = _client(stub)
        fs = FsStore(tmp_path)
        for step in range(120):
            op = rng.choice(["put", "put_if_absent", "get", "head", "delete", "list"])
            key = rng.choice(keys)
            if op == "put":
                payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
                m1, m2 = fs.put(key, payload), s3.put(key, payload)
                assert (m1.size_bytes, m1.etag) == (m2.size_bytes, m2.etag)
            elif op == "put_if_absent":
                payload = bytes([step % 256])
                r1 = r2 = "ok"
                try:
                    fs.put(key, payload, if_none_match=True)
                except PreconditionFailed:
                    r1 = "exists"
                try:
                    s3.put(key, payload, if_none_match=True)
                except PreconditionFailed:
                    r2 = "exists"
                assert r1 == r2
            elif op in ("get", "head"):
                try:
                    v1 = fs.get(key) if op == "get" else (fs.head(key).size_bytes, fs.head(key).etag)
                except NotFound:
                    v1 = "missing"
                try:
                    v2 = s3.get(key) if op == "get" else (s3.head(key).size_bytes, s3.head(key).etag)
                except NotFound:
                    v2 = "missing"
                assert v1 == v2, (op, key)
            elif op == "delete":
                fs.delete(key)
                s3.delete(key)
            else:
                prefix = rng.choice(["", "d0/", "d1/", "zz/"])
                l1 = [(m.key, m.size_bytes, m.etag) for m in fs.list(prefix)]
                l2 = [(m.key, m.size_bytes, m.etag) for m in s3.list(prefix)]
                assert l1 == l2
