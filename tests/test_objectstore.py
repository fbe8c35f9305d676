import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake.errors import InvalidKey, NotFound, PreconditionFailed
from brclake.objectstore import FsStore, validate_key


def test_put_then_head_size(tmp_path):
    store = FsStore(tmp_path)
    store.put("a/b", bytes([1, 2, 3]))
    assert store.head("a/b").size_bytes == 3


def test_get_round_trip_and_missing(tmp_path):
    store = FsStore(tmp_path)
    store.put("k", b"payload")
    assert store.get("k") == b"payload"
    with pytest.raises(NotFound):
        store.get("missing")
    with pytest.raises(NotFound):
        store.get("k/under-an-object")
    store.put("empty", b"")
    assert store.get("empty") == b""


def test_conditional_put_second_fails(tmp_path):
    store = FsStore(tmp_path)
    store.put("once", b"first", if_none_match=True)
    with pytest.raises(PreconditionFailed):
        store.put("once", b"second", if_none_match=True)
    assert store.get("once") == b"first"


def test_unconditional_put_overwrites(tmp_path):
    store = FsStore(tmp_path)
    store.put("k", b"v1")
    store.put("k", b"v2")
    assert store.get("k") == b"v2"


def test_list_prefix_sorted(tmp_path):
    store = FsStore(tmp_path)
    for key in ("b/1", "a/2", "a/1"):
        store.put(key, b"")
    assert [m.key for m in store.list("a/")] == ["a/1", "a/2"]
    assert [m.key for m in store.list("")] == ["a/1", "a/2", "b/1"]
    assert store.list("zz/") == []


def test_delete_idempotent_and_head_after(tmp_path):
    store = FsStore(tmp_path)
    store.put("k", b"x")
    store.delete("k")
    store.delete("k")
    with pytest.raises(NotFound):
        store.head("k")


def test_etag_is_content_md5(tmp_path):
    import hashlib
    store = FsStore(tmp_path)
    meta = store.put("k", b"hello")
    assert meta.etag == hashlib.md5(b"hello").hexdigest()
    assert store.head("k").etag == meta.etag


def test_key_validation():
    validate_key("a/b.c/d=e/f-g_h")
    validate_key("a" * 255 + "/" + "b" * 255)
    for bad in ("", "/lead", "a//b", "a/../b" + "!", "sp ace", "a" * 901, "a\n/b", "a/b\n", "a" * 256,
                "b/" + "a" * 256):
        with pytest.raises(InvalidKey):
            validate_key(bad)


@pytest.mark.parametrize("key", ["a/../b", "..", "./a", "../../outside.txt"])
def test_dot_segments_cannot_escape_the_store(tmp_path, key):
    store = FsStore(tmp_path / "store")
    (tmp_path / "outside.txt").write_bytes(b"secret")
    for op in (lambda: store.get(key), lambda: store.put(key, b"x"), lambda: store.delete(key)):
        with pytest.raises(InvalidKey):
            op()
    assert (tmp_path / "outside.txt").read_bytes() == b"secret"
    assert [p for p in (tmp_path / "store").rglob("*") if p.is_file()] == []


def test_key_below_or_over_another_key_is_typed(tmp_path):
    """S3 holds "a/b" beside "a/b/c"; a filesystem cannot, so each such put
    is InvalidKey, and deleting a key that is only a prefix does nothing."""
    store = FsStore(tmp_path)
    store.put("a/b", b"1")
    for key in ("a/b/c", "a/b/c/d"):
        with pytest.raises(InvalidKey):
            store.put(key, b"2")
    for if_none_match in (False, True):
        with pytest.raises(InvalidKey):
            store.put("a", b"3", if_none_match=if_none_match)
    store.delete("a")
    assert store.get("a/b") == b"1"
    with pytest.raises(PreconditionFailed):
        store.put("a/b", b"4", if_none_match=True)
    assert [m.key for m in store.list()] == ["a/b"]


def test_list_walks_only_the_prefix_directory(tmp_path, monkeypatch):
    store = FsStore(tmp_path)
    for key in ("t/a/data/x", "t/a/data/y", "t/a/other", "t/b/data/z", "u"):
        store.put(key, b"v")
    walked, read = [], []
    real_walk, real_get = os.walk, FsStore.get

    def recording_walk(top, *args, **kwargs):
        for entry in real_walk(top, *args, **kwargs):
            walked.append(entry[0])
            yield entry

    def recording_get(self, key):
        read.append(key)
        return real_get(self, key)

    monkeypatch.setattr(os, "walk", recording_walk)
    monkeypatch.setattr(FsStore, "get", recording_get)
    assert [m.key for m in store.list("t/a/da")] == ["t/a/data/x", "t/a/data/y"]
    assert sorted(read) == ["t/a/data/x", "t/a/data/y"]
    prefix_dir = tmp_path / "objects" / "t" / "a"
    assert walked and all(os.path.commonpath([d, prefix_dir]) == str(prefix_dir) for d in walked)
    assert store.list("../") == []


def test_concurrent_conditional_put_single_winner(tmp_path):
    store = FsStore(tmp_path)
    barrier = threading.Barrier(8)
    outcomes = []
    lock = threading.Lock()

    def attempt(i):
        barrier.wait()
        try:
            store.put("contested", f"writer-{i}".encode(), if_none_match=True)
            with lock:
                outcomes.append(i)
        except PreconditionFailed:
            pass

    threads = [threading.Thread(target=attempt, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(outcomes) == 1
    assert store.get("contested") == f"writer-{outcomes[0]}".encode()


_KEY_SEGMENT = st.text(alphabet="abcd01", min_size=1, max_size=3)
# two-level keys under distinct leaf names cannot prefix-collide on the FS
_KEYS = st.lists(
    st.tuples(_KEY_SEGMENT, _KEY_SEGMENT).map(lambda t: f"{t[0]}/leaf-{t[1]}"),
    min_size=1, max_size=12, unique=True,
)


@given(_KEYS, st.integers(min_value=0, max_value=255))
@settings(max_examples=30, deadline=None)
def test_listing_total_order_any_insertion(keys, fill):
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        store = FsStore(root)
        for key in keys:
            store.put(key, bytes([fill]))
        listed = [m.key for m in store.list("")]
        assert listed == sorted(keys)
        for key in keys:
            assert store.get(key) == bytes([fill])
