import random

import pytest

from brclake import crc32c as crc_module
from brclake.crc32c import crc32c
from brclake.errors import ChecksumMismatch
from brclake.lakeformat import BYTES, ColumnSchema, read_file, write_file

FOLD_MIN = crc_module._FOLD_MIN


def crc32c_bitwise(data, value=0):
    """Reference: one bit at a time, reflected polynomial 0x82F63B78."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def test_rfc3720_vectors():
    # Known-answer vectors from the iSCSI CRC32C appendix
    assert crc32c(b"") == 0
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(bytes(32)) == 0x8A9136AA
    assert crc32c(b"\xff" * 32) == 0x62A8AB43
    assert crc32c(bytes(range(32))) == 0x46DD794E


def test_incremental_equals_whole():
    data = bytes(range(256)) * 7
    split = crc32c(data[100:], crc32c(data[:100]))
    assert split == crc32c(data)


def test_single_bit_sensitivity():
    data = bytes(1000)
    base = crc32c(data)
    for bit in (0, 3999, 7001):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert crc32c(bytes(flipped)) != base


def test_every_length_to_300_matches_bitwise_reference():
    rng = random.Random(1)
    for n in range(301):
        data = rng.randbytes(n)
        assert crc32c(data) == crc32c_bitwise(data), n


@pytest.mark.parametrize("n", [FOLD_MIN - 1, FOLD_MIN, FOLD_MIN + 1, FOLD_MIN + 7, FOLD_MIN + 8])
def test_lengths_around_the_fold_threshold(n):
    rng = random.Random(n)
    for data in (rng.randbytes(n), bytes(n), b"\xff" * n):
        for value in (0, 1, 0xFFFFFFFF, rng.getrandbits(32)):
            assert crc32c(data, value) == crc32c_bitwise(data, value)


def test_random_sizes_and_continuation_values():
    rng = random.Random(2)
    for n in [rng.randrange(64 * 1024 + 1) for _ in range(5)] + [64 * 1024]:
        data = rng.randbytes(n)
        value = rng.getrandbits(32)
        assert crc32c(data, value) == crc32c_bitwise(data, value), n


def test_continuation_across_the_fold_threshold():
    rng = random.Random(3)
    for a_len in (0, 5, FOLD_MIN - 1, FOLD_MIN, 3000):
        for b_len in (1, FOLD_MIN - 1, FOLD_MIN, 5000):
            a, b = rng.randbytes(a_len), rng.randbytes(b_len)
            assert crc32c(b, crc32c(a)) == crc32c(a + b), (a_len, b_len)
    for _ in range(20):
        data = rng.randbytes(rng.randrange(1, 20_000))
        cut = rng.randrange(len(data) + 1)
        assert crc32c(data[cut:], crc32c(data[:cut])) == crc32c(data)


def test_bytearray_input():
    rng = random.Random(4)
    for n in (0, 9, FOLD_MIN, 4096):
        data = rng.randbytes(n)
        assert crc32c(bytearray(data)) == crc32c(data) == crc32c_bitwise(data)


def test_bit_flip_in_a_long_chunk_is_a_checksum_mismatch():
    rng = random.Random(5)
    data = write_file([(rng.randbytes(100),) for _ in range(400)], [ColumnSchema("blob", BYTES)])
    chunk = read_file(data).footer.chunks[0]
    assert chunk.byte_length > 40_000
    flipped = bytearray(data)
    flipped[chunk.byte_offset + chunk.byte_length // 2] ^= 0x10
    with pytest.raises(ChecksumMismatch) as err:
        read_file(bytes(flipped))
    assert err.value.column == "blob"
