import hashlib
import json
import struct
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from brclake.crc32c import crc32c
from brclake.errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptChunk,
    FooterCorrupt,
    IllegalEncoding,
    SchemaViolation,
)
from brclake.events import TABLE_COLUMNS
from brclake.lakeformat import (
    BOOL,
    BYTES,
    FORMAT_VERSION,
    INT64,
    MAGIC,
    STATS_TRUNCATE_BYTES,
    ColumnSchema,
    Encoding,
    choose_encoding,
    decode_column,
    encode_column,
    read_file,
    read_file_via,
    read_footer,
    write_file,
    _encoding_sizes,
)

from conftest import run_optimized

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


# -- exact byte layouts -----------------------------------------------------------

def test_rle_layout_forced():
    encoded = encode_column([7, 7, 7, 9], INT64, Encoding.RLE)
    assert encoded == bytes.fromhex("03000000" + "0700000000000000" + "01000000" + "0900000000000000")


def test_delta_layout_forced():
    encoded = encode_column([100, 101, 103], INT64, Encoding.DELTA)
    assert encoded == struct.pack("<q", 100) + bytes([0x02, 0x04])


def test_dict_first_occurrence_order():
    encoded = encode_column([b"a", b"b", b"a"], BYTES, Encoding.DICT)
    dict_size = struct.unpack_from("<I", encoded)[0]
    assert dict_size == 2
    assert decode_column(encoded, BYTES, Encoding.DICT, 3) == [b"a", b"b", b"a"]
    # dictionary holds a then b: 4 | (4+1)+(4+1) | 3*4 bytes
    assert len(encoded) == 4 + 10 + 12


def test_plain_layouts():
    assert encode_column([1], INT64, Encoding.PLAIN) == struct.pack("<q", 1)
    assert encode_column([b"xy"], BYTES, Encoding.PLAIN) == struct.pack("<I", 2) + b"xy"
    assert encode_column([True, False], BOOL, Encoding.PLAIN) == bytes([1, 0])


def test_delta_illegal_off_int64():
    with pytest.raises(IllegalEncoding):
        encode_column([b"a"], BYTES, Encoding.DELTA)
    with pytest.raises(IllegalEncoding):
        decode_column(b"", BOOL, Encoding.DELTA, 0)


# -- decode errors ------------------------------------------------------------------

def test_dict_index_out_of_range():
    encoded = bytearray(encode_column([b"a", b"b", b"a"], BYTES, Encoding.DICT))
    encoded[-12] = 5  # first index -> 5 with dict_size 2
    with pytest.raises(CorruptChunk):
        decode_column(bytes(encoded), BYTES, Encoding.DICT, 3)


def test_truncated_plain_int64():
    with pytest.raises(CorruptChunk):
        decode_column(bytes(12), INT64, Encoding.PLAIN, 2)


def test_trailing_bytes_detected():
    encoded = encode_column([1, 2], INT64, Encoding.PLAIN) + b"\x00"
    with pytest.raises(CorruptChunk):
        decode_column(encoded, INT64, Encoding.PLAIN, 2)


def test_varint_overflow_detected():
    bad = struct.pack("<q", 0) + b"\xff" * 10 + b"\x01"
    with pytest.raises(CorruptChunk):
        decode_column(bad, INT64, Encoding.DELTA, 2)


def test_rle_zero_run_rejected():
    bad = struct.pack("<I", 0) + struct.pack("<q", 1)
    with pytest.raises(CorruptChunk):
        decode_column(bad, INT64, Encoding.RLE, 1)


def test_bad_bool_byte_rejected():
    with pytest.raises(CorruptChunk):
        decode_column(bytes([2]), BOOL, Encoding.PLAIN, 1)


@pytest.mark.parametrize("data, physical_type, encoding, value_count", [
    (bytes([1]), BOOL, Encoding.PLAIN, 2),
    (bytes(2), BYTES, Encoding.PLAIN, 1),
    (struct.pack("<I", 5) + b"ab", BYTES, Encoding.PLAIN, 1),
    (bytes(2), INT64, Encoding.RLE, 1),
    (struct.pack("<I", 3) + struct.pack("<q", 1), INT64, Encoding.RLE, 2),
    (bytes(1), BYTES, Encoding.DICT, 1),
    (encode_column([b"a", b"b"], BYTES, Encoding.DICT)[:-1], BYTES, Encoding.DICT, 2),
], ids=["plain_bool_truncated", "bytes_length_truncated", "bytes_value_truncated", "rle_header_truncated",
        "rle_run_overshoots_count", "dict_header_truncated", "dict_indices_truncated"])
def test_chunk_that_ends_early_or_runs_over_is_corrupt_chunk(data, physical_type, encoding, value_count):
    with pytest.raises(CorruptChunk):
        decode_column(data, physical_type, encoding, value_count)


# -- choose_encoding rule ---------------------------------------------------------------

def test_choose_sorted_int64_is_delta():
    assert choose_encoding([1, 2, 3], INT64) == Encoding.DELTA  # 10 B; PLAIN 24 B
    assert choose_encoding([2, 2, 2], INT64) == Encoding.DELTA  # 10 B; RLE 12 B
    assert choose_encoding([5], INT64) == Encoding.PLAIN  # 8 B each as PLAIN and DELTA


def test_choose_never_larger_than_plain():
    # Deltas 2**61 and -2**62: a 9-byte least-delta varint and a width of 8, so DELTA 34 B.
    assert choose_encoding([0, 2**61, -(2**61)], INT64) == Encoding.PLAIN  # 24 B; DICT 29 B


def test_choose_dict_for_few_wide_int64():
    assert choose_encoding([2**40, -(2**40)] * 50, INT64) == Encoding.DICT  # 33 B; DELTA 609 B; PLAIN 800 B


def test_choose_low_cardinality():
    # Few distinct values are not enough: the smallest encoding wins.
    assert choose_encoding([b"a", b"b", b"c"] * 3334, BYTES) == Encoding.DICT
    assert choose_encoding([9, 3] * 50, INT64) == Encoding.DICT  # 33 B; DELTA 109 B; PLAIN 800 B
    assert choose_encoding([i % 20 for i in range(100)], INT64) == Encoding.DELTA  # 109 B; DICT 264 B
    assert choose_encoding([True, False] * 50, BOOL) == Encoding.DICT  # 19 B; PLAIN 100 B; RLE 500 B
    assert choose_encoding([True, False, True], BOOL) == Encoding.PLAIN  # 3 B; DICT 7 B
    assert choose_encoding([True] * 100, BOOL) == Encoding.RLE  # 5 B; DICT 18 B; PLAIN 100 B


def test_choose_breaks_ties_plain_rle_dict():
    assert choose_encoding([1, 1, 0], INT64) == Encoding.DELTA  # 12 B; PLAIN = RLE = 24 B
    assert choose_encoding([0, 2**24, 0], INT64) == Encoding.DICT  # DICT = DELTA = 21 B; PLAIN 24 B
    assert choose_encoding([True] * 5, BOOL) == Encoding.PLAIN  # 5 B each; DICT 6 B
    assert choose_encoding([b"x"] * 3, BYTES) == Encoding.PLAIN  # 8 B each; DICT 9 B
    runs = [b"x"] * 20 + [b"y"] * 20
    assert choose_encoding(runs, BYTES) == Encoding.RLE  # RLE = DICT = 16 B; PLAIN 83 B


# Every encoding legal per type, in the rule's tie order.
CANDIDATES = {INT64: list(Encoding), BOOL: [Encoding.PLAIN, Encoding.RLE, Encoding.DICT],
              BYTES: [Encoding.PLAIN, Encoding.RLE, Encoding.DICT]}

RANDOM_WALKS = st.tuples(I64, st.lists(st.integers(-(2**20), 2**20) | st.integers(-3, 3), max_size=79)).map(
    lambda walk: list(accumulate(walk[1], lambda value, step: max(-(2**63), min(2**63 - 1, value + step)),
                                 initial=walk[0])))

COLUMNS = st.one_of(
    st.tuples(st.just(INT64), st.lists(st.integers(-2, 2) | I64, min_size=1, max_size=80) | RANDOM_WALKS),
    st.tuples(st.just(BYTES), st.lists(st.sampled_from([b"", b"a", b"bc", b"BTC-USD"]) | st.binary(max_size=12),
                                       min_size=1, max_size=80)),
    st.tuples(st.just(BOOL), st.lists(st.booleans(), min_size=1, max_size=80)),
)


def test_partition_file_takes_the_small_encodings():
    # One symbol-day file as etl writes it: one symbol and stream, rows in
    # time order, random sides and quantities that repeat in short runs.
    rows = []
    for i in range(2000):
        h = (i * 2654435761) % 2**32
        rows.append((1_600_000_000_000_000 + i * 1_000, 1_600_000_000_500_000 + i * 1_000, b"coinbase",
                     b"trades", b"BTC-USD", i, f"cb-{i:06d}".encode(), 3_000_000_000_000 + h % 10**9,
                     (i // 3 + h % 2) % 5 * 10**6, [b"buy", b"sell"][h >> 31]))
    schema = [ColumnSchema(name, physical_type) for name, physical_type in TABLE_COLUMNS]
    parsed = read_file(write_file(rows, schema))
    assert {col.name: chunk.encoding.name for col, chunk in zip(parsed.footer.schema, parsed.footer.chunks)} == {
        "event_time_us": "DELTA", "ingest_time_us": "DELTA", "source": "RLE", "stream": "RLE",
        "symbol": "RLE", "sequence": "DELTA", "event_id": "PLAIN", "price_e8": "DELTA",
        "qty_e8": "DICT", "side": "DICT"}
    assert parsed.rows() == rows


def test_choose_high_cardinality_by_delta_width():
    values = [((i * 2654435761) % 2**32) - i for i in range(1000)]
    assert len(set(values)) == 1000
    assert choose_encoding(values, INT64) == Encoding.DELTA  # 5-byte planes: 5,009 B; PLAIN 8,000 B
    steps = [(i * 2654435761 * 2**31) % 2**64 - 2**63 for i in range(1000)]
    assert choose_encoding(steps, INT64) == Encoding.DELTA  # one delta, wrapped: width 0, so 19 B
    wide = [((i * 2654435761) ** 3) % 2**64 - 2**63 for i in range(1000)]
    assert len(set(wide)) == 1000
    assert choose_encoding(wide, INT64) == Encoding.PLAIN  # deltas span 8 bytes: DELTA 8,011 B


# -- encode/decode round-trip properties -----------------------------------------------

@given(st.lists(I64, min_size=0, max_size=200),
       st.sampled_from([Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA]))
@settings(max_examples=150, deadline=None)
def test_int64_round_trip_all_encodings(values, encoding):
    encoded = encode_column(values, INT64, encoding)
    assert decode_column(encoded, INT64, encoding, len(values)) == values


@given(st.lists(st.binary(min_size=0, max_size=24), min_size=0, max_size=100),
       st.sampled_from([Encoding.PLAIN, Encoding.RLE, Encoding.DICT]))
@settings(max_examples=100, deadline=None)
def test_bytes_round_trip(values, encoding):
    encoded = encode_column(values, BYTES, encoding)
    assert decode_column(encoded, BYTES, encoding, len(values)) == values


@given(st.lists(st.booleans(), min_size=0, max_size=100),
       st.sampled_from([Encoding.PLAIN, Encoding.RLE, Encoding.DICT]))
@settings(max_examples=100, deadline=None)
def test_bool_round_trip(values, encoding):
    encoded = encode_column(values, BOOL, encoding)
    assert decode_column(encoded, BOOL, encoding, len(values)) == values


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=300))
@settings(max_examples=100, deadline=None)
def test_rle_no_worse_than_plain_on_runny_input(codes):
    values = sorted(codes)  # few distinct values, long runs
    rle = encode_column(values, INT64, Encoding.RLE)
    plain = encode_column(values, INT64, Encoding.PLAIN)
    assert len(rle) <= len(plain) + 8


@given(st.lists(I64, min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_dict_bound_vs_plain(values):
    dict_encoded = encode_column(values, INT64, Encoding.DICT)
    plain = encode_column(values, INT64, Encoding.PLAIN)
    dict_payload = encode_column(sorted(set(values), key=values.index), INT64, Encoding.PLAIN)
    assert len(dict_encoded) <= len(plain) + 8 + len(dict_payload)


def test_spec_inputs_strictly_smaller():
    sorted_ints = list(range(1000))
    assert len(encode_column(sorted_ints, INT64, Encoding.DELTA)) < 8 * 1000
    runny = [7] * 900 + [9] * 100
    assert len(encode_column(runny, INT64, Encoding.RLE)) < 8 * 1000
    symbols = [b"BTC-USD", b"ETH-USD", b"XRP-USD"] * 3000
    assert len(encode_column(symbols, BYTES, Encoding.DICT)) < len(encode_column(symbols, BYTES, Encoding.PLAIN))


def test_delta_extreme_values_wrap():
    values = [-(2**63), 2**63 - 1, 0, -(2**63)]
    # not sorted; force DELTA directly to exercise wrap-around deltas
    encoded = encode_column(values, INT64, Encoding.DELTA)
    assert decode_column(encoded, INT64, Encoding.DELTA, 4) == values


# -- whole files -------------------------------------------------------------------------

SCHEMA = [ColumnSchema("ts", INT64), ColumnSchema("sym", BYTES), ColumnSchema("up", BOOL)]


def test_single_row_file_stats():
    data = write_file([(5, b"A-B", True)], SCHEMA)
    parsed = read_file(data)
    assert parsed.footer.row_count == 1
    chunk = parsed.footer.chunks[0]
    assert chunk.min == 5 == chunk.max


def test_dict_size_arithmetic_10k_rows():
    values = ([b"AAAAAAA", b"BBBBBBB", b"CCCCCCC"] * 3334)[:10_000]
    assert len(encode_column(values, BYTES, Encoding.PLAIN)) == 110_000
    assert len(encode_column(values, BYTES, Encoding.DICT)) == 40_037


def test_write_read_round_trip_1000_random_rows():
    import random
    rng = random.Random(7)  # the generator itself is the oracle
    rows = [
        (rng.randrange(-2**62, 2**62), bytes(rng.randrange(256) for _ in range(rng.randrange(12))),
         rng.random() < 0.5)
        for _ in range(1000)
    ]
    data = write_file(rows, SCHEMA)
    assert read_file(data).rows() == rows


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_file_round_trip_property(n_rows, seed):
    import random
    rng = random.Random(seed)
    rows = [
        (rng.randrange(-2**63, 2**63),
         bytes(rng.randrange(256) for _ in range(rng.randrange(8))),
         rng.random() < 0.5)
        for _ in range(n_rows)
    ]
    data = write_file(rows, SCHEMA)
    parsed = read_file(data)
    assert parsed.rows() == rows
    # footer stats equal brute-force min/max of each column
    for i, (name, ptype) in enumerate([("ts", INT64), ("sym", BYTES), ("up", BOOL)]):
        column = [row[i] for row in rows]
        chunk = parsed.footer.chunks[i]
        if ptype == BYTES:
            assert chunk.min == min(column)[:64] and chunk.max == max(column)[:64]
        else:
            assert chunk.min == min(column) and chunk.max == max(column)


def test_files_byte_identical_across_runs():
    rows = [(i, b"x" * (i % 5), i % 2 == 0) for i in range(1, 100)]
    assert write_file(rows, SCHEMA) == write_file(rows, SCHEMA)


def test_bytes_stats_truncated_to_64():
    rows = [(1, b"a" * 100, True)]
    chunk = read_file(write_file(rows, SCHEMA)).footer.chunks[1]
    assert chunk.min == b"a" * 64 and chunk.max == b"a" * 64


def test_schema_violations():
    with pytest.raises(SchemaViolation):
        write_file([(1, b"x")], SCHEMA)  # arity
    with pytest.raises(SchemaViolation) as err:
        write_file([(1, "not-bytes", True)], SCHEMA)
    assert err.value.column == "sym"
    with pytest.raises(SchemaViolation):
        write_file([(True, b"x", True)], SCHEMA)  # bool is not INT64
    with pytest.raises(SchemaViolation):
        write_file([], SCHEMA)
    with pytest.raises(SchemaViolation):
        write_file([(2**63, b"x", True)], SCHEMA)
    with pytest.raises(ValueError):
        write_file([(1,)], [ColumnSchema("ts\n", INT64)])


def test_corrupt_chunk_detected_by_crc():
    data = bytearray(write_file([(k, b"sym", True) for k in range(50)], SCHEMA))
    data[5] ^= 0x40  # inside the ts chunk
    with pytest.raises(ChecksumMismatch) as err:
        read_file(bytes(data))
    assert err.value.column == "ts"


def test_bad_magic_and_footer():
    data = write_file([(1, b"x", True)], SCHEMA)
    with pytest.raises(BadMagic):
        read_file(b"XXXX" + data[4:])
    with pytest.raises(BadMagic):
        read_file(data[:-4] + b"YYYY")
    with pytest.raises(BadMagic):  # too short for two magics and a footer length
        read_file(data[:4] + data[-7:])
    # footer length pointing outside the file
    broken = data[:-8] + struct.pack("<I", 2**31) + data[-4:]
    with pytest.raises(FooterCorrupt):
        read_file(broken)


# The bytes write_file([(1, b"x", True), (2, b"y", False)], SCHEMA) gave under
# format version 1, whose footer is JSON (tests/fixtures/v1/generate.py).
V1_SMALL = (Path(__file__).resolve().parent / "fixtures" / "v1" / "small.brcl").read_bytes()
# The same call's bytes under format version 2 (tests/fixtures/v2/generate.py).
V2_SMALL = (Path(__file__).resolve().parent / "fixtures" / "v2" / "small.brcl").read_bytes()
# ... and under format version 3 (tests/fixtures/v3/generate.py).
V3_SMALL = (Path(__file__).resolve().parent / "fixtures" / "v3" / "small.brcl").read_bytes()


def _with_footer(data: bytes, edit) -> bytes:
    """The version-1 file data with its JSON footer object changed in place
    by edit."""
    (footer_len,) = struct.unpack("<I", data[-8:-4])
    footer = json.loads(data[-8 - footer_len:-8])
    edit(footer)
    body = json.dumps(footer).encode()
    return data[:-8 - footer_len] + body + struct.pack("<I", len(body)) + data[-4:]


@pytest.mark.parametrize("edit", [
    lambda f: f["chunks"][0].update(byte_offset=4.0),
    lambda f: f["chunks"][0].update(value_count="2"),
    lambda f: f["chunks"][1].update(byte_length=-1),
    lambda f: f["chunks"][2].update(crc32c=True),
    lambda f: f["chunks"][0].update(encoding="ZSTD"),
    lambda f: f.update(row_count=2.0),
    lambda f: f["chunks"][1].update(min=7),
    lambda f: f["chunks"][0].update(max="2"),
    lambda f: f["schema"][1].update(physical_type="FLOAT"),
    lambda f: f["schema"][2].update(name="ts"),
    lambda f: f["chunks"].append(f["chunks"][0]),
    lambda f: f.pop("writer"),
    lambda f: f["chunks"][0].update(byte_offset=1_000_000),
    lambda f: f["chunks"][0].update(byte_length=1_000),  # more than the whole file
    lambda f: f["chunks"][2].update(byte_length=f["chunks"][2]["byte_length"] + 1),
    lambda f: f["chunks"][0].update(byte_offset=0),
    lambda f: f.update(codec=0),
    lambda f: f.update(codec="zstd"),
    lambda f: f["chunks"][1].update(max="\u0100"),
    lambda f: f.update(format_version=2),
    lambda f: f.update(row_count=-1),
    lambda f: f["chunks"][1].update(value_count=1),
    lambda f: f["chunks"][2].update(crc32c=-1),
], ids=["float_offset", "string_count", "negative_length", "bool_crc", "unknown_encoding",
        "float_row_count", "int_bytes_stat", "string_int64_stat", "unknown_physical_type",
        "repeated_column", "extra_chunk", "no_writer", "offset_past_file", "length_past_file",
        "chunk_into_footer", "chunk_over_magic", "int_codec", "unknown_codec", "bytes_stat_beyond_latin1",
        "format_version_2", "negative_row_count", "value_count_disagrees", "negative_crc"])
def test_ill_typed_footer_is_footer_corrupt(edit):
    assert read_file(_with_footer(V1_SMALL, lambda f: None)).rows() == [(1, b"x", True), (2, b"y", False)]
    with pytest.raises(FooterCorrupt):
        read_file(_with_footer(V1_SMALL, edit))


def test_projection_reads_only_needed_ranges():
    schema = [ColumnSchema(f"c{i}", INT64) for i in range(8)]
    rows = [tuple(range(j, j + 8)) for j in range(1000)]
    data = write_file(rows, schema)
    parsed = read_file(data)
    target = parsed.footer.chunks[3]

    fetched = {"bytes": 0}

    def counting_fetch(offset, length):
        fetched["bytes"] += length
        return data[offset:offset + length]

    footer_len = struct.unpack("<I", data[-8:-4])[0]
    result = read_file_via(counting_fetch, len(data), projection=["c3"])
    assert result.columns["c3"] == [row[3] for row in rows]
    assert fetched["bytes"] <= target.byte_length + footer_len + 12


def test_projection_of_full_file_round_trips():
    rows = [(1, b"a", True), (2, b"b", False)]
    data = write_file(rows, SCHEMA)
    parsed = read_file(data, projection=["up", "ts"])
    assert parsed.columns == {"up": [True, False], "ts": [1, 2]}
    with pytest.raises(FooterCorrupt):  # a column the file does not hold
        read_file(data, projection=["ts", "nope"])


# -- column-at-a-time write and decode paths --------------------------------------------

def _varint(u):
    out = bytearray()
    while u >= 0x80:
        out.append(u & 0x7F | 0x80)
        u >>= 7
    out.append(u)
    return bytes(out)


def test_schema_violation_names_the_first_bad_cell_in_row_major_order():
    good = (1, b"x", True)
    cases = [
        ([good, (1, b"x"), (True, b"x", True)], (1, "")),  # ragged row before a bad cell
        ([good, (1, "s", True), (1, b"x")], (1, "sym")),  # ragged row after a bad cell
        ([(1, b"x", True, 4), good], (0, "")),  # ragged first row
        ([good, (1, b"x", 1), good, (2**63, b"x", True)], (1, "up")),  # earlier row, later column
        ([good, good, (True, bytearray(b"x"), None)], (2, "ts")),  # two bad cells in one row
        ([good, (-(2**63) - 1, b"x", True)], (1, "ts")),  # int64 bounds
    ]
    for rows, (row_index, column) in cases:
        with pytest.raises(SchemaViolation) as err:
            write_file(rows, SCHEMA)
        assert (err.value.row_index, err.value.column) == (row_index, column), rows


def test_bytearray_cells_write_the_bytes_of_bytes_cells():
    rows = [(i, [b"BTC-USD", b"ETH-USD"][i % 2], i % 3 == 0) for i in range(50)]
    mixed = [(t, bytearray(s) if t % 3 else s, up) for t, s, up in rows]
    assert write_file(mixed, SCHEMA) == write_file(rows, SCHEMA)  # DICT
    unique = [(t, b"id-%d" % t, up) for t, _, up in rows]
    as_bytearray = [(t, bytearray(s), up) for t, s, up in unique]
    assert write_file(as_bytearray, SCHEMA) == write_file(unique, SCHEMA)  # PLAIN
    for encoding in Encoding:
        if encoding != Encoding.DELTA:
            values = [bytearray(b"ab"), b"ab", bytearray(b"c")]
            assert encode_column(values, BYTES, encoding) == encode_column(list(map(bytes, values)), BYTES, encoding)


def test_delta_varints_of_ten_bytes_and_beyond():
    i64_max = 2**63 - 1
    first = struct.pack("<q", i64_max)
    ten_bytes = _varint(2**64 - 1)  # zigzag of -2**63
    assert len(ten_bytes) == 10
    assert decode_column(first + ten_bytes, INT64, Encoding.DELTA, 2) == [i64_max, -1]
    with pytest.raises(CorruptChunk):
        decode_column(first[:7], INT64, Encoding.DELTA, 1)


# Malformed varint bytes after a chunk's first value, each with the number
# of values the chunk claims to hold besides the first.
MALFORMED_VARINTS = {
    "eleven_bytes": (b"\x80" * 10 + b"\x00", 1),
    "two_to_the_64": (b"\x80" * 9 + b"\x02", 1),
    "above_two_to_the_64": (b"\xff" * 9 + b"\x03", 1),
    "truncated_continuation": (b"\x81", 1),
    "truncated_after_a_whole_varint": (b"\x02\x81", 2),
    "fewer_varints_than_values": (b"\x02", 2),
    "more_varints_than_values": (b"\x02\x02", 1),
}


SHORT_AROUND = [0, 20]


def _malformed_delta_chunk(name: str, short_around: int) -> tuple[bytes, int]:
    """A DELTA chunk whose varints are MALFORMED_VARINTS[name] with
    short_around short varints on each side, and the value count it claims."""
    bad, count = MALFORMED_VARINTS[name]
    short = bytes(range(0, 2 * short_around, 2))  # zigzags of deltas 0 .. short_around - 1
    return struct.pack("<q", 2**63 - 1) + short + bad + short, 1 + 2 * short_around + count


@pytest.mark.parametrize("name", MALFORMED_VARINTS)
@pytest.mark.parametrize("short_around", SHORT_AROUND)
def test_malformed_delta_varints_are_corrupt_chunk(name, short_around):
    # Alone and among short varints: the count and length checks come before
    # any varint is decoded, and the varint decoder refuses a value of 2**64
    # or more.
    data, value_count = _malformed_delta_chunk(name, short_around)
    with pytest.raises(CorruptChunk):
        decode_column(data, INT64, Encoding.DELTA, value_count)


def test_malformed_delta_varints_are_corrupt_chunk_under_optimize():
    """The varint checks are not assert statements: python -O refuses every
    malformed varint, alone and among short ones, as well."""
    result = run_optimized("""
import conftest
from brclake.lakeformat import INT64, Encoding, decode_column
from test_lakeformat import MALFORMED_VARINTS, SHORT_AROUND, _malformed_delta_chunk
for name in sorted(MALFORMED_VARINTS):
    for short_around in SHORT_AROUND:
        data, value_count = _malformed_delta_chunk(name, short_around)
        try:
            decode_column(data, INT64, Encoding.DELTA, value_count)
        except Exception as exc:
            print(name, short_around, type(exc).__name__)
""")
    assert result.stdout.splitlines() == [f"{name} {short_around} CorruptChunk" for name in sorted(MALFORMED_VARINTS)
                                          for short_around in SHORT_AROUND], result.stderr


def _wrapped_sum(first: int, deltas: list[int]) -> list[int]:
    """first, then each running sum with a delta, wrapped to int64."""
    return list(accumulate(deltas, lambda value, delta: (value + delta + 2**63) % 2**64 - 2**63, initial=first))


def _zigzag_of_length(length: int) -> st.SearchStrategy[int]:
    """Deltas whose zigzag takes exactly length varint bytes."""
    low, high = (0 if length == 1 else 1 << 7 * (length - 1)), min(1 << 7 * length, 2**64) - 1
    return st.integers(low, high).map(lambda u: (u >> 1) ^ -(u & 1))


DELTAS_UP_TO = st.integers(1, 10).flatmap(  # a longest varint length per chunk, then deltas no longer
    lambda top: st.lists(st.integers(1, top).flatmap(_zigzag_of_length), max_size=599))


@seed(20261020)
@given(I64 | st.sampled_from([-(2**63), 2**63 - 1]), DELTAS_UP_TO)
@example(2**63 - 1, [1, -1, -1])  # wraps up past int64 and back
@example(-(2**63), [-1] * 8 + [2**55] * 4)  # wraps down, then 9-byte varints
@example(0, [0, 2**48, 0, 0, 2**48, 0, 2**54, 0])  # zero varints beside 8-byte ones that start with 7 bytes of 0x80
@settings(max_examples=300, deadline=None)
def test_v2_delta_round_trips_every_varint_length(first, deltas):
    values = _wrapped_sum(first, deltas)
    encoded = encode_column(values, INT64, Encoding.DELTA)
    assert encoded == struct.pack("<q", first) + b"".join(_varint((d << 1) ^ (d >> 63)) for d in deltas)
    assert decode_column(encoded, INT64, Encoding.DELTA, len(values)) == values


def test_delta_wraps_around_int64():
    values = [2**63 - 1, -(2**63), 2**63 - 1]
    encoded = encode_column(values, INT64, Encoding.DELTA)
    assert encoded == struct.pack("<q", 2**63 - 1) + b"\x02\x01"  # deltas +1 and -1 after wrapping
    assert decode_column(encoded, INT64, Encoding.DELTA, 3) == values


def test_dict_last_index_out_of_range():
    encoded = bytearray(encode_column([b"a", b"b", b"a"], BYTES, Encoding.DICT))
    encoded[-4] = 2  # last index -> 2 with dict_size 2
    with pytest.raises(CorruptChunk):
        decode_column(bytes(encoded), BYTES, Encoding.DICT, 3)


MIXED_SCHEMA = [ColumnSchema("ts", INT64), ColumnSchema("qty", INT64), ColumnSchema("px", INT64),
                ColumnSchema("sym", BYTES), ColumnSchema("id", BYTES), ColumnSchema("note", BYTES),
                ColumnSchema("up", BOOL), ColumnSchema("odd", BOOL), ColumnSchema("big", INT64)]


def _mixed_rows():
    return [(1_600_000_000_000_000 + i * i * 977 - (i % 7 == 0) * 3,
             (i // 25) % 3 * 10**8,
             ((i * 2654435761) % 2**63) * (-1) ** i,
             [b"BTC-USD", b"ETH-USD", b"SOL-USD"][i % 3],
             f"id-{i:04d}-é".encode(),
             bytes([i % 256]) * (i % 90),
             i % 40 < 20,
             (i * 7919) % 11 < 5,
             2**63 - 1 if i == 239 else -(2**63) + i * (2**55 + 12345))
            for i in range(240)]


def test_mixed_table_bytes_are_pinned():
    rows = _mixed_rows()
    data = write_file(rows, MIXED_SCHEMA)
    parsed = read_file(data)
    assert [c.encoding.name for c in parsed.footer.chunks] == [
        "DELTA", "DICT", "DELTA", "DICT", "PLAIN", "PLAIN", "DICT", "DICT", "PLAIN"]
    assert hashlib.sha256(data).hexdigest() == "19f08cb1c6ff8cd60cf6ea51c85ba3ddfed5fba1695325304ca1495de2b9b14a"
    (footer_len,) = struct.unpack("<I", data[-8:-4])
    assert hashlib.sha256(data[4:len(data) - 8 - footer_len]).hexdigest() == (
        "b2ef4e61e2a1bee2945773f7d77740e6849f2cd0142f18acd1e0836fa39d8792")
    assert parsed.rows() == rows


# -- binary footer (format versions 2 to 4) ---------------------------------------------

SMALL_ROWS = [(1, b"x", True), (2, b"y", False)]


# The footer versions whose strings differ: version 3 codes each as a u32
# length and its bytes, as versions 1 and 2 do; version 4 front-codes them.
FOOTER_VERSIONS = [3, FORMAT_VERSION]


def _strings(*values: bytes, version: int = FORMAT_VERSION) -> bytes:
    """values as a BYTES sequence of the given format version: before
    version 4 a u32 length and the bytes of each; from version 4 on a width
    byte of 1, the prefix lengths (all 0, so values must share no prefix),
    the lengths, the values."""
    if version < 4:
        return b"".join(struct.pack("<I", len(value)) + value for value in values)
    return bytes([1, *[0] * len(values), *map(len, values)]) + b"".join(values)


def _v2_footer(row_count, columns, count=None, writer=b"brclake/1", tail=b"", version=FORMAT_VERSION,
               layout=None) -> bytes:
    """Footer bytes in the version-2 layout, which versions 3 and 4 keep,
    built field by field as the module docstring lays them out, with strings
    coded as in format version layout (default: version). columns are
    [name, type code, encoding, chunk byte length, chunk CRC-32C, stats
    bytes]; count overrides the column count, and tail goes between the last
    column and the CRC."""
    layout = version if layout is None else layout
    body = struct.pack("<BII", version, row_count, len(columns) if count is None else count)
    body += _strings(writer, version=layout)
    for name, code, encoding, length, crc, stats in columns:
        body += _strings(name, version=layout) + struct.pack("<BBII", code, encoding, length, crc) + stats
    return _sealed(body + tail)


def _sealed(body: bytes) -> bytes:
    """body followed by its CRC-32C, as a v2 footer ends."""
    return body + struct.pack("<I", crc32c(body))


def _footer_region(data: bytes) -> tuple[int, int]:
    (footer_len,) = struct.unpack("<I", data[-8:-4])
    return len(data) - 8 - footer_len, footer_len


def _with_v2_footer(data: bytes, footer: bytes) -> bytes:
    start, _ = _footer_region(data)
    return data[:start] + footer + struct.pack("<I", len(footer)) + MAGIC


def _small_file(version: int = FORMAT_VERSION) -> bytes:
    """write_file(SMALL_ROWS, SCHEMA) by the writer of format version 3 (the
    fixture) or of FORMAT_VERSION."""
    return V3_SMALL if version == 3 else write_file(SMALL_ROWS, SCHEMA)


def _small_columns(version: int = FORMAT_VERSION) -> list[list]:
    """The footer fields of _small_file(version), column by column."""
    ts, sym, up = read_file(_small_file(version)).footer.chunks
    return [[b"ts", 0, ts.encoding, ts.byte_length, ts.crc32c, struct.pack("<qq", 1, 2)],
            [b"sym", 1, sym.encoding, sym.byte_length, sym.crc32c, _strings(b"x", b"y", version=version)],
            [b"up", 2, up.encoding, up.byte_length, up.crc32c, bytes([0, 1])]]


def test_v2_footer_layout_is_pinned():
    data = write_file(SMALL_ROWS, SCHEMA)
    start, footer_len = _footer_region(data)
    assert data[start:start + footer_len] == _v2_footer(2, _small_columns())
    footer = read_file(data).footer
    assert (footer.format_version, footer.codec, footer.writer) == (FORMAT_VERSION, "none", "brclake/1")
    assert [c.byte_offset for c in footer.chunks] == [4, 4 + footer.chunks[0].byte_length,
                                                      start - footer.chunks[2].byte_length]
    assert [c.value_count for c in footer.chunks] == [2, 2, 2]


def test_v1_file_reads_as_written():
    assert read_file(V1_SMALL).rows() == SMALL_ROWS == read_file(V2_SMALL).rows()
    v1, v2 = read_file(V1_SMALL).footer, read_file(V2_SMALL).footer
    assert (v1.format_version, v2.format_version) == (1, 2) and v1.schema == v2.schema
    assert [(c.encoding, c.crc32c, c.min, c.max) for c in v1.chunks] == [
        (c.encoding, c.crc32c, c.min, c.max) for c in v2.chunks]


def _edit(edit):
    """A builder of the small file of a format version with a binary footer
    of its columns after edit(columns, version) returns the footer's keyword
    arguments (or None for none)."""
    def build(version):
        columns = _small_columns(version)
        footer = _v2_footer(2, columns, **{"version": version, **(edit(columns, version) or {})})
        return _with_v2_footer(_small_file(version), footer)
    return build


def _set(row, field, value):
    """An edit that sets columns[row][field] to value, or to value(version)
    where value is callable."""
    return lambda columns, version: columns[row].__setitem__(field, value(version) if callable(value) else value)


def _string_past_footer(version: int) -> bytes:
    """sym's stats pair with the first value's length running past the footer."""
    if version < 4:
        return struct.pack("<I", 1000) + b"x" + _strings(b"y", version=version)
    return bytes([1, 0, 0, 200, 1]) + b"xy"


MALFORMED_V2 = {
    "empty_footer": lambda version: _with_v2_footer(_small_file(version), b""),
    "shorter_than_a_crc": lambda version: _with_v2_footer(_small_file(version), b"\x02\x00\x00"),
    "version_5": _edit(lambda columns, version: {"version": 5, "layout": version}),
    "truncated_head": lambda version: _with_v2_footer(_small_file(version), _sealed(bytes([version, 2, 0, 0, 0, 3]))),
    "truncated_stats": _edit(_set(2, 5, b"\x00")),
    "string_past_footer": _edit(_set(1, 5, _string_past_footer)),
    "column_count_too_high": _edit(lambda columns, version: {"count": 4}),
    "column_count_too_low": _edit(lambda columns, version: {"count": 2}),
    "trailing_bytes": _edit(lambda columns, version: {"tail": b"\x00"}),
    "unknown_physical_type": _edit(_set(1, 1, 3)),
    "unknown_encoding": _edit(_set(0, 2, 4)),
    "bad_column_name": _edit(_set(0, 0, b"Ts")),
    "empty_column_name": _edit(_set(0, 0, b"")),
    "column_name_not_utf8": _edit(_set(0, 0, b"\xff")),
    "writer_not_utf8": _edit(lambda columns, version: {"writer": b"\xc3"}),
    "duplicate_column_name": _edit(_set(2, 0, b"ts")),
    "bool_stat_byte_2": _edit(_set(2, 5, bytes([0, 2]))),
    "bytes_stat_of_65_bytes": _edit(_set(1, 5, lambda version: _strings(b"x" * 65, b"y", version=version))),
    "chunks_end_short_of_footer": _edit(lambda columns, version: columns[0].__setitem__(3, columns[0][3] - 1)),
    "chunks_run_into_footer": _edit(lambda columns, version: columns[2].__setitem__(3, columns[2][3] + 1)),
    "crc_mismatch": lambda version: (lambda data: data[:-9] + bytes([data[-9] ^ 1]) + data[-8:])(
        _small_file(version)),
}


def _assert_malformed_footer_is_footer_corrupt(name, version):
    intact = read_file(_edit(lambda columns, version: None)(version))
    assert (intact.footer.format_version, intact.rows()) == (version, SMALL_ROWS)
    with pytest.raises(FooterCorrupt):
        read_file(MALFORMED_V2[name](version))


@pytest.mark.parametrize("name", MALFORMED_V2)
def test_malformed_v2_footer_is_footer_corrupt(name):
    _assert_malformed_footer_is_footer_corrupt(name, FORMAT_VERSION)


@pytest.mark.parametrize("name", MALFORMED_V2)
def test_malformed_v3_footer_is_footer_corrupt(name):
    """The same cases with strings of u32 lengths, as versions 2 and 3 code them."""
    _assert_malformed_footer_is_footer_corrupt(name, 3)


def test_malformed_v2_footers_are_footer_corrupt_under_optimize(tmp_path):
    """The footer checks are not assert statements: python -O refuses every
    malformed footer as well."""
    for name, build in MALFORMED_V2.items():
        for version in FOOTER_VERSIONS:
            (tmp_path / f"{name}-v{version}.brcl").write_bytes(build(version))
    result = run_optimized(f"""
from pathlib import Path
import conftest
from brclake.lakeformat import read_file
for path in sorted(Path({str(tmp_path)!r}).iterdir()):
    try:
        read_file(path.read_bytes())
    except Exception as exc:
        print(path.stem, type(exc).__name__)
""")
    assert result.stdout.splitlines() == sorted(
        f"{name}-v{version} FooterCorrupt" for name in MALFORMED_V2 for version in FOOTER_VERSIONS), result.stderr


def _assert_every_bit_flip_is_footer_corrupt(data, version):
    start, footer_len = _footer_region(data)
    assert data[start] == version
    for bit in range(8 * footer_len):
        flipped = bytearray(data)
        flipped[start + bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FooterCorrupt):
            read_file(bytes(flipped))


def test_every_bit_flip_of_a_v2_footer_is_footer_corrupt():
    rows = [(1_600_000_000_000_000 + i * 1_000, 1_600_000_000_500_000 + i * 1_000, b"coinbase", b"trades",
             b"BTC-USD", i, f"cb-{i:06d}".encode(), 3_000_000_000_000 + i * 7, (i % 5) * 10**6,
             [b"buy", b"sell"][i % 2]) for i in range(8)]
    data = write_file(rows, [ColumnSchema(name, physical_type) for name, physical_type in TABLE_COLUMNS])
    assert read_file(data).rows() == rows
    _assert_every_bit_flip_is_footer_corrupt(data, FORMAT_VERSION)


def test_every_bit_flip_of_a_v3_footer_is_footer_corrupt():
    """A footer whose strings are u32-length coded: the first export of the
    v3 fixture, a file of the trades table's ten columns."""
    store = Path(__file__).resolve().parent / "fixtures" / "v3" / "store"
    data = next(store.rglob("part-etl-*1.brcl")).read_bytes()
    assert len(read_file(data).rows()) == 8
    _assert_every_bit_flip_is_footer_corrupt(data, 3)


NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)
CELLS = {
    INT64: st.sampled_from([-(2**63), 2**63 - 1, 0, -1]) | I64,
    BYTES: st.sampled_from([b"", b"\xff\xfe", "\u00e9".encode(), b"a" * 64, b"\x80" * 65, b"z" * 100])
    | st.binary(max_size=80),
    BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    schema = [ColumnSchema(name, draw(st.sampled_from([INT64, BYTES, BOOL]))) for name in names]
    rows = draw(st.lists(st.tuples(*(CELLS[col.physical_type] for col in schema)), min_size=1, max_size=6))
    return schema, rows


EDGES = ([ColumnSchema("b", BYTES), ColumnSchema("i", INT64), ColumnSchema("f", BOOL)],
         [(b"", -(2**63), False), (b"\xff" * 70, 2**63 - 1, True), (b"\xc3(", 0, True)])


@given(tables())
@example(EDGES)
@seed(24)
@settings(max_examples=200, deadline=None)
def test_v2_footer_round_trip(table):
    schema, rows = table
    data = write_file(rows, schema)
    footer = read_footer(lambda offset, length: data[offset:offset + length], len(data))
    assert read_file(data).rows() == rows and footer.schema == schema
    assert (footer.format_version, footer.row_count, footer.codec) == (FORMAT_VERSION, len(rows), "none")
    offset = len(MAGIC)
    for i, (col, chunk) in enumerate(zip(schema, footer.chunks)):
        column = [row[i] for row in rows]
        lo, hi = min(column), max(column)
        if col.physical_type == BYTES:
            lo, hi = lo[:STATS_TRUNCATE_BYTES], hi[:STATS_TRUNCATE_BYTES]
        assert (chunk.min, chunk.max) == (lo, hi) and type(chunk.min) is type(lo)
        assert (chunk.byte_offset, chunk.value_count) == (offset, len(rows))
        offset += chunk.byte_length
    assert offset == _footer_region(data)[0]


# -- format version 3 chunks ---------------------------------------------------------------

def test_v3_delta_layout_forced():
    # deltas 1 and 2: least 1 (zigzag 2), width 1, plane [0, 1]
    assert encode_column([100, 101, 103], INT64, Encoding.DELTA, 3) == struct.pack("<q", 100) + bytes([2, 1, 0, 1])
    # deltas 0x123456 and 0: least 0, width 3, a 2-byte plane of the low 16 bits, then a 1-byte plane
    assert encode_column([0, 0x123456, 0x123456], INT64, Encoding.DELTA, 3) == (
        bytes(8) + bytes([0, 3]) + bytes.fromhex("56340000") + bytes.fromhex("1200"))
    # 1,025 deltas of 1: a full block and a block of one, each of width 0
    assert encode_column(list(range(1026)), INT64, Encoding.DELTA, 3) == bytes(8) + bytes([2, 0]) * 2
    assert encode_column([7], INT64, Encoding.DELTA, 3) == struct.pack("<q", 7)
    assert encode_column([], INT64, Encoding.DELTA, 3) == b""


def test_v3_dict_layout_forced():
    head = struct.pack("<I", 2) + struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + b"b"
    assert encode_column([b"a", b"b", b"a"], BYTES, Encoding.DICT, 3) == head + bytes([0b010])
    codes = [0, 1, 2, 1, 0, 2, 2]  # three values: 2 bits each, LSB first
    assert encode_column(codes, INT64, Encoding.DICT, 3)[-2:] == bytes([0b01_10_01_00, 0b10_10_00])
    assert encode_column([9] * 5 + [3], INT64, Encoding.DICT, 3)[-1:] == bytes([0b100000])


@pytest.mark.parametrize("distinct, width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (16, 4), (17, 8), (256, 8),
                                             (257, 16), (65_536, 16), (65_537, 32)])
def test_v3_dict_index_width(distinct, width):
    values = [*range(distinct), 0, distinct - 1, 0]
    encoded = encode_column(values, INT64, Encoding.DICT, 3)
    assert len(encoded) == 4 + 8 * distinct + (len(values) * width + 7) // 8
    assert decode_column(encoded, INT64, Encoding.DICT, len(values), 3) == values
    assert _encoding_sizes(values, INT64)[0][Encoding.DICT] == len(encoded)


def test_v3_chunks_keep_the_v2_layouts_of_plain_and_rle():
    for physical_type, values in [(INT64, [3, 3, 5]), (BYTES, [b"a", b"", b"a"]), (BOOL, [True, True, False])]:
        for encoding in (Encoding.PLAIN, Encoding.RLE):
            assert encode_column(values, physical_type, encoding, 3) == encode_column(values, physical_type, encoding)


# Malformed version-3 chunks: (data, physical type, encoding, value count).
_TWO_BLOCKS = encode_column(list(range(1026)), INT64, Encoding.DELTA, 3)
MALFORMED_V3 = {
    "delta_width_9": (bytes(8) + bytes([0, 9]) + bytes(9), INT64, Encoding.DELTA, 2),
    "delta_width_255": (bytes(8) + bytes([0, 255]) + bytes(8), INT64, Encoding.DELTA, 2),
    "delta_truncated_first_value": (bytes(7), INT64, Encoding.DELTA, 1),
    "delta_truncated_plane": (bytes(8) + bytes([0, 2]) + bytes(3), INT64, Encoding.DELTA, 3),
    "delta_truncated_second_plane": (bytes(8) + bytes([0, 3]) + bytes(4) + bytes(1), INT64, Encoding.DELTA, 3),
    "delta_truncated_least_varint": (bytes(8) + b"\x80", INT64, Encoding.DELTA, 2),
    "delta_no_width": (bytes(8) + b"\x00", INT64, Encoding.DELTA, 2),
    "delta_no_block": (bytes(8), INT64, Encoding.DELTA, 2),
    "delta_least_varint_of_11_bytes": (bytes(8) + b"\x80" * 10 + b"\x00" + bytes([0]), INT64, Encoding.DELTA, 2),
    "delta_least_of_2_to_the_64": (bytes(8) + _varint(2**64) + bytes([0]), INT64, Encoding.DELTA, 2),
    "delta_least_above_2_to_the_64": (bytes(8) + _varint(2**70 - 1) + bytes([0]), INT64, Encoding.DELTA, 2),
    "delta_trailing_byte": (encode_column([1, 2, 4], INT64, Encoding.DELTA, 3) + b"\x00", INT64, Encoding.DELTA, 3),
    "delta_block_more_than_the_count": (_TWO_BLOCKS, INT64, Encoding.DELTA, 1025),
    "delta_blocks_fewer_than_the_count": (_TWO_BLOCKS, INT64, Encoding.DELTA, 2050),
    "delta_plane_shorter_than_the_count": (encode_column([1, 2, 4], INT64, Encoding.DELTA, 3),
                                           INT64, Encoding.DELTA, 4),
    "delta_one_value_with_a_block": (bytes(8) + bytes([0, 0]), INT64, Encoding.DELTA, 1),
    "dict_index_at_dict_size": (struct.pack("<I3q", 3, 7, 8, 9) + bytes([0b11_00]), INT64, Encoding.DICT, 2),
    "dict_index_of_an_empty_dict": (struct.pack("<I", 0) + bytes(1), BYTES, Encoding.DICT, 1),
    "dict_16_bit_index_above_dict_size": (
        encode_column(list(range(300)), INT64, Encoding.DICT, 3)[:-2] + struct.pack("<H", 300),
        INT64, Encoding.DICT, 300),
    "dict_padding_bit_set": (struct.pack("<I", 2) + bytes([0, 1]) + bytes([0b1010]), BOOL, Encoding.DICT, 3),
    "dict_padding_bits_of_4_bit_index": (
        encode_column([b"a", b"b", b"c", b"d", b"e"], BYTES, Encoding.DICT, 3)[:-1] + bytes([0x14]),
        BYTES, Encoding.DICT, 5),
    "dict_truncated_1_bit_indices": (struct.pack("<I", 2) + bytes([0, 1]) + bytes(1), BOOL, Encoding.DICT, 9),
    "dict_truncated_8_bit_indices": (encode_column(list(range(20)), INT64, Encoding.DICT, 3)[:-1],
                                     INT64, Encoding.DICT, 20),
    "dict_trailing_byte": (encode_column([b"a", b"b"], BYTES, Encoding.DICT, 3) + b"\x00", BYTES, Encoding.DICT, 2),
}


@pytest.mark.parametrize("name", MALFORMED_V3)
def test_malformed_v3_chunk_is_corrupt_chunk(name):
    data, physical_type, encoding, value_count = MALFORMED_V3[name]
    with pytest.raises(CorruptChunk):
        decode_column(data, physical_type, encoding, value_count, 3)


def test_malformed_v3_chunks_are_corrupt_chunk_under_optimize():
    """The chunk checks are not assert statements: python -O refuses every
    malformed version-3 chunk as well."""
    result = run_optimized("""
import conftest
from brclake.lakeformat import decode_column
from test_lakeformat import MALFORMED_V3
for name, (data, physical_type, encoding, value_count) in sorted(MALFORMED_V3.items()):
    try:
        decode_column(data, physical_type, encoding, value_count, 3)
    except Exception as exc:
        print(name, type(exc).__name__)
""")
    assert result.stdout.splitlines() == [f"{name} CorruptChunk" for name in sorted(MALFORMED_V3)], result.stderr


@st.composite
def long_columns_of_few_values(draw):
    """Columns of up to 3,000 values drawn from at most 40: several DELTA
    blocks, and DICT indices of 1 to 8 bits."""
    physical_type = draw(st.sampled_from([INT64, BYTES, BOOL]))
    pool = draw(st.lists(CELLS[physical_type], min_size=1, max_size=40, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=50))
    length = draw(st.sampled_from([1024, 1025, 1026, 2049]) | st.integers(1, 3000))
    return physical_type, [pool[picks[i % len(picks)]] for i in range(length)]


V3_COLUMNS = st.one_of(
    COLUMNS,
    long_columns_of_few_values(),
    # wrapping sequences from the int64 extremes on, with deltas of every varint length
    st.tuples(st.just(INT64), st.tuples(I64 | st.sampled_from([-(2**63), 2**63 - 1]), DELTAS_UP_TO).map(
        lambda walk: _wrapped_sum(*walk))),
)


@given(V3_COLUMNS)
@example((INT64, [-(2**63), 2**63 - 1, 0, -(2**63)]))
@example((INT64, [2**63 - 1, -(2**63)] * 700))  # every delta wraps, over two blocks
@example((INT64, _wrapped_sum(-(2**63), [2**55 + 12345] * 2000)))  # sums pass 2**63 and wrap
@example((BYTES, [b"k" * 300] * 5))  # RLE, its run value's lengths 4 bytes each
@example((BYTES, [b"k" * 300, b"k" * 300, b"z" * 256, b"k" * 300 + b"q", b""]))  # lengths past 255
@seed(27)
@settings(max_examples=300, deadline=None)
def test_choice_is_the_smallest_real_encoding(column):
    """The sizes the writer counts are the lengths of the chunks of the
    encodings legal in the current format version (every one but a BYTES
    PLAIN or DICT that another size shows cannot be the smallest), and the
    chunks it measures by encoding are those chunks. It picks the smallest
    of all (the first of equal sizes), and every chunk round-trips."""
    physical_type, values = column
    chunks = {e: encode_column(values, physical_type, e, FORMAT_VERSION) for e in CANDIDATES[physical_type]}
    sizes, encoded = _encoding_sizes(values, physical_type)
    real = {e: len(chunk) for e, chunk in chunks.items()}
    assert sizes == {e: real[e] for e in sizes} and encoded == {e: chunks[e] for e in encoded}
    assert list(sizes) == sorted(sizes)  # Encoding order, so that min() takes the first of equal sizes
    assert set(real) - set(sizes) <= ({Encoding.PLAIN, Encoding.DICT} if physical_type == BYTES else set())
    assert choose_encoding(values, physical_type) == min(real, key=real.__getitem__)
    for encoding, chunk in chunks.items():
        assert decode_column(chunk, physical_type, encoding, len(values), FORMAT_VERSION) == values


# -- format version 4: front-coded BYTES values ----------------------------------------------

def test_v4_bytes_layout_forced():
    # prefixes 0, 2, 0; suffix lengths 2, 1, 1; suffixes "ab", "c", "b"
    assert encode_column([b"ab", b"abc", b"b"], BYTES, Encoding.PLAIN, 4) == bytes([1, 0, 2, 0, 2, 1, 1]) + b"abcb"
    # each run value a sequence of one
    assert encode_column([b"ab", b"ab", b"b"], BYTES, Encoding.RLE, 4) == (
        struct.pack("<I", 2) + bytes([1, 0, 2]) + b"ab" + struct.pack("<I", 1) + bytes([1, 0, 1]) + b"b")
    # the dictionary a sequence, then 1-bit indices
    assert encode_column([b"ab", b"abc", b"ab"], BYTES, Encoding.DICT, 4) == (
        struct.pack("<I", 2) + bytes([1, 0, 2, 2, 1]) + b"abc" + bytes([0b010]))
    # a length over 255 takes every length to 4 bytes
    long = b"p" * 300
    assert encode_column([long, long + b"q"], BYTES, Encoding.PLAIN, 4) == (
        bytes([4]) + struct.pack("<4I", 0, 300, 300, 1) + long + b"q")
    assert encode_column([], BYTES, Encoding.PLAIN, 4) == bytes([1])


V4_BYTES_SEQUENCES = {
    "empty_values": [b"", b"", b"x", b"", b"x"],
    "long_prefix_and_suffix": [b"k" * 260, b"k" * 260 + b"v" * 256, b"k" * 259, b"k" * 600],
    "bytearrays": [bytearray(b"conn0-1"), bytearray(b"conn0-10"), bytearray(b"conn1-1")],
    "not_utf8": [b"\xff\xfe\x00", b"\xff\xfe\x80", b"\xc3(", b"\xc3"],
    "one_value": [b"only"],
    "no_values": [],
}


@pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE, Encoding.DICT])
@pytest.mark.parametrize("name", V4_BYTES_SEQUENCES)
def test_v4_bytes_round_trip(name, encoding):
    values = V4_BYTES_SEQUENCES[name]
    encoded = encode_column(values, BYTES, encoding, 4)
    decoded = decode_column(encoded, BYTES, encoding, len(values), 4)
    assert decoded == values and all(type(value) is bytes for value in decoded)
    if name == "long_prefix_and_suffix" and encoding == Encoding.PLAIN:
        assert encoded[0] == 4


def test_v4_keeps_the_v3_layouts_off_bytes():
    for physical_type, values in [(INT64, [3, 3, 5, 1]), (BOOL, [True, True, False])]:
        for encoding in CANDIDATES[physical_type]:
            assert encode_column(values, physical_type, encoding, 4) == encode_column(values, physical_type,
                                                                                     encoding, 3)


def test_a_v4_file_front_codes_its_footer_strings_and_bytes_stats():
    rows = [(1, b"BTC-USD-0001", True), (2, b"BTC-USD-0002", False)]
    data = write_file(rows, SCHEMA)
    start, footer_len = _footer_region(data)
    ts, sym, up = read_file(data).footer.chunks
    assert (sym.min, sym.max) == (b"BTC-USD-0001", b"BTC-USD-0002")
    assert data[start:start + footer_len] == _v2_footer(2, [
        [b"ts", 0, ts.encoding, ts.byte_length, ts.crc32c, struct.pack("<qq", 1, 2)],
        [b"sym", 1, sym.encoding, sym.byte_length, sym.crc32c, bytes([1, 0, 11, 12, 1]) + b"BTC-USD-00012"],
        [b"up", 2, up.encoding, up.byte_length, up.crc32c, bytes([0, 1])]])


# Malformed version-4 BYTES chunks: (data, encoding, value count).
MALFORMED_V4 = {
    "bytes_no_width": (b"", Encoding.PLAIN, 1),
    "bytes_width_0": (bytes([0]), Encoding.PLAIN, 0),
    "bytes_width_2": (bytes([2, 0, 0, 1, 0]) + b"x", Encoding.PLAIN, 1),
    "bytes_first_prefix_not_0": (bytes([1, 1, 1]) + b"x", Encoding.PLAIN, 1),
    "bytes_prefix_longer_than_the_value_before": (bytes([1, 0, 2, 1, 0]) + b"x", Encoding.PLAIN, 2),
    "bytes_truncated_lengths": (bytes([1, 0]), Encoding.PLAIN, 1),
    "bytes_truncated_4_byte_lengths": (bytes([4]) + struct.pack("<I", 0) + bytes(3), Encoding.PLAIN, 1),
    "bytes_truncated_suffixes": (bytes([1, 0, 3]) + b"ab", Encoding.PLAIN, 1),
    "bytes_trailing_byte": (bytes([1, 0, 1]) + b"xy", Encoding.PLAIN, 1),
    "bytes_fewer_than_the_count": (bytes([1, 0, 1]) + b"x", Encoding.PLAIN, 2),
    "rle_run_value_with_a_prefix": (struct.pack("<I", 2) + bytes([1, 1, 1]) + b"x", Encoding.RLE, 2),
    "rle_run_value_of_width_3": (struct.pack("<I", 2) + bytes([3, 0, 1]) + b"x", Encoding.RLE, 2),
    "dict_truncated_dictionary": (struct.pack("<I", 1) + bytes([1, 0, 5]) + b"ab" + bytes(1), Encoding.DICT, 1),
    "dict_prefix_past_the_entry_before": (struct.pack("<I", 2) + bytes([1, 0, 3, 1, 1]) + b"xy" + bytes([0b10]),
                                          Encoding.DICT, 2),
}


@pytest.mark.parametrize("name", MALFORMED_V4)
def test_malformed_v4_bytes_chunk_is_corrupt_chunk(name):
    data, encoding, value_count = MALFORMED_V4[name]
    with pytest.raises(CorruptChunk):
        decode_column(data, BYTES, encoding, value_count, 4)


def test_malformed_v4_bytes_chunks_are_corrupt_chunk_under_optimize():
    """The BYTES checks are not assert statements: python -O refuses every
    malformed version-4 BYTES chunk as well."""
    result = run_optimized("""
import conftest
from brclake.lakeformat import BYTES, decode_column
from test_lakeformat import MALFORMED_V4
for name, (data, encoding, value_count) in sorted(MALFORMED_V4.items()):
    try:
        decode_column(data, BYTES, encoding, value_count, 4)
    except Exception as exc:
        print(name, type(exc).__name__)
""")
    assert result.stdout.splitlines() == [f"{name} CorruptChunk" for name in sorted(MALFORMED_V4)], result.stderr
