"""Bit-exact columnar file format (".brcl").

File layout, all integers little-endian:

    magic "BRCL"
    column chunks, schema order, back to back, each encoded per its encoding
    footer
    u32 footer length
    magic "BRCL"

A sequence of BYTES values, as format version 4 lays it out, is front-coded:

    u8 width, 1 or 4 (1 where every length below is under 256)
    per value, its prefix length: the bytes it shares with the value
        before it (0 for the first), width bytes each
    per value, its suffix length: the bytes that follow that prefix
    the suffixes, back to back

Encodings, as format version 4 lays them out:

    PLAIN  INT64: 8 bytes/value. BYTES: one front-coded sequence.
           BOOL: one byte per value, 0 or 1.
    RLE    repeated (u32 run_length, PLAIN-encoded single value); runs maximal.
    DICT   u32 dict_size, dictionary values PLAIN in first-occurrence order,
           then each value's index bit-packed LSB-first at b bits, b the
           smallest of 1, 2, 4, 8, 16 and 32 with 2**b >= dict_size; the
           padding bits of the last byte are 0.
    DELTA  INT64 only: first value as raw i64, then the deltas, each wrapped
           modulo 2^64 to int64 so any i64 sequence round-trips, in blocks
           of 1024 (the last holds the rest). A block is its least delta as
           a zigzag LEB128 varint, a u8 width of 0 to 8 bytes, then each
           delta less that least one in planes, lowest bytes first. Width 0
           has no plane (every delta is the least), width 8 one 8-byte
           plane, and any other width one plane for each of 4, 2 and 1
           bytes that it sums: width 3 is a 2-byte plane of each delta's low
           16 bits, then a 1-byte plane of its next 8.

Format version 3 lays out all but BYTES the same, but a BYTES value, in a
PLAIN chunk, an RLE run or a DICT dictionary, is a u32 length and its raw
bytes. Versions 1 and 2 lay PLAIN and RLE out as version 3 does, but a
DICT index is a u32, and DELTA holds each delta after the first value as a
zigzag LEB128 varint.

A writer stores every column in the smallest encoding legal for its type:
PLAIN, RLE and DICT for all three, and DELTA for INT64 too; equal sizes go
to the first in ``Encoding`` order (``choose_encoding`` gives the sizes).
Readers decode any legal encoding of any column, so this choice is the
writer's alone and changing it needs no new ``FORMAT_VERSION``.

Chunks carry a CRC-32C over exactly their encoded bytes and min/max stats
(BYTES stats compare lexicographically and are truncated to 64 bytes). The
payload holds no timestamps, so identical input yields identical bytes on
any platform.

The writer writes format version 4, whose footer is binary and laid out as
those of versions 2 and 3. Its strings and stats are PLAIN values in the
footer's version: a string is a BYTES sequence of one (a u32 length and its
bytes before version 4; names and the writer in UTF-8), and min and max are
PLAIN in their column's type, the pair one sequence for BYTES.

    u8 version (4, 3 or 2), u32 row_count, u32 column count, writer string
    per column, in schema order:
        name string, u8 physical type (0 INT64, 1 BYTES, 2 BOOL),
        u8 encoding, u32 chunk byte length, u32 chunk CRC-32C,
        min and max: i64 each for INT64, one byte 0 or 1 each for BOOL,
        a sequence of two values of at most 64 raw bytes for BYTES
    u32 CRC-32C over every footer byte before it

A chunk holds row_count values, chunks tile the bytes between the leading
magic and the footer, so each chunk starts where the one before it ends,
and the codec is "none"; the reader fills these ``FileFooter`` fields in.

The reader also reads format version 1, whose footer is the UTF-8 JSON
object of ``FileFooter`` with sorted keys, written by ``localfile``'s record
codec (a chunk's encoding by its member name, BYTES stats as latin-1
text). A footer's first byte tells the versions apart: ``{`` is version 1,
``0x02`` to ``0x04`` versions 2 to 4, anything else is unsupported, and the
reader decodes each chunk in its footer's version's layout.
``_check_footer`` adds to a version-1 footer what the codec cannot see: a
valid schema with one chunk per column, counts that agree, chunk ranges
between the leading magic and the footer, and stats of each column's type.
Any way a footer of any version can be wrong is FooterCorrupt.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import accumulate, compress, groupby, islice, repeat
from operator import add, getitem, gt, lshift, ne, or_, sub
from typing import Any, Callable, Iterable, Sequence

from .crc32c import crc32c
from .errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptChunk,
    FooterCorrupt,
    IllegalEncoding,
    SchemaViolation,
)
from .fixedpoint import I64_MAX, I64_MIN
from .localfile import read_json, record_from_json

MAGIC = b"BRCL"
FORMAT_VERSION = 4
DEFAULT_WRITER = "brclake/1"
STATS_TRUNCATE_BYTES = 64

INT64 = "INT64"
BYTES = "BYTES"
BOOL = "BOOL"
PHYSICAL_TYPES = (INT64, BYTES, BOOL)  # a binary footer codes a type by its index here


_COLUMN_NAME = re.compile(r"[a-z_][a-z0-9_]*")


class Encoding(IntEnum):
    PLAIN = 0
    RLE = 1
    DICT = 2
    DELTA = 3


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    physical_type: str

    def validate(self) -> None:
        if not _COLUMN_NAME.fullmatch(self.name):
            raise ValueError(f"bad column name {self.name!r}")
        if self.physical_type not in PHYSICAL_TYPES:
            raise ValueError(f"bad physical type {self.physical_type!r}")


@dataclass
class ColumnChunk:
    """A chunk's place, coding and stats. A BYTES stat is bytes, held as
    latin-1 text only in a version-1 footer's JSON."""

    encoding: Encoding
    value_count: int
    byte_offset: int
    byte_length: int
    crc32c: int
    min: Any
    max: Any


@dataclass
class FileFooter:
    format_version: int
    row_count: int
    schema: list[ColumnSchema]
    chunks: list[ColumnChunk]
    writer: str
    codec: str = "none"


# -- primitive codecs ----------------------------------------------------------

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_BOOL = struct.Struct("?")
_WIDTHS = {INT64: _I64.size, BOOL: _BOOL.size}  # PLAIN bytes per value
_U64_MOD = 1 << 64


_VALUE_TYPES = {INT64: {int}, BYTES: {bytes, bytearray}, BOOL: {bool}}


def _column_bounds(values: Sequence[Any], physical_type: str) -> tuple[Any, Any] | None:
    """(min, max) of a non-empty column whose every value has its physical
    type; None if any value does not. INT64 values are ints (not bools)
    within int64, BYTES values bytes or bytearray, BOOL values bools."""
    if not set(map(type, values)) <= _VALUE_TYPES[physical_type]:
        return None
    lo, hi = min(values), max(values)
    if physical_type == INT64 and (lo < I64_MIN or hi > I64_MAX):
        return None
    return lo, hi


def _plain_values(values: Sequence[Any], physical_type: str, format_version: int) -> Iterable[bytes]:
    """The PLAIN encoding of each value on its own: in version 4 a BYTES
    value is a front-coded sequence of one."""
    if physical_type == INT64:
        return map(_I64.pack, values)
    if physical_type == BOOL:
        return map(_BOOL.pack, values)
    if format_version >= 4:
        return (_encode_front_coded((value,)) for value in values)
    return map(add, map(_U32.pack, map(len, values)), values)


def _encode_plain(values: Sequence[Any], physical_type: str, format_version: int) -> bytes:
    if physical_type == INT64:
        return struct.pack(f"<{len(values)}q", *values)
    if physical_type == BYTES and format_version >= 4:
        return _encode_front_coded(values)
    return b"".join(_plain_values(values, physical_type, format_version))


def _decode_plain(data: bytes, physical_type: str, count: int, pos: int, format_version: int) -> tuple[list, int]:
    if physical_type == INT64:
        end = pos + 8 * count
        if end > len(data):
            raise CorruptChunk("truncated PLAIN INT64 stream")
        return list(struct.unpack_from(f"<{count}q", data, pos)), end
    if physical_type == BOOL:
        end = pos + count
        if end > len(data):
            raise CorruptChunk("truncated PLAIN BOOL stream")
        out = []
        for b in data[pos:end]:
            if b > 1:
                raise CorruptChunk(f"bad BOOL byte {b}")
            out.append(b == 1)
        return out, end
    if format_version >= 4:
        return _decode_front_coded(data, count, pos)
    out = []
    for _ in range(count):
        if pos + 4 > len(data):
            raise CorruptChunk("truncated BYTES length")
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        if pos + n > len(data):
            raise CorruptChunk("truncated BYTES value")
        out.append(data[pos:pos + n])
        pos += n
    return out, pos


# -- front-coded BYTES (version 4) ----------------------------------------------------
#
# Two neighbours' shared prefix is found without a loop over bytes: each
# value is a big-endian int, the longer of the two is shifted down to the
# shorter's length, and the highest set bit of their XOR falls in the first
# byte where they differ.


def _shared_prefixes(values: Sequence[bytes]) -> list[int]:
    """The bytes each value shares with the one before it, 0 for the first."""
    ints, lengths = list(map(int.from_bytes, values, repeat("big"))), list(map(len, values))
    prefixes = [0] * len(values)
    for i in range(1, len(values)):
        before, value, shorter = ints[i - 1], ints[i], lengths[i]
        if lengths[i - 1] > shorter:
            before >>= 8 * (lengths[i - 1] - shorter)
        else:
            shorter = lengths[i - 1]
            value >>= 8 * (lengths[i] - shorter)
        prefixes[i] = shorter - ((before ^ value).bit_length() + 7) // 8
    return prefixes


def _encode_front_coded(values: Sequence[bytes]) -> bytes:
    """The version-4 sequence of values: a width, the prefix lengths, the
    suffix lengths, then the suffixes."""
    prefixes = _shared_prefixes(values)
    suffixes = list(map(getitem, values, map(slice, prefixes, repeat(None))))
    lengths = [*prefixes, *map(len, suffixes)]
    try:
        head = b"\x01" + bytes(lengths)  # ValueError if a length is over 255
    except ValueError:
        head = b"\x04" + struct.pack(f"<{len(lengths)}I", *lengths)
    return head + b"".join(suffixes)


def _decode_front_coded(data: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    """The count values of the version-4 sequence at pos, and its end;
    CorruptChunk if it is not one."""
    width = data[pos] if pos < len(data) else None
    if width not in (1, 4):
        raise CorruptChunk(f"BYTES length width {width}, not 1 or 4")
    start = pos + 1 + 2 * count * width
    if start > len(data):
        raise CorruptChunk("truncated BYTES lengths")
    if width == 1:
        prefixes, sizes = data[pos + 1:pos + 1 + count], data[pos + 1 + count:start]
    else:
        lengths = struct.unpack_from(f"<{2 * count}I", data, pos + 1)
        prefixes, sizes = lengths[:count], lengths[count:]
    values = []
    value = b""  # before the first value, so that it shares nothing
    end = start
    for prefix, size in zip(prefixes, sizes):
        if prefix > len(value):
            raise CorruptChunk(f"BYTES value shares {prefix} bytes with the {len(value)} before it")
        begin, end = end, end + size
        value = value[:prefix] + data[begin:end]
        values.append(value)
    if end > len(data):  # the slices above stopped at the end of data
        raise CorruptChunk("truncated BYTES suffixes")
    return values, end


# -- column encode / decode -------------------------------------------------------

def encode_column(values: Sequence[Any], physical_type: str, encoding: Encoding, format_version: int = 2) -> bytes:
    """Encode one column chunk in the layout of format_version, bit-exact
    per the module docstring: versions 1 and 2 share one layout, version 3
    changes DICT's and DELTA's, and version 4 how BYTES values are coded."""
    if encoding == Encoding.DELTA and physical_type != INT64:
        raise IllegalEncoding(physical_type, encoding.name)

    if encoding == Encoding.PLAIN:
        return _encode_plain(values, physical_type, format_version)

    if encoding == Encoding.RLE:
        run_values, run_lengths = [], []
        for value, run in groupby(values):
            run_values.append(value)
            run_lengths.append(_U32.pack(len(list(run))))
        return b"".join(map(add, run_lengths, _plain_values(run_values, physical_type, format_version)))

    if encoding == Encoding.DICT:
        keys = list(map(bytes, values)) if physical_type == BYTES else values
        dictionary = list(dict.fromkeys(keys))  # first-occurrence order
        codes = list(map({key: code for code, key in enumerate(dictionary)}.__getitem__, keys))
        width = _code_width(len(dictionary), format_version)
        return (_U32.pack(len(dictionary)) + _encode_plain(dictionary, physical_type, format_version)
                + _pack_codes(codes, width))

    if not values:  # DELTA
        return b""
    deltas = list(map(sub, islice(values, 1, None), values))
    if format_version < 3:
        return _I64.pack(values[0]) + b"".join(map(_zigzag_varint, _wrapped(deltas)))
    return _I64.pack(values[0]) + b"".join(
        _delta_block(deltas[start:start + _DELTA_BLOCK]) for start in range(0, len(deltas), _DELTA_BLOCK))


def decode_column(data: bytes, physical_type: str, encoding: Encoding, value_count: int,
                  format_version: int = 2) -> list:
    """Exact inverse of encode_column in the layout of format_version;
    CorruptChunk on any malformed input."""
    if encoding == Encoding.DELTA and physical_type != INT64:
        raise IllegalEncoding(physical_type, encoding.name)

    if encoding == Encoding.PLAIN:
        values, pos = _decode_plain(data, physical_type, value_count, 0, format_version)

    elif encoding == Encoding.RLE:
        values = []
        pos = 0
        while len(values) < value_count:
            if pos + 4 > len(data):
                raise CorruptChunk("truncated RLE run header")
            (run,) = _U32.unpack_from(data, pos)
            pos += 4
            if run == 0:
                raise CorruptChunk("zero-length RLE run")
            if len(values) + run > value_count:
                raise CorruptChunk("RLE run overshoots value count")
            single, pos = _decode_plain(data, physical_type, 1, pos, format_version)
            values.extend(single * run)

    elif encoding == Encoding.DICT:
        if len(data) < 4:
            raise CorruptChunk("truncated DICT header")
        (dict_size,) = _U32.unpack_from(data, 0)
        dictionary, pos = _decode_plain(data, physical_type, dict_size, 4, format_version)
        width = _code_width(dict_size, format_version)
        end = pos + (value_count * width + 7) // 8
        if end > len(data):
            raise CorruptChunk("truncated DICT indices")
        codes = _unpack_codes(data[pos:end], width, value_count)
        pos = end
        if codes and max(codes) >= dict_size:
            raise CorruptChunk(f"DICT index {max(codes)} >= dict size {dict_size}")
        values = list(map(dictionary.__getitem__, codes))

    elif value_count == 0:  # DELTA
        values, pos = [], 0
    elif format_version < 3:
        values = _decode_delta(data, value_count)
        pos = len(data)
    else:
        values, pos = _decode_delta_blocks(data, value_count)

    if pos != len(data):
        raise CorruptChunk(f"{len(data) - pos} trailing bytes")
    return values


# -- DICT indices ----------------------------------------------------------------------
#
# Indices of 8, 16 or 32 bits are one struct call each way. Narrower ones
# are packed a chunk at a time: one code to a byte of one int, then
# mask-and-shift steps squeeze each pair of fields into one, until a byte
# holds 8 // width codes in every (8 // width)-th byte. A table maps each
# packed byte back to its codes, one to a byte.

_CODE_FORMATS = {8: "B", 16: "H", 32: "I"}
_BYTE_CODES = {width: [bytes(byte >> shift & (1 << width) - 1 for shift in range(0, 8, width))
                       for byte in range(256)]
               for width in (1, 2, 4)}


def _code_width(dict_size: int, format_version: int) -> int:
    """The bits of a DICT index into dict_size values: 32 before version 3,
    then the fewest of 1, 2, 4, 8, 16 and 32 that can tell them apart."""
    if format_version < 3:
        return 32
    return 1 << (max(1, (dict_size - 1).bit_length()) - 1).bit_length()  # the power of 2 >= the bits needed


def _pack_codes(codes: list[int], width: int) -> bytes:
    """codes packed LSB-first at width bits each, padding bits 0."""
    if width in _CODE_FORMATS:
        return struct.pack(f"<{len(codes)}{_CODE_FORMATS[width]}", *codes)
    per_byte = 8 // width
    lanes = bytes(codes) + bytes(-len(codes) % per_byte)
    x = int.from_bytes(lanes, "little")
    field, used = 1, width  # bytes in a field, and its bits in use
    while used < 8:
        high = x & int.from_bytes((bytes(field) + b"\xff" * field) * (len(lanes) // (2 * field)), "little")
        x = (x ^ high) | (high >> (8 * field - used))  # each pair of fields, squeezed into the lower one
        field, used = 2 * field, 2 * used
    return x.to_bytes(len(lanes), "little")[::per_byte]


def _unpack_codes(packed: bytes, width: int, count: int) -> Sequence[int]:
    """The count codes that packed holds at width bits each; CorruptChunk
    if a padding bit is set."""
    if width in _CODE_FORMATS:
        return struct.unpack(f"<{count}{_CODE_FORMATS[width]}", packed)
    codes = b"".join(map(_BYTE_CODES[width].__getitem__, packed))
    if any(codes[count:]):
        raise CorruptChunk("nonzero DICT padding bits")
    return codes[:count]


# -- DELTA ------------------------------------------------------------------------------
#
# Version 3: a block is decoded a plane at a time, each plane one
# struct.unpack, and the planes of a width are ORed together. Versions 1
# and 2: one regex splits a chunk into its varints, which are decoded one at
# a time. Either way the values are the running sums of the deltas, wrapped
# to int64 once at the end: wrapping is reduction modulo 2**64, which
# commutes with summing.

_DELTA_BLOCK = 1024  # deltas in a version-3 block
# Each width's planes, lowest bytes first: (struct code, bytes, shift).
_PLANES = (
    (),
    (("B", 1, 0),),
    (("H", 2, 0),),
    (("H", 2, 0), ("B", 1, 16)),
    (("I", 4, 0),),
    (("I", 4, 0), ("B", 1, 32)),
    (("I", 4, 0), ("H", 2, 32)),
    (("I", 4, 0), ("H", 2, 32), ("B", 1, 48)),
    (("Q", 8, 0),),
)
# One varint: up to nine continuation bytes and a final byte. A longer run
# of continuation bytes leaves bytes no match covers.
_VARINT = re.compile(rb"[\x80-\xff]{0,9}[\x00-\x7f]")


def _zigzag_varint(delta: int) -> bytes:
    """The zigzag LEB128 varint of an int64."""
    u = (delta << 1) ^ (delta >> 63)
    out = bytearray()
    while u >= 0x80:
        out.append((u & 0x7F) | 0x80)
        u >>= 7
    out.append(u)
    return bytes(out)


def _wrapped(ints: list[int]) -> list[int]:
    """ints, each wrapped modulo 2**64 to int64: the deltas a writer stores,
    and the running sums a reader makes of them."""
    if ints and (min(ints) < I64_MIN or max(ints) > I64_MAX):
        return [(i - I64_MIN) % _U64_MOD + I64_MIN for i in ints]
    return ints


def _delta_block(deltas: list[int]) -> bytes:
    """One version-3 DELTA block of deltas."""
    least, most = min(deltas), max(deltas)
    if least < I64_MIN or most > I64_MAX:  # some delta wraps around int64
        return _delta_block(_wrapped(deltas))
    width = ((most - least).bit_length() + 7) // 8
    parts = [_zigzag_varint(least), bytes([width])]
    if width:
        rest = [delta - least for delta in deltas]
        planes = _PLANES[width]
        for code, size, shift in planes:
            plane = rest if len(planes) == 1 else [r >> shift & (1 << 8 * size) - 1 for r in rest]
            parts.append(struct.pack(f"<{len(deltas)}{code}", *plane))
    return b"".join(parts)


def _decode_delta_blocks(data: bytes, value_count: int) -> tuple[list[int], int]:
    """The value_count values of a non-empty version-3 DELTA chunk, and the
    bytes its blocks take."""
    if len(data) < 8:
        raise CorruptChunk("truncated DELTA first value")
    deltas: list[int] = []
    pos = 8
    for start in range(0, value_count - 1, _DELTA_BLOCK):
        n = min(_DELTA_BLOCK, value_count - 1 - start)
        varint = _VARINT.match(data, pos)
        if varint is None or varint.end() == len(data):
            raise CorruptChunk("DELTA block without a whole least-delta varint and width")
        (least,) = _varint_deltas([varint.group()])
        width = data[varint.end()]
        if width > 8:
            raise CorruptChunk(f"DELTA block width {width} over 8 bytes")
        pos = varint.end() + 1
        block: Iterable[int] = repeat(0, n)
        for code, size, shift in _PLANES[width]:
            if pos + n * size > len(data):
                raise CorruptChunk(f"truncated DELTA plane of {size} bytes")
            plane = struct.unpack_from(f"<{n}{code}", data, pos)
            block = plane if shift == 0 else map(or_, block, map(lshift, plane, repeat(shift)))
            pos += n * size
        deltas += map(add, block, repeat(least))
    return _wrapped(list(accumulate(deltas, initial=_I64.unpack_from(data, 0)[0]))), pos


def _decode_delta(data: bytes, value_count: int) -> list[int]:
    """The value_count values of a non-empty version-1 or -2 DELTA chunk:
    the first value, then the running sums with each value's varint delta
    from the one before, wrapped to int64."""
    if len(data) < 8:
        raise CorruptChunk("truncated DELTA first value")
    varints = _VARINT.findall(data, 8)
    if len(varints) != value_count - 1 or sum(map(len, varints)) != len(data) - 8:
        raise CorruptChunk(f"DELTA chunk of {value_count} values does not hold "
                           f"{value_count - 1} whole varints of at most 10 bytes")
    return _wrapped(list(accumulate(_varint_deltas(varints), initial=_I64.unpack_from(data, 0)[0])))


def _varint_deltas(varints: list[bytes]) -> list[int]:
    """The deltas of zigzag LEB128 varints; CorruptChunk for a varint of
    2**64 or more, which codes no int64."""
    deltas = []
    for varint in varints:
        u = 0
        for b in reversed(varint):
            u = (u << 7) | (b & 0x7F)
        deltas.append((u >> 1) ^ -(u & 1))
    if deltas and (max(deltas) > I64_MAX or min(deltas) < I64_MIN):  # the varint was >= 2**64
        raise CorruptChunk("varint overflow")
    return deltas


# -- encoding choice -------------------------------------------------------------------

def choose_encoding(values: Sequence[Any], physical_type: str) -> Encoding:
    """The smallest encoding legal for a column of physical_type in the
    layouts of ``FORMAT_VERSION``: PLAIN, RLE and DICT, and for INT64 also
    DELTA, the first in ``Encoding`` order of equal sizes. With PLAIN(vs)
    8 bytes per INT64 value, 1 per BOOL and the length of vs' front-coded
    sequence for BYTES, and b the bits of a DICT index (the module
    docstring), the sizes are

        PLAIN  PLAIN(values)
        RLE    per run: 4 + PLAIN(its value), which for BYTES is 3 + its
               length, or 9 + its length past 255 bytes
        DICT   4 + PLAIN(distinct values) + ceil(n * b / 8)
        DELTA  8 + per block of up to 1024 deltas: its least delta's
               varint, 1, and its width times its deltas

    INT64 and BOOL sizes and BYTES RLE's are counted, not encoded. DELTA's,
    and BYTES PLAIN's and DICT's, are the lengths of their encodings, and a
    writer that chooses DELTA or BYTES PLAIN stores the chunk it measured.
    Front coding costs about as much as decoding, so BYTES PLAIN is only
    measured where RLE or DICT is not already below its least size, 1 + 2n
    (width 1, no suffix bytes), and DICT not where every value is distinct,
    which makes its dictionary the column and DICT larger than PLAIN.
    Readers decode any legal encoding of any column, so the choice changes
    a file's bytes but not its rows, its readers or its format version."""
    return _encode_smallest(values, physical_type)[0]


def _encode_smallest(values: Sequence[Any], physical_type: str) -> tuple[Encoding, bytes]:
    """choose_encoding's encoding of a column, and the chunk it encodes."""
    if not values:
        return Encoding.PLAIN, encode_column(values, physical_type, Encoding.PLAIN, FORMAT_VERSION)
    sizes, chunks = _encoding_sizes(values, physical_type)
    encoding = min(sizes, key=sizes.__getitem__)  # the first of equal sizes
    if encoding in chunks:
        return encoding, chunks[encoding]
    return encoding, encode_column(values, physical_type, encoding, FORMAT_VERSION)


def _encoding_sizes(values: Sequence[Any], physical_type: str) -> tuple[dict[Encoding, int], dict[Encoding, bytes]]:
    """The size of each encoding legal for a non-empty column, in the
    layouts of ``FORMAT_VERSION`` and in ``Encoding`` order, but BYTES PLAIN
    or DICT where another size shows it cannot be the smallest; and the
    chunks encoded to measure a size (INT64 DELTA, BYTES PLAIN)."""
    # the value of each maximal run, in order: a value that differs from the one before starts one
    run_values = [values[0], *compress(islice(values, 1, None), map(ne, islice(values, 1, None), values))]
    if physical_type != BYTES:
        width, distinct = _WIDTHS[physical_type], len(set(run_values))  # each distinct value starts a run
        sizes = {Encoding.PLAIN: width * len(values), Encoding.RLE: (4 + width) * len(run_values),
                 Encoding.DICT: 4 + width * distinct + _codes_size(len(values), distinct)}
        if physical_type == BOOL:
            return sizes, {}
        delta = encode_column(values, INT64, Encoding.DELTA, FORMAT_VERSION)
        return {**sizes, Encoding.DELTA: len(delta)}, {Encoding.DELTA: delta}
    # an RLE run is a u32 length and its value as a sequence of its own: a
    # width, two lengths at that width (4 bytes past 255), and the value
    lengths = list(map(len, run_values))
    sizes = {Encoding.RLE: 7 * len(lengths) + sum(lengths) + 6 * sum(map(gt, lengths, repeat(255)))}
    dictionary = list(dict.fromkeys(map(bytes, run_values)))  # in first-occurrence order
    if len(dictionary) < len(values):  # otherwise the dictionary is the values, and DICT is PLAIN and more
        sizes[Encoding.DICT] = 4 + len(_encode_front_coded(dictionary)) + _codes_size(len(values), len(dictionary))
    if min(sizes.values()) < 1 + 2 * len(values):  # PLAIN's least size: width 1 and no suffix bytes
        return sizes, {}
    plain = _encode_front_coded(values)
    return {Encoding.PLAIN: len(plain), **sizes}, {Encoding.PLAIN: plain}


def _codes_size(count: int, dict_size: int) -> int:
    """The bytes of count DICT indices into dict_size values."""
    return (count * _code_width(dict_size, FORMAT_VERSION) + 7) // 8


# -- file writer ---------------------------------------------------------------------------

def _validate_schema(schema: Sequence[ColumnSchema]) -> None:
    names = set()
    for col in schema:
        col.validate()
        if col.name in names:
            raise ValueError(f"duplicate column name {col.name!r}")
        names.add(col.name)


def write_file(rows: Sequence[Sequence[Any]], schema: Sequence[ColumnSchema]) -> bytes:
    """Serialize rows to a complete .brcl file; byte-identical across runs."""
    _validate_schema(schema)
    if not rows:
        raise SchemaViolation(0, "", "row_count must be >= 1")

    columns = _checked_columns(rows, schema)
    parts = [MAGIC]
    offset = len(MAGIC)
    chunks = []
    for col, (values, (lo, hi)) in zip(schema, columns):
        encoding, encoded = _encode_smallest(values, col.physical_type)
        if col.physical_type == BYTES:
            lo, hi = bytes(lo[:STATS_TRUNCATE_BYTES]), bytes(hi[:STATS_TRUNCATE_BYTES])
        chunks.append(ColumnChunk(encoding, len(values), offset, len(encoded), crc32c(encoded), lo, hi))
        parts.append(encoded)
        offset += len(encoded)

    footer_bytes = _encode_footer(FileFooter(FORMAT_VERSION, len(rows), list(schema), chunks, DEFAULT_WRITER))
    parts.append(footer_bytes)
    parts.append(_U32.pack(len(footer_bytes)))
    parts.append(MAGIC)
    return b"".join(parts)


def _checked_columns(rows: Sequence[Sequence[Any]], schema: Sequence[ColumnSchema]) -> list[tuple]:
    """(values, (min, max)) of each column of rows. The first bad cell in
    row-major order raises SchemaViolation: a row with the wrong number of
    cells, or a value not of its column's physical type."""
    width = len(schema)
    ragged = None if set(map(len, rows)) == {width} else next(
        r for r, row in enumerate(rows) if len(row) != width)
    columns = list(zip(*(rows if ragged is None else rows[:ragged])))
    bounds = [_column_bounds(values, col.physical_type) for col, values in zip(schema, columns)]
    if None in bounds:
        r, c = min((next(r for r, v in enumerate(values) if _column_bounds((v,), col.physical_type) is None), c)
                   for c, (col, values) in enumerate(zip(schema, columns)) if bounds[c] is None)
        raise SchemaViolation(r, schema[c].name)
    if ragged is not None:
        n = len(rows[ragged])
        raise SchemaViolation(ragged, "", f"row {ragged} has {n} cells, schema has {width}")
    return list(zip(columns, bounds))


# -- footer codec --------------------------------------------------------------------------

_FOOTER_HEAD = struct.Struct("<BII")  # format version, row_count, column count
_FOOTER_CHUNK = struct.Struct("<BBII")  # physical type, encoding, chunk byte length, chunk CRC-32C
_BINARY_FOOTER_VERSIONS = (2, 3, 4)


def _encode_footer(footer: FileFooter) -> bytes:
    """The binary footer bytes of footer, its CRC-32C last. Strings and
    stats are PLAIN-encoded values."""
    version = footer.format_version
    parts = [_FOOTER_HEAD.pack(version, footer.row_count, len(footer.schema)),
             _encode_plain([footer.writer.encode()], BYTES, version)]
    for col, chunk in zip(footer.schema, footer.chunks):
        parts += (_encode_plain([col.name.encode()], BYTES, version),
                  _FOOTER_CHUNK.pack(PHYSICAL_TYPES.index(col.physical_type), chunk.encoding,
                                     chunk.byte_length, chunk.crc32c),
                  _encode_plain([chunk.min, chunk.max], col.physical_type, version))
    body = b"".join(parts)
    return body + _U32.pack(crc32c(body))


def _decode_footer(data: bytes, footer_start: int) -> FileFooter:
    """The binary footer data (version 2, 3 or 4) of a file whose chunks end at
    footer_start: its CRC-32C checked first, then every field, chunks tiling
    the chunk region. FooterCorrupt for any other bytes."""
    body, crc = data[:-4], data[-4:]
    if len(crc) < 4 or crc32c(body) != _U32.unpack(crc)[0]:
        raise FooterCorrupt("footer CRC-32C mismatch")
    try:
        version, row_count, n_columns = _FOOTER_HEAD.unpack_from(body)
        (writer,), pos = _decode_plain(body, BYTES, 1, _FOOTER_HEAD.size, version)
        schema, chunks = [], []
        offset = len(MAGIC)
        for _ in range(n_columns):
            (name,), pos = _decode_plain(body, BYTES, 1, pos, version)
            code, encoding, length, chunk_crc = _FOOTER_CHUNK.unpack_from(body, pos)
            if code >= len(PHYSICAL_TYPES):
                raise FooterCorrupt(f"unknown physical type code {code}")
            col = ColumnSchema(name.decode(), PHYSICAL_TYPES[code])
            (lo, hi), pos = _decode_plain(body, col.physical_type, 2, pos + _FOOTER_CHUNK.size, version)
            if col.physical_type == BYTES and max(len(lo), len(hi)) > STATS_TRUNCATE_BYTES:
                raise FooterCorrupt(f"stats of {col.name!r} longer than {STATS_TRUNCATE_BYTES} bytes")
            schema.append(col)
            chunks.append(ColumnChunk(Encoding(encoding), row_count, offset, length, chunk_crc, lo, hi))
            offset += length
        footer = FileFooter(version, row_count, schema, chunks, writer.decode())
        _validate_schema(schema)
    # a field past the footer's end, a BOOL stat above 1, a name or writer
    # not UTF-8, an unknown encoding, a bad or repeated column name
    except (struct.error, CorruptChunk, ValueError) as exc:
        raise FooterCorrupt(f"bad footer: {exc}") from None
    if pos != len(body):
        raise FooterCorrupt(f"{len(body) - pos} trailing footer bytes")
    if offset != footer_start:
        raise FooterCorrupt(f"chunks end at {offset}, not at the footer start {footer_start}")
    return footer


# -- file reader ---------------------------------------------------------------------------

_STAT_TYPES = {INT64: int, BYTES: str, BOOL: bool}  # JSON type of each column type's stats

def _check_footer(footer: FileFooter, footer_start: int) -> FileFooter:
    """A version-1 footer, checked for what the record codec cannot see:
    valid columns, one chunk each, no compression codec, counts >= 0 that
    agree, chunks between the leading magic and footer_start, and stats of
    their column's type, BYTES stats turned from latin-1 text into bytes.
    FooterCorrupt or ValueError otherwise."""
    _validate_schema(footer.schema)
    if footer.format_version != 1:
        raise FooterCorrupt(f"unsupported format version {footer.format_version}")
    if footer.codec != "none":
        raise FooterCorrupt(f"unsupported codec {footer.codec!r}")
    if len(footer.chunks) != len(footer.schema):
        raise FooterCorrupt(f"{len(footer.chunks)} chunks for {len(footer.schema)} columns")
    if footer.row_count < 0:
        raise FooterCorrupt(f"negative row count {footer.row_count}")
    for chunk, col in zip(footer.chunks, footer.schema):
        if chunk.value_count != footer.row_count:
            raise FooterCorrupt("chunk value counts disagree with row count")
        end = chunk.byte_offset + chunk.byte_length
        if not len(MAGIC) <= chunk.byte_offset <= end <= footer_start:
            raise FooterCorrupt(f"chunk of {col.name!r} spans [{chunk.byte_offset}, {end}), "
                                f"outside the chunk region [{len(MAGIC)}, {footer_start})")
        if chunk.crc32c < 0:
            raise FooterCorrupt(f"negative CRC-32C {chunk.crc32c} for {col.name!r}")
        kind = _STAT_TYPES[col.physical_type]
        if type(chunk.min) is not kind or type(chunk.max) is not kind:
            raise FooterCorrupt(f"stats of {col.name!r} are not JSON {kind.__name__}s")
        if kind is str:
            chunk.min, chunk.max = chunk.min.encode("latin-1"), chunk.max.encode("latin-1")
    return footer


@dataclass
class ParsedFile:
    columns: dict[str, list]
    footer: FileFooter

    def rows(self) -> list[tuple]:
        """Row tuples over the decoded columns, in decoded column order."""
        return list(zip(*self.columns.values())) if self.columns else []


def read_footer(fetch: Callable[[int, int], bytes], size: int) -> FileFooter:
    """The checked footer of the size-byte file that the byte-range fetcher
    reads, of any format version; only the magics, the footer length and
    the footer are fetched."""
    if size < 2 * len(MAGIC) + 4:
        raise BadMagic("file too small")
    if fetch(0, 4) != MAGIC:
        raise BadMagic("bad leading magic")
    tail = fetch(size - 8, 8)
    if tail[4:] != MAGIC:
        raise BadMagic("bad trailing magic")
    (footer_len,) = _U32.unpack(tail[:4])
    footer_start = size - 8 - footer_len
    if footer_start < len(MAGIC):
        raise FooterCorrupt(f"footer length {footer_len} exceeds file")
    data = fetch(footer_start, footer_len)
    if data[:1] and data[0] in _BINARY_FOOTER_VERSIONS:
        return _decode_footer(data, footer_start)
    if data[:1] == b"{":
        return read_json(data, lambda obj: _check_footer(record_from_json(FileFooter, obj), footer_start),
                         lambda detail: FooterCorrupt(f"bad footer: {detail}"))
    raise FooterCorrupt(f"unsupported format version: the footer starts with {data[:1]!r}")


def read_file_via(
    fetch: Callable[[int, int], bytes],
    size: int,
    projection: Sequence[str] | None = None,
) -> ParsedFile:
    """Read via a byte-range fetcher, touching only the projected chunks'
    ranges plus magics and footer."""
    footer = read_footer(fetch, size)
    by_name = {s.name: i for i, s in enumerate(footer.schema)}
    if projection is None:
        wanted = [s.name for s in footer.schema]
    else:
        unknown = [n for n in projection if n not in by_name]
        if unknown:
            raise FooterCorrupt(f"projected columns not in schema: {unknown}")
        wanted = list(projection)

    columns: dict[str, list] = {}
    for name in wanted:
        i = by_name[name]
        chunk, col = footer.chunks[i], footer.schema[i]
        encoded = fetch(chunk.byte_offset, chunk.byte_length)
        if crc32c(encoded) != chunk.crc32c:
            raise ChecksumMismatch(name)
        columns[name] = decode_column(encoded, col.physical_type, chunk.encoding, chunk.value_count,
                                      footer.format_version)
    return ParsedFile(columns=columns, footer=footer)


def read_file(data: bytes, projection: Sequence[str] | None = None) -> ParsedFile:
    """In-memory variant of read_file_via."""
    return read_file_via(lambda off, length: data[off:off + length], len(data), projection)
