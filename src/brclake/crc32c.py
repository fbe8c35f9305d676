"""CRC-32C (Castagnoli) over bytes, pure Python, on one of two paths chosen
by the input's length.

Short inputs run a slicing-by-8 table loop, 8 input bytes per iteration.
Its cost is per byte: 5-10 MB/s on the machine named below.

Long inputs are folded as one polynomial over GF(2), after Gopal et al.,
"Fast CRC Computation for Generic Polynomials Using PCLMULQDQ" (Intel,
2009), with Python ints in place of the carry-less multiplier. With the
bits of each byte reversed, the input read big-endian is the message
polynomial m, highest degree first, and the initial value is XORed into its
top 32 bits. Splitting m at 2^k bits, m = h * x^(2^k) + l, gives

    m = h (x) (x^(2^k) mod P) ^ l   (mod P)

where (x) is the XOR of h << j over the set bits j of the 32-bit constant.
Each fold nearly halves m with about 16 big-int shifts and XORs that run
in C. Once m fits in 64 bits it is a message of 8 bytes with the same CRC,
which the table loop finishes. The 64 constants are computed at import.

The switch is on length because the two costs scale differently: the fold
pays a fixed cost per call (two whole-input conversions and a Python loop
of about 16 steps per halving), the table loop a cost per byte. _FOLD_MIN
was set from a per-size microbenchmark of both paths (CPython 3.11.7,
2-vCPU x86-64 sandbox): they cost the same at 128-160 bytes, and the fold
is 1.4x faster at 256 bytes, 3.5x at 1 KiB, 7x at 4 KiB and 14x at 64 KiB.
"""

from __future__ import annotations

_POLY = 0x82F63B78  # reflected Castagnoli polynomial
_P = 0x11EDC6F41  # the same polynomial in polynomial order, with its x^32 term

_FOLD_MIN = 160  # inputs of at least this many bytes are folded


def _build_tables() -> list[list[int]]:
    tables = [[0] * 256 for _ in range(8)]
    t0 = tables[0]
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_POLY if crc & 1 else 0)
        t0[i] = crc
    for i in range(256):
        crc = t0[i]
        for t in range(1, 8):
            crc = (crc >> 8) ^ t0[crc & 0xFF]
            tables[t][i] = crc
    return tables


def _fold_constants() -> list[list[int]]:
    """For k in 0..63, the set bits of x^(2^k) mod P."""
    # Squaring is linear over GF(2): (sum of x^j)^2 = sum of x^(2j), so each
    # constant is the XOR of x^(2j) mod P over the set bits j of the last.
    squares, r = [], 1
    for _ in range(32):
        squares.append(r)
        for _ in range(2):
            r <<= 1
            if r >> 32:
                r ^= _P
    consts, c = [], 0b10  # x^(2^0)
    for _ in range(64):
        bits = [j for j in range(32) if c >> j & 1]
        consts.append(bits)
        c = 0
        for j in bits:
            c ^= squares[j]
    return consts


def _reverse_bits_table() -> bytes:
    rev = [0] * 256
    for i in range(1, 256):
        rev[i] = (rev[i >> 1] >> 1) | (i & 1) << 7
    return bytes(rev)


_T = _build_tables()
_FOLD = _fold_constants()
_REVERSE_BITS = _reverse_bits_table()


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of data, optionally continuing from a previous value."""
    n = len(data)
    if n >= _FOLD_MIN:
        return _crc_fold(data, value)
    t0, t1, t2, t3, t4, t5, t6, t7 = _T
    crc = value ^ 0xFFFFFFFF
    end8 = n - (n & 7)
    i = 0
    while i < end8:
        b0, b1, b2, b3, b4, b5, b6, b7 = data[i:i + 8]
        crc ^= b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)
        crc = (
            t7[crc & 0xFF]
            ^ t6[(crc >> 8) & 0xFF]
            ^ t5[(crc >> 16) & 0xFF]
            ^ t4[crc >> 24]
            ^ t3[b4]
            ^ t2[b5]
            ^ t1[b6]
            ^ t0[b7]
        )
        i += 8
    for b in data[end8:]:
        crc = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _crc_fold(data: bytes, value: int) -> int:
    rev = _REVERSE_BITS
    init = (value ^ 0xFFFFFFFF).to_bytes(4, "little").translate(rev)
    m = int.from_bytes(bytes(data).translate(rev), "big")  # bytes() takes any buffer
    m ^= int.from_bytes(init, "big") << (8 * len(data) - 32)
    length = m.bit_length()
    while length > 64:
        k = (length - 1).bit_length() - 1
        h = m >> (1 << k)
        product = 0
        for j in _FOLD[k]:
            product ^= h << j
        m = (m & ((1 << (1 << k)) - 1)) ^ product
        length = m.bit_length()
    # m is now an 8-byte message with the same CRC and the initial value
    # already in it, so the table loop's tail runs it from a zero register.
    t0 = _T[0]
    crc = 0
    for b in m.to_bytes(8, "big").translate(rev):
        crc = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF
