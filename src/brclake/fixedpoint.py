"""Fixed-point e8 quantities and microsecond timestamps as plain integers.

Prices and quantities travel the pipeline as signed 64-bit integers scaled by
10^8; timestamps as microseconds since the Unix epoch, UTC. These helpers are
the only place text forms are produced or consumed, so renderings stay
bit-identical everywhere.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from functools import lru_cache

from .errors import BadDecimal

E8 = 10**8
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
US_PER_DAY = 86_400_000_000
US_YEAR_10000 = 253_402_300_800_000_000  # 10000-01-01T00:00:00Z, the first time us_to_date cannot render

_DECIMAL_RE = re.compile(r"^([+-]?)(?:(\d+)(?:\.(\d*))?|\.(\d+))$")


def parse_decimal_e8(text: str, field: str = "value") -> int:
    """Parse a decimal string to e8 fixed point.

    Digits beyond the 8th fractional place are rounded half-even. Raises
    BadDecimal for anything that is not a plain decimal or that falls outside
    the signed 64-bit range after scaling.
    """
    m = _DECIMAL_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise BadDecimal(field, f"unparseable decimal {text!r} in {field!r}")
    sign = -1 if m.group(1) == "-" else 1
    int_part = m.group(2) or "0"
    frac_part = m.group(3) if m.group(3) is not None else (m.group(4) or "")

    scaled = int(int_part) * E8 + int((frac_part[:8]).ljust(8, "0") or "0")
    rest = frac_part[8:].rstrip("0")
    if rest:
        head = rest[0]
        if head > "5" or (head == "5" and rest[1:]):
            scaled += 1
        elif head == "5":  # exact tie: round to even
            scaled += scaled & 1
    value = sign * scaled
    if not I64_MIN <= value <= I64_MAX:
        raise BadDecimal(field, f"decimal {text!r} out of 64-bit e8 range in {field!r}")
    return value


def format_e8(value: int) -> str:
    """Render an e8 integer as a decimal string with exactly 8 fractional digits."""
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), E8)
    return f"{sign}{whole}.{frac:08d}"


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def us_to_iso(us: int) -> str:
    """Microseconds UTC -> ISO8601 with microsecond precision and Z suffix."""
    day, us_of_day = divmod(us, US_PER_DAY)
    s, micro = divmod(us_of_day, 1_000_000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    return f"{_day_to_date(day)}T{h:02d}:{m:02d}:{s:02d}.{micro:06d}Z"


def iso_to_us(text: str) -> int:
    """ISO8601 (Z or explicit offset; date-only allowed) -> microseconds UTC.

    Raises ValueError for text that is not ISO8601 and OverflowError for an
    instant outside the years 1-9999 UTC.
    """
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt.astimezone(timezone.utc) - _EPOCH
    return delta.days * US_PER_DAY + delta.seconds * 1_000_000 + delta.microseconds


def us_to_date(us: int) -> str:
    """UTC calendar date of a microsecond timestamp, rendered YYYY-MM-DD."""
    return _day_to_date(us // US_PER_DAY)


@lru_cache(maxsize=1024)
def _day_to_date(day: int) -> str:
    # Rows cluster in a few days, so each day's date is formatted once;
    # datetime raises OverflowError outside the years 1-9999.
    return f"{_EPOCH + timedelta(days=day):%Y-%m-%d}"
