import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brclake.events import ConnectorConfig, MarketEvent, RateLimit  # noqa: E402


def make_event(
    symbol: str = "BTC-USD",
    event_time_us: int = 1_600_000_000_000_000,
    sequence: int = 0,
    event_id: str = "e-0",
    price_e8: int = 10_000 * 10**8,
    qty_e8: int = 10**8,
    source: str = "syn",
    stream: str = "trade",
    side: str = "buy",
    ingest_time_us: int | None = None,
) -> MarketEvent:
    return MarketEvent(
        source=source,
        stream=stream,
        symbol=symbol,
        event_time_us=event_time_us,
        ingest_time_us=event_time_us if ingest_time_us is None else ingest_time_us,
        sequence=sequence,
        event_id=event_id,
        price_e8=price_e8,
        qty_e8=qty_e8,
        side=side,
    )


def make_config(**overrides) -> ConnectorConfig:
    base = dict(
        connector_id="c",
        kind="synthetic",
        source="syn",
        symbols={"BTCUSDT": "BTC-USDT"},
        seed=42,
        count=10,
        dup_prob_bp=0,
        rate_limit=RateLimit(),
        ingest_time_mode="event_time",
        batch_size=500,
    )
    base.update(overrides)
    return ConnectorConfig(**base)


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run code under ``python -O``, which strips assert statements, from
    this directory, so that ``import conftest`` puts src on the path."""
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent)
