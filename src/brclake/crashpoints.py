"""Named fault-injection sites for crash-recovery testing.

``BRC_CRASH_AT=site[:n]`` makes the n-th arrival (default first) at that site
terminate the process immediately via os._exit — no cleanup, no atexit — so
a restarted process sees exactly what a kill -9 would have left behind.
Production runs never set the variable; each check is one dict lookup.
"""

from __future__ import annotations

import os
import sys

CRASH_ENV = "BRC_CRASH_AT"
CRASH_EXIT_CODE = 137

_hits: dict[str, int] = {}

SITES = (
    "ingest.append",
    "etl.post_drain",
    "etl.pre_commit",
    "etl.post_commit_pre_checkpoint",
    "etl.mid_compaction",
)


def crashpoint(site: str) -> None:
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    name, _, nth = spec.partition(":")
    if site != name:
        return
    _hits[site] = _hits.get(site, 0) + 1
    if _hits[site] == (int(nth) if nth else 1):
        sys.stderr.write(f"crash injected at {site}\n")
        sys.stderr.flush()
        os._exit(CRASH_EXIT_CODE)
