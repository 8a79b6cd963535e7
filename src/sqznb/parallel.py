"""Worker-count control for the Monte Carlo draws.

The environment variable ``SQZNB_THREADS`` caps the threads that draw the
fixed Philox blocks of ``mc_uncertainty``; nothing else in the package is
threaded.  Results never depend on the worker count; it only trades wall
time for threads.
"""

from __future__ import annotations

import os

ENV_VAR = "SQZNB_THREADS"


def thread_count() -> int:
    """Parallelism cap from the environment; 1 (sequential) when unset."""
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(1, count)
