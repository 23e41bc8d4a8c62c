"""Worker-count-invariant parallel mapping over independent work units.

Each unit owns a child stream derived from (seed, unit index), results are
reduced in unit order, and cross-unit aggregation is plain summation, so the
numbers an experiment reports never depend on how many workers ran it.
Worker count comes only from the CONVEXLAB_WORKERS environment variable,
which must be a positive integer when set.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import DomainError
from .rng import RngStream

ENV_WORKERS = "CONVEXLAB_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(ENV_WORKERS, "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise DomainError(f"{ENV_WORKERS} must be a positive integer, got {raw!r}")
    return count


def map_units(fn, n_units: int, rng: RngStream, *args):
    """Apply fn(child_stream, unit_index, *args) for each unit, in unit order.

    fn and args must be picklable when more than one worker is configured.
    """
    streams = [rng.child(i) for i in range(n_units)]
    workers = worker_count()
    if workers <= 1 or n_units <= 1:
        return [fn(stream, i, *args) for i, stream in enumerate(streams)]
    extra = [[a] * n_units for a in args]
    with ProcessPoolExecutor(max_workers=min(workers, n_units)) as pool:
        return list(pool.map(fn, streams, range(n_units), *extra))
