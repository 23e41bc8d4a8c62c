"""Worker-count-invariant parallel mapping over independent work units.

The per-trial loops of shell-membership, unique-volume, soundness,
rejection-rates, view-tv, response-tv and detect-events go through
map_units; the others (verify-tail-bounds, bivariate-tail, distance-lb,
strip-crossing and the count estimators) draw sequential chunks from one
stream.  A unit is one trial or a block of trials: response-tv, view-tv and
detect-events give each unit BLOCK trials (the last unit may be shorter), a
module constant of theirs; soundness and rejection-rates give it a block of
runs of one tester cell, testers.Cell.block runs, worked out from the cell
alone: at most 32 runs and 2^15 query coordinates (budget x dimension per
run), or one run when a single run exceeds that.  No block size depends on
the worker count.  Unit i derives each stream it draws from the run stream
and its own index alone (rng.child(i), rng.child(2 * i + 1),
rng.child(i).child(0), ...),
results come back in unit order, and cross-unit aggregation is plain
summation, so the numbers an experiment reports never depend on how many
workers ran it.  Worker count comes only from the CONVEXLAB_WORKERS
environment variable, which must be a positive integer in ASCII digits when
set.
"""

from __future__ import annotations

import math
import os
from itertools import repeat

from .errors import DomainError
from .rng import RngStream

ENV_WORKERS = "CONVEXLAB_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(ENV_WORKERS, "1")
    # ASCII digits only: int() would also read blanks, '+', '_' and other scripts' digits.
    count = int(raw) if raw.isascii() and raw.isdigit() else 0
    if count < 1:
        raise DomainError(f"{ENV_WORKERS} must be a positive integer, got {raw!r}")
    return count


def map_units(fn, n_units: int, rng: RngStream, *args) -> list:
    """[fn(rng, i, *args) for i in range(n_units)], in unit order.

    The contract that makes the result independent of the worker count: unit
    i derives every stream it draws from (rng, i) alone, and reads nothing
    another unit writes.  With more than one worker, fn and args must be
    picklable; each worker takes about four chunks of consecutive units.
    """
    workers = min(worker_count(), n_units)
    if workers <= 1:
        return [fn(rng, i, *args) for i in range(n_units)]
    # Imported here so that single-worker runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunk = math.ceil(n_units / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, repeat(rng), range(n_units), *map(repeat, args), chunksize=chunk))
