"""Workload definitions: which experiments each workload runs, at what sizes.

A workload is a list of ``run_experiment`` calls made one after another by a
single client (closed loop, no arrival rate).  Trial counts are scaled down
from the desk defaults so that one pass over a workload takes 4-11 s on one
core; a run repeats the pass until its time is up.
"""

from __future__ import annotations

import hashlib

# Set-up shared by every workload: calibrate-c0 at desk size on a 2-worker
# pool (200 bodies x 2000 points, n=100, N=1024).  Its c0_hat is passed to the
# measured experiments as the ``c0_hat`` override, as run_all_lemmas does.
SETUP = {"experiment": "calibrate-c0", "n": 100, "N": 1024, "trials": 200}
SETUP_WORKERS = 2
SETUP_REPS = 3

# The measured phase is the plain single-threaded baseline.  It makes at least
# MIN_PASSES passes; with tracing on, that is two untraced and one traced.
MEASURE_WORKERS = 1
BLAS_THREADS = 1
MIN_PASSES = 3

# Experiments that read the measured constant (mirrors run_all_lemmas).
NEEDS_CALIBRATION = frozenset({"view-tv", "eps-gap", "xy-pair", "rejection-rates"})

WORKLOADS = {
    # N-wide scalar-normal count estimators; no instances, no LP.
    "count-samplers": [
        {"experiment": "high-degree-bound", "n": 100, "N": 1024, "trials": 2500},
        # 100000 is the estimator's minimum number of point-body pairs.
        {"experiment": "flap-dogear-ratio", "n": 100, "N": 1024, "trials": 100_000},
        # The default draw count: at 100 draws the 99% gap assertion fails on
        # some seeds for lack of multiply-violated samples.
        {"experiment": "eps-gap", "n": 100, "N": 1024, "trials": 200},
        # Default n-grid 64/100/144, so N = 256/1024/4096.
        {"experiment": "xy-pair", "trials": 2500},
    ],
    # Thousands of full instances materialized to label 3-8 fixed queries.
    "instance-views": [
        {"experiment": "view-tv", "n": 100, "N": 1024, "trials": 500, "q": 5},
        {"experiment": "response-tv", "n": 100, "trials": 700, "q": 8},
        {"experiment": "detect-events", "n": 100, "trials": 170, "q": 3},
    ],
    # One-sided runner, hull prefilter and LP over adaptive single-point queries.
    "tester-loop": [
        {"experiment": "soundness", "n": 20, "q": 30, "trials": 100},
        {"experiment": "rejection-rates", "n": 64, "trials": 60},
    ],
}


def derived_seed(seed: int, index: int) -> int:
    """Seed of the index-th call of a run (0 is set-up).

    Hashes (seed, index) directly: ``RngStream(seed).child(index).stream_id``,
    which run_all_lemmas uses, does not depend on the seed.
    """
    digest = hashlib.blake2b(f"perfbench:{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def setup_spec(seed: int) -> dict:
    return dict(SETUP, seed=derived_seed(seed, 0))


def measured_specs(workload: str, seed: int, c0_hat: float) -> list[dict]:
    """The workload's experiment calls with their derived seeds and overrides."""
    specs = []
    for index, base in enumerate(WORKLOADS[workload], start=1):
        spec = dict(base, seed=derived_seed(seed, index), overrides={})
        if spec["experiment"] in NEEDS_CALIBRATION:
            spec["overrides"]["c0_hat"] = c0_hat
        specs.append(spec)
    return specs
