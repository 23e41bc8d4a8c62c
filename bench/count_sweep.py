"""False-failure rates of the count-estimator assertions over many seeds.

    PYTHONPATH=src python3 bench/count_sweep.py --seeds 1000 --out sweep.json

Runs the experiment calls of the benchmark's count-samplers workload
(high-degree-bound, flap-dogear-ratio, eps-gap, xy-pair at the sizes in
perfbench/workloads.py) for benchmark seeds 0..K-1, single-threaded.  One
c0_hat, calibrated as the benchmark's set-up does at --calibration-seed, is
shared by every seed.  Writes, for each assertion, how often it failed and
its smallest and median slack (distance from the bound, negative on a
failure; none for a vacuous one), plus the pass times and the machine.
Assertions that appear only on some seeds (flap-dogear-ratio's vacuous
branch) count their own runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from run import _cpu_model  # noqa: E402

WORKLOAD = "count-samplers"


def _config(spec: dict):
    from convexlab.experiments import ExperimentConfig

    params = {k: spec[k] for k in ("n", "N", "q", "trials") if k in spec}
    return ExperimentConfig(
        spec["experiment"], seed=spec["seed"], overrides=dict(spec.get("overrides", {})), **params
    )


def sweep(seeds: int, calibration_seed: int) -> dict:
    import numpy
    import scipy

    import convexlab
    from convexlab.experiments import run_experiment

    c0_hat = run_experiment(_config(workloads.setup_spec(calibration_seed))).value("c0_hat")
    runs = defaultdict(int)
    failures = defaultdict(int)
    slacks = defaultdict(list)
    pass_s = []
    for seed in range(seeds):
        started = time.perf_counter()
        for spec in workloads.measured_specs(WORKLOAD, seed, c0_hat):
            report = run_experiment(_config(spec))
            for a in report.assertions:
                key = f"{spec['experiment']}: {a.description}"
                runs[key] += 1
                failures[key] += not a.passed
                gap = abs(a.bound - a.observed)
                if math.isfinite(gap):  # a vacuous assertion observes inf
                    slacks[key].append(gap if a.passed else -gap)
        pass_s.append(time.perf_counter() - started)
    quartiles = statistics.quantiles(pass_s, n=4)
    return {
        "command": f"bench/count_sweep.py --seeds {seeds} --calibration-seed {calibration_seed}",
        "workload": WORKLOAD,
        "seeds": f"benchmark seeds 0..{seeds - 1}",
        "c0_hat": c0_hat,
        "machine": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "convexlab": convexlab.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        },
        "pass_s": {"median": statistics.median(pass_s), "q1": quartiles[0], "q3": quartiles[2]},
        "assertions": {
            key: {
                "runs": runs[key],
                "failures": failures[key],
                "rate": failures[key] / runs[key],
                "min_slack": min(slacks[key], default=None),
                "median_slack": statistics.median(slacks[key]) if slacks[key] else None,
            }
            for key in sorted(runs)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--calibration-seed", type=int, default=20240808)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    args.out.write_text(json.dumps(sweep(args.seeds, args.calibration_seed), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
