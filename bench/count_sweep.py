"""False-failure rates of a benchmark workload's assertions over many seeds.

    python3 bench/count_sweep.py --seeds 1000 --out sweep.json
    python3 bench/count_sweep.py --workload instance-views --src ../other/src --seeds 200 --out v.json
    python3 bench/count_sweep.py --experiment strip-crossing --size trials=20000 --seeds 200 --out s.json

Runs the experiment calls of one benchmark workload (default count-samplers:
high-degree-bound, flap-dogear-ratio, eps-gap, xy-pair at the sizes in
perfbench/workloads.py) for benchmark seeds 0..K-1, single-threaded.  With
--experiment, it runs one registry experiment instead, at its default sizes
or those given by --size (n, N, q or trials); that serves the experiments no
workload contains.  The package is imported from --src (default: this
checkout's src), so one script can sweep two versions of the program with
the same workload definitions.
One c0_hat, calibrated as the benchmark's set-up does at --calibration-seed,
is shared by every seed.  Writes, for each assertion, how often it failed and
its smallest and median slack (distance from the bound, negative on a
failure; none for a vacuous one), plus the pass times, the machine and the
sha256 digest of every report body, keyed by seed and experiment.
Assertions that appear only on some seeds count their own runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import _cpu_model  # noqa: E402


def _config(spec: dict):
    from convexlab.experiments import ExperimentConfig

    params = {k: spec[k] for k in ("n", "N", "q", "trials") if k in spec}
    return ExperimentConfig(
        spec["experiment"], seed=spec["seed"], overrides=dict(spec.get("overrides", {})), **params
    )


def _experiment_specs(experiment: str, sizes: dict):
    """specs(seed, c0_hat) for one registry experiment, seeded as the first
    call of a workload."""

    def specs(seed: int, c0_hat: float) -> list[dict]:
        spec = dict(sizes, experiment=experiment, seed=workloads.derived_seed(seed, 1), overrides={})
        if experiment in workloads.NEEDS_CALIBRATION:
            spec["overrides"]["c0_hat"] = c0_hat
        return [spec]

    return specs


def _scipy_version() -> str | None:
    """scipy's version if it is installed (the tests' oracle), else None."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def sweep(target: dict, specs, seeds: int, calibration_seed: int, command: str) -> dict:
    """Run the calls `specs(seed, c0_hat)` for each seed; `target` names them
    in the output ({"workload": ...} or {"experiment": ..., "sizes": ...})."""
    import numpy

    import convexlab
    from convexlab.experiments import run_experiment

    c0_hat = run_experiment(_config(workloads.setup_spec(calibration_seed))).value("c0_hat")
    runs = defaultdict(int)
    failures = defaultdict(int)
    slacks = defaultdict(list)
    pass_s = []
    digests = defaultdict(dict)
    for seed in range(seeds):
        started = time.perf_counter()
        for spec in specs(seed, c0_hat):
            report = run_experiment(_config(spec))
            body = hashlib.sha256(report.body_bytes()).hexdigest()
            digests[str(seed)][spec["experiment"]] = body
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
        "command": command,
        **target,
        "seeds": f"benchmark seeds 0..{seeds - 1}",
        "c0_hat": c0_hat,
        "machine": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": _scipy_version(),
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
        "digests": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="count-samplers")
    which.add_argument("--experiment", help="one registry experiment to sweep instead of a workload")
    parser.add_argument("--size", action="append", default=[], metavar="KEY=VALUE",
                        help="with --experiment: n, N, q or trials (repeatable)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the convexlab package to import")
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--calibration-seed", type=int, default=20240808)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    if args.size and not args.experiment:
        parser.error("--size needs --experiment")
    sizes = {}
    for item in args.size:
        key, _, value = item.partition("=")
        if key not in ("n", "N", "q", "trials") or not value.isdigit() or int(value) < 1:
            parser.error(f"--size takes n, N, q or trials as KEY=POSITIVE_INTEGER, got {item!r}")
        sizes[key] = int(value)
    if not (args.src / "convexlab" / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no convexlab package")
    sys.path.insert(0, str(args.src.resolve()))
    if args.experiment:
        from convexlab.experiments import REGISTRY

        if args.experiment not in REGISTRY:
            parser.error(f"unknown experiment {args.experiment!r}")
        target = {"experiment": args.experiment, "sizes": sizes}
        specs = _experiment_specs(args.experiment, sizes)
        head = f"--experiment {args.experiment}" + "".join(f" --size {item}" for item in args.size)
    else:
        target = {"workload": args.workload}
        specs = functools.partial(workloads.measured_specs, args.workload)
        head = f"--workload {args.workload}"
    command = f"bench/count_sweep.py {head} --seeds {args.seeds} --calibration-seed {args.calibration_seed}"
    report = sweep(target, specs, args.seeds, args.calibration_seed, command)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
