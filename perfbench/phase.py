"""One phase of a benchmark run, in a fresh interpreter; prints one JSON line.

    python3 perfbench/phase.py setup   '{"seed": 1, "trace": 0}'
    python3 perfbench/phase.py measure '{"workload": "tester-loop", "seed": 1,
                                         "seconds": 20, "trace": 0, "c0_hat": 0.2}'

run.py starts each phase with the worker count, BLAS threads and PYTHONPATH
already pinned in the environment.  ``setup`` imports convexlab and runs the
calibration; ``measure`` repeats passes over the workload's experiments while
the next pass is expected to end within ``seconds`` (at least MIN_PASSES).
With ``trace`` on, passes alternate between untraced and traced, so both are
timed on identical work.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from tracer import Tracer


def _run(spec: dict) -> tuple[dict, object]:
    """One run_experiment call as `lab run` makes it; never raises."""
    from convexlab.experiments import ExperimentConfig, run_experiment

    params = {k: spec[k] for k in ("n", "N", "q", "trials") if k in spec}
    config = ExperimentConfig(
        spec["experiment"], seed=spec["seed"], overrides=dict(spec.get("overrides", {})), **params
    )
    started = time.perf_counter()
    try:
        report = run_experiment(config)
    except Exception:  # a raising experiment is recorded as a failure, not fatal
        return {"s": time.perf_counter() - started, "error": traceback.format_exc()}, None
    elapsed = time.perf_counter() - started
    return {
        "s": elapsed,
        "digest": hashlib.sha256(report.body_bytes()).hexdigest(),
        "passed": report.all_passed(),
        "failures": [a.description for a in report.failures()],
    }, report


def reference() -> float:
    """Median seconds of three runs of a fixed numpy and bytecode kernel.

    The machine's speed drifts by tens of percent over seconds to minutes on a
    shared host, for every process alike.  Timed around each experiment call,
    this kernel (about 20 ms a run) measures the speed of that moment, and
    dividing a call's time by it gives a time to verdict that the drift mostly
    cancels out of.
    """
    return statistics.median(_reference_kernel() for _ in range(3))


def _reference_kernel() -> float:
    import numpy as np

    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(7))
    a = gen.standard_normal((120, 120))
    for _ in range(8):
        np.linalg.qr(a)
    b = gen.standard_normal((300, 300))
    b @ b
    gen.standard_normal(100_000) > 1.0
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def setup(cfg: dict) -> dict:
    import convexlab.experiments  # noqa: F401  (the import is part of set-up)

    tracer = Tracer() if cfg["trace"] else None
    if tracer:
        tracer.install(only={"parallel.map_units"})
    spec = workloads.setup_spec(cfg["seed"])
    try:
        result, report = _run(spec)
    finally:
        if tracer:
            tracer.uninstall()
    result["done_at"] = time.time()  # run.py subtracts its own launch time
    result["spec"] = spec
    result["c0_hat"] = report.value("c0_hat") if report is not None else None
    if tracer:
        result["layers"] = tracer.run_metrics(0)
    return result


def measure(cfg: dict) -> dict:
    import convexlab
    import numpy
    import scipy

    specs = workloads.measured_specs(cfg["workload"], cfg["seed"], cfg["c0_hat"])
    tracer = Tracer() if cfg["trace"] else None
    passes = []
    reference()  # first calls load LAPACK paths; keep them out of the ratios
    started = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.run_id = len(passes)
            tracer.install()
        runs = {}
        ref_before = reference()
        try:
            for spec in specs:
                if traced:
                    tracer.enter(f"experiments.{spec['experiment']}")
                try:
                    run = _run(spec)[0]
                finally:
                    if traced:
                        tracer.exit()
                ref_after = reference()
                run["ref"] = run["s"] / (0.5 * (ref_before + ref_after))
                runs[spec["experiment"]] = run
                ref_before = ref_after
        finally:
            if traced:
                tracer.uninstall()
        passes.append({
            "traced": traced,
            "wall_s": sum(r["s"] for r in runs.values()),
            "wall_ref": sum(r["ref"] for r in runs.values()),
            "runs": runs,
        })
        # Stop when another pass like the last would overrun the window.
        projected = time.perf_counter() - started + passes[-1]["wall_s"]
        if len(passes) >= workloads.MIN_PASSES and projected > cfg["seconds"]:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "specs": specs,
        "passes": passes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "versions": {
            "convexlab": convexlab.__version__,
            "convexlab_path": os.path.dirname(convexlab.__file__),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer:
        traced_runs = [i for i, p in enumerate(passes) if p["traced"]]
        per_run = [tracer.run_metrics(i) for i in traced_runs]
        keys = set().union(*per_run)
        out["layers"] = {k: statistics.median(m.get(k, 0) for m in per_run) for k in sorted(keys)}
        tracer.write_spans(cfg["spans_path"])
    return out


def main(argv: list[str]) -> int:
    phase, cfg = argv[1], json.loads(argv[2])
    result = {"setup": setup, "measure": measure}[phase](cfg)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
