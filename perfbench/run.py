"""convexlab benchmark: time to a verified verdict, set-up cost and memory.

    python3 perfbench/run.py --workload count-samplers --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
Each run sets up several times, each time in a fresh interpreter (import plus
calibrate-c0 on a 2-worker pool), then starts one more interpreter for the
measured phase (1 worker, BLAS pinned to 1 thread) that repeats the
workload's experiments for about --seconds.  The last line of
standard output is one JSON object; with --trace 0 it holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones.  The full
record (provenance, pass times, report digests) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import layer_names  # noqa: E402

RUN_LIMIT_S = 170  # every run ends well inside the 180 s it is allowed


class BenchError(Exception):
    """A phase could not run; the benchmark exits without a result."""


def _phase(name: str, cfg: dict, env: dict, timeout: float) -> dict:
    # A session of its own, so a timeout also ends the set-up's pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "phase.py"), name, json.dumps(cfg)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name} phase exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{name} phase failed (exit {proc.returncode}):\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _env(root: Path, workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["CONVEXLAB_WORKERS"] = str(workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.BLAS_THREADS)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _failed(run: dict) -> bool:
    return "error" in run or not run["passed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    launched = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - launched)

    root = Path.cwd()
    if not (root / "src" / "convexlab" / "__init__.py").is_file():
        print(f"no convexlab sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    (root / ".perfbench_out").mkdir(exist_ok=True)
    try:
        setups = []
        for _ in range(workloads.SETUP_REPS):
            started = time.time()
            result = _phase(
                "setup", {"seed": args.seed, "trace": args.trace},
                _env(root, workloads.SETUP_WORKERS), timeout=remaining(),
            )
            result["setup_s"] = result["done_at"] - started
            setups.append(result)
        c0_hat = setups[0]["c0_hat"]
        if c0_hat is None:
            raise BenchError("calibration raised:\n" + setups[0]["error"])
        measured = _phase(
            "measure",
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "c0_hat": c0_hat,
                "spans_path": str(root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"),
            },
            _env(root, workloads.MEASURE_WORKERS), timeout=remaining(),
        )
        imported = Path(measured["versions"]["convexlab_path"]).resolve()
        if not imported.is_relative_to((root / "src").resolve()):
            raise BenchError(f"convexlab was imported from {imported}, not from this checkout")
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    # -- correctness: no call raised and every report replays byte-identically.
    # A failed statistical assertion counts in `failed` (the fail ratio): a
    # 3-standard-error check fails on some seeds even when nothing is wrong.
    calls = [("calibrate-c0", s) for s in setups]
    calls += [(name, r) for p in measured["passes"] for name, r in p["runs"].items()]
    failures = {name: r.get("error") or r["failures"] for name, r in calls if _failed(r)}
    failed = sum(_failed(r) for _, r in calls)
    digests: dict[str, set] = {}
    for name, r in calls:
        digests.setdefault(name, set()).add(r.get("digest"))
    unstable = sorted(name for name, seen in digests.items() if len(seen) != 1)
    raised = any("error" in r for _, r in calls)
    correct = not raised and not unstable and len({s["c0_hat"] for s in setups}) == 1

    # -- metrics
    untraced = [p for p in measured["passes"] if not p["traced"]]
    traced = [p for p in measured["passes"] if p["traced"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    values = {
        "wall_ref": statistics.median(p["wall_ref"] for p in untraced),
        "run.wall_s": wall,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    if args.trace:
        values.update({name: 0 for name in layer_names()})
        values.update(measured["layers"])
        # Experiment times come from the untraced passes of the same run.
        for name in {s["experiment"] for w in workloads.WORKLOADS.values() for s in w}:
            values[f"experiments.{name}.s"] = 0.0
        for name in untraced[0]["runs"]:
            values[f"experiments.{name}.s"] = statistics.median(p["runs"][name]["s"] for p in untraced)
        values["experiments.calibrate-c0.s"] = statistics.median(s["s"] for s in setups)
        for key in ("parallel.map_units.calls", "parallel.map_units.units", "parallel.map_units.s"):
            values[key] = statistics.median(s["layers"].get(key, 0) for s in setups)
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_ref"] for p in traced) / values["wall_ref"] - 1.0
        )
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        values["run.cpu_s"] = children.ru_utime + children.ru_stime
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    provenance = {
        "versions": {k: v for k, v in measured["versions"].items() if k != "convexlab_path"},
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workers": {"setup": workloads.SETUP_WORKERS, "measure": workloads.MEASURE_WORKERS},
        "blas_and_omp_threads": workloads.BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup": setups[0]["spec"],
        "specs": measured["specs"],
    }
    record = {
        "workload": args.workload,
        "provenance": provenance,
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "unstable_digests": unstable,
        "digests": {name: sorted(seen, key=str)[0] for name, seen in digests.items()},
        "setup_s": [s["setup_s"] for s in setups],
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "wall_ref": p["wall_ref"],
             "experiments_s": {n: r["s"] for n, r in p["runs"].items()}}
            for p in measured["passes"]
        ],
        "failures": failures,
        "metrics": values,
    }
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({"record": str(out.relative_to(root)), "passes": len(untraced),
                      "pass_wall_s": [p["wall_s"] for p in untraced],
                      "pass_wall_ref": [p["wall_ref"] for p in untraced],
                      "digests": record["digests"], "failures": failures}))
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
