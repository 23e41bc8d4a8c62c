"""Self-tests of the benchmark harness; run from the root of a source checkout:

    python3 perfbench/selftest.py

They run the workloads at tiny trial counts, in process, and take about a
minute; they are not part of the package's pytest suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import phase  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 424242

# The same experiments at trial counts that keep each pass to a few seconds
# (100000 is flap-dogear-ratio's minimum, 100 bodies calibrate-c0's).
TINY = {
    "count-samplers": [
        {"experiment": "high-degree-bound", "n": 100, "N": 1024, "trials": 200},
        {"experiment": "flap-dogear-ratio", "n": 100, "N": 1024, "trials": 100_000},
        {"experiment": "eps-gap", "n": 100, "N": 1024, "trials": 3},
        {"experiment": "xy-pair", "trials": 200},
    ],
    "instance-views": [
        {"experiment": "view-tv", "n": 100, "N": 1024, "trials": 20, "q": 5},
        {"experiment": "response-tv", "n": 100, "trials": 20, "q": 8},
        {"experiment": "detect-events", "n": 100, "trials": 10, "q": 3},
    ],
    "tester-loop": [
        {"experiment": "soundness", "n": 20, "q": 30, "trials": 2},
        {"experiment": "rejection-rates", "n": 64, "trials": 5},
    ],
}


def _in_process_phase(name, cfg, env, timeout):
    """Stand-in for run._phase that runs the phase here, at tiny sizes."""
    os.environ["CONVEXLAB_WORKERS"] = env["CONVEXLAB_WORKERS"]
    return json.loads(json.dumps({"setup": phase.setup, "measure": phase.measure}[name](cfg)))


@contextlib.contextmanager
def tiny():
    saved = (workloads.WORKLOADS, workloads.SETUP, workloads.SETUP_REPS, run._phase)
    saved_env = os.environ.get("CONVEXLAB_WORKERS")
    workloads.WORKLOADS = TINY
    workloads.SETUP = dict(workloads.SETUP, trials=100)
    workloads.SETUP_REPS = 1
    run._phase = _in_process_phase
    try:
        yield
    finally:
        workloads.WORKLOADS, workloads.SETUP, workloads.SETUP_REPS, run._phase = saved
        if saved_env is None:
            os.environ.pop("CONVEXLAB_WORKERS", None)
        else:
            os.environ["CONVEXLAB_WORKERS"] = saved_env


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, full record) of one tiny run."""
    out = io.StringIO()
    with tiny(), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    assert code == 0, code
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return json.loads(out.getvalue().splitlines()[-1]), record


def bindings() -> dict:
    """Identity of every attribute of every convexlab module and of RngStream."""
    from convexlab.rng import RngStream

    snap = {("RngStream", k): id(v) for k, v in vars(RngStream).items()}
    for name, module in sys.modules.items():
        if name.startswith("convexlab"):
            snap.update({(name, k): id(v) for k, v in vars(module).items()})
    return snap


class BenchmarkSelfTest(unittest.TestCase):
    def test_smoke_emits_every_named_metric(self):
        for workload in TINY:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    line, record = tiny_run(workload, trace)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(list(line["metrics"]), [m["name"] for m in BENCHMARK[group]])
                    for m in BENCHMARK[group]:
                        self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertGreaterEqual(line["attempted"], 1 + len(TINY[workload]))
                    self.assertEqual(record["unstable_digests"], [])
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))

    def test_same_seed_same_digests_as_plain_calls(self):
        from convexlab.experiments import ExperimentConfig, run_experiment

        _, first = tiny_run("instance-views", 1)  # traced and untraced passes
        _, second = tiny_run("instance-views", 0)
        self.assertEqual(first["digests"], second["digests"])
        for spec in first["provenance"]["specs"]:
            params = {k: spec[k] for k in ("n", "N", "q", "trials") if k in spec}
            report = run_experiment(
                ExperimentConfig(spec["experiment"], seed=spec["seed"], overrides=spec["overrides"], **params)
            )
            digest = hashlib.sha256(report.body_bytes()).hexdigest()
            self.assertEqual(digest, first["digests"][spec["experiment"]])

    def test_setup_c0_hat_same_at_1_and_2_workers(self):
        c0 = []
        for workers in (1, 2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "phase.py"), "setup", json.dumps({"seed": SEED, "trace": 0})],
                env=run._env(ROOT, workers), capture_output=True, text=True, timeout=120, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            c0.append((result["c0_hat"], result["digest"]))
        self.assertEqual(c0[0], c0[1])

    def test_tracer_restores_the_package(self):
        from convexlab import adaptive, parallel  # noqa: F401  (load before the snapshot)
        from convexlab.experiments import ExperimentConfig, run_experiment

        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(adaptive.sample_haar_frame, "__wrapped__"))
            run_experiment(ExperimentConfig("detect-events", seed=SEED, n=100, trials=3))
        finally:
            tracer.uninstall()
        self.assertEqual(bindings(), before)
        metrics = tracer.run_metrics(0)
        self.assertEqual(metrics["adaptive.sample_adaptive_instance.calls"], 3)
        # adaptive calls sample_haar_frame through its own by-name binding.
        self.assertEqual(metrics["gauss.sample_haar_frame.calls"], 3)


if __name__ == "__main__":
    unittest.main()
