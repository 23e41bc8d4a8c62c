import json
import math
import os
import re
import subprocess
import sys

import pytest

from convexlab import experiments, parallel, ptf, testers, tolerant
from convexlab.cli import integer, main, number
from convexlab.errors import DomainError, LabError
from convexlab.experiments import REGISTRY, ExperimentConfig, run_experiment
from convexlab.report import ExperimentReport
from convexlab.rng import RngStream


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CONVEXLAB_WORKERS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "convexlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestManifest:
    def test_lists_every_experiment(self):
        result = run_cli(["manifest"])
        assert result.returncode == 0
        for name in REGISTRY:
            assert name in result.stdout
        assert "all-lemmas" in result.stdout


def test_cli_import_leaves_the_lp_solver_unloaded():
    # Neither the cli nor any convexlab module loads scipy at import time,
    # and a hull decision loads no LP solver.
    script = (
        "import importlib, pkgutil, sys; import numpy as np; import convexlab, convexlab.cli\n"
        "for info in pkgutil.iter_modules(convexlab.__path__):\n"
        "    importlib.import_module('convexlab.' + info.name)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, f'imported with the package: {loaded}'\n"
        "from convexlab.testers import certificate_valid, in_convex_hull\n"
        "points, y = np.eye(3), np.full(3, 1.0 / 3.0)\n"
        "lam = in_convex_hull(y, points)\n"
        "assert lam is not None and certificate_valid(y, points, lam)\n"
        "assert 'scipy.optimize' not in sys.modules, 'a hull decision loaded scipy.optimize'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_every_experiment_runs_with_scipy_blocked():
    # numpy is the one runtime dependency: with scipy made unimportable, every
    # registry experiment runs at small sizes, the exact tails of xy-pair
    # (Sheppard's integral) and flap-dogear-ratio (the binomial test) included.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from convexlab.experiments import REGISTRY, ExperimentConfig, run_experiment\n"
        "runs = {\n"
        "    'verify-tail-bounds': dict(n=16, trials=10_000),\n"
        "    'r-estimate': dict(n=16, N=32),\n"
        "    'shell-membership': dict(n=16, N=32, trials=200),\n"
        "    'high-degree-bound': dict(n=16, N=32, trials=200),\n"
        "    'flap-dogear-ratio': dict(n=16, N=32, trials=100_000),\n"
        "    'unique-volume': dict(n=16, N=32, trials=100, overrides={'points_per_body': 1000}),\n"
        "    'calibrate-c0': dict(n=16, N=32, trials=100, overrides={'points_per_body': 1000}),\n"
        "    'moment-matching': dict(),\n"
        "    'soundness': dict(n=8, q=10, trials=5),\n"
        "    'rejection-rates': dict(n=8, trials=5, overrides={'c0_hat': 0.35}),\n"
        "    'distance-lb': dict(n=16, trials=100_000),\n"
        "    'detect-events': dict(n=16, q=3, trials=20),\n"
        "    'strip-crossing': dict(trials=3000),\n"
        "    'view-tv': dict(n=32, N=128, q=5, trials=40, overrides={'c0_hat': 0.35}),\n"
        "    'eps-gap': dict(n=16, N=32, trials=50, overrides={'c0_hat': 0.35}),\n"
        "    'xy-pair': dict(n=64, trials=500, overrides={'c0_hat': 0.35}),\n"
        "    'bivariate-tail': dict(trials=10_000),\n"
        "    'no-distance': dict(n=16, trials=50),\n"
        "    'response-tv': dict(n=16, q=4, trials=40),\n"
        "}\n"
        "assert set(runs) == set(REGISTRY), sorted(set(runs) ^ set(REGISTRY))\n"
        "for name, sizes in runs.items():\n"
        "    run_experiment(ExperimentConfig(name, seed=1, **sizes))\n"
        "assert sys.modules['scipy'] is None\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Each experiment at small sizes: exactly the size fields it reads, and the
# overrides it needs to run.
SMALL = {
    "verify-tail-bounds": (dict(n=16, trials=10_000), {}),
    "r-estimate": (dict(n=16, N=32), {}),
    "shell-membership": (dict(n=16, N=32, trials=200), {}),
    "high-degree-bound": (dict(n=16, N=32, trials=200), {}),
    "flap-dogear-ratio": (dict(n=16, N=32, trials=100_000), {}),
    "unique-volume": (dict(n=16, N=32, trials=100), {"points_per_body": 1000}),
    "calibrate-c0": (dict(n=16, N=32, trials=100), {"points_per_body": 1000}),
    "moment-matching": (dict(), {}),
    "soundness": (dict(n=8, q=10, trials=5), {}),
    "rejection-rates": (dict(n=8, trials=5), {"c0_hat": 0.35}),
    "distance-lb": (dict(n=16, N=32, trials=100_000), {}),
    "detect-events": (dict(n=16, q=3, trials=20), {}),
    "strip-crossing": (dict(n=16, q=4, trials=3000), {}),
    "view-tv": (dict(n=32, N=128, q=5, trials=40), {"c0_hat": 0.35}),
    "eps-gap": (dict(n=16, N=32, trials=50), {"c0_hat": 0.35}),
    "xy-pair": (dict(n=64, trials=500), {"c0_hat": 0.35}),
    "bivariate-tail": (dict(trials=10_000), {}),
    "no-distance": (dict(n=16, trials=50), {}),
    "response-tv": (dict(n=16, q=4, trials=40), {}),
}


class TestSizeFields:
    def test_every_experiment_listed(self):
        assert set(SMALL) == set(REGISTRY)

    @pytest.mark.parametrize("name", sorted(REGISTRY) + ["all-lemmas"])
    def test_unread_sizes_refused(self, name):
        reads = experiments.SUITE_SIZES if name == "all-lemmas" else REGISTRY[name][2]
        for key in set(experiments.SIZES) - set(reads):
            with pytest.raises(DomainError, match=f"reads no config field {key!r}"):
                ExperimentConfig(name, seed=1, **{key: 4})

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_declared_sizes_read(self, name):
        # Each size the experiment declares changes its body when it changes.
        sizes, overrides = SMALL[name]
        assert tuple(sizes) == REGISTRY[name][2]

        def body(**changed):
            config = ExperimentConfig(name, seed=1, overrides=overrides, **{**sizes, **changed})
            return run_experiment(config).body_bytes()

        base = body()
        for key, value in sizes.items():
            assert body(**{key: value + 1}) != base, key

    @pytest.mark.parametrize("key", sorted(experiments.INTEGER_OVERRIDES))
    def test_count_overrides_must_be_integral(self, key):
        name = next(name for name, (*_, keys) in REGISTRY.items() if key in keys)
        with pytest.raises(DomainError, match=f"override {key!r} must be an integer"):
            ExperimentConfig(name, seed=1, overrides={key: 100.5})
        ExperimentConfig(name, seed=1, overrides={key: 100.0})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_overrides_must_be_finite(self, value):
        for name, (*_, keys) in REGISTRY.items():
            for key in keys:
                with pytest.raises(DomainError, match=f"override {key!r} must be a finite number"):
                    ExperimentConfig(name, seed=1, overrides={key: value})

    def test_integral_count_override_runs_and_is_echoed(self):
        config = ExperimentConfig(
            "eps-gap", seed=1, n=16, N=32, trials=10,
            overrides={"c0_hat": 0.35, "points_per_draw": 100.0},
        )
        report = run_experiment(config)
        assert report.parameters["points_per_draw"] == 100
        assert report.parameters["override.points_per_draw"] == 100.0


class TestRun:
    def test_smoke_json(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            ["run", "moment-matching", "--seed", "7", "--out", str(out)]
        )
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["name"] == "moment-matching"
        assert all(a["passed"] for a in payload["assertions"])

    def test_seed_mandatory(self):
        result = run_cli(["run", "moment-matching"])
        assert result.returncode != 0
        assert "--seed" in result.stderr

    def test_unknown_experiment(self):
        result = run_cli(["run", "nonsense", "--seed", "1"])
        assert result.returncode == 2
        assert "unknown experiment" in result.stderr

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "report.csv"
        result = run_cli(
            [
                "run", "r-estimate", "--seed", "3", "--n", "64", "--N", "256",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert result.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "experiment,row_type,name,value,ci_halfwidth,sample_count,"
            "bound,observed,passed,source,seed"
        )
        assert any(",estimate," in line for line in lines[1:])
        assert any(",assertion," in line for line in lines[1:])

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "shell-membership", "--seed", "1", "--trials", "0"],
            ["run", "rejection-rates", "--seed", "1", "--trials", "0"],
            ["run", "strip-crossing", "--seed", "1", "--trials", "0"],
            ["run", "view-tv", "--seed", "1", "--q", "0", "--set", "c0_hat=0.35"],
            ["make-instance", "--kind", "adaptive", "--n", "16", "--N", "0", "--seed", "1"],
            ["make-instance", "--kind", "nazarov", "--n", "16", "--N", "0", "--seed", "1"],
            ["make-instance", "--kind", "ptf", "--n", "0", "--seed", "1"],
        ],
        ids=[
            "shell-membership", "rejection-rates", "strip-crossing", "view-tv",
            "adaptive", "nazarov", "ptf",
        ],
    )
    def test_bad_size_rejected(self, tmp_path, args):
        out = tmp_path / "out.json"
        result = run_cli([*args, "--out", str(out)])
        assert result.returncode == 2
        assert "error: " in result.stderr and "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["make-instance", "--kind", "tolerant", "--n", "16", "--seed", "1", "--c0-hat", "-1"],
            ["make-instance", "--kind", "tolerant", "--n", "16", "--seed", "1", "--c0-hat", "0"],
            ["make-instance", "--kind", "tolerant", "--n", "16", "--seed", "1", "--c0-hat", "nan"],
            ["run", "eps-gap", "--seed", "1", "--n", "16", "--N", "64", "--trials", "10",
             "--set", "c0_hat=-1"],
        ],
        ids=["make-instance-negative", "make-instance-zero", "make-instance-nan", "eps-gap"],
    )
    def test_bad_calibration_constant_rejected(self, tmp_path, args):
        out = tmp_path / "out.json"
        result = run_cli([*args, "--out", str(out)])
        assert result.returncode == 2
        assert "error: " in result.stderr and "Traceback" not in result.stderr
        assert "c2" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_nonpositive_a_const_rejected(self, tmp_path, value):
        out = tmp_path / "out.json"
        result = run_cli(
            ["run", "distance-lb", "--seed", "1", "--n", "16", "--trials", "100000",
             "--set", f"a_const={value}", "--out", str(out)]
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert "a_const" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["verify-tail-bounds", "--n", "20", "--trials", "10000", "--set", "bogus=1"],
            ["moment-matching", "--set", "c1=5"],
            ["r-estimate", "--set", "c1=0.01", "--set", "c3=0.2"],
            ["all-lemmas", "--set", "bogus=1"],
        ],
        ids=["verify-tail-bounds", "moment-matching", "r-estimate", "all-lemmas"],
    )
    def test_unknown_override_rejected(self, tmp_path, args):
        out = tmp_path / "out.json"
        result = run_cli(["run", args[0], "--seed", "1", *args[1:], "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert "reads no override" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-instance", "run"])
    def test_nonpositive_calibration_record_rejected(self, tmp_path, command):
        from convexlab.storage import save_calibration
        from convexlab.tolerant import CalibrationRecord

        calib = tmp_path / "calib.json"
        save_calibration(CalibrationRecord(16, 64, 0.01, 0.0, 0.001, 13), str(calib))
        if command == "run":
            args = ["run", "eps-gap", "--seed", "1", "--n", "16", "--N", "64", "--trials", "10"]
        else:
            args = ["make-instance", "--kind", "tolerant", "--n", "16", "--seed", "1"]
        out = tmp_path / "out.json"
        result = run_cli([*args, "--calibration", str(calib), "--out", str(out)])
        assert result.returncode == 2
        assert "error: " in result.stderr and "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["--trials", "99"], ["--trials", "100", "--set", "points_per_body=999"]],
        ids=["trials", "points_per_body"],
    )
    def test_calibration_below_minimum_sizes_rejected(self, tmp_path, args):
        out = tmp_path / "calib.json"
        result = run_cli(
            ["run", "calibrate-c0", "--seed", "1", "--n", "16", "--N", "32", *args, "--out", str(out)]
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["eps-gap", "--n", "16", "--N", "32", "--trials", "10", "--set", "c0_hat=0.35",
              "--set", "points_per_draw=100.7"], "override 'points_per_draw'"),
            (["eps-gap", "--n", "16", "--N", "32", "--trials", "10", "--set", "c0_hat=0.35",
              "--set", "points_per_draw=inf"], "override 'points_per_draw'"),
            (["strip-crossing", "--n", "64", "--trials", "500", "--set", "cluster_radius=nan"],
             "override 'cluster_radius'"),
            (["xy-pair", "--n", "64", "--N", "4096", "--q", "9", "--trials", "500",
              "--set", "c0_hat=0.35"], "reads no config field 'N'"),
            (["detect-events", "--n", "16", "--N", "4", "--trials", "20"], "reads no config field 'N'"),
            (["moment-matching", "--n", "5", "--trials", "3"], "reads no config field 'n'"),
            (["all-lemmas", "--q", "3"], "reads no config field 'q'"),
        ],
        ids=[
            "non-integral-count", "infinite-count", "nan-radius",
            "xy-pair-N", "detect-events-N", "moment-matching-n", "all-lemmas-q",
        ],
    )
    def test_bad_override_or_unread_size_rejected(self, tmp_path, args, message):
        out = tmp_path / "out.json"
        result = run_cli(["run", args[0], "--seed", "1", *args[1:], "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert message in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "r-estimate", "--seed", "1_0"],
            ["run", "r-estimate", "--seed", "1", "--n", "1_6"],
            ["run", "r-estimate", "--seed", "+1"],
            ["run", "r-estimate", "--seed", " 1"],
            ["run", "r-estimate", "--seed", "\u0661"],
            ["run", "r-estimate", "--seed", "1", "--set", "c1=0_0_1"],
            ["run", "r-estimate", "--seed", "1", "--set", "c1= 0.01"],
            ["run", "r-estimate", "--seed", "1", "--set", "c1=+0.01"],
            ["run", "r-estimate", "--seed", "1", "--set", "c1=\u0660.01"],
            ["make-instance", "--kind", "tolerant", "--n", "16", "--seed", "1", "--c0-hat", "0_35"],
            ["make-instance", "--kind", "ptf", "--n", "16", "--seed", "1", "--l", "0_3"],
        ],
        ids=[
            "seed-underscore", "n-underscore", "seed-plus", "seed-blank", "seed-arabic-indic",
            "set-underscore", "set-blank", "set-plus", "set-arabic-indic", "c0-hat-underscore", "l-underscore",
        ],
    )
    def test_coerced_numeral_rejected(self, tmp_path, capsys, args):
        # int() and float() read each of these as a number; the lab does not.
        out = tmp_path / "out.json"
        try:
            code = main([*args, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects an option's value
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()

    def test_plain_numerals_accepted(self):
        assert [integer(text) for text in ("2", "-5", "0", "017")] == [2, -5, 0, 17]
        numerals = ("0.01", "1e-2", "-5", "2", ".5", "3.", "1E+2", "-2.5e3")
        assert [number(text) for text in numerals] == [0.01, 0.01, -5.0, 2.0, 0.5, 3.0, 100.0, -2500.0]
        assert number("inf") == math.inf and number("-Infinity") == -math.inf and math.isnan(number("nan"))

    def test_missing_calibration_fails_cleanly(self):
        result = run_cli(
            ["run", "eps-gap", "--seed", "5", "--n", "64", "--N", "256", "--trials", "10"]
        )
        assert result.returncode == 2
        assert "calibrate-c0" in result.stderr


class TestDeterminism:
    def test_same_seed_same_body(self):
        config = ExperimentConfig(
            experiment="verify-tail-bounds", seed=42, n=32, trials=20_000
        )
        body_a = run_experiment(config).body_bytes()
        body_b = run_experiment(config).body_bytes()
        assert body_a == body_b

    @pytest.mark.parametrize(
        "args",
        [
            ["unique-volume", "--n", "16", "--N", "32", "--trials", "100",
             "--set", "points_per_body=1000"],
            ["calibrate-c0", "--n", "16", "--N", "32", "--trials", "100"],
            ["shell-membership", "--n", "16", "--N", "64", "--trials", "60"],
            ["soundness", "--n", "10", "--q", "12", "--trials", "4"],
            ["rejection-rates", "--n", "16", "--trials", "8", "--set", "c0_hat=0.35"],
            ["view-tv", "--n", "16", "--N", "32", "--q", "8", "--trials", "100",
             "--set", "c0_hat=0.35"],
            ["response-tv", "--n", "32", "--q", "6", "--trials", "60"],
            ["detect-events", "--n", "4", "--q", "1", "--trials", "200"],
        ],
        ids=lambda args: args[0],
    )
    def test_worker_count_invariance(self, args):
        # Each of these experiments but calibrate-c0 spreads its trials over
        # the workers; calibrate-c0 draws counts in one process at any count.
        self._assert_same_body_at_one_and_two_workers(args)

    @pytest.mark.parametrize(
        "args, block",
        [
            pytest.param(
                ["view-tv", "--n", "16", "--N", "32", "--q", "8", "--set", "c0_hat=0.35"],
                tolerant.BLOCK,
                id="view-tv",
            ),
            pytest.param(["response-tv", "--n", "32", "--q", "6"], ptf.BLOCK, id="response-tv"),
        ],
    )
    def test_worker_count_invariance_across_blocks(self, args, block):
        # A unit of these experiments is a block of trials; 2 * BLOCK + 5
        # trials make three units, the last one short, split over two workers.
        self._assert_same_body_at_one_and_two_workers([*args, "--trials", str(2 * block + 5)])

    @staticmethod
    def _assert_same_body_at_one_and_two_workers(args):
        args = ["run", *args, "--seed", "9", "--format", "json"]
        one = run_cli(args, env_extra={"CONVEXLAB_WORKERS": "1"})
        two = run_cli(args, env_extra={"CONVEXLAB_WORKERS": "2"})
        assert one.returncode == two.returncode
        assert one.returncode in (0, 1), one.stderr
        body1 = json.loads(one.stdout)
        body2 = json.loads(two.stdout)
        body1.pop("wall_time")
        body2.pop("wall_time")
        assert body1 == body2

    def test_worker_count_invariance_of_a_nonzero_count(self, monkeypatch):
        # Every rate the experiments above report is 0 at their sizes, so
        # their bodies cannot show a unit drawing another unit's streams.
        counts = []
        for workers in ("1", "2"):
            monkeypatch.setenv("CONVEXLAB_WORKERS", workers)
            counts.append(testers.rejections("line-segment", "adaptive", 4, 60, 40, RngStream(73)))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", "", " 2", "+2", "1_0", "\u0662"])
    def test_bad_worker_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("CONVEXLAB_WORKERS", raw)
        with pytest.raises(DomainError, match=f"CONVEXLAB_WORKERS.*{re.escape(repr(raw))}"):
            parallel.worker_count()

    def test_suite_seed_reaches_sub_experiments(self, monkeypatch):
        # Stub experiments record the seed each suite member receives.
        seen = []

        def stub(config):
            seen.append(config.seed)
            report = ExperimentReport(config.experiment, {}, config.seed)
            report.add_estimate("c0_hat", 0.5)
            return report

        monkeypatch.setattr(
            experiments, "REGISTRY", {name: (stub, "", (), ()) for name in experiments.REGISTRY}
        )

        def sub_seeds(seed):
            seen.clear()
            experiments.run_all_lemmas(ExperimentConfig(experiment="all-lemmas", seed=seed))
            return list(seen)

        first = sub_seeds(1)
        assert len(first) == len(experiments.REGISTRY)
        assert len(set(first)) == len(first)
        assert sub_seeds(1) == first
        for other in (20240808, 999):
            assert set(sub_seeds(other)).isdisjoint(first)


    @pytest.mark.parametrize(
        "config",
        [
            "experiment='detect-events', seed=5, n=100, q=3, trials=40",
            "experiment='rejection-rates', seed=5, n=16, trials=10, overrides={'c0_hat': 0.35}",
            "experiment='soundness', seed=5, n=20, q=30, trials=10",
        ],
        ids=["detect-events", "rejection-rates", "soundness"],
    )
    def test_blas_thread_count_invariance(self, config):
        # Every oracle thresholds a BLAS matmul, and the testers label each
        # batch of queries in one multi-row matmul; the body must not depend
        # on how many threads the BLAS splits it over.
        script = (
            "import hashlib; from convexlab.experiments import ExperimentConfig, run_experiment; "
            f"c = ExperimentConfig({config}); "
            "print(hashlib.sha256(run_experiment(c).body_bytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_suite_passes_each_experiment_its_own_overrides(self, monkeypatch):
        seen = {}

        def stub(config):
            seen[config.experiment] = dict(config.overrides)
            report = ExperimentReport(config.experiment, {}, config.seed)
            report.add_estimate("c0_hat", 0.5)
            return report

        monkeypatch.setattr(
            experiments,
            "REGISTRY",
            {name: (stub, "", (), keys) for name, (*_, keys) in experiments.REGISTRY.items()},
        )
        overrides = {"c1": 0.02, "c3": 0.2}
        experiments.run_all_lemmas(
            ExperimentConfig(experiment="all-lemmas", seed=3, overrides=overrides)
        )
        for name, (*_, keys) in experiments.REGISTRY.items():
            expected = {k: v for k, v in overrides.items() if k in keys}
            if "c0_hat" in keys:
                expected["c0_hat"] = 0.5
            assert seen[name] == expected, name
        assert seen["r-estimate"] == {"c1": 0.02} and seen["xy-pair"]["c3"] == 0.2

    def test_suite_passes_each_experiment_the_sizes_it_reads(self, monkeypatch):
        seen = {}

        def stub(config):
            seen[config.experiment] = {key: getattr(config, key) for key in experiments.SIZES}
            report = ExperimentReport(config.experiment, {}, config.seed)
            report.add_estimate("c0_hat", 0.5)
            return report

        monkeypatch.setattr(
            experiments,
            "REGISTRY",
            {name: (stub, "", sizes, keys) for name, (_, _, sizes, keys) in experiments.REGISTRY.items()},
        )
        experiments.run_all_lemmas(ExperimentConfig(experiment="all-lemmas", seed=3, n=20, N=64))
        for name, (_, _, sizes, _) in experiments.REGISTRY.items():
            expected = {"n": 20 if "n" in sizes else None, "N": 64 if "N" in sizes else None}
            assert seen[name] == dict(expected, q=None, trials=None), name
        assert seen["xy-pair"]["N"] is None and seen["eps-gap"]["N"] == 64

    def test_suite_timings_kept_outside_body(self, monkeypatch):
        def stub(config):
            report = ExperimentReport(config.experiment, {}, config.seed)
            report.add_estimate("c0_hat", 0.5)
            return report

        monkeypatch.setattr(
            experiments, "REGISTRY", {name: (stub, "", (), ()) for name in experiments.REGISTRY}
        )
        config = ExperimentConfig(experiment="all-lemmas", seed=3)
        report = experiments.run_all_lemmas(config)
        untimed = experiments.run_all_lemmas(config)
        untimed.timings.clear()
        assert set(report.timings) == set(experiments.REGISTRY)
        assert all(t >= 0.0 for t in report.timings.values())
        assert report.body_bytes() == untimed.body_bytes()
        assert "timings" not in report.body_dict()
        assert json.loads(report.to_json())["timings"] == report.timings


class TestInstanceCommands:
    @pytest.mark.parametrize(
        "kind, extra, dim",
        [
            ("nazarov", [], 16),
            ("adaptive", [], 32),
            ("tolerant", ["--c0-hat", "0.35"], 17),
            ("ptf", [], 16),
        ],
        ids=["nazarov", "adaptive", "tolerant", "ptf"],
    )
    def test_make_and_check(self, tmp_path, kind, extra, dim):
        path = tmp_path / "inst.json"
        result = run_cli(
            [
                "make-instance", "--kind", kind, "--n", "16",
                "--seed", "11", "--out", str(path), *extra,
            ]
        )
        assert result.returncode == 0
        check = run_cli(["check-instance", str(path)])
        assert check.returncode == 0
        assert "ok" in check.stdout
        assert f"ambient dimension {dim})" in check.stdout

    def test_tolerant_requires_constant(self, tmp_path):
        result = run_cli(
            [
                "make-instance", "--kind", "tolerant", "--n", "16",
                "--seed", "11", "--out", str(tmp_path / "t.json"),
            ]
        )
        assert result.returncode == 2

    def test_calibration_file_flow(self, tmp_path):
        calib = tmp_path / "calib.json"
        result = run_cli(
            [
                "run", "calibrate-c0", "--seed", "13", "--n", "16", "--N", "32",
                "--trials", "100", "--out", str(calib),
            ]
        )
        assert result.returncode == 0
        result = run_cli(
            [
                "run", "eps-gap", "--seed", "14", "--n", "16", "--N", "32",
                "--trials", "50", "--calibration", str(calib),
            ]
        )
        assert result.returncode == 0


def test_main_entry_returns_int():
    assert main(["manifest"]) == 0


# Config fields of the wrong type; run-config and the Python API reject each.
COERCIBLE = [
    ("seed", 7.9),
    ("seed", True),
    ("seed", None),
    ("fmt", "xml"),
    ("overrides", {"c1": True}),
    ("overrides", {"c1": "abc"}),
    ("n", 64.5),
    ("N", "256"),
    ("q", True),
    ("trials", 1e5),
    ("experiment", ["r-estimate"]),
    ("output_path", 7),
    ("calibration_path", 1.5),
]


class TestRunConfig:
    def test_config_file_mirror(self, tmp_path):
        cfg = {
            "experiment": "r-estimate", "seed": 6, "n": 64, "N": 256,
            "overrides": {"c1": 0.01}, "fmt": "csv",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = run_cli(["run-config", str(path)])
        assert result.returncode == 0
        assert result.stdout.startswith("experiment,row_type")

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "r-estimate", "seed": 1, "bogus": 2}))
        result = run_cli(["run-config", str(path)])
        assert result.returncode == 2
        assert "unknown config fields" in result.stderr

    def test_unknown_experiment_rejected_at_parse(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"experiment": "mystery", "seed": 1}))
        result = run_cli(["run-config", str(path)])
        assert result.returncode == 2

    @pytest.mark.parametrize("field, value", COERCIBLE)
    def test_coercible_field_rejected(self, tmp_path, capsys, field, value):
        cfg = {"experiment": "r-estimate", "seed": 6, "n": 64, "N": 256, field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run-config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr("c1" if field == "overrides" else field) in err

    @pytest.mark.parametrize(
        "experiment, field, value",
        [("r-estimate", field, value) for field, value in COERCIBLE]
        + [("eps-gap", "overrides", {"c0_hat": True})],
    )
    def test_python_api_rejects_the_same_fields(self, experiment, field, value):
        cfg = {"experiment": experiment, "seed": 6, "n": 64, "N": 256, field: value}
        with pytest.raises(LabError) as excinfo:
            ExperimentConfig(**cfg)
        assert repr(next(iter(value)) if field == "overrides" else field) in str(excinfo.value)


class TestShorthand:
    def test_experiment_name_without_run(self):
        result = run_cli(["moment-matching", "--seed", "3"])
        assert result.returncode == 0

    def test_unwritable_output_path(self, tmp_path):
        result = run_cli(
            [
                "run", "moment-matching", "--seed", "3",
                "--out", str(tmp_path / "missing_dir" / "report.json"),
            ]
        )
        assert result.returncode == 2
        assert "cannot write report" in result.stderr
