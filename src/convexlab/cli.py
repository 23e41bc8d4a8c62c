"""Command-line front end: `lab <experiment> --seed S [options]`.

The seed is mandatory; there is no wall-clock default, so every run is
reproducible from its command line alone.  Exit code 0 means every assertion
in the report passed.  Worker count is controlled only by the
CONVEXLAB_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .errors import LabError
from .experiments import FORMATS, REGISTRY, ExperimentConfig, run_experiment
from .report import fmt12
from .storage import KINDS, load_calibration, load_instance, save_instance


# The numerals the text inputs accept.  int() and float() also read
# underscores, blanks around the digits, a leading '+' and non-ASCII digits,
# which would turn a mistyped value into some other number.  inf and nan
# read as numbers, so that the config's finite checks name the field.
_NUMBER = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?(inf|infinity|nan)", re.IGNORECASE)


def integer(text: str) -> int:
    """An integer option: an optional '-' followed by ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def number(text: str) -> float:
    """A numeric option: an ASCII decimal or scientific numeral."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Experiment runner for the convexity-testing laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    manifest = sub.add_parser("manifest", help="list every experiment name")
    manifest.set_defaults(handler=_cmd_manifest)

    run = sub.add_parser("run", help="run one experiment (or the all-lemmas suite)")
    run.add_argument("experiment", help="experiment name, or all-lemmas")
    _add_run_args(run)
    run.set_defaults(handler=_cmd_run)

    run_config = sub.add_parser(
        "run-config", help="run an experiment described by a JSON config file"
    )
    run_config.add_argument("path", help="JSON file mirroring the experiment config")
    run_config.set_defaults(handler=_cmd_run_config)

    make = sub.add_parser("make-instance", help="sample an instance and write it to disk")
    make.add_argument("--kind", required=True, choices=tuple(KINDS))
    make.add_argument("--n", type=integer, required=True)
    make.add_argument("--N", type=integer, default=None)
    make.add_argument("--seed", type=integer, required=True)
    make.add_argument("--out", required=True)
    make.add_argument("--explicit", action="store_true", help="embed arrays, not just the seed")
    make.add_argument("--flavor", default="no", choices=("yes", "no"), help="ptf only")
    make.add_argument("--l", type=integer, default=3, help="ptf only")
    make.add_argument("--c0-hat", type=number, default=None, help="tolerant only")
    make.add_argument("--calibration", default=None, help="tolerant only")
    make.set_defaults(handler=_cmd_make_instance)

    check = sub.add_parser("check-instance", help="verify checksum and regeneration of a file")
    check.add_argument("path")
    check.set_defaults(handler=_cmd_check_instance)

    return parser


def _add_run_args(run: argparse.ArgumentParser):
    run.add_argument("--seed", type=integer, required=True, help="mandatory; no wall-clock default")
    run.add_argument("--n", type=integer, default=None)
    run.add_argument("--N", type=integer, default=None)
    run.add_argument("--q", type=integer, default=None)
    run.add_argument("--trials", type=integer, default=None)
    run.add_argument("--out", default=None, help="write the report to this path")
    run.add_argument("--format", dest="fmt", default="json", choices=FORMATS)
    run.add_argument("--calibration", default=None, help="calibration record path")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="numeric constant override (repeatable)",
    )


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise LabError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        try:
            overrides[key.strip()] = number(raw)
        except ValueError:
            raise LabError(f"override value {raw!r} is not a number") from None
    return overrides


def _cmd_manifest(args) -> int:
    names = sorted(REGISTRY) + ["all-lemmas"]
    width = max(len(n) for n in names)
    for name in names:
        if name == "all-lemmas":
            desc = "every experiment above, in sequence, at desk parameters"
        else:
            desc = REGISTRY[name][1]
        print(f"{name:<{width}}  {desc}")
    return 0


def _execute(config: ExperimentConfig) -> int:
    report = run_experiment(config)
    body = report.to_csv() if config.fmt == "csv" else report.to_json() + "\n"
    # calibrate-c0 writes the calibration record to the output path instead.
    if config.output_path and config.experiment != "calibrate-c0":
        try:
            with open(config.output_path, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise LabError(f"cannot write report to {config.output_path}: {exc}") from exc
    sys.stdout.write(body)
    for assertion in report.assertions:
        tag = "PASS" if assertion.passed else "FAIL"
        print(
            f"[{tag}] {assertion.description} (bound {fmt12(assertion.bound)}, "
            f"observed {fmt12(assertion.observed)})",
            file=sys.stderr,
        )
    return 0 if report.all_passed() else 1


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        experiment=args.experiment,
        seed=args.seed,
        n=args.n,
        N=args.N,
        q=args.q,
        trials=args.trials,
        overrides=_parse_overrides(args.overrides),
        output_path=args.out,
        fmt=args.fmt,
        calibration_path=args.calibration,
    )
    return _execute(config)


def _cmd_run_config(args) -> int:
    import json

    try:
        with open(args.path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LabError(f"cannot read config {args.path}: {exc}") from exc
    if not isinstance(raw, dict) or "experiment" not in raw or "seed" not in raw:
        raise LabError("config must be a JSON object with at least experiment and seed")
    unknown = set(raw) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise LabError(f"unknown config fields: {sorted(unknown)}")
    config = ExperimentConfig(**raw)
    # JSON numbers are recorded as floats, as `--set` parses them.
    config = dataclasses.replace(config, overrides={k: float(v) for k, v in config.overrides.items()})
    return _execute(config)


def _cmd_make_instance(args) -> int:
    from . import nazarov, ptf
    from .rng import RngStream

    kind = KINDS[args.kind]
    values = {
        "n": args.n, "N": args.N, "c1": 0.01, "l": args.l, "flavor": args.flavor,
        "clip_c": ptf.DEFAULT_CLIP, "neg_atom": ptf.DEFAULT_NEG_ATOM, "neg_prob": ptf.DEFAULT_NEG_PROB,
    }
    if "r" in kind.params:
        if args.N is None:
            values["N"] = nazarov.default_halfspace_count(args.n)
        values["r"] = nazarov.solve_r(args.n, values["N"], values["c1"])
    if "c0_hat" in kind.params:
        if args.c0_hat is not None:
            values["c0_hat"] = args.c0_hat
        elif args.calibration:
            values["c0_hat"] = load_calibration(args.calibration).c0_hat
        else:
            raise LabError("tolerant instances need --c0-hat or --calibration")
    inst = kind.sample(RngStream(args.seed), *(values[key] for key in kind.params))
    save_instance(inst, args.out, include_arrays=args.explicit)
    print(f"wrote {args.kind} instance to {args.out}")
    return 0


def _cmd_check_instance(args) -> int:
    inst = load_instance(args.path)
    print(f"{args.path}: ok (kind {type(inst).__name__}, ambient dimension {inst.ambient_dim})")
    return 0


COMMANDS = ("manifest", "run", "run-config", "make-instance", "check-instance")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `lab <experiment> --seed S ...` is shorthand for `lab run <experiment> ...`.
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
