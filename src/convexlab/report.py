"""Experiment reports: named estimates, bound assertions, stable serialization.

Report bodies are canonical: keys sorted, floats printed with 12 significant
digits, wall time and per-experiment timings excluded.  Re-running an
experiment with the same seed must produce byte-identical bodies regardless
of worker count.

The significance rule lives here once: add_rate records a frequency with its
binomial standard error, assert_leq / assert_geq widen a bound by 3 se, and
assert_trend checks the direction of a rate along an n-grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Provenance labels for assertion bounds.  "closed-form" means the bound is an
# exact formula evaluated in-process; "analytic" means a stated inequality
# checked empirically; "derived" means a threshold computed from an
# independent oracle or fixed at desk scale.
SOURCES = ("closed-form", "analytic", "derived")

# Two-sided 99% quantile of the standard normal.
Z99 = 2.5758293035489004


def fmt12(value: float) -> str:
    """Decimal with 12 significant digits, canonical across report formats."""
    if isinstance(value, bool):
        return str(value).lower()
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{float(value):.12g}"


@dataclass
class Estimate:
    metric: str
    value: float
    ci_halfwidth: float
    sample_count: int


@dataclass
class BoundAssertion:
    description: str
    bound: float
    observed: float
    passed: bool
    source: str = "derived"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown bound source {self.source!r}")


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    seed: int
    estimates: list[Estimate] = field(default_factory=list)
    assertions: list[BoundAssertion] = field(default_factory=list)
    wall_time: float = 0.0
    timings: dict = field(default_factory=dict)  # sub-experiment name -> seconds

    def add_estimate(self, metric, value, ci_halfwidth=0.0, sample_count=0):
        self.estimates.append(Estimate(metric, float(value), float(ci_halfwidth), int(sample_count)))

    def add_assertion(self, description, bound, observed, passed, source="derived"):
        self.assertions.append(
            BoundAssertion(description, float(bound), float(observed), bool(passed), source)
        )

    def add_rate(self, metric, hits, trials):
        """Record hits / trials with its binomial se and the count; returns
        (rate, se).  With no trials both are 0."""
        rate = hits / trials if trials else 0.0
        se = binom_se(hits, trials)
        self.add_estimate(metric, rate, se, trials)
        return rate, se

    def assert_leq(self, description, observed, bound, source="derived", se=0.0):
        """observed <= bound + 3 se."""
        bound = bound + 3 * se
        self.add_assertion(description, bound, observed, observed <= bound, source)

    def assert_geq(self, description, observed, bound, source="derived", se=0.0):
        """observed >= bound - 3 se."""
        bound = bound - 3 * se
        self.add_assertion(description, bound, observed, observed >= bound, source)

    def assert_trend(self, description, values, ses, direction, floor=0.0):
        """Values along a grid are `direction` ("nonincreasing" or
        "nondecreasing") within 3 max(ses) + floor.  The observed value is the
        largest step the wrong way, 0 if there is none; a grid of one point
        records nothing."""
        if direction not in ("nonincreasing", "nondecreasing"):
            raise ValueError(f"unknown trend direction {direction!r}")
        if len(values) < 2:
            return
        steps = zip(values, values[1:]) if direction == "nonincreasing" else zip(values[1:], values)
        worst = max(b - a for a, b in steps)
        self.assert_leq(description, max(0.0, worst), floor, se=max(ses))

    def estimate(self, metric: str) -> Estimate:
        for e in self.estimates:
            if e.metric == metric:
                return e
        raise KeyError(metric)

    def value(self, metric: str) -> float:
        return self.estimate(metric).value

    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failures(self) -> list[BoundAssertion]:
        return [a for a in self.assertions if not a.passed]

    def merge(self, other: "ExperimentReport", prefix: str = ""):
        pre = f"{prefix}: " if prefix else ""
        for e in other.estimates:
            self.estimates.append(Estimate(pre + e.metric, e.value, e.ci_halfwidth, e.sample_count))
        for a in other.assertions:
            self.assertions.append(
                BoundAssertion(pre + a.description, a.bound, a.observed, a.passed, a.source)
            )

    # -- serialization ------------------------------------------------------

    def body_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": {k: _canon(v) for k, v in sorted(self.parameters.items())},
            "seed": self.seed,
            "estimates": [
                {
                    "metric": e.metric,
                    "value": fmt12(e.value),
                    "ci_halfwidth": fmt12(e.ci_halfwidth),
                    "sample_count": e.sample_count,
                }
                for e in self.estimates
            ],
            "assertions": [
                {
                    "description": a.description,
                    "bound": fmt12(a.bound),
                    "observed": fmt12(a.observed),
                    "passed": a.passed,
                    "source": a.source,
                }
                for a in self.assertions
            ],
        }

    def body_bytes(self) -> bytes:
        return json.dumps(self.body_dict(), sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> str:
        payload = self.body_dict()
        payload["wall_time"] = self.wall_time
        payload["timings"] = self.timings
        return json.dumps(payload, indent=2, sort_keys=True)

    CSV_HEADER = (
        "experiment,row_type,name,value,ci_halfwidth,sample_count,bound,observed,passed,source,seed"
    )

    def csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for e in self.estimates:
            lines.append(
                f"{self.name},estimate,{_csv(e.metric)},{fmt12(e.value)},{fmt12(e.ci_halfwidth)},"
                f"{e.sample_count},,,,,{self.seed}"
            )
        for a in self.assertions:
            lines.append(
                f"{self.name},assertion,{_csv(a.description)},,,,{fmt12(a.bound)},{fmt12(a.observed)},"
                f"{str(a.passed).lower()},{a.source},{self.seed}"
            )
        return lines

    def to_csv(self) -> str:
        return "\n".join(self.csv_lines()) + "\n"


def _canon(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return fmt12(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _csv(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# -- small statistics helpers used by every estimator ------------------------


def binom_se(successes: int, trials: int) -> float:
    """Plain binomial standard error of the empirical frequency."""
    if trials <= 0:
        return 0.0
    p = successes / trials
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def tv_from_counts(counts_a: dict, counts_b: dict, total: int) -> float:
    """Total variation between two empirical distributions given as key counts."""
    if total == 0:
        return 0.0
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) - counts_b.get(k, 0)) for k in keys) / total


def response_counts(responses) -> dict:
    """Counts of the distinct 0/1 response vectors among the rows of
    `responses` (trials x q), keyed by the row read as a binary number with
    query j as bit j."""
    responses = np.asarray(responses, dtype=np.int64)
    keys = responses @ (1 << np.arange(responses.shape[1], dtype=np.int64))
    values, counts = np.unique(keys, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def wilson_interval(successes: int, trials: int, z: float = Z99):
    """Wilson score interval; default z is the two-sided 99% quantile."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))
