"""Named experiments: one per verifier/estimator, plus the full suite.

Every experiment is a pure function of an ExperimentConfig; the seed is
mandatory and fully determines the report body.  Defaults target the desk
parameters n = 100, N = 1024.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import adaptive, gauss, nazarov, ptf, testers, tolerant
from .errors import CalibrationMissingError, DomainError
from .parallel import map_units
from .report import ExperimentReport
from .rng import RngStream
from .storage import load_calibration, save_calibration

LN2 = math.log(2.0)


FORMATS = ("json", "csv")


def _plain(value, types) -> bool:
    """isinstance(value, types), with bool, a subclass of int, excluded."""
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's inputs.  Every entry point (the CLI, run-config, the Python
    API) builds one, and construction is the only place they are checked:
    values are rejected, never converted."""

    experiment: str
    seed: int
    n: int | None = None
    N: int | None = None
    q: int | None = None
    trials: int | None = None
    overrides: dict = field(default_factory=dict)
    output_path: str | None = None
    fmt: str = "json"
    calibration_path: str | None = None

    def __post_init__(self):
        if self.experiment not in (*REGISTRY, "all-lemmas"):
            raise DomainError(
                f"config field 'experiment': unknown experiment {self.experiment!r}; "
                "run the manifest command for the list"
            )
        if not _plain(self.seed, int):
            raise DomainError(f"config field 'seed' must be an integer, got {self.seed!r}")
        reads = SUITE_SIZES if self.experiment == "all-lemmas" else REGISTRY[self.experiment][2]
        for key in SIZES:
            value = getattr(self, key)
            if value is None:
                continue
            if not (_plain(value, int) and value >= 1):
                raise DomainError(f"config field {key!r} must be an integer >= 1, got {value!r}")
            if key not in reads:
                raise DomainError(
                    f"{self.experiment} reads no config field {key!r}; it reads {list(reads)}"
                )
        if self.fmt not in FORMATS:
            raise DomainError(f"config field 'fmt' must be one of {FORMATS}, got {self.fmt!r}")
        for key in ("output_path", "calibration_path"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise DomainError(f"config field {key!r} must be a string, got {value!r}")
        if not isinstance(self.overrides, dict):
            raise DomainError("config field 'overrides' must be a mapping of constants to numbers")
        if self.experiment == "all-lemmas":
            known = {key for *_, keys in REGISTRY.values() for key in keys}
        else:
            known = set(REGISTRY[self.experiment][3])
        unknown = sorted(set(self.overrides) - known, key=str)
        if unknown:
            raise DomainError(f"{self.experiment} reads no override {unknown}; it reads {sorted(known)}")
        for key, value in self.overrides.items():
            if not (_plain(value, (int, float)) and -math.inf < value < math.inf):
                raise DomainError(f"override {key!r} must be a finite number, got {value!r}")
            if key in INTEGER_OVERRIDES and value != int(value):
                raise DomainError(f"override {key!r} must be an integer, got {value!r}")

    def dim(self, default: int = 100) -> int:
        return self.n if self.n is not None else default

    def halfspaces(self, n: int) -> int:
        return self.N if self.N is not None else nazarov.default_halfspace_count(n)

    def grid(self) -> tuple[int, ...]:
        """The n-grid of the trend experiments, or the one point --n fixes."""
        return (64, 100, 144) if self.n is None else (self.n,)

    def budget(self, default: int) -> int:
        return self.q if self.q is not None else default

    def samples(self, default: int) -> int:
        return self.trials if self.trials is not None else default

    def override(self, key: str, default: float) -> float:
        return float(self.overrides.get(key, default))

    def c0_hat(self) -> float:
        """The measured constant: the c0_hat override, else the calibration record's."""
        if "c0_hat" in self.overrides:
            return float(self.overrides["c0_hat"])
        if self.calibration_path:
            return load_calibration(self.calibration_path).c0_hat
        raise CalibrationMissingError(
            "experiment needs the measured constant: run calibrate-c0 and pass --calibration, "
            "or set --set c0_hat=<value>"
        )

    def rng(self) -> RngStream:
        return RngStream(self.seed)


# -- gauss-core ---------------------------------------------------------------


def run_verify_tail_bounds(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    trials = config.samples(100_000)
    return gauss.verify_tail_bounds(n, trials, config.rng())


# -- body geometry --------------------------------------------------------------


def run_r_estimate(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    c1 = config.override("c1", 0.01)
    report = nazarov.check_r_estimate(n, N, c1, seed=config.seed)
    # Closed-form-only check at large parameters: the ratio approaches 1.
    big = nazarov.check_r_estimate(10_000, 2**100, c1, seed=config.seed)
    report.add_estimate("ratio_large_params", big.value("ratio"))
    report.assert_geq(
        "estimate ratio closer to 1 at (n=1e4, N=2^100) than at desk parameters",
        big.value("ratio"),
        report.value("ratio"),
        source="closed-form",
    )
    return report


def run_shell_membership(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    bodies = config.samples(2000)
    rng = config.rng()
    report = ExperimentReport(
        "shell-membership", {"n": n, "N": N, "bodies": bodies}, config.seed
    )
    r = nazarov.solve_r_half(n, N)
    closed = nazarov.membership_prob(n, N, r, math.sqrt(n))
    report.add_estimate("r", r)
    report.add_estimate("closed_form", closed)
    report.assert_leq(
        "closed-form shell membership equals 1/2 within 1e-10",
        abs(closed - 0.5),
        1e-10,
        source="closed-form",
    )
    hits = sum(map_units(_shell_hit, bodies, rng, N, r, math.sqrt(n)))
    freq, _ = report.add_rate("mc_membership", hits, bodies)
    report.assert_leq(
        "Monte Carlo shell membership within 0.03 of the closed form",
        abs(freq - closed),
        0.03,
        source="derived",
    )
    return report


def _shell_hit(rng: RngStream, b: int, N: int, r: float, x0: float) -> bool:
    """Whether x = x0 e1 lies in body b: x meets each of the N normals g only
    through g's first coordinate, so the body is N normals, not N x n, and
    classify's rule reads x0 g <= r for all of them (ties inside)."""
    g = rng.child(b).generator().standard_normal(N)
    return bool((x0 * g <= r).all())


def run_high_degree_bound(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    trials = config.samples(100_000)
    report = ExperimentReport(
        "high-degree-bound", {"n": n, "N": N, "trials": trials}, config.seed
    )
    rng = config.rng()
    stream_index = 0
    for label, c1 in (("c1=0.01", 0.01), ("c1=ln2", LN2)):
        r = nazarov.solve_r(n, N, c1)
        for q in (1, 2, 3):
            sub = nazarov.verify_high_degree_bound(
                n, N, r, c1, q, trials, rng.child(stream_index)
            )
            stream_index += 1
            report.merge(sub, prefix=f"{label} q={q}")
    return report


def run_flap_dogear_ratio(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    trials = config.samples(100_000)
    report = ExperimentReport(
        "flap-dogear-ratio", {"n": n, "N": N, "trials": trials}, config.seed
    )
    rng = config.rng()
    for index, (label, c1) in enumerate((("c1=ln2", LN2), ("c1=0.01", 0.01))):
        r = nazarov.solve_r(n, N, c1)
        sub = nazarov.verify_flap_dogear_ratio(n, N, r, c1, trials, rng.child(index))
        report.merge(sub, prefix=label)
        pointwise = nazarov.pointwise_flap_dogear_check(n, N, r, c1)
        report.merge(pointwise, prefix=label)
    return report


def run_unique_volume(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    bodies = config.samples(500)
    points = int(config.override("points_per_body", 2000))
    c1 = config.override("c1", LN2)
    r = nazarov.solve_r(n, N, c1)
    return nazarov.estimate_unique_volume(n, N, r, bodies, points, config.rng(), c1=c1)


def run_calibrate_c0(config: ExperimentConfig) -> ExperimentReport:
    """Measure the uniquely-violated volume at c1 = 1/100 and persist it.

    c0 is the expected unique volume over point-body pairs, divided by c1, so
    one count-level draw of trials x points_per_body pairs, a fresh body for
    each point (nazarov.unique_multi_hits), estimates it with no body built.
    """
    n = config.dim()
    N = config.halfspaces(n)
    trials = config.samples(200)
    points = int(config.override("points_per_body", 2000))
    if trials < 100:
        raise DomainError("need trials >= 100")
    if points < 1_000:
        raise DomainError("need points_per_body >= 1e3")
    c1 = tolerant.C1_DEFAULT
    r = nazarov.solve_r(n, N, c1)
    report = ExperimentReport(
        "calibrate-c0",
        {"n": n, "N": N, "r": r, "c1": c1, "trials": trials, "points_per_body": points},
        config.seed,
    )
    pairs = trials * points
    unique, _ = nazarov.unique_multi_hits(n, N, r, pairs, config.rng().child(0).generator())
    v_mean, se = report.add_rate("vol_unique_mean", unique, pairs)
    nazarov.check_unique_mean(report, v_mean, se, c1)
    report.add_estimate("c0_hat", v_mean / c1)
    record = tolerant.CalibrationRecord(
        n=n, N=N, c1=c1, v_u_mean=v_mean, v_u_ci=se, produced_by_seed=config.seed
    )
    if config.output_path:
        save_calibration(record, config.output_path)
    return report


# -- moment matching --------------------------------------------------------------


def run_moment_matching(config: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport("moment-matching", {}, config.seed)
    for l in (1, 3, 5):
        mu, law = ptf.match_moments_nonneg(l)
        report.add_estimate(f"mu[l={l}]", mu)
        report.assert_leq(
            f"nonnegative law moments 1..{l} match within relative 1e-9",
            ptf.moment_error(law, mu, l),
            1e-9,
            source="closed-form",
        )
        report.assert_geq(
            f"nonnegative law atoms >= -1e-12 (l={l})",
            float(law.atoms.min()),
            -1e-12,
            source="closed-form",
        )
        neg = ptf.match_moments_with_negative(mu, l)
        neg_mass = float(neg.probs[neg.atoms < 0].sum())
        report.add_estimate(f"neg_mass[l={l}]", neg_mass)
        report.assert_leq(
            f"negative-atom law carries its declared mass (l={l})",
            abs(neg_mass - ptf.DEFAULT_NEG_PROB),
            1e-12,
            source="closed-form",
        )
        report.assert_leq(
            f"negative-atom law moments 1..{l} match within relative 1e-9",
            ptf.moment_error(neg, mu, l),
            1e-9,
            source="closed-form",
        )
    mu3, law3 = ptf.match_moments_nonneg(3)
    spot = (
        abs(mu3 - 1.0)
        + abs(law3.atoms[0]) + abs(law3.atoms[1] - 2.0)
        + abs(law3.probs[0] - 0.5) + abs(law3.probs[1] - 0.5)
        + abs(law3.moment(1) - 1.0) + abs(law3.moment(2) - 2.0) + abs(law3.moment(3) - 4.0)
    )
    report.assert_leq(
        "l=3 spot check: atoms {0,2} with equal mass and moments (1,2,4)",
        spot,
        1e-12,
        source="closed-form",
    )
    return report


# -- testers -----------------------------------------------------------------------


def run_soundness(config: ExperimentConfig) -> ExperimentReport:
    """One-sided soundness: no built-in tester may ever reject a convex oracle."""
    d = config.dim(20)
    budget = config.budget(30)
    runs_per_cell = config.samples(250)
    report = ExperimentReport(
        "soundness", {"d": d, "budget": budget, "runs_per_cell": runs_per_cell}, config.seed
    )
    cells = [
        testers.Cell(kind, family, d, budget, runs_per_cell, (k, f))
        for k, kind in enumerate(testers.STRATEGY_KINDS)
        for f, family in enumerate(testers.CONVEX_FAMILIES)
    ]
    counts = testers.cell_rejections(cells, config.rng())
    total_runs = len(testers.CONVEX_FAMILIES) * runs_per_cell
    for kind in testers.STRATEGY_KINDS:
        rejections = sum(count for cell, count in zip(cells, counts) if cell.strategy_kind == kind)
        report.add_estimate(f"rejections[{kind}]", rejections, 0.0, total_runs)
        report.assert_leq(
            f"{kind} never rejects a convex oracle ({total_runs} runs)",
            rejections,
            0.0,
            source="closed-form",
        )
    return report


def run_rejection_rates(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim(64)
    trials = config.samples(150)
    report = ExperimentReport(
        "rejection-rates", {"n": n, "trials": trials}, config.seed
    )
    budgets = (4, 16, 64)
    # Merge prefix -> (strategy, family, budget); cell i draws from rng.child(i).
    specs = {f"adaptive budget={budget}": ("hull-sampling", "adaptive", budget) for budget in budgets}
    specs["ptf-no line-segment"] = ("line-segment", "ptf-no", 30)
    specs["ptf-yes hull-sampling"] = ("hull-sampling", "ptf-yes", 30)
    c0_hat = None
    if "c0_hat" in config.overrides or config.calibration_path:
        # Near-convex yes-realizations carry no acceptance guarantee; the
        # rates are recorded, never asserted.
        c0_hat = config.c0_hat()
        for family in ("tolerant-yes", "tolerant-no"):
            specs[f"{family} hull-sampling"] = ("hull-sampling", family, 30)
    cells = [
        testers.Cell(kind, family, n, budget, trials, (index,))
        for index, (kind, family, budget) in enumerate(specs.values())
    ]
    counts = testers.cell_rejections(cells, config.rng(), c0_hat)
    for prefix, cell, count in zip(specs, cells, counts):
        report.merge(testers.rate_report(cell, count, config.seed), prefix=prefix)
    rates = [report.estimate(f"adaptive budget={budget}: rejection_rate") for budget in budgets]
    report.assert_trend(
        "adaptive-family rejection rate nondecreasing in budget (3se slack)",
        [e.value for e in rates],
        [e.ci_halfwidth for e in rates],
        "nondecreasing",
        floor=1e-12,
    )
    report.assert_leq(
        "ptf-yes rejection rate exactly zero",
        report.value("ptf-yes hull-sampling: rejection_rate"),
        0.0,
        source="closed-form",
    )
    return report


# -- adaptive ---------------------------------------------------------------------


def run_distance_lb(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    trials = config.samples(100_000)
    rng = config.rng()
    inst = adaptive.sample_adaptive_instance(n, config.N, rng.child(0))
    a_const = config.override("a_const", adaptive.DEFAULT_A_CONST)
    report = adaptive.estimate_distance_lb(inst, trials, rng.child(1), a_const=a_const)
    convex = adaptive.convexified_oracle(inst)
    sub = adaptive.estimate_distance_lb(
        inst, max(trials // 4, 100_000), rng.child(2), a_const=a_const, oracle=convex
    )
    report.add_estimate("convexified_p_hat", sub.value("p_hat"))
    report.assert_leq(
        "strip-free convex variant admits no violating triples",
        sub.value("p_hat"),
        0.0,
        source="closed-form",
    )
    return report


def run_detect_events(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    q = config.budget(3)
    instances = config.samples(1000)
    return adaptive.event_rate_experiment(n, q, instances, config.rng())


def run_strip_crossing(config: ExperimentConfig) -> ExperimentReport:
    q = config.budget(4)
    trials = config.samples(200_000)
    grid = config.grid()
    report = ExperimentReport(
        "strip-crossing", {"grid": list(grid), "q": q, "trials": trials}, config.seed
    )
    rng = config.rng()
    ratio_limit = config.override("ratio_limit", 1.0)
    rates = []
    for index, n in enumerate(grid):
        radius = config.override("cluster_radius", math.sqrt(q) * n**0.25)
        sub = adaptive.strip_crossing_experiment(
            n, q, radius, trials, rng.child(index), ratio_limit=ratio_limit
        )
        rates.append(sub.estimate("conditional_crossing"))
        report.merge(sub, prefix=f"n={n}")
    report.assert_trend(
        "conditional crossing probability decreasing in n at fixed q (3se slack)",
        [e.value for e in rates],
        [e.ci_halfwidth for e in rates],
        "nonincreasing",
    )
    return report


# -- tolerant ---------------------------------------------------------------------


def _shell_queries(n: int, count: int, tau: float, rng: RngStream) -> np.ndarray:
    """Gaussian queries conditioned into the radial shell."""
    gen = rng.generator()
    lo, hi = tolerant.shell_interval(n, tau)
    rows = []
    while len(rows) < count:
        x = gen.standard_normal(n + 1)
        if lo <= float(np.linalg.norm(x)) <= hi:
            rows.append(x)
    return np.vstack(rows)


def run_view_tv(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    trials = config.samples(10_000)
    q = config.budget(5)
    c0_hat = config.c0_hat()
    tau = tolerant.c2_from(c0_hat)
    rng = config.rng()
    queries = _shell_queries(n, q, tau, rng.child(0))
    return tolerant.view_experiment(
        queries, n, trials, rng.child(1), c0_hat, N_override=config.N
    )


def run_eps_gap(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    N = config.halfspaces(n)
    draws = config.samples(200)
    points = int(config.override("points_per_draw", 1000))
    return tolerant.estimate_eps_bounds(
        n, N, draws, points, config.rng(), config.c0_hat()
    )


def run_xy_pair(config: ExperimentConfig) -> ExperimentReport:
    q_trials = config.samples(200_000)
    grid = config.grid()
    c0_hat = config.c0_hat()
    c2 = tolerant.c2_from(c0_hat)
    c3 = config.override("c3", 0.1)
    report = ExperimentReport(
        "xy-pair", {"grid": list(grid), "trials": q_trials, "c3": c3}, config.seed
    )
    rng = config.rng()
    near_rates = []
    star_rates = []
    for index, n in enumerate(grid):
        s = math.sqrt(n + 1.0)
        width = tolerant.curb_interval_width(c2)
        d_near = width / (2.0 * math.sqrt(2.0 * c3)) * n**0.375
        theta = 2.0 * math.asin(min(1.0, d_near / (2.0 * s)))
        x = np.zeros(n + 1)
        x[0] = s
        near = np.zeros(n + 1)
        near[0] = s * math.cos(theta)
        near[1] = s * math.sin(theta)
        far = np.zeros(n + 1)
        far[0] = s * 0.5
        far[1] = s * math.sqrt(3.0) / 2.0
        sub_near = tolerant.xy_pair_experiment(
            n, x, near, q_trials, rng.child(2 * index), c0_hat
        )
        sep = sub_near.estimate("action_separation_rate")
        near_rates.append(sep)
        report.merge(sub_near, prefix=f"near n={n}")
        bound = 2.0 ** (-4.0 * c3 * n**0.25)
        report.assert_leq(
            f"near-pair separation rate at n={n} <= 2^(-4 c3 n^(1/4)) + 3se",
            sep.value,
            bound,
            source="analytic",
            se=sep.ci_halfwidth,
        )
        sub_far = tolerant.xy_pair_experiment(
            n, x, far, q_trials, rng.child(2 * index + 1), c0_hat
        )
        star_rates.append(sub_far.value("same_unique_rate"))
        report.merge(sub_far, prefix=f"far n={n}")
    report.assert_trend(
        "near-pair separation rate decaying in n (3se slack)",
        [e.value for e in near_rates],
        [e.ci_halfwidth for e in near_rates],
        "nonincreasing",
    )
    if len(grid) > 1:
        for n, rate in zip(grid, star_rates):
            report.add_estimate(f"star_rate_trend[n={n}]", rate)
    return report


def run_bivariate_tail(config: ExperimentConfig) -> ExperimentReport:
    trials = config.samples(1_000_000)
    report = ExperimentReport("bivariate-tail", {"trials_per_cell": trials}, config.seed)
    rng = config.rng()
    index = 0
    for rho in (0.3, 0.6, 0.9):
        for h in (1.0, 2.0, 3.0):
            for k in (1.0, 2.0, 3.0):
                sub = tolerant.bivariate_tail_check(rho, h, k, trials, rng.child(index))
                index += 1
                report.merge(sub)
    return report


# -- ptf ----------------------------------------------------------------------------


def run_no_distance(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    l = int(config.override("l", 3))
    lines = config.samples(400)
    points_per_line = int(config.override("points_per_line", 24))
    rng = config.rng()
    inst = None
    for attempt in range(200):
        candidate = ptf.sample_ptf_instance(n, l, ptf.DEFAULT_CLIP, "no", rng.child(attempt))
        if np.count_nonzero(candidate.coeffs < 0) >= 1:
            inst = candidate
            break
    if inst is None:
        raise DomainError("no coefficient draw with a negative coordinate found")
    return ptf.estimate_no_distance(inst, lines, points_per_line, rng.child(1000))


def run_response_tv(config: ExperimentConfig) -> ExperimentReport:
    n = config.dim()
    q = config.budget(8)
    trials = config.samples(10_000)
    rng = config.rng()
    queries = rng.child(0).generator().standard_normal((q, n))
    report = ExperimentReport(
        "response-tv", {"n": n, "q": q, "trials": trials}, config.seed
    )
    tvs = {}
    for index, l in enumerate((1, 3)):
        sub = ptf.response_tv_experiment(queries, n, l, trials, rng.child(index + 1))
        tvs[l] = sub.value("tv")
        report.merge(sub, prefix=f"l={l}")
    report.add_estimate("tv_trend_l1_minus_l3", tvs[1] - tvs[3])
    return report


# -- registry -------------------------------------------------------------------------

# The config fields that size a run; an experiment refuses those it does not read.
SIZES = ("n", "N", "q", "trials")
# all-lemmas reads n and N and passes each experiment those it reads.
SUITE_SIZES = ("n", "N")
# The override keys that count something, so must be integers.
INTEGER_OVERRIDES = frozenset({"points_per_body", "points_per_draw", "l", "points_per_line"})

# name -> (function, description, the SIZES it reads, the override keys it reads)
REGISTRY = {
    "verify-tail-bounds": (run_verify_tail_bounds, "spherical-cap and chi-square tail inequalities, empirically", ("n", "trials"), ()),
    "r-estimate": (run_r_estimate, "threshold solver against its closed-form estimate", ("n", "N"), ("c1",)),
    "shell-membership": (run_shell_membership, "half-membership threshold: closed form and Monte Carlo", ("n", "N", "trials"), ()),
    "high-degree-bound": (run_high_degree_bound, "multiply-violated point probability <= c1^q/q!", ("n", "N", "trials"), ()),
    "flap-dogear-ratio": (run_flap_dogear_ratio, "uniquely- vs multiply-violated volume ratio >= 2/c1 - 2", ("n", "N", "trials"), ()),
    "unique-volume": (run_unique_volume, "uniquely-violated volume: mean, floor, concentration", ("n", "N", "trials"), ("points_per_body", "c1")),
    "calibrate-c0": (run_calibrate_c0, "measure the unique-volume constant and persist the record", ("n", "N", "trials"), ("points_per_body",)),
    "moment-matching": (run_moment_matching, "discrete laws matching Gaussian raw moments", (), ()),
    "soundness": (run_soundness, "built-in testers never reject convex oracles", ("n", "q", "trials"), ()),
    "rejection-rates": (run_rejection_rates, "baseline tester rejection rates per instance family", ("n", "trials"), ("c0_hat",)),
    "distance-lb": (run_distance_lb, "violating-triple seed probability on adaptive instances", ("n", "N", "trials"), ("a_const",)),
    "detect-events": (run_detect_events, "transcript event frequencies on random query sets", ("n", "q", "trials"), ()),
    "strip-crossing": (run_strip_crossing, "conditional strip-boundary crossing for clustered queries", ("n", "q", "trials"), ("ratio_limit", "cluster_radius")),
    "view-tv": (run_view_tv, "yes/no response-view agreement conditioned on no distinguishing pair", ("n", "N", "q", "trials"), ("c0_hat",)),
    "eps-gap": (run_eps_gap, "closeness/farness constants and their gap", ("n", "N", "trials"), ("points_per_draw", "c0_hat")),
    "xy-pair": (run_xy_pair, "pairwise distinguishing probabilities for fixed shell points", ("n", "trials"), ("c3", "c0_hat")),
    "bivariate-tail": (run_bivariate_tail, "joint Gaussian tail against the closed-form bound", ("trials",), ()),
    "no-distance": (run_no_distance, "collinear (1,0,1) witness frequency on no-instances", ("n", "trials"), ("l", "points_per_line")),
    "response-tv": (run_response_tv, "coupled response-vector total variation for the two laws", ("n", "q", "trials"), ()),
}

def _suite_seed(seed: int, index: int) -> int:
    """Seed of the index-th suite experiment, drawn from the (seed, index) stream."""
    return int(RngStream(seed, index).generator().integers(2**63))


def run_all_lemmas(config: ExperimentConfig) -> ExperimentReport:
    """The full verification suite at desk parameters, one sub-report each.

    The suite runs REGISTRY in its order; calibrate-c0 comes before the
    experiments that read its constant.  Each experiment gets only the
    sizes (n, N) and overrides it reads, and the measured c0_hat unless one
    is set.
    """
    report = ExperimentReport("all-lemmas", {"n": config.dim(), "N": config.halfspaces(config.dim())}, config.seed)
    c0_hat: float | None = None
    for index, (name, (fn, _, sizes, keys)) in enumerate(REGISTRY.items()):
        overrides = {k: v for k, v in config.overrides.items() if k in keys}
        if "c0_hat" in keys and c0_hat is not None:
            overrides.setdefault("c0_hat", c0_hat)
        sub_config = ExperimentConfig(
            experiment=name,
            seed=_suite_seed(config.seed, index),
            overrides=overrides,
            **{key: getattr(config, key) for key in sizes},
        )
        started = time.perf_counter()
        sub = fn(sub_config)
        report.timings[name] = time.perf_counter() - started
        if name == "calibrate-c0":
            c0_hat = sub.value("c0_hat")
        report.merge(sub, prefix=name)
    return report


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    started = time.perf_counter()
    if config.experiment == "all-lemmas":
        report = run_all_lemmas(config)
    else:
        report = REGISTRY[config.experiment][0](config)
        for key, value in sorted(config.overrides.items()):  # echo each override
            report.parameters[f"override.{key}"] = value
    report.wall_time = time.perf_counter() - started
    return report
