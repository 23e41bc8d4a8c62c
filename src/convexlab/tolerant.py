"""Tolerant yes/no instance pair over R^{n+1} and its indistinguishability lab.

The control subspace is a random hyperplane carrying a halfspace-intersection
body; the one-dimensional action line is split by Gaussian quantiles into
Left / Middle / Right with two thin "curb" intervals between them.  Points
whose control projection violates exactly one halfspace get a starred label
resolved differently by the yes- and no-realizations; everywhere else the two
realizations agree pointwise.  Distinguishing them requires two queries in
the same uniquely-violated region with action coordinates in different coarse
regions, which is the rare event the experiments measure.

The constant c0_hat (the measured ratio of expected uniquely-violated volume
to c1) comes from a calibration run and fixes c2 = tau = c0_hat * c1 / 100.
The expectation is over the body as well as the point, so calibrate-c0
estimates it over point-body pairs, a fresh body for each point, by drawing
violation counts (nazarov.unique_multi_hits); no body is built.  Every
sampler and experiment here takes c0_hat as one number, not the record
(CalibrationRecord.c0_hat reads it off one), and c2_from is its only check.

Labels depend on an instance only through a TolerantView of the rows: their
norms, |x_C|^2, the action coordinates, the violation matrix of the rows in
the shell and the ball, and the subset P.  One rule (TolerantView.codes /
yes / no / bad) maps a view to labels and to the distinguishing event.  An
instance holds one Haar frame of R^{n+1}, the action line in row 0 and the
control subspace in rows 1..n, so the coordinates c = frame.coords(points)
of a batch hold the action coordinate in column 0 and the control
coordinates in columns 1..n.  A materialized instance builds the view from c
and its normals (inst.view); persistence and the per-instance checks use
that path.  For a fixed query batch, sample_tolerant_views draws a block of
views in law without the instances, by two exact identities; view-tv draws
BLOCK views per parallel.map_units unit.  The testers draw a block of views
of a stack of query sets, one set per trial, the same way.  The frame is
Haar, so c is gauss.haar_coords, sliced the same way, one stack per block
on rng.child(0).  The probed control rows of every trial of the block meet
their trials' normals in one nazarov.sample_violations call on a generator
from child(1), which draws only the hit columns of a trial whose tail mass
allows (at every size the lab runs).  P stays N Bernoulli(1/2) draws per
trial, one (trials, N) uniform draw on child(2).  The trials of a block
share no draw, so a block of views is exact in law.  TolerantView.stack
builds every view, a block of them or an instance's one (inst.view).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationMissingError, DimensionMismatchError, DomainError
from .gauss import (
    Frame,
    haar_coords,
    sample_haar_frame,
    sphere_coords,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
    upper_orthant,
)
from .nazarov import (
    NazarovBody,
    default_halfspace_count,
    sample_body,
    sample_violations,
    solve_r,
    unique_multi_hits,
)
from .parallel import map_units
from .report import Z99, ExperimentReport, response_counts, tv_from_counts
from .rng import RngStream
from .testers import BatchOracle

C1_DEFAULT = 1.0 / 100.0
BLOCK = 32  # view-tv trials per map_units unit; 64 ran no faster and peaked higher

REGION_LEFT = "left"
REGION_MIDDLE = "middle"
REGION_RIGHT = "right"
REGION_CURB = "curb"


@dataclass(frozen=True)
class CalibrationRecord:
    """Measured lower-bound constant for the uniquely-violated volume."""

    n: int
    N: int
    c1: float
    v_u_mean: float
    v_u_ci: float
    produced_by_seed: int

    @property
    def c0_hat(self) -> float:
        return self.v_u_mean / self.c1


@functools.lru_cache(maxsize=64)
def region_boundaries(c2: float) -> tuple[float, float, float, float]:
    if not 0.0 < c2 < 0.5:
        raise DomainError("need 0 < c2 < 1/2")
    return (
        std_normal_quantile((1.0 - 2.0 * c2) / 3.0),
        std_normal_quantile((1.0 + c2) / 3.0),
        std_normal_quantile((2.0 - c2) / 3.0),
        std_normal_quantile((2.0 + 2.0 * c2) / 3.0),
    )


def region_of(a: float, c2: float) -> str:
    """Coarse region of an action coordinate; interval endpoints go to the curb.

    Scalar reference specification kept for tests; the labeling paths use
    region_codes.
    """
    l1, l2, m2, r1 = region_boundaries(c2)
    if a < l1:
        return REGION_LEFT
    if l2 < a < m2:
        return REGION_MIDDLE
    if a > r1:
        return REGION_RIGHT
    return REGION_CURB


def region_codes(a: np.ndarray, c2: float) -> np.ndarray:
    """Vectorized region labels: 0 left, 1 middle, 2 right, 3 curb."""
    l1, l2, m2, r1 = region_boundaries(c2)
    a = np.asarray(a, dtype=np.float64)
    codes = np.full(a.shape, 3, dtype=np.int8)
    codes[a < l1] = 0
    codes[(a > l2) & (a < m2)] = 1
    codes[a > r1] = 2
    return codes


def curb_interval_width(c2: float) -> float:
    l1, l2, _, _ = region_boundaries(c2)
    return l2 - l1


@functools.lru_cache(maxsize=64)
def shell_interval(n: int, tau: float) -> tuple[float, float]:
    """Radial interval holding all but tau of the Gaussian mass in R^{n+1}."""
    if not 0.0 < tau < 1.0:
        raise DomainError("need 0 < tau < 1")
    half = math.sqrt(2.0 * math.log(2.0 / tau))
    center = math.sqrt(n + 1.0)
    return center - half, center + half


@dataclass(frozen=True)
class TolerantInstance:
    n: int
    N: int
    r: float
    frame: Frame              # n + 1 rows in R^{n+1}: the action line, then n control rows
    body: NazarovBody         # normals in control coordinates
    p_set: np.ndarray         # boolean (N,), the random subset
    c0_hat: float
    stream: RngStream

    def __post_init__(self):
        if self.frame.ambient_dim != self.n + 1 or self.frame.k != self.n + 1:
            raise DimensionMismatchError("frame must hold n + 1 vectors in R^{n+1}")
        if abs(std_normal_cdf(self.r / math.sqrt(self.n)) - (1.0 - self.c1 / self.N)) > 1e-9:
            raise DomainError("r does not match the tail convention for c1")
        p_set = np.asarray(self.p_set, dtype=bool)
        if p_set.shape != (self.N,):
            raise DimensionMismatchError("p_set must have length N")
        p_set.flags.writeable = False
        object.__setattr__(self, "p_set", p_set)

    @property
    def c2(self) -> float:
        """c2 = c0_hat * c1 / 100 (c2_from)."""
        return c2_from(self.c0_hat)

    @property
    def c1(self) -> float:
        """The construction fixes c1 = 1/100."""
        return C1_DEFAULT

    @property
    def tau(self) -> float:
        """The construction sets tau = c2."""
        return self.c2

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def shell(self) -> tuple[float, float]:
        return shell_interval(self.n, self.tau)

    @property
    def yes(self) -> BatchOracle:
        """The yes-realization as a membership oracle."""
        return BatchOracle(self.ambient_dim, lambda points: eval_yes_batch(self, points))

    @property
    def no(self) -> BatchOracle:
        """The no-realization as a membership oracle."""
        return BatchOracle(self.ambient_dim, lambda points: eval_no_batch(self, points))

    def view(self, points: np.ndarray) -> TolerantView:
        """The statistics of this instance that label `points`, from their
        frame coordinates sliced as sample_tolerant_views slices haar_coords."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        c = self.frame.coords(points)[None]
        return TolerantView.stack(
            self.n, self.c2, points[None], c[..., 1:], c[..., 0],
            lambda rows, _: self.body.violated(rows), self.p_set[None],
        )[0]


def _constants(n: int, N_override: int | None, c0_hat: float) -> tuple[int, float, float]:
    """(N, c2, r) of an instance; the construction sets tau = c2."""
    if n < 4:
        raise DomainError("need n >= 4")
    N = N_override if N_override is not None else default_halfspace_count(n)
    return N, c2_from(c0_hat), solve_r(n, N, C1_DEFAULT)


def sample_tolerant_instance(
    n: int,
    N_override: int | None,
    rng: RngStream,
    c0_hat: float,
) -> TolerantInstance:
    """Draw one yes/no instance pair carrier for the measured constant c0_hat."""
    N, _, r = _constants(n, N_override, c0_hat)
    frame = sample_haar_frame(n + 1, n + 1, rng.child(0))
    body = sample_body(n, N, r, rng.child(1))
    p_set = rng.child(2).generator().random(N) < 0.5
    return TolerantInstance(
        n=n,
        N=N,
        r=r,
        frame=frame,
        body=body,
        p_set=p_set,
        c0_hat=float(c0_hat),
        stream=rng,
    )


def sample_tolerant_views(
    queries: np.ndarray,
    n: int,
    N_override: int | None,
    trials: int,
    rng: RngStream,
    c0_hat: float,
) -> list[TolerantView]:
    """The views of `queries` in `trials` fresh instances, drawn without them.

    `queries` is one (q, n + 1) batch that every trial views, or a
    (trials, q, n + 1) stack whose set t trial t views.  Each view is equal
    in law to sample_tolerant_instance(n, N_override, s, c0_hat).view(its
    batch) for its own stream s, and the views are independent (module
    docstring).  A trial draws q x (n + 1) and at most N x q normals instead
    of the (n + 1) x (n + 1) frame and the N x n body.
    """
    N, c2, r = _constants(n, N_override, c0_hat)
    queries = np.asarray(queries, dtype=np.float64)
    sets = queries.ndim == 3
    if not sets:
        queries = np.atleast_2d(queries)
    if queries.shape[-1] != n + 1:
        raise DimensionMismatchError(f"queries must have dimension {n + 1}")
    if sets and len(queries) != trials:
        raise DimensionMismatchError(f"a stack of query sets must hold one set per trial, {trials}")
    coords = haar_coords(queries, rng.child(0), None if sets else trials)
    gen = rng.child(1).generator()
    p_sets = rng.child(2).generator().random((trials, N)) < 0.5
    batches = queries if sets else np.broadcast_to(queries, (trials,) + queries.shape)
    return TolerantView.stack(
        n, c2, batches, coords[..., 1:], coords[..., 0],
        lambda xc, counts: sample_violations(xc, counts, N, r, gen), p_sets,
    )


# -- labeling -----------------------------------------------------------------

_EXT_ZERO, _EXT_ONE, _EXT_ZERO_STAR, _EXT_ONE_STAR = 0, 1, 2, 3


@dataclass(frozen=True)
class TolerantView:
    """What one instance shows a batch of m rows: everything its labels read.

    No rule reads the halfspaces of a row outside the shell or the ball, so
    `viol` holds x_C . g_i > r only for the probed rows, those in both.
    """

    n: int
    c2: float             # also tau
    norms: np.ndarray     # |x|
    xc_norm: np.ndarray   # |x_C|
    action: np.ndarray    # the coordinate on the action line
    probed: np.ndarray    # indices of the rows in the shell with |x_C| <= sqrt(n)
    viol: np.ndarray      # (probed.size, N) bool
    p_set: np.ndarray     # (N,) bool
    codes: np.ndarray = field(init=False)  # extended codes 0, 1, 0*, 1* (_EXT_*)

    @classmethod
    def stack(
        cls,
        n: int,
        c2: float,
        points: np.ndarray,
        xc: np.ndarray,
        action: np.ndarray,
        violated: Callable[[np.ndarray, np.ndarray], np.ndarray],
        p_sets: np.ndarray,
    ) -> list[TolerantView]:
        """The views of a (views, m, n + 1) stack of batches, batch t in
        draw t, from the stacked coordinates and P sets of the draws.
        `violated` maps k control rows, view after view, and the number of
        each view's rows to their (k, N) violation matrix, a row against its
        view's halfspaces; it is called once, on the probed rows of every
        view."""
        norms = np.sqrt(np.einsum("tij,tij->ti", points, points))
        xc_norm = np.sqrt(np.einsum("tij,tij->ti", xc, xc))
        lo, hi = shell_interval(n, c2)
        probed = (norms >= lo) & (norms <= hi) & (xc_norm <= math.sqrt(n))
        view, row = np.nonzero(probed)
        counts = probed.sum(axis=1)
        viol = violated(xc[view, row], counts) if row.size else np.zeros((0, p_sets.shape[1]), dtype=bool)
        bounds = np.cumsum(counts)[:-1]
        return [
            cls(n, c2, norms[t], xc_norm[t], action[t], probed, hits, p_sets[t])
            for t, (probed, hits) in enumerate(zip(np.split(row, bounds), np.split(viol, bounds)))
        ]

    def __post_init__(self):
        object.__setattr__(self, "codes", self._codes())

    def _codes(self) -> np.ndarray:
        codes = np.full(self.norms.shape, _EXT_ZERO, dtype=np.int8)
        if not self.probed.size:
            return codes
        live = self.xc_norm[self.probed] < math.sqrt(self.n)  # the zero case: |x_C| >= sqrt(n)
        counts = self.viol.sum(axis=1)
        codes[self.probed[live & (counts == 0)]] = _EXT_ONE
        unique = live & (counts == 1)  # counts >= 2 rows stay 0 (multiply violated)
        if unique.any():
            rows = self.probed[unique]
            flap = np.argmax(self.viol[unique], axis=1)
            starred = region_codes(self.action[rows], self.c2) != 3
            star = np.where(self.p_set[flap], _EXT_ZERO_STAR, _EXT_ONE_STAR)
            codes[rows] = np.where(starred, star, _EXT_ZERO)
        return codes

    def yes(self) -> np.ndarray:
        """Labels of the yes-realization."""
        return ((self.codes == _EXT_ONE) | (self.codes == _EXT_ONE_STAR)).astype(np.int8)

    def no(self) -> np.ndarray:
        """Labels of the no-realization: starred rows flip on the middle region."""
        labels = (self.codes == _EXT_ONE).astype(np.int8)
        starred = self.codes >= _EXT_ZERO_STAR
        if starred.any():
            in_middle = region_codes(self.action[starred], self.c2) == 1
            zero_star = self.codes[starred] == _EXT_ZERO_STAR
            labels[starred] = np.where(zero_star, ~in_middle, in_middle)
        return labels

    def bad(self):
        """Two shell rows in the same uniquely-violated region whose action
        coordinates fall in distinct coarse regions.  Returns (flag, witness
        pair indices or None).

        Rows in the curb pair with nothing, so the rest are sorted by (flap,
        region): a flap holds two distinct regions exactly when two
        neighbours in that order share the flap and differ in region.
        """
        unique = self.viol.sum(axis=1) == 1
        idx = self.probed[unique]
        if idx.size < 2:
            return False, None
        flaps = np.argmax(self.viol[unique], axis=1)
        regions = region_codes(self.action[idx], self.c2)
        coarse = regions != 3
        idx, flaps, regions = idx[coarse], flaps[coarse], regions[coarse]
        order = np.lexsort((regions, flaps))
        flaps, regions = flaps[order], regions[order]
        hits = np.nonzero((flaps[1:] == flaps[:-1]) & (regions[1:] != regions[:-1]))[0]
        if not hits.size:
            return False, None
        return True, tuple(sorted(idx[order[hits[0] : hits[0] + 2]].tolist()))


def eval_yes_batch(inst: TolerantInstance, points: np.ndarray) -> np.ndarray:
    return inst.view(points).yes()


def eval_no_batch(inst: TolerantInstance, points: np.ndarray) -> np.ndarray:
    return inst.view(points).no()


# -- the distinguishing event ---------------------------------------------------


def detect_bad(inst: TolerantInstance, queries: np.ndarray):
    """The distinguishing event of TolerantView.bad on a materialized instance."""
    return inst.view(queries).bad()


def view_experiment(
    queries: np.ndarray,
    n: int,
    trials: int,
    rng: RngStream,
    c0_hat: float,
    N_override: int | None = None,
) -> ExperimentReport:
    """Compare yes- and no-view response distributions over shared instances.

    Response vectors are collected per instance under both realizations and
    partitioned by the distinguishing event; conditioned on its absence the
    two empirical distributions must agree within multinomial noise.  Each
    trial draws only the instance's view of the queries, a block of BLOCK
    trials at a time (sample_tolerant_views).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    q = queries.shape[0]
    if q > 20:
        raise DomainError("response-vector state space limited to 20 queries")
    N = _constants(n, N_override, c0_hat)[0]
    report = ExperimentReport(
        "view-tv", {"n": n, "N": N, "q": q, "trials": trials}, rng.seed
    )
    blocks = map_units(
        _view_block, -(-trials // BLOCK), rng, trials, queries, n, N_override, c0_hat
    )
    yes_rows, no_rows, starred, bad = (
        np.array(column) for column in zip(*(row for block in blocks for row in block))
    )
    important_events = starred.sum(axis=0)
    important_ones_yes = (starred & (yes_rows == 1)).sum(axis=0)
    important_ones_no = (starred & (no_rows == 1)).sum(axis=0)
    bad_hits = int(bad.sum())
    kept = trials - bad_hits
    report.add_rate("bad_rate", bad_hits, trials)
    tv_all = tv_from_counts(response_counts(yes_rows), response_counts(no_rows), trials)
    report.add_estimate("tv_unconditioned", tv_all, 0.0, trials)
    yes_counts = response_counts(yes_rows[~bad])
    no_counts = response_counts(no_rows[~bad])
    tv_cond = tv_from_counts(yes_counts, no_counts, kept)
    cells = len(set(yes_counts) | set(no_counts)) or 1
    noise = math.sqrt(cells / (2.0 * max(kept, 1)))
    report.add_estimate("tv_conditioned", tv_cond, 0.0, kept)
    report.add_estimate("tv_noise_bound", noise)
    report.assert_leq(
        "conditioned view TV <= 3x multinomial noise bound",
        tv_cond,
        0.0,
        source="analytic",
        se=noise,
    )
    for j in range(q):
        events = int(important_events[j])
        if events == 0:
            continue
        for tag, ones in (("yes", important_ones_yes), ("no", important_ones_no)):
            freq, se = report.add_rate(f"marginal_{tag}[q{j}]", int(ones[j]), events)
            report.assert_leq(
                f"query {j} {tag}-response frequency within 3se of 1/2 on starred draws",
                abs(freq - 0.5),
                0.0,
                source="analytic",
                se=max(se, math.sqrt(0.25 / events)),
            )
    return report


def _view_block(rng: RngStream, b: int, trials, queries, n, N_override, c0_hat):
    """[(yes labels, no labels, starred rows, bad)] of the trials of block b
    of view_experiment."""
    size = min(BLOCK, trials - b * BLOCK)
    views = sample_tolerant_views(queries, n, N_override, size, rng.child(b), c0_hat)
    return [(v.yes(), v.no(), v.codes >= _EXT_ZERO_STAR, v.bad()[0]) for v in views]


# -- the distance constants -----------------------------------------------------


def eps_from_volumes(v_unique: float, v_multi: float, c2: float, tau: float):
    """Closed-form distance constants from the two volume expectations."""
    eps1 = 2.0 * c2 + tau + 2.0 * v_multi
    eps2 = ((1.0 - 2.0 * c2) / 3.0) * (0.3 * v_unique - tau / 2.0)
    return eps1, eps2


def c2_from(c0_hat: float) -> float:
    """The construction's c2 = tau = c0_hat * c1 / 100, which must lie in (0, 1/2);
    the one check of c0_hat, which refuses anything but a real number."""
    if c0_hat is None:
        raise CalibrationMissingError(
            "no calibration record: run the calibrate-c0 experiment (or pass c0_hat) first"
        )
    if not isinstance(c0_hat, numbers.Real) or isinstance(c0_hat, bool):
        raise DomainError(f"c0_hat must be a number, got {type(c0_hat).__name__}")
    c2 = c0_hat * C1_DEFAULT / 100.0
    if not 0.0 < c2 < 0.5:  # NaN fails too
        raise DomainError(f"calibrated c2 = c0_hat * c1 / 100 must lie in (0, 1/2), got {c2}")
    return c2


def estimate_eps_bounds(
    n: int,
    N: int,
    instance_draws: int,
    points_per_draw: int,
    rng: RngStream,
    c0_hat: float,
) -> ExperimentReport:
    """Monte Carlo estimates of the two volume expectations and the implied
    closeness/farness constants, asserting a positive gap at 99% confidence.
    """
    c1 = C1_DEFAULT
    c2 = tau = c2_from(c0_hat)
    r = solve_r(n, N, c1)
    report = ExperimentReport(
        "eps-gap",
        {
            "n": n,
            "N": N,
            "instance_draws": instance_draws,
            "points_per_draw": points_per_draw,
            "c0_hat": float(c0_hat),
            "c1": c1,
            "c2": c2,
            "tau": tau,
        },
        rng.seed,
    )
    total = instance_draws * points_per_draw
    unique_hits, multi_hits = unique_multi_hits(n, N, r, total, rng.generator())
    v_u, se_u = report.add_rate("v_unique", unique_hits, total)
    v_d, se_d = report.add_rate("v_multi", multi_hits, total)
    eps1, eps2 = eps_from_volumes(v_u, v_d, c2, tau)
    gap = eps2 - eps1
    gap_se = math.sqrt(((1.0 - 2.0 * c2) / 3.0 * 0.3 * se_u) ** 2 + (2.0 * se_d) ** 2)
    report.add_estimate("eps1", eps1)
    report.add_estimate("eps2", eps2)
    report.add_estimate("gap", gap, gap_se, total)
    report.assert_geq(
        "eps2 - eps1 positive at 99% confidence",
        gap - Z99 * gap_se,
        0.0,
        source="derived",
    )
    return report


# -- pairwise query analysis ------------------------------------------------------


def bivariate_upper_bound(rho: float, h: float, k: float) -> float:
    """Closed-form joint upper-tail bound for a correlated Gaussian pair."""
    if not 0.0 < rho < 1.0:
        raise DomainError("bound valid for 0 < rho < 1")
    s = math.sqrt(1.0 - rho * rho)
    return std_normal_cdf(-h) * (
        std_normal_cdf((rho * h - k) / s)
        + rho * math.exp((h * h - k * k) / 2.0) * std_normal_cdf((rho * k - h) / s)
    )


def bivariate_tail_check(
    rho: float, h: float, k: float, trials: int, rng: RngStream
) -> ExperimentReport:
    if not 0.0 < rho < 1.0:
        raise DomainError("need 0 < rho < 1")
    if h <= 0 or k <= 0:
        raise DomainError("need h, k > 0")
    report = ExperimentReport(
        "bivariate-tail", {"rho": rho, "h": h, "k": k, "trials": trials}, rng.seed
    )
    gen = rng.generator()
    hits = 0
    chunk = 2_000_000
    done = 0
    root = math.sqrt(1.0 - rho * rho)
    while done < trials:
        m = min(chunk, trials - done)
        z1 = gen.standard_normal(m)
        z2 = rho * z1 + root * gen.standard_normal(m)
        hits += int(np.count_nonzero((z1 > h) & (z2 > k)))
        done += m
    freq, se = report.add_rate("joint_tail", hits, trials)
    bound = bivariate_upper_bound(rho, h, k)
    report.add_estimate("bound", bound)
    report.assert_leq(
        f"joint tail at rho={rho}, h={h}, k={k} <= closed-form bound + 3se",
        freq,
        bound,
        source="analytic",
        se=se,
    )
    return report


def same_unique_counts(
    N: int, h: float, k: float, rho: float, trials: int, gen: np.random.Generator
):
    """(conditioning draws, star hits) over `trials` fresh bodies for a point pair.

    X = x.g/|x| and Y = y.g/|y| are standard normals of correlation rho, and
    a halfspace is violated by x when X > h and by y when Y > k.  The N
    halfspaces of a fresh body give iid patterns over the cells [both, x only,
    y only, neither], so a body is one Multinomial(N, cells) draw.  It
    conditions when y violates exactly one halfspace, and is a star hit when
    x violates that one and no other.
    """
    both = upper_orthant(h, k, rho)
    cells = [both, std_normal_sf(h) - both, std_normal_sf(k) - both]
    counts = gen.multinomial(N, cells + [max(1.0 - sum(cells), 0.0)], size=trials)
    n11, n10, n01 = counts[:, 0], counts[:, 1], counts[:, 2]
    y_unique = n11 + n01 == 1
    star = y_unique & (n11 == 1) & (n10 == 0)
    return int(np.count_nonzero(y_unique)), int(np.count_nonzero(star))


def xy_pair_experiment(
    n: int,
    x: np.ndarray,
    y: np.ndarray,
    trials: int,
    rng: RngStream,
    c0_hat: float,
) -> ExperimentReport:
    """Pairwise distinguishing probabilities for two fixed shell points.

    Estimates (i) the chance that the action line separates the pair by at
    least one curb width, over a random action direction, and (ii) the chance
    that both control projections uniquely violate the same halfspace,
    conditioned on one of them doing so, over bodies with the subspace fixed
    first.  The second estimate is compared against the closed-form joint
    Gaussian tail bound.

    Neither part draws an (n+1)-vector per trial.  (i) reads only
    (u.(x - y), u.x) for a uniform direction u of R^{n+1}: in law
    R^T w / sqrt(|w|^2 + chi^2_{n+1-k}), with R the r factor of the QR of
    [x - y; x]^T and w ~ N(0, I_k), k <= 2 (gauss.sphere_coords).  A zero
    row, as at x = y, keeps gap 0.  (ii) needs only f.x and f.y for the
    action vector f, column 0 of gauss.haar_coords of [x; y]; then
    |x_C|^2 = |x|^2 - (f.x)^2, |y_C|^2 likewise, and
    x_C.y_C = x.y - (f.x)(f.y).  Each body enters (ii) only through its
    counts of the four halfspace patterns (see same_unique_counts).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (n + 1,) or y.shape != (n + 1,):
        raise DimensionMismatchError("x and y must live in R^{n+1}")
    c1 = C1_DEFAULT
    c2 = tau = c2_from(c0_hat)
    N = default_halfspace_count(n)
    r = solve_r(n, N, c1)
    lo, hi = shell_interval(n, tau)
    for name, p in (("x", x), ("y", y)):
        nrm = float(np.linalg.norm(p))
        if not lo <= nrm <= hi:
            raise DomainError(f"{name} lies outside the radial shell [{lo:.6g}, {hi:.6g}]")
    report = ExperimentReport(
        "xy-pair",
        {"n": n, "N": N, "trials": trials, "sep": float(np.linalg.norm(x - y)), "c2": c2},
        rng.seed,
    )

    # (i) curb-width separation of the action coordinates over a random line
    rho_width = curb_interval_width(c2)
    coords = sphere_coords(np.stack([x - y, x]), trials, rng.child(0).generator())
    gap = np.abs(coords[:, 0])
    sep_hits = int(np.count_nonzero(gap >= rho_width))
    report.add_rate("action_separation_rate", sep_hits, trials)
    report.add_estimate("curb_width", rho_width)

    # Projection norm retention (all but an exponentially small fraction of
    # directions keep |x_C| within 1 of |x|).
    xx = float(x @ x)
    xc_norm = np.sqrt(np.maximum(xx - coords[:, 1] ** 2, 0.0))
    keep_hits = int(np.count_nonzero(xc_norm >= np.linalg.norm(x) - 1.0))
    keep_freq, _ = report.add_rate("projection_retention_rate", keep_hits, trials)
    report.assert_geq(
        "projection norm within 1 of full norm with frequency >= 1 - 2^{-0.5 n^{1/4}}",
        keep_freq,
        1.0 - 2.0 ** (-0.5 * n**0.25),
        source="analytic",
    )

    # (ii) same-unique-halfspace probability over bodies, subspace fixed first
    fx, fy = haar_coords(np.stack([x, y]), rng.child(1))[:, 0]
    nx, ny = math.sqrt(xx - fx * fx), math.sqrt(float(y @ y) - fy * fy)
    rho = min(max((float(x @ y) - fx * fy) / (nx * ny), -1.0), 1.0)
    h_val, k_val = r / nx, r / ny
    report.add_estimate("norm_ratio", nx / ny)
    report.add_estimate("rho", rho)

    cond_draws, star_hits = same_unique_counts(
        N, h_val, k_val, rho, trials, rng.child(2).generator()
    )
    star_freq, star_se = report.add_rate("same_unique_rate", star_hits, cond_draws)
    if 0.0 < rho <= 0.99:
        # Far-pair regime: the joint-tail bound is numerically sound and the
        # same-unique rate must fall below it.
        cond_bound = bivariate_upper_bound(rho, h_val, k_val) / std_normal_sf(k_val)
        report.add_estimate("conditional_bound", cond_bound)
        report.assert_leq(
            "same-unique-halfspace rate <= conditional joint-tail bound + 3se",
            star_freq,
            cond_bound,
            source="analytic",
            se=star_se,
        )
    elif rho > 0.99:
        # Near-coincident projections: the closed form loses precision as the
        # correlation approaches one, so the rate is recorded without a bound.
        report.add_estimate("conditional_bound", 1.0)
    else:
        report.add_estimate("conditional_bound", 0.0)
        report.assert_leq(
            "same-unique-halfspace rate at nonpositive correlation (vacuous comparator)",
            star_freq,
            1e-9,
            source="derived",
            se=star_se,
        )
    return report
