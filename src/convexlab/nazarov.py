"""Random halfspace-intersection bodies: sampling, classification, estimators.

A body is the intersection of Ball(sqrt(n)) with N halfspaces
{x . g_i <= r}, each normal g_i drawn iid N(0, I_n).  A point inside the
ball that violates exactly one halfspace sits in a "flap" attached to that
halfspace; points violating two or more sit in the multiply-violated region
("dog ears").  The estimators below measure those regions under the standard
Gaussian and check the closed-form inequalities that govern them.

Two sampling regimes are used deliberately.  Estimators of expectations over
*both* body and point draw each point's violation count directly.  For a
fresh body the N indicators [x . g_i > r] are iid Bernoulli(sf(r/|x|)), so the
count is exactly Binomial(N, sf(r/|x|)); and a standard Gaussian point's
norm is exactly chi-distributed with n degrees of freedom.  Neither the
point nor the N x n normals are materialized.  Estimators of per-body
quantities (volume spread, concentration) materialize real normal matrices.

A third regime serves a fixed batch of q points A (q x k) against one fresh
body: the products A G^T with the N x k normal matrix G.  Write A = R^T Q^T
with the QR factorization of A^T.  Then A G^T = R^T (G Q)^T, and G Q is
N x min(q, k) iid normal because Q has orthonormal columns; normal_products
draws R^T Z^T with that Z, so at most N x q normals stand in for N x k.
The views of the adaptive and tolerant instances, which the testers label
their batches with, draw their products this way.  Instances kept as objects
(persistence, the adaptive event rate, per-body estimators) still draw G
with sample_body.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ResourceLimitError
from .gauss import sf_array, std_normal_isf, std_normal_sf
from .report import Z99, ExperimentReport, mean_se
from .rng import RngStream

# Memory cap for explicit normal matrices, in float64 elements (~400 MB).
DEFAULT_MEMORY_CAP = 50_000_000

HALFSPACE_COUNT_CAP = 2**20

# Points per draw of the count-level samplers (about 80 MB of work arrays).
PAIRS_CHUNK = 2**22


def default_halfspace_count(n: int) -> int:
    """2^ceil(sqrt(n)), capped at 2^20 with a warning when the cap bites."""
    raw = 2 ** math.ceil(math.sqrt(n))
    if raw > HALFSPACE_COUNT_CAP:
        warnings.warn(
            f"halfspace count 2^ceil(sqrt({n})) exceeds 2^20; capping at 2^20",
            RuntimeWarning,
            stacklevel=2,
        )
        return HALFSPACE_COUNT_CAP
    return raw


class PointKind(enum.Enum):
    OUTSIDE = "outside"
    IN_BODY = "in_body"
    IN_FLAPS = "in_flaps"


@dataclass(frozen=True)
class PointClass:
    kind: PointKind
    violated: tuple[int, ...]

    def __post_init__(self):
        if self.kind is PointKind.IN_FLAPS and not self.violated:
            raise DomainError("in_flaps requires a nonempty violated set")
        if self.kind is not PointKind.IN_FLAPS and self.violated:
            raise DomainError("violated set must be empty unless in flaps")


@dataclass(frozen=True)
class NazarovBody:
    n: int
    N: int
    r: float
    normals: np.ndarray
    stream: RngStream | None = None
    c1: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("need N >= 1")
        if not self.r > 0:
            raise DomainError("need r > 0")
        normals = np.asarray(self.normals, dtype=np.float64)
        if normals.shape != (self.N, self.n):
            raise DimensionMismatchError(
                f"normals must have shape ({self.N}, {self.n}), got {normals.shape}"
            )
        normals.flags.writeable = False
        object.__setattr__(self, "normals", normals)

    @property
    def radius(self) -> float:
        return math.sqrt(self.n)

    @property
    def ambient_dim(self) -> int:
        return self.n

    def violated(self, points: np.ndarray) -> np.ndarray:
        """Boolean (m, N) mask of strict violations x . g_i > r for intrinsic points.

        The one batch form of the violation rule; a tie x . g_i == r counts
        as inside the halfspace.  The ball test is left to the caller.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.n:
            raise DimensionMismatchError(f"points must have dimension {self.n}")
        return points @ self.normals.T > self.r

    def labels(self, points: np.ndarray) -> np.ndarray:
        """Membership labels of the body: the halfspaces intersected with the ball."""
        viol = self.violated(points)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        inside = np.sqrt(np.einsum("ij,ij->i", points, points)) <= self.radius
        return (inside & ~viol.any(axis=1)).astype(np.int8)


@functools.lru_cache(maxsize=256)
def solve_r(n: int, N: int, c1: float) -> float:
    """Threshold with upper-tail mass exactly c1/N at the shell radius.

    Defined by cdf(r / sqrt(n)) = 1 - c1/N; solved through the tail mass so
    that c1/N far below double-rounding of 1 - c1/N stays exact.
    """
    if n < 1 or N < 1:
        raise DomainError("need n >= 1 and N >= 1")
    if not c1 > 0:
        raise DomainError("need c1 > 0")
    if c1 / N >= 1.0:
        raise DomainError(f"need c1/N < 1, got {c1 / N}")
    return math.sqrt(n) * std_normal_isf(c1 / N)


@functools.lru_cache(maxsize=256)
def solve_r_half(n: int, N: int) -> float:
    """Threshold making a shell point's membership probability exactly 1/2.

    cdf(r/sqrt(n))^N = 1/2, i.e. upper tail -expm1(-ln2/N) at the shell.
    """
    if n < 1 or N < 1:
        raise DomainError("need n >= 1 and N >= 1")
    return math.sqrt(n) * std_normal_isf(-math.expm1(-math.log(2.0) / N))


def check_r_estimate(n: int, N: int, c1: float, seed: int = 0) -> ExperimentReport:
    """Compare solve_r with its closed-form estimate sqrt(2n ln((N/c1) sqrt(n/2pi)))."""
    report = ExperimentReport("r-estimate", {"n": n, "N": N, "c1": c1}, seed)
    r = solve_r(n, N, c1)
    log_term = math.log(N) - math.log(c1) + 0.5 * math.log(n / (2.0 * math.pi))
    upper = math.sqrt(2.0 * n * log_term)
    ratio = r / upper
    report.add_estimate("r", r)
    report.add_estimate("r_upper_bound", upper)
    report.add_estimate("ratio", ratio)
    report.assert_leq("r <= sqrt(2n ln((N/c1) sqrt(n/2pi)))", r, upper, source="closed-form")
    report.add_assertion(
        "r / estimate within [0.8, 1.0] at desk parameters",
        1.0,
        ratio,
        0.8 <= ratio <= 1.0,
        source="derived",
    )
    return report


def sample_body(
    n: int,
    N: int,
    r: float,
    rng: RngStream,
    c1: float | None = None,
) -> NazarovBody:
    if N * n > DEFAULT_MEMORY_CAP:
        raise ResourceLimitError(
            f"normals require {N * n} floats, above the cap of {DEFAULT_MEMORY_CAP}"
        )
    normals = rng.generator().standard_normal((N, n))
    return NazarovBody(n=n, N=N, r=r, normals=normals, stream=rng, c1=c1)


def normal_products(block: np.ndarray, N: int, gen: np.random.Generator) -> np.ndarray:
    """(q, N) products of the rows of `block` with N fresh N(0, I_k) vectors, in law.

    Draws R^T Z^T (module docstring); Z has min(q, k) columns.
    """
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    r = np.linalg.qr(block.T, mode="r")
    return r.T @ gen.standard_normal((N, r.shape[0])).T


def classify(body: NazarovBody, x: np.ndarray) -> PointClass:
    """Classify one intrinsic point: outside the ball, in the body, or in flaps.

    Ties x . g_i == r count as inside the halfspace; points with norm exactly
    sqrt(n) count as inside the ball.  This scalar form computes the rule on
    its own, apart from NazarovBody.violated: it is the independent reference
    specification that tests check the batch kernel against.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (body.n,):
        raise DimensionMismatchError(f"expected a point of dimension {body.n}, got {x.shape}")
    # Norms, as in membership_prob: x . x rounds above n at x = sqrt(n) e1 for n = 2, 8, 50, ...
    if math.sqrt(float(x @ x)) > math.sqrt(body.n):
        return PointClass(PointKind.OUTSIDE, ())
    violated = np.nonzero(body.normals @ x > body.r)[0]
    if violated.size == 0:
        return PointClass(PointKind.IN_BODY, ())
    return PointClass(PointKind.IN_FLAPS, tuple(int(i) for i in violated))


def membership_prob(n: int, N: int, r: float, norm: float) -> float:
    """Closed-form probability that a point of given norm lies in a fresh body."""
    if norm < 0:
        raise DomainError("need norm >= 0")
    if norm > math.sqrt(n):  # not norm^2 > n: sqrt(n)^2 rounds above n at n = 2, 8, 50, ...
        return 0.0
    if norm == 0.0:
        return 1.0
    return math.exp(N * math.log1p(-std_normal_sf(r / norm)))


# -- count sampling (fresh body per point) ------------------------------------


def _count_batches(norms: np.ndarray, N: int, r: float, gen: np.random.Generator) -> np.ndarray:
    """Violation counts of points with the given norms, a fresh body for each.

    For a fixed x the N inner products x . g_i are iid N(0, |x|^2), so the
    count of those above r is exactly Binomial(N, sf(r/|x|)); at |x| = 0,
    r/|x| = inf and no halfspace is violated.
    """
    with np.errstate(divide="ignore"):
        return gen.binomial(N, sf_array(r / norms))


def unique_multi_hits(n: int, N: int, r: float, points: int, gen: np.random.Generator):
    """(unique, multi) hits among `points` Gaussian points, a fresh body each.

    A hit lies inside Ball(sqrt(n)) and violates exactly one (unique) or at
    least two (multi) halfspaces; points outside the ball count as neither.
    Dividing by `points` estimates the two expected volumes.  Points are drawn
    PAIRS_CHUNK at a time, so memory stays bounded at any count.
    """
    unique = multi = 0
    for start in range(0, points, PAIRS_CHUNK):
        # chi law: norms of N(0, I_n) points
        norms = np.sqrt(gen.chisquare(n, min(PAIRS_CHUNK, points - start)))
        counts = _count_batches(norms[norms <= math.sqrt(n)], N, r, gen)
        unique += int(np.count_nonzero(counts == 1))
        multi += int(np.count_nonzero(counts >= 2))
    return unique, multi


def verify_high_degree_bound(
    n: int,
    N: int,
    r: float,
    c1: float,
    q: int,
    trials: int,
    rng: RngStream,
) -> ExperimentReport:
    """Check Pr[point violates >= q halfspaces] <= c1^q / q! empirically.

    Evaluated both for points pinned to the shell radius (worst case) and for
    Gaussian points conditioned inside the ball.
    """
    if not 1 <= q <= N:
        raise DomainError("need 1 <= q <= N")
    report = ExperimentReport(
        "high-degree-bound", {"n": n, "N": N, "r": r, "c1": c1, "q": q, "trials": trials}, rng.seed
    )
    bound = c1**q / math.factorial(q)
    report.add_estimate("bound", bound)

    # Every shell point has norm sqrt(n), so one tail serves all trials; a
    # scalar p draws the same bits as an array of equal p.
    shell_gen = rng.child(0).generator()
    shell_counts = shell_gen.binomial(N, sf_array(r / math.sqrt(n)), size=trials)
    shell_hits = int(np.count_nonzero(shell_counts >= q))
    freq, se = report.add_rate("shell_tail", shell_hits, trials)
    report.assert_leq(
        f"shell point in >= {q} flaps: freq <= c1^q/q! + 3se",
        freq,
        bound,
        source="analytic",
        se=se,
    )

    ball_gen = rng.child(1).generator()
    ball_hits = 0
    ball_total = 0
    while ball_total < trials:
        want = trials - ball_total
        norms = np.sqrt(ball_gen.chisquare(n, max(2 * want, 128)))
        norms = norms[norms <= math.sqrt(n)][:want]
        counts = _count_batches(norms, N, r, ball_gen)
        ball_hits += int(np.count_nonzero(counts >= q))
        ball_total += norms.size
    freq_ball, se_ball = report.add_rate("ball_tail", ball_hits, ball_total)
    report.assert_leq(
        f"in-ball Gaussian point in >= {q} flaps: freq <= c1^q/q! + 3se",
        freq_ball,
        bound,
        source="analytic",
        se=se_ball,
    )
    return report


def flap_dogear_threshold(c1: float) -> float:
    return 2.0 / c1 - 2.0


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n/e)^n), from its Stirling series past 15."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    nn = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x, by its series where the terms would cancel."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    s = (x - mu) * v
    ej = 2.0 * x * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s
        s = s1
        j += 2


def _binomial_pmf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) = k] in Loader's saddle-point form, which avoids the
    cancellation of a log-gamma sum (1e-11 relative error at n = 16,000)."""
    if k == 0:
        return math.exp(n * math.log1p(-p))
    if k == n:
        return math.exp(n * math.log(p))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p))
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def binomial_sf(m: int, n: int, p: float) -> float:
    """P[Bin(n, p) >= m], clamped to [0, 1]; 1 for m <= 0, 0 for m > n.

    Sums the probabilities from m outward on the short side of the mean,
    each from the one before by their ratio, so a call costs O(sqrt(n p q))
    terms; on the long side it is 1 minus the sum below m.  The first term
    is Loader's ("Fast and accurate computation of binomial probabilities",
    2000).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"need 0 < p < 1, got {p}")
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    odds = p / (1.0 - p)
    upper = m > n * p
    k = m if upper else m - 1
    term = total = _binomial_pmf(k, n, p)
    while term > total * 2.0**-60 and (k < n if upper else k > 0):
        if upper:
            term *= (n - k) / (k + 1) * odds
            k += 1
        else:
            term *= k / ((n - k + 1) * odds)
            k -= 1
        total += term
    return min(max(total if upper else 1.0 - total, 0.0), 1.0)


def verify_flap_dogear_ratio(
    n: int, N: int, r: float, c1: float, trials: int, rng: RngStream
) -> ExperimentReport:
    """Ratio of uniquely-violated to multiply-violated expected volume.

    Estimates E[Vol(union of flaps)] and E[Vol(multiply-violated region)]
    over point-body pairs and tests that their ratio is at least 2/c1 - 2
    with the exact conditional binomial test: given the u + m pairs in
    either region, the multi count m is Bin(u + m, pi) with pi = 1/(ratio +
    1), so the claim is pi <= 1/(threshold + 1), and it fails when
    P[Bin(u + m, 1/(threshold + 1)) >= m] is below the one-sided 3 sigma
    level, P[g > 3] = 0.00135.  The delta-method se of the ratio misstates
    that level at a handful of multi hits, which is where the c1 = 0.01
    ratio sits.  The tail is binomial_sf's.
    """
    if trials < 100_000:
        raise DomainError("need at least 1e5 point-body pairs")
    report = ExperimentReport(
        "flap-dogear-ratio", {"n": n, "N": N, "r": r, "c1": c1, "trials": trials}, rng.seed
    )
    unique_hits, multi_hits = unique_multi_hits(n, N, r, trials, rng.child(0).generator())
    threshold = flap_dogear_threshold(c1)
    report.add_rate("vol_unique", unique_hits, trials)
    report.add_rate("vol_multi", multi_hits, trials)
    report.add_estimate("threshold", threshold)
    if multi_hits:
        report.add_estimate("ratio", unique_hits / multi_hits)
    level = std_normal_sf(3.0)
    report.assert_geq(
        f"unique/multi volume ratio >= 2/c1 - 2 = {threshold:.6g}: "
        f"exact conditional binomial p-value >= {level:.3g}",
        binomial_sf(multi_hits, unique_hits + multi_hits, 1.0 / (threshold + 1.0)),
        level,
        source="analytic",
    )
    return report


def pointwise_flap_dogear_check(n: int, N: int, r: float, c1: float) -> ExperimentReport:
    """Closed-form per-radius version of the unique/multi volume inequality."""
    report = ExperimentReport(
        "flap-dogear-pointwise", {"n": n, "N": N, "r": r, "c1": c1}, 0
    )
    threshold = flap_dogear_threshold(c1)
    for s in (0.9 * math.sqrt(n), math.sqrt(n)):
        q = std_normal_sf(r / s)
        numerator = N * q * math.exp((N - 1) * math.log1p(-q))
        denominator = (N * N / 2.0) * q * q
        ratio = numerator / denominator
        report.add_estimate(f"pointwise_ratio[norm={s:.6g}]", ratio)
        report.assert_geq(
            f"per-point ratio at norm {s:.6g} >= 2/c1 - 2",
            ratio,
            threshold,
            source="closed-form",
        )
    return report


# -- per-body estimators (real normal matrices) -------------------------------


def body_unique_fraction(body: NazarovBody, points: int, rng: RngStream) -> float:
    """Fraction of Gaussian points violating exactly one halfspace of this body."""
    gen = rng.generator()
    hits = 0
    chunk = max(1, min(points, 2_000_000 // max(body.N, 1)))
    done = 0
    while done < points:
        m = min(chunk, points - done)
        x = gen.standard_normal((m, body.n))
        inside = np.sqrt(np.einsum("ij,ij->i", x, x)) <= body.radius
        counts = body.violated(x).sum(axis=1)
        hits += int(np.count_nonzero(inside & (counts == 1)))
        done += m
    return hits / points


def estimate_unique_volume(
    n: int,
    N: int,
    r: float,
    bodies: int,
    points_per_body: int,
    rng: RngStream,
    c1: float | None = None,
) -> ExperimentReport:
    """Mean and spread of the uniquely-violated volume across sampled bodies.

    Checks the mean as check_unique_mean does.  The concentration property,
    that at least 90% of bodies reach 0.9x the run mean, is per body, which
    is why the bodies are built here (the mean alone is unique_multi_hits'
    count-level estimate).
    """
    if bodies < 100:
        raise DomainError("need bodies >= 100")
    if points_per_body < 1_000:
        raise DomainError("need points_per_body >= 1e3")
    params = {"n": n, "N": N, "r": r, "bodies": bodies, "points_per_body": points_per_body}
    if c1 is not None:
        params["c1"] = c1
    report = ExperimentReport("unique-volume", params, rng.seed)

    from .parallel import map_units

    fractions = np.array(
        map_units(_unique_fraction_unit, bodies, rng, n, N, r, points_per_body)
    )
    mean, se = mean_se(fractions)
    report.add_estimate("vol_unique_mean", mean, se, bodies)
    report.add_estimate("vol_unique_body_std", float(fractions.std(ddof=1)), 0.0, bodies)
    check_unique_mean(report, mean, se, c1)
    concentrated, _ = report.add_rate(
        "frac_bodies_at_0.9_mean", int(np.count_nonzero(fractions >= 0.9 * mean)), bodies
    )
    report.assert_geq(
        "at least 90% of bodies reach 0.9x the run mean",
        concentrated,
        0.9,
        source="analytic",
    )
    return report


def check_unique_mean(report: ExperimentReport, mean: float, se: float, c1: float | None):
    """Assert the mean unique volume positive at 99% confidence; given c1,
    record mean/c1 and check the conservative desk-scale floor of 0.01*c1."""
    report.assert_geq(
        "mean unique volume positive at 99% confidence",
        mean - Z99 * se,
        0.0,
        source="derived",
    )
    if c1 is not None:
        report.add_estimate("mean_over_c1", mean / c1)
        report.assert_geq(
            "mean unique volume >= 0.01 c1 at 99% confidence (desk-scale floor)",
            mean - Z99 * se,
            0.01 * c1,
            source="derived",
        )


def _unique_fraction_unit(rng: RngStream, index: int, n, N, r, points_per_body):
    stream = rng.child(index)
    body = sample_body(n, N, r, stream.child(0))
    return body_unique_fraction(body, points_per_body, stream.child(1))
