"""Gaussian scalar functions, Haar frames, and tail-bound verifiers.

A fixed query matrix X (q x d) sees a Haar frame F only through the
coordinates X F^T, and their law needs no d x d frame.  Write X = R^T Q^T
with the QR factorization of X^T (Q is d x k with orthonormal columns,
k = min(q, d)).  Then X F^T = R^T (F Q)^T, and F Q is a uniformly random
k-frame of R^d: in law, the sign-fixed Q factor W of a d x k Gaussian.  So
X F^T has the law of R^T W^T, which haar_coords draws with O(d k^2) work.
The identity is exact, also for rank-deficient X; it holds for one draw of F
against one fixed X, not for queries chosen after seeing answers, so the
testers draw it once per run, for that run's one batch.  Instances that must
exist as objects (persistence, the adaptive event-rate experiment) draw the
full frame F with sample_haar_frame and keep it whole; Frame.coords gives a
batch X F^T in the column layout of haar_coords, so a materialized instance
and its view slice the same columns and differ only in where they come from.

haar_coords also draws a stack of independent frames for one X: one
(trials, d, k) Gaussian from one stream and one stacked QR, with the sign
fix applied per frame.  The fixed-query experiments draw a block of trials
that way.  A (runs, q, d) stack of query sets X_1, ..., X_runs takes one
independent frame each the same way, after one stacked QR of the X_j^T; the
testers draw a block of runs so.  A one-frame stack gives the same bits as
the two-dimensional QR, so the single draws (sample_haar_frame, a one-run
tester view) go through the same routine and read their streams as before.

The same split serves one uniform direction u = g/|g| of R^d per trial:
X g = R^T Q^T g, where w = Q^T g ~ N(0, I_k) is independent of the part of
g outside the column space of Q, whose squared norm is chi^2_{d-k}.  So
sphere_coords draws X u as R^T w / sqrt(|w|^2 + chi^2_{d-k}), k + 1 draws
per trial instead of d.  xy-pair reads (u.(x - y), u.x) this way, and
strip-crossing the cosine of a direction with a uniform unit vector.

The cdf goes through erfc in double precision.  Rounding x/sqrt(2) before
erfc costs relative accuracy in the far tail: against 40-digit values the
error of std_normal_sf is 5.7e-15 at x = 8, 3.5e-14 at 20 and 1.2e-13 at
30.  The quantile and inverse survival function use bisection on
the monotone cdf/sf followed by one Newton refinement step: slower than a
rational approximation but deterministic to the last bit on every platform,
which the reproducibility contract values more than speed.  The inverse
survival function works directly with upper-tail masses, so thresholds like
"upper tail = c1/N" stay resolvable far beyond where 1 - c1/N rounds to 1.

sf_array, the count estimators' tail, evaluates erfc in numpy with the
rational approximations of Cephes ndtr.c (S. L. Moshier, Methods and Programs
for Mathematical Functions, 1989), in the same order of operations as their C
form.  upper_orthant (xy-pair) evaluates Sheppard's integral with one
Gauss-Legendre rule; with the exact binomial tail in nazarov, no module of
the package needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .report import ExperimentReport
from .rng import RngStream

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_2PI = 1.0 / (2.0 * math.pi)


def std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """P[g <= x] for g ~ N(0,1)."""
    if not math.isfinite(x):
        raise DomainError(f"cdf argument must be finite, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_sf(x: float) -> float:
    """Upper tail P[g > x].  The relative error grows with x, as x/sqrt(2) is
    rounded before erfc: 5.7e-15 at x = 8, 3.5e-14 at 20, 1.2e-13 at 30."""
    if not math.isfinite(x):
        raise DomainError(f"sf argument must be finite, got {x}")
    return 0.5 * math.erfc(x / _SQRT2)


def _coefficients(*values: float) -> tuple:
    """Horner coefficients as 0-d arrays, which a ufunc converts faster than
    Python floats."""
    return tuple(np.array(v) for v in values)


# Cephes ndtr.c: erfc(a) = exp(-a^2) P(a)/Q(a) on 1 <= a < 8 and exp(-a^2)
# R(a)/S(a) from 8 on; 1 - a T(a^2)/U(a^2) for |a| < 1; 2 - erfc(-a) for a <= -1;
# exactly 0 (2 below) once a^2 exceeds MAXLOG.  Highest degree first; Q, S
# and U are monic, their leading 1 written out.
_ERFC_P = _coefficients(
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = _coefficients(
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = _coefficients(
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = _coefficients(
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = _coefficients(
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = _coefficients(
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
# Elements per pass, so the Horner temporaries of a chunk stay in cache: on a
# 2-core Xeon the fast path over 207k elements took 4.5 ms in 2^14 chunks,
# 6.3 ms in 2^17 and 4.9 ms in 2^13 (BENCH_setup.json, kernel_paths).
_SF_CHUNK = 1 << 14


def _horner(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^k + ... + coef[k] in Cephes' polevl order (p1evl when monic)."""
    if coef[0] == 1.0:
        y = x + coef[1]
    else:
        y = x * coef[0]
        y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erfc_tail(a: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """exp(-a^2) num(a) / den(a), Cephes' erfc for a >= 1 short of underflow."""
    y = a * a
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _horner(a, num)
    y /= _horner(a, den)
    return y


def _erfc_any(a: np.ndarray) -> np.ndarray:
    """erfc of any arguments: each Cephes range by its mask; nan stays nan."""
    x = np.abs(a)
    z = x * x
    y = np.full_like(a, np.nan)
    inner = x < 1.0
    t = z[inner]
    y[inner] = 1.0 - a[inner] * _horner(t, _ERF_T) / _horner(t, _ERF_U)
    mid = (x >= 1.0) & (x < 8.0)
    far = (x >= 8.0) & (z <= _MAXLOG)
    y[mid] = _erfc_tail(x[mid], _ERFC_P, _ERFC_Q)
    y[far] = _erfc_tail(x[far], _ERFC_R, _ERFC_S)
    y[z > _MAXLOG] = 0.0  # Cephes' underflow; also +-inf, where Horner gives nan
    np.subtract(2.0, y, out=y, where=(a < 0.0) & (x >= 1.0))
    return y


def sf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise upper tail 0.5 erfc(x / sqrt(2)), the one vectorized form of
    std_normal_sf; a 0-d input gives a scalar, as a ufunc would.

    The count samplers draw from it; tests pin it against the series cdf in
    conftest, which shares no code with it, and against scipy.special.erfc.
    erfc is Cephes' (module docstring), a chunk at a time.  A chunk whose
    erfc arguments x / sqrt(2) all lie in [1, 8), as every argument of the
    count estimators does, takes one P/Q evaluation; any other chunk goes
    through _erfc_any, which gives the same bits there but gathers and
    scatters every range by mask: alone it took 1.9-2.9 times as long at
    2,500 to 207k elements (BENCH_setup.json, kernel_paths).
    """
    x = np.asarray(x, dtype=np.float64)
    a = (x / _SQRT2).ravel()
    y = np.empty_like(a)
    for start in range(0, a.size, _SF_CHUNK):
        part = a[start : start + _SF_CHUNK]
        if part.min() >= 1.0 and part.max() < 8.0:  # nan fails both
            y[start : start + _SF_CHUNK] = _erfc_tail(part, _ERFC_P, _ERFC_Q)
        else:
            y[start : start + _SF_CHUNK] = _erfc_any(part)
    y *= 0.5
    return y.reshape(x.shape)[()]


# The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, correctly rounded from 50-digit roots of P_16.
_GL16_X = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL16_W = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553388, 0.09515851168249279, 0.062253523938647894, 0.027152459411754096,
)
_GL16_NODES = np.array([-x for x in reversed(_GL16_X)] + list(_GL16_X))
_GL16_WEIGHTS = np.array(_GL16_W[::-1] + _GL16_W)


def upper_orthant(h: float, k: float, rho: float) -> float:
    """P[X > h, Y > k] for standard normals X, Y with correlation rho, h, k > 0.

    Sheppard's formula, as Drezner and Wesolowsky (1990) and Genz (2004)
    compute it: sf(h) sf(k) + (1/2 pi) int_0^asin(rho) exp(-(h - k)^2 /
    (2 cos^2 t) - h k / (1 + sin t)) dt, whose integrand is positive.  With
    t = asin(rho) - sgn(rho) tau, cos t = c0 cos tau + |rho| sin tau and
    sin t = rho cos tau - sgn(rho) c0 sin tau, c0 = sqrt(1 - rho^2), so
    nothing cancels near rho = 1, where the integrand varies on the scale c0
    of tau.  The rule is 16-point Gauss-Legendre on the panels [0, c0],
    [c0, 2 c0], [2 c0, 4 c0], ... up to |asin rho|, none wider than
    min(1, 16 / (h^2 + k^2)): near t = 0 the exponent is -(h^2 + k^2)/2 +
    h k t - (h^2 + k^2) t^2 / 2 + ..., and there the doubling panels are
    widest.  Uncapped, that panel lost 3.3e-12 sf(h) sf(k) at rho = -0.6,
    h = k = 8, and 1.8e-14 of the value at rho = 1 - 1e-6, h = 1.25, k = 8.
    At rho = +-1 the pair is degenerate: Y = X gives sf(max(h, k)) and Y = -X
    gives 0.

    For rho > 0 the error is relative to the value.  For rho < 0 the integral
    is subtracted from sf(h) sf(k), and the two cancel, so the error is
    absolute, in units of sf(h) sf(k): (3.3, 3.3, -0.9) returns 4.8e-22 where
    the exact tail is 1.7e-51.
    """
    if not (h > 0 and k > 0):
        raise DomainError(f"need h, k > 0, got h={h}, k={k}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"need -1 <= rho <= 1, got {rho}")
    tail_h, tail_k = std_normal_sf(h), std_normal_sf(k)  # DomainError if infinite
    if rho == 1.0:
        return min(tail_h, tail_k)
    if rho == -1.0 or min(tail_h, tail_k) == 0.0:  # also bounds the panel count
        return 0.0
    c0 = math.sqrt((1.0 - rho) * (1.0 + rho))
    theta = math.asin(abs(rho))
    cap = 16.0 / max(h * h + k * k, 16.0)
    edges, edge = [0.0], min(c0, cap)
    while edge < theta:
        edges.append(edge)
        edge = min(2.0 * edge, edge + cap)
    ends = np.array(edges + [theta])
    half = 0.5 * np.diff(ends)
    tau = (ends[:-1] + half)[:, None] + half[:, None] * _GL16_NODES
    cos_tau, sin_tau = np.cos(tau), np.sin(tau)
    cos_t = c0 * cos_tau + abs(rho) * sin_tau
    sin_t = rho * cos_tau - math.copysign(c0, rho) * sin_tau
    f = np.exp(-0.5 * (h - k) ** 2 / (cos_t * cos_t) - h * k / (1.0 + sin_t))
    f *= half[:, None] * _GL16_WEIGHTS  # not @, which pages in BLAS that no count estimator uses
    integral = math.copysign(float(f.sum()), rho)
    return min(max(tail_h * tail_k + integral * _INV_2PI, 0.0), tail_h, tail_k)


def std_normal_isf(q: float) -> float:
    """x with sf(x) = q, for q in (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"isf argument must lie in (0,1), got {q}")
    if q == 0.5:
        return 0.0
    if q > 0.5:
        return -std_normal_isf(1.0 - q)
    lo, hi = 0.0, 45.0  # sf(45) underflows; comparisons still order correctly
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_sf(mid) > q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, lo):
            break
    x = 0.5 * (lo + hi)
    pdf = std_normal_pdf(x)
    if pdf > 1e-290:
        x += (std_normal_sf(x) - q) / pdf
    return x


def std_normal_quantile(p: float) -> float:
    """Inverse cdf on (0, 1)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile argument must lie in (0,1), got {p}")
    if p <= 0.5:
        return -std_normal_isf(p)
    return std_normal_isf(1.0 - p)


# -- frames -------------------------------------------------------------------

FRAME_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Frame:
    """k orthonormal vectors in R^d, the rows of `vectors`.

    Each instance keeps the one frame it draws and labels a batch from
    coords, whose columns are laid out as those of haar_coords.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"expected (k, {self.ambient_dim}) vectors, got {vecs.shape}"
            )
        if vecs.shape[0] > self.ambient_dim:
            raise DomainError(f"k={vecs.shape[0]} exceeds ambient dimension {self.ambient_dim}")
        gram = vecs @ vecs.T
        if np.abs(gram - np.eye(vecs.shape[0])).max() > FRAME_ORTHO_TOL:
            raise DomainError("frame vectors are not orthonormal within 1e-10")
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates x F^T of x (or a batch of rows): column j along row j of F."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point dimension {x.shape[-1]} != ambient {self.ambient_dim}"
            )
        return x @ self.vectors.T


def haar_frames(d: int, k: int, trials: int, rng: RngStream) -> np.ndarray:
    """(trials, d, k) stack of d x k matrices with uniformly random orthonormal
    columns, independent across the stack.

    Householder QR of a d x k Gaussian with a sign fix on diag(R); equivalent
    in distribution to Gram-Schmidt on the same draws and stable at desk
    dimensions.  The stack is one Gaussian draw and one stacked QR.
    """
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k}, d={d}")
    gauss = rng.generator().standard_normal((trials, d, k))
    q, r = np.linalg.qr(gauss, mode="reduced")
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sample_haar_frame(d: int, k: int, rng: RngStream) -> Frame:
    """Rotation-invariant frame: orthonormalized iid Gaussian vectors."""
    return Frame(ambient_dim=d, vectors=haar_frames(d, k, 1, rng)[0].T)


def haar_coords(points: np.ndarray, rng: RngStream, trials: int | None = None) -> np.ndarray:
    """Coordinates X F^T of the q rows of X in a Haar frame F of R^d, in law.

    Draws R^T W^T (module docstring) from the stream instead of F.  Column
    j holds the coordinates along the frame's j-th vector, and the rows keep
    the Gram matrix X X^T up to rounding.  A (q, d) X gives, as numpy's
    `size`: with `trials` None one (q, d) draw, else a (trials, q, d) stack
    over independent frames; a one-frame stack holds the same bits as the
    single draw.  A (runs, q, d) stack of query sets gives the (runs, q, d)
    coordinates of each set in its own independent frame, from one stacked
    QR of the sets; `trials` must then be None.
    """
    points = np.asarray(points, dtype=np.float64)
    sets = points.ndim == 3
    if sets and trials is not None:
        raise DomainError("a stack of query sets draws one frame per set; trials must be None")
    stack = points if sets else np.atleast_2d(points)[None]
    r = np.linalg.qr(np.swapaxes(stack, 1, 2), mode="r")
    count = len(stack) if sets else 1 if trials is None else trials
    frames = haar_frames(stack.shape[2], r.shape[1], count, rng)
    coords = np.swapaxes(r, 1, 2) @ np.swapaxes(frames, 1, 2)
    return coords[0] if not sets and trials is None else coords


def sphere_coords(points: np.ndarray, trials: int, gen: np.random.Generator) -> np.ndarray:
    """(trials, q) coordinates X u of the q rows of X along `trials` uniform
    unit vectors u of R^d, in law (module docstring).

    Exact also for rank-deficient X: a zero row gets coordinate 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    r = np.linalg.qr(points.T, mode="r")
    k = r.shape[0]
    w = gen.standard_normal((trials, k))
    rest = gen.chisquare(points.shape[1] - k, trials) if points.shape[1] > k else 0.0
    return (w @ r) / np.sqrt(np.einsum("ij,ij->i", w, w) + rest)[:, None]


# -- empirical verification of the tail bounds -------------------------------

CAP_EPS_GRID = (0.1, 0.2, 0.3, 0.5)
CHI2_T_GRID = (0.5, 1.0, 2.0, 4.0, 25.0)
CHI2_REL_T_GRID = (0.0, 0.2, 0.3, 0.45)


def verify_tail_bounds(n: int, trials: int, rng: RngStream) -> ExperimentReport:
    """Check spherical-cap and chi-square tail inequalities by Monte Carlo.

    Each empirical tail frequency must stay below its analytic bound plus
    three binomial standard errors.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if trials < 10_000:
        raise DomainError("need trials >= 1e4")
    report = ExperimentReport("verify-tail-bounds", {"n": n, "trials": trials}, rng.seed)

    gen = rng.child(0).generator()
    first_coord = np.empty(trials)
    norms_sq = np.empty(trials)
    chunk = max(1, min(trials, 4_000_000 // n))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        g = gen.standard_normal((m, n))
        sq = np.einsum("ij,ij->i", g, g)
        norms_sq[done : done + m] = sq
        first_coord[done : done + m] = g[:, 0] / np.sqrt(sq)
        done += m

    for eps in CAP_EPS_GRID:
        hits = int(np.count_nonzero(first_coord >= eps))
        bound = math.exp(-n * eps * eps / 2.0)
        freq, se = report.add_rate(f"cap_tail[eps={eps}]", hits, trials)
        report.assert_leq(
            f"spherical cap: Pr[u1 >= {eps}] <= exp(-n eps^2/2) + 3se",
            freq,
            bound,
            source="analytic",
            se=se,
        )

    for t in CHI2_T_GRID:
        upper = n + 2.0 * math.sqrt(n * t) + 2.0 * t
        lower = n - 2.0 * math.sqrt(n * t)
        bound = math.exp(-t)
        up_hits = int(np.count_nonzero(norms_sq >= upper))
        lo_hits = int(np.count_nonzero(norms_sq <= lower))
        up_freq, up_se = report.add_rate(f"chi2_upper_tail[t={t}]", up_hits, trials)
        lo_freq, lo_se = report.add_rate(f"chi2_lower_tail[t={t}]", lo_hits, trials)
        report.assert_leq(
            f"chi-square upper tail at t={t} <= exp(-t) + 3se",
            up_freq,
            bound,
            source="analytic",
            se=up_se,
        )
        report.assert_leq(
            f"chi-square lower tail at t={t} <= exp(-t) + 3se",
            lo_freq,
            bound,
            source="analytic",
            se=lo_se,
        )

    for t in CHI2_REL_T_GRID:
        hits = int(np.count_nonzero(np.abs(norms_sq - n) >= t * n))
        bound = math.exp(-(3.0 / 16.0) * n * t * t)
        freq, se = report.add_rate(f"chi2_rel_tail[t={t}]", hits, trials)
        report.assert_leq(
            f"chi-square relative tail at t={t} <= exp(-(3/16) n t^2) + 3se",
            freq,
            bound,
            source="analytic",
            se=se,
        )

    mean = float(norms_sq.mean())
    se = float(norms_sq.std(ddof=1) / math.sqrt(trials))
    report.add_estimate("chi2_mean", mean, se, trials)
    report.assert_leq(
        "squared-norm mean within 3se of n", abs(mean - n), 0.0, source="closed-form", se=se
    )
    return report
