"""Degree-2 threshold instances with moment-matched coefficient laws.

The yes-law is a discrete distribution on nonnegative atoms matching the
first l raw moments of N(mu, 1); the no-law additionally carries a fixed
negative atom.  An instance holds one Haar basis U of R^n (a Frame); it
weights the squared projections x U^T / sqrt(n) by iid coefficient draws
and thresholds the sum at mu, intersected with a ball of radius sqrt(n) + C.
The factor 1/sqrt(n) follows from n, so the basis carries no scale.
Yes-instances are convex (ellipsoid cap); no-instances with a negative
coordinate are non-convex along lines in the span of the negative-coefficient
basis vectors.

A fixed batch of q queries sees the basis only through its projections
X U^T, which gauss.haar_coords draws exactly in law (R^T W^T for
X = R^T Q^T and a uniform q-frame W) instead of the n x n basis.  One rule
(ptf_labels) labels a batch from its squared projections and the
coefficients: an instance feeds it from basis.coords (eval_ptf_batch), and
sample_ptf_labels from haar_coords, on the instance's two streams, for a
stack of batches at once, one instance each.  The testers label a block of
runs that way; no-distance and persistence draw the full basis with
sample_haar_frame.

The response-vector experiment runs its trials in blocks of BLOCK, one
parallel.map_units unit each.  Block b draws the projections of all its
trials as one haar_coords stack on rng.child(b).child(0), and each law's
(trials, n) coefficients in one draw, on child(1) for the yes-law and
child(2) for the no-law.  Trials within a block are independent, so the
block is exact in law; the worker count only decides where blocks run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SolverError
from .gauss import Frame, haar_coords, sample_haar_frame
from .parallel import map_units
from .report import ExperimentReport, response_counts, tv_from_counts, wilson_interval
from .rng import RngStream

DEFAULT_CLIP = 10.0
DEFAULT_NEG_ATOM = -1.0
DEFAULT_NEG_PROB = 0.01
MOMENT_RTOL = 1e-9
BLOCK = 32  # response-tv trials per map_units unit; 64 ran no faster and peaked higher


def gaussian_raw_moment(mu: float, k: int) -> float:
    """k-th raw moment of N(mu, 1) by the standard recurrence."""
    if k < 0:
        raise DomainError("need k >= 0")
    m_prev, m_cur = 1.0, mu  # m_0, m_1
    if k == 0:
        return m_prev
    for j in range(2, k + 1):
        m_prev, m_cur = m_cur, mu * m_cur + (j - 1) * m_prev
    return m_cur


@dataclass(frozen=True)
class DiscreteDistribution:
    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if atoms.ndim != 1 or atoms.shape != probs.shape:
            raise DimensionMismatchError("atoms and probs must be matching vectors")
        if np.any(np.diff(atoms) <= 0):
            raise DomainError("atoms must be strictly increasing")
        if np.any(probs < 0):
            raise DomainError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        atoms.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def moment(self, k: int) -> float:
        """Direct sum of p_i a_i^k; independent of any solver internals."""
        return float(np.sum(self.probs * self.atoms ** k))

    def sample(self, size, rng: RngStream) -> np.ndarray:
        gen = rng.generator()
        idx = gen.choice(len(self.atoms), size=size, p=self.probs)
        return self.atoms[idx]


def _hermite_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights of N(0,1) via the Jacobi eigenproblem."""
    if m == 1:
        return np.array([0.0]), np.array([1.0])
    off = np.sqrt(np.arange(1.0, m))
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jacobi)
    return vals, vecs[0] ** 2


@functools.lru_cache(maxsize=256)
def match_moments_nonneg(l: int) -> tuple[float, DiscreteDistribution]:
    """Nonnegative law matching the first l moments of N(mu, 1).

    Gauss-Hermite quadrature with (l+1)/2 nodes matches all moments up to l;
    mu is the magnitude of the most negative node, which shifts the smallest
    atom to exactly zero.  For l = 1 the one-node rule would force mu = 0, so
    mu = 1 with a single atom at 1 is used instead.
    """
    if l < 1 or l % 2 == 0:
        raise DomainError("need odd l >= 1")
    if l == 1:
        return 1.0, DiscreteDistribution(np.array([1.0]), np.array([1.0]))
    m = (l + 1) // 2
    nodes, weights = _hermite_nodes(m)
    mu = -float(nodes.min())
    atoms = nodes - nodes.min()
    dist = DiscreteDistribution(atoms, weights / weights.sum())
    _check_moments(dist, mu, l)
    if dist.atoms.min() < -1e-12:
        raise SolverError("quadrature produced a negative atom")
    return mu, dist


@functools.lru_cache(maxsize=256)
def match_moments_with_negative(
    mu: float,
    l: int,
    neg_atom: float = DEFAULT_NEG_ATOM,
    neg_prob: float = DEFAULT_NEG_PROB,
) -> DiscreteDistribution:
    """Law with a planted negative atom matching the first l moments of N(mu,1).

    The negative atom takes mass neg_prob; the remaining mass matches the
    adjusted moment sequence (m_k - neg_prob * neg_atom^k) / (1 - neg_prob)
    with a Gauss rule built from its Hankel system.
    """
    if neg_atom >= 0:
        raise DomainError("neg_atom must be negative")
    if not 0.0 < neg_prob < 1.0:
        raise DomainError("neg_prob must lie in (0,1)")
    if l < 1:
        raise DomainError("need l >= 1")
    m = (l + 1) // 2 if l % 2 == 1 else l // 2 + 1
    # adjusted moments up to 2m-1 >= l
    order = 2 * m - 1
    adjusted = np.array(
        [
            (gaussian_raw_moment(mu, k) - neg_prob * neg_atom**k) / (1.0 - neg_prob)
            for k in range(order + 1)
        ]
    )
    hankel = np.array([[adjusted[i + j] for j in range(m)] for i in range(m)])
    try:
        eigs = np.linalg.eigvalsh(hankel)
        if eigs.min() <= 0:
            raise SolverError(
                "adjusted moments are not a valid moment sequence; shrink neg_prob"
            )
        rhs = -adjusted[m : 2 * m]
        coeffs = np.linalg.solve(hankel, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "adjusted moment system is singular; shrink neg_prob"
        ) from exc
    poly = np.concatenate([[1.0], coeffs[::-1]])  # monic orthogonal polynomial
    nodes = np.sort(np.roots(poly))
    if np.any(np.abs(nodes.imag) > 1e-9):
        raise SolverError("complex quadrature nodes; shrink neg_prob")
    nodes = nodes.real
    vander = np.vander(nodes, m, increasing=True).T
    weights = np.linalg.solve(vander, adjusted[:m])
    if weights.min() < -1e-12:
        raise SolverError("negative quadrature weight; shrink neg_prob")
    weights = np.clip(weights, 0.0, None)
    if np.any(np.abs(nodes - neg_atom) < 1e-12):
        raise SolverError("quadrature node collides with the planted negative atom")
    atoms = np.concatenate([[neg_atom], nodes])
    probs = np.concatenate([[neg_prob], (1.0 - neg_prob) * weights])
    order_idx = np.argsort(atoms)
    dist = DiscreteDistribution(atoms[order_idx], probs[order_idx] / probs.sum())
    _check_moments(dist, mu, l)
    return dist


def moment_error(dist: DiscreteDistribution, mu: float, l: int) -> float:
    """The largest error of moments 1..l of `dist` against those of N(mu, 1),
    relative to max(1, |target|)."""
    worst = 0.0
    for k in range(1, l + 1):
        target = gaussian_raw_moment(mu, k)
        worst = max(worst, abs(dist.moment(k) - target) / max(1.0, abs(target)))
    return worst


def _check_moments(dist: DiscreteDistribution, mu: float, l: int):
    err = moment_error(dist, mu, l)
    if err > MOMENT_RTOL:
        raise SolverError(f"moments 1..{l} mismatch: relative error {err:.3g}")


@dataclass(frozen=True)
class PTFInstance:
    n: int
    l: int
    basis: Frame              # n rows in R^n
    coeffs: np.ndarray
    mu: float
    clip_c: float
    flavor: str               # "yes" | "no"
    neg_atom: float
    neg_prob: float
    stream: RngStream

    def __post_init__(self):
        if self.flavor not in ("yes", "no"):
            raise DomainError("flavor must be 'yes' or 'no'")
        if not self.clip_c > 0:
            raise DomainError("clip_c must be positive")
        if self.basis.ambient_dim != self.n or self.basis.k != self.n:
            raise DimensionMismatchError("basis must be a full frame in R^n")
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (self.n,):
            raise DimensionMismatchError("coeffs must have length n")
        if self.flavor == "yes" and coeffs.min() < -1e-12:
            raise DomainError("yes-flavor coefficients must be nonnegative")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def clip_radius(self) -> float:
        return math.sqrt(self.n) + self.clip_c

    @property
    def ambient_dim(self) -> int:
        return self.n

    def labels(self, points: np.ndarray) -> np.ndarray:
        return eval_ptf_batch(self, points)


def sample_ptf_instance(
    n: int,
    l: int,
    clip_c: float,
    flavor: str,
    rng: RngStream,
    neg_atom: float = DEFAULT_NEG_ATOM,
    neg_prob: float = DEFAULT_NEG_PROB,
) -> PTFInstance:
    if n < 1:
        raise DomainError("need n >= 1")
    mu, law = coefficient_law(l, flavor, neg_atom, neg_prob)
    basis = sample_haar_frame(n, n, rng.child(0))
    coeffs = law.sample(n, rng.child(1))
    return PTFInstance(
        n=n,
        l=l,
        basis=basis,
        coeffs=coeffs,
        mu=mu,
        clip_c=clip_c,
        flavor=flavor,
        neg_atom=neg_atom,
        neg_prob=neg_prob,
        stream=rng,
    )


def coefficient_law(
    l: int, flavor: str, neg_atom: float, neg_prob: float
) -> tuple[float, DiscreteDistribution]:
    """(mu, the coefficient law) of a yes- or no-flavor instance."""
    mu, yes_law = match_moments_nonneg(l)
    if flavor == "yes":
        return mu, yes_law
    if flavor == "no":
        return mu, match_moments_with_negative(mu, l, neg_atom, neg_prob)
    raise DomainError("flavor must be 'yes' or 'no'")


def sample_ptf_labels(points: np.ndarray, n: int, l: int, flavor: str, rng: RngStream) -> np.ndarray:
    """(runs, m) labels of a (runs, m, n) stack of batches, run k's batch in
    its own fresh instance, drawn without the bases.

    Run k's labels are equal in law to sample_ptf_instance(n, l,
    DEFAULT_CLIP, flavor, s).labels(points[k]) for a stream s of its own,
    and the runs are independent: the projections of every batch come from
    one haar_coords stack on stream child(0), the (runs, n) coefficients
    from one draw on child(1).  Drawn for one batch per run; a later batch
    would need the projections conditioned on this one.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    mu, law = coefficient_law(l, flavor, DEFAULT_NEG_ATOM, DEFAULT_NEG_PROB)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != n:
        raise DimensionMismatchError(f"points must be a (runs, m, {n}) stack")
    proj_sq = haar_coords(points, rng.child(0)) ** 2 / n  # (x . u_i / sqrt(n))^2
    coeffs = law.sample((len(points), n), rng.child(1))
    clip = math.sqrt(n) + DEFAULT_CLIP
    return np.array([ptf_labels(*run, mu, clip) for run in zip(points, proj_sq, coeffs)])


def eval_ptf_batch(inst: PTFInstance, points: np.ndarray) -> np.ndarray:
    """Labels 1{ sum_i c_i (a_i . x)^2 <= mu and |x| <= sqrt(n) + C }.

    The a_i = u_i / sqrt(n) are the basis rows scaled by 1/sqrt(n).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    proj = inst.basis.coords(points) * (1.0 / math.sqrt(inst.n))
    return ptf_labels(points, proj**2, inst.coeffs, inst.mu, inst.clip_radius)


def ptf_labels(points, proj_sq, coeffs, mu, clip_radius) -> np.ndarray:
    """The labelling rule: 1{ proj_sq @ coeffs <= mu and |x| <= clip_radius }
    for rows x with squared scaled projections proj_sq."""
    quad = proj_sq @ coeffs
    norms_sq = np.einsum("ij,ij->i", points, points)
    return ((quad <= mu) & (norms_sq <= clip_radius**2)).astype(np.int8)


def eval_ptf_rescaled(inst: PTFInstance, points: np.ndarray) -> np.ndarray:
    """Identical set through the unscaled basis: sum c_i (u_i . x)^2 <= n mu.

    Independent reference specification kept for tests of eval_ptf_batch.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    proj = points @ inst.basis.vectors.T
    quad = (proj**2) @ inst.coeffs
    norms_sq = np.einsum("ij,ij->i", points, points)
    scaled_mu = inst.mu * inst.n
    return ((quad <= scaled_mu) & (norms_sq <= inst.clip_radius**2)).astype(np.int8)


def estimate_no_distance(
    inst: PTFInstance,
    lines: int,
    points_per_line: int,
    rng: RngStream,
) -> ExperimentReport:
    """Frequency of collinear (1, 0, 1) label patterns on a no-instance.

    Witness lines run along random directions in the span of the
    negative-coefficient basis vectors, offset by Gaussian base points;
    through-origin lines in Haar-random directions carry no witnesses unless
    the whole coefficient vector is overwhelmingly negative, so their pattern
    frequency is recorded separately.  Sampled triples are sorted parameter
    values t1 < t2 < t3 on each line.
    """
    if inst.flavor != "no":
        raise DomainError("distance estimator expects a no-flavor instance")
    if lines < 1 or points_per_line < 3:
        raise DomainError("need lines >= 1 and points_per_line >= 3")
    report = ExperimentReport(
        "no-distance",
        {
            "n": inst.n,
            "l": inst.l,
            "lines": lines,
            "points_per_line": points_per_line,
            "negative_coords": int(np.count_nonzero(inst.coeffs < 0)),
            "mu": inst.mu,
            "clip_c": inst.clip_c,
            "neg_atom": inst.neg_atom,
            "neg_prob": inst.neg_prob,
        },
        rng.seed,
    )
    neg_idx = np.nonzero(inst.coeffs < 0)[0]
    gen = rng.generator()
    t_scale = 2.0 * inst.n ** 0.25 + 2.0

    def line_patterns(directions: np.ndarray, offsets: np.ndarray) -> tuple[int, int]:
        hits = 0
        for w, x0 in zip(directions, offsets):
            ts = np.sort(gen.standard_normal(points_per_line) * t_scale)
            pts = x0[None, :] + ts[:, None] * w[None, :]
            labels = eval_ptf_batch(inst, pts)
            ones = np.nonzero(labels == 1)[0]
            zeros = np.nonzero(labels == 0)[0]
            found = False
            for z in zeros:
                if ones.size and ones[0] < z and ones[-1] > z:
                    found = True
                    break
            hits += found
        return hits

    # Witness family: random directions within the negative-coefficient span.
    witness_hits = 0
    if neg_idx.size:
        span = inst.basis.vectors[neg_idx]
        coefs = gen.standard_normal((lines, neg_idx.size))
        dirs = coefs @ span
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        offsets = gen.standard_normal((lines, inst.n))
        offsets -= np.einsum("ij,ij->i", offsets, dirs)[:, None] * dirs
        witness_hits = line_patterns(dirs, offsets)
    report.add_rate("witness_pattern_rate", witness_hits, lines)

    # Reference family: Haar directions through the origin.
    haar = gen.standard_normal((lines, inst.n))
    haar /= np.linalg.norm(haar, axis=1, keepdims=True)
    origin_hits = line_patterns(haar, np.zeros((lines, inst.n)))
    report.add_rate("origin_line_pattern_rate", origin_hits, lines)

    if neg_idx.size:
        lo, _ = wilson_interval(witness_hits, lines)
        report.assert_geq(
            "non-convexity witness frequency positive at 99% confidence",
            lo,
            np.nextafter(0.0, 1.0),
            source="derived",
        )
    return report


def response_tv_experiment(
    queries: np.ndarray,
    n: int,
    l: int,
    trials: int,
    rng: RngStream,
    neg_atom: float = DEFAULT_NEG_ATOM,
    neg_prob: float = DEFAULT_NEG_PROB,
) -> ExperimentReport:
    """Coupled response-vector comparison between the two coefficient laws.

    Each trial shares one random basis; coefficients are drawn independently
    from the nonnegative and the negative-atom law.  Reports the empirical
    total variation between the response distributions, the frequency of the
    large-projection basis event, and the TV restricted to trials avoiding it.
    A trial draws only the queries' projections on the basis (haar_coords),
    a block of BLOCK trials at a time (module docstring).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    q = queries.shape[0]
    if q > 20:
        raise DomainError("response-vector state space limited to 20 queries")
    if queries.shape[1] != n:
        raise DimensionMismatchError("queries must have dimension n")
    mu, yes_law = match_moments_nonneg(l)
    no_law = match_moments_with_negative(mu, l, neg_atom, neg_prob)
    clip_sq = 10.0 * math.log(n) / n
    report = ExperimentReport(
        "response-tv",
        {"n": n, "q": q, "l": l, "trials": trials, "mu": mu,
         "neg_atom": neg_atom, "neg_prob": neg_prob},
        rng.seed,
    )
    blocks = map_units(
        _response_block, -(-trials // BLOCK), rng, trials, queries, n, mu, clip_sq, yes_law, no_law
    )
    bad, yes_rows, no_rows = (np.concatenate(column) for column in zip(*blocks))
    bad_hits = int(bad.sum())
    tv = tv_from_counts(response_counts(yes_rows), response_counts(no_rows), trials)
    kept = trials - bad_hits
    tv_ok = tv_from_counts(response_counts(yes_rows[~bad]), response_counts(no_rows[~bad]), kept)
    bad_bound = q * n * n ** (-4.5)
    report.add_estimate("tv", tv, 0.0, trials)
    report.add_estimate("tv_nonbad", tv_ok, 0.0, kept)
    bad_freq, bad_se = report.add_rate("bad_basis_rate", bad_hits, trials)
    report.add_estimate("bad_basis_bound", bad_bound)
    report.assert_leq(
        "bad-basis frequency <= q n / n^{9/2} + 3se",
        bad_freq,
        bad_bound,
        source="analytic",
        se=bad_se,
    )
    return report


def _response_block(rng: RngStream, b: int, trials, queries, n, mu, clip_sq, yes_law, no_law):
    """(bad basis, yes responses, no responses) of the trials of block b of
    response_tv_experiment, one row per trial."""
    size = min(BLOCK, trials - b * BLOCK)
    stream = rng.child(b)
    proj_sq = haar_coords(queries, stream.child(0), size) ** 2 / n  # (size, q, n), scale 1/sqrt(n)
    u = yes_law.sample((size, n), stream.child(1))
    v = no_law.sample((size, n), stream.child(2))
    bad = (proj_sq >= clip_sq).any(axis=(1, 2))
    return bad, np.einsum("tqn,tn->tq", proj_sq, u) <= mu, np.einsum("tqn,tn->tq", proj_sq, v) <= mu
