"""Adaptive-hardness instances over R^{2n}: oracle, triples, event detectors.

An instance hides an n-dimensional halfspace-intersection body inside a
random "control" subspace; the orthogonal "action" subspace carries one
random direction per halfspace.  A point inside Ball(sqrt(2n)) whose control
projection violates some halfspaces is labeled 1 exactly when, for every
violated index j, its inner product with the j-th action direction falls
outside the strip [-sqrt(n)/2, sqrt(n)/2].  Walking from such a point along
the action direction of a uniquely violated halfspace crosses the strip
boundary and produces collinear labels (1, 0, 1): a certificate of
non-convexity that is hard to find but covers constant measure.

An instance holds one Haar frame of R^{2n}, the control subspace in rows
0..n-1 and the action subspace in rows n..2n-1.  The labels of a fixed batch
see an instance only through the coordinates c in that frame (c[:, :n]
control, c[:, n:] action) of its rows inside Ball(sqrt(2n)), every other row
being 0, the violations of their control parts against the N body normals,
and the products of their action parts with the action directions of the
halfspaces they violate.  One rule (adaptive_labels) maps those to labels;
an instance feeds it from c = frame.coords(points) and its matrices
(eval_adaptive_batch).  sample_adaptive_labels draws them in law for a
stack of batches at once, one instance each, on the instance's three
streams and without the 2n x 2n frame or the two N x n matrices: c of the
in-ball rows alone as gauss.haar_coords, the violations of the whole block
in one nazarov.sample_violations call, which draws only the hit columns
when a run's tail mass allows, and one fresh action direction per hit
column.  The testers label a block of runs that way.  The event rate
(detect-events), the triple samplers and persistence still draw whole
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .gauss import Frame, haar_coords, sample_haar_frame, sphere_coords, std_normal_cdf
from .nazarov import (
    NazarovBody,
    default_halfspace_count,
    sample_body,
    sample_violations,
    solve_r_half,
)
from .parallel import map_units
from .report import ExperimentReport, wilson_interval
from .rng import RngStream
from .testers import BatchOracle, packed_rows

R_CONVENTION_TOL = 1e-9
DEFAULT_A_CONST = 1.0
BLOCK = 32  # detect-events instances per map_units unit


def strip_halfwidth(n: int) -> float:
    """Half-width sqrt(n)/2 of the strips; fixed by the construction, not configurable."""
    return math.sqrt(n) / 2.0


@dataclass(frozen=True)
class AdaptiveInstance:
    n: int
    N: int
    r: float
    frame: Frame            # 2n rows in R^{2n}: n control rows, then n action rows
    body: NazarovBody       # normals in control coordinates
    action_dirs: np.ndarray  # (N, n) coordinates of the v^i along the action rows
    stream: RngStream

    def __post_init__(self):
        if self.frame.ambient_dim != 2 * self.n or self.frame.k != 2 * self.n:
            raise DimensionMismatchError("frame must hold 2n vectors in R^{2n}")
        if self.body.n != self.n or self.body.N != self.N:
            raise DomainError("body shape inconsistent with the instance")
        if abs(std_normal_cdf(self.r / math.sqrt(self.n)) ** self.N - 0.5) > R_CONVENTION_TOL:
            raise DomainError("r does not satisfy the half-membership convention")
        dirs = np.asarray(self.action_dirs, dtype=np.float64)
        if dirs.shape != (self.N, self.n):
            raise DimensionMismatchError("action_dirs must have shape (N, n)")
        dirs.flags.writeable = False
        object.__setattr__(self, "action_dirs", dirs)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n

    @property
    def strip_halfwidth(self) -> float:
        return strip_halfwidth(self.n)

    def labels(self, points: np.ndarray) -> np.ndarray:
        return eval_adaptive_batch(self, points)


@dataclass(frozen=True)
class ViolatingTriple:
    x: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    flap_index: int


def sample_adaptive_instance(
    n: int, N_override: int | None, rng: RngStream
) -> AdaptiveInstance:
    """Draw the [control; action] frame, the hidden body, and action directions."""
    if n < 4:
        raise DomainError("need n >= 4")
    N = N_override if N_override is not None else default_halfspace_count(n)
    frame = sample_haar_frame(2 * n, 2 * n, rng.child(0))
    r = solve_r_half(n, N)
    body = sample_body(n, N, r, rng.child(1))
    action_dirs = rng.child(2).generator().standard_normal((N, n))
    return AdaptiveInstance(
        n=n,
        N=N,
        r=r,
        frame=frame,
        body=body,
        action_dirs=action_dirs,
        stream=rng,
    )


def sample_adaptive_labels(points: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """(runs, m) labels of a (runs, m, 2n) stack of batches, run k's batch in
    its own fresh instance, drawn without the instances.

    Run k's labels are equal in law to sample_adaptive_instance(n, None,
    s).labels(points[k]) for a stream s of its own, and the runs are
    independent.  Only the rows inside Ball(sqrt(2n)) are labelled by an
    instance, so only they get frame coordinates: each run's in-ball rows
    are packed first and the stack zero-padded to the longest, whose
    haar_coords on stream child(0) reads the first k columns of each frame
    for a run of k rows.  The body then meets every run's probed control
    rows in one nazarov.sample_violations call on a generator from
    child(1), and the action directions only at the hit columns
    (_hit_products, on a generator from child(2)).  Drawn for one batch per
    run; a later batch would need them conditioned on this one.
    """
    if n < 4:
        raise DomainError("need n >= 4")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 2 * n:
        raise DimensionMismatchError(f"points must be a (runs, m, {2 * n}) stack")
    runs, m, d = points.shape
    N = default_halfspace_count(n)
    r = solve_r_half(n, N)
    labels = np.zeros((runs, m), dtype=np.int8)
    flat = points.reshape(-1, d)
    inside = (np.einsum("ij,ij->i", flat, flat) <= 2.0 * n).reshape(runs, m)  # as adaptive_labels
    packed, order, slot = packed_rows(points, inside)
    if not slot.size:
        return labels
    coords = haar_coords(packed, rng.child(0))[slot]
    run = np.repeat(np.arange(runs), slot.sum(axis=1))
    normals, dirs = rng.child(1).generator(), rng.child(2).generator()
    labels[run, order[slot]] = adaptive_labels(
        n, packed[slot], coords[:, :n],
        lambda rows: sample_violations(
            coords[rows, :n], np.bincount(run[rows], minlength=runs), N, r, normals
        ),
        lambda rows, hits: _hit_products(coords[rows, n:], run[rows], hits, dirs),
    )
    return labels


def _hit_products(action: np.ndarray, runs: np.ndarray, hits: np.ndarray, gen) -> np.ndarray:
    """(k, N) products of k rows' action coordinates with the N action
    directions of their runs' instances, drawn only where `hits` is set
    (zero elsewhere): one fresh N(0, I_n) direction per run and hit column."""
    rows, cols = np.nonzero(hits)
    products = np.zeros(hits.shape)
    if rows.size:
        keys, which = np.unique(runs[rows] * hits.shape[1] + cols, return_inverse=True)
        directions = gen.standard_normal((keys.size, action.shape[1]))
        products[rows, cols] = np.einsum("ij,ij->i", action[rows], directions[which])
    return products


def eval_adaptive_batch(inst: AdaptiveInstance, points: np.ndarray) -> np.ndarray:
    """Oracle labels for a batch of rows in R^{2n}, from their frame
    coordinates sliced as sample_adaptive_labels slices haar_coords."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    coords = inst.frame.coords(points)
    return adaptive_labels(
        inst.n, points, coords[:, :inst.n],
        lambda rows: inst.body.violated(coords[rows, :inst.n]),
        lambda rows, hits: coords[rows, inst.n:] @ inst.action_dirs.T,
    )


def adaptive_labels(n, points, xc, violated, action_products) -> np.ndarray:
    """The labelling rule of an instance, from what it shows a batch of rows.

    `points` are the (m, 2n) rows and `xc` their control coordinates;
    `violated` maps the indices of k rows to their (k, N) violation matrix,
    and `action_products` maps the indices of k rows and that matrix to
    their (k, N) products with the action directions, which the rule reads
    only where a row violates.  Only the rows in both balls are probed, and
    only the probed rows in some flap meet the action directions.
    """
    labels = np.zeros(points.shape[0], dtype=np.int8)
    norms_sq = np.einsum("ij,ij->i", points, points)
    xc_norm = np.sqrt(np.einsum("ij,ij->i", xc, xc))
    live = (norms_sq <= 2.0 * n) & (xc_norm <= math.sqrt(n))  # as body.labels
    if not np.any(live):
        return labels
    idx = np.nonzero(live)[0]
    viol = violated(idx)                                    # (m_live, N)
    any_viol = viol.any(axis=1)
    labels[idx[~any_viol]] = 1                              # inside the body
    flap_rows = idx[any_viol]
    if flap_rows.size:
        hits = viol[any_viol]
        outside_strip = np.abs(action_products(flap_rows, hits)) > strip_halfwidth(n)
        ok = np.logical_or(outside_strip, ~hits).all(axis=1)
        labels[flap_rows[ok]] = 1
    return labels


def convexified_oracle(inst: AdaptiveInstance) -> BatchOracle:
    """Indicator of Ball(sqrt(2n)) intersected with the hidden body: the
    strip-free (width-zero) convex version of the instance, for controls."""

    def rule(points: np.ndarray) -> np.ndarray:
        in_ball = np.einsum("ij,ij->i", points, points) <= 2.0 * inst.n
        return in_ball & (inst.body.labels(inst.frame.coords(points)[:, :inst.n]) == 1)

    return BatchOracle(inst.ambient_dim, rule)


def thin_shell_bounds(n: int) -> tuple[float, float]:
    root = math.sqrt(2.0 * n)
    return root - 2.0, root - 1.0


def _triple_seed_scan(inst, points, a_const, oracle=None):
    """Find seeds of violating triples within a batch of candidate points.

    A seed lies in the thin radial shell, has control norm in
    [sqrt(n) - a, sqrt(n)], violates exactly one halfspace, and together with
    x +- v/|v| replays the labels (0, 1, 1) of `oracle` (the instance itself
    by default).
    Returns (seed rows, flap indices, plus points, minus points).
    """
    if not a_const > 0:
        raise DomainError("need a_const > 0")
    if oracle is None:
        oracle = inst
    points = np.atleast_2d(points)
    lo, hi = thin_shell_bounds(inst.n)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    mask = (norms >= lo) & (norms <= hi)
    if not mask.any():
        return (np.empty((0, inst.ambient_dim)), np.empty(0, int)) + (None, None)
    pts = points[mask]
    xc = inst.frame.coords(pts)[:, :inst.n]
    xc_norm = np.sqrt(np.einsum("ij,ij->i", xc, xc))
    root_n = math.sqrt(inst.n)
    mask2 = (xc_norm >= root_n - a_const) & (xc_norm <= root_n)
    pts = pts[mask2]
    if pts.shape[0] == 0:
        return (np.empty((0, inst.ambient_dim)), np.empty(0, int)) + (None, None)
    viol = inst.body.violated(xc[mask2])
    counts = viol.sum(axis=1)
    unique = counts == 1
    pts = pts[unique]
    if pts.shape[0] == 0:
        return (np.empty((0, inst.ambient_dim)), np.empty(0, int)) + (None, None)
    flaps = np.argmax(viol[unique], axis=1)
    steps = inst.action_dirs[flaps] @ inst.frame.vectors[inst.n:]  # into R^{2n}
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    plus = pts + steps
    minus = pts - steps
    lab0 = oracle.labels(pts)
    lab_p = oracle.labels(plus)
    lab_m = oracle.labels(minus)
    good = (lab0 == 0) & (lab_p == 1) & (lab_m == 1)
    return pts[good], flaps[good], plus[good], minus[good]


def sample_violating_triple(
    inst: AdaptiveInstance,
    max_attempts: int,
    rng: RngStream,
    a_const: float = DEFAULT_A_CONST,
) -> ViolatingTriple | None:
    """Rejection-sample one violating triple; None if no hit within budget."""
    gen = rng.generator()
    batch = 4096
    attempts = 0
    while attempts < max_attempts:
        m = min(batch, max_attempts - attempts)
        pts = gen.standard_normal((m, inst.ambient_dim))
        attempts += m
        seeds, flaps, plus, minus = _triple_seed_scan(inst, pts, a_const)
        if seeds.shape[0]:
            return ViolatingTriple(
                x=seeds[0], x_plus=plus[0], x_minus=minus[0], flap_index=int(flaps[0])
            )
    return None


def pdf_ratio_floor(n: int) -> float:
    """Worst-case standard-Gaussian density ratio across a triple's radii.

    Triple points lie within radius 1 of a thin-shell seed; the extreme radii
    are sqrt(2n) - 3 and sqrt(2n), so the density ratio is bounded below by
    exp(((sqrt(2n)-3)^2 - 2n)/2).
    """
    root = math.sqrt(2.0 * n)
    return math.exp(((root - 3.0) ** 2 - 2.0 * n) / 2.0)


def estimate_distance_lb(
    inst: AdaptiveInstance,
    trials: int,
    rng: RngStream,
    a_const: float = DEFAULT_A_CONST,
    oracle=None,
) -> ExperimentReport:
    """Estimate the probability that a Gaussian point seeds a violating triple.

    Reports the seed frequency with a Wilson interval and a conservative
    distance proxy: frequency / 3 (each point joins at most three triples)
    times the worst-case density ratio across the triple radii.
    """
    if trials < 100_000:
        raise DomainError("need trials >= 1e5")
    report = ExperimentReport(
        "distance-lb",
        {"n": inst.n, "N": inst.N, "trials": trials, "a_const": a_const},
        rng.seed,
    )
    gen = rng.generator()
    hits = 0
    batch = 8192
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        pts = gen.standard_normal((m, inst.ambient_dim))
        seeds, _, _, _ = _triple_seed_scan(inst, pts, a_const, oracle)
        hits += seeds.shape[0]
        done += m
    p_hat, _ = report.add_rate("p_hat", hits, trials)
    lo, hi = wilson_interval(hits, trials)
    floor = pdf_ratio_floor(inst.n)
    report.add_estimate("wilson_lower_99", lo)
    report.add_estimate("wilson_upper_99", hi)
    report.add_estimate("pdf_ratio_floor", floor)
    report.add_estimate("distance_proxy", p_hat / 3.0 * floor)
    report.assert_geq(
        "triple-seed probability positive at 99% confidence", lo, np.nextafter(0.0, 1.0),
        source="derived",
    )
    return report


# -- events over transcripts ---------------------------------------------------


def detect_events(inst: AdaptiveInstance, points: np.ndarray, q: int) -> dict:
    """Exact evaluation of the clustering events E1 and E2 over the query
    points of a transcript, one row each.

    Only E1 and E2 are computed, over the restricted query set
    {x : |x_C| <= sqrt(n)}.  An empty query set satisfies both vacuously.

    The distance clause of E1 cannot fail on the transcripts that
    event_rate_experiment draws: two standard Gaussian points of R^{2n} lie
    about 2 sqrt(n) apart (20 at n = 100), and the threshold
    1000 sqrt(q) n^{1/4} is 5,477 at n = 100, q = 3.  There E1 reads only the
    per-row flap counts.
    """
    points = np.atleast_2d(points)
    if points.size == 0:
        return {"E1": True, "E2": True}

    coords = inst.frame.coords(points)
    xc = coords[:, :inst.n]
    xc_norm = np.sqrt(np.einsum("ij,ij->i", xc, xc))
    restricted = xc_norm <= math.sqrt(inst.n)
    rest_idx = np.nonzero(restricted)[0]
    viol = inst.body.violated(xc)                          # (m, N)
    viol[~restricted] = False                              # flaps live inside the ball
    counts = viol.sum(axis=1)

    threshold = 1000.0 * math.sqrt(q) * inst.n ** 0.25

    # E1: restricted queries touch at most q flaps each, and queries sharing a
    # flap are pairwise within 1000 sqrt(q) n^{1/4}.
    # E2: queries sharing a flap agree on the strip indicator of its direction.
    e1 = bool((counts[rest_idx] <= q).all()) if rest_idx.size else True
    e2 = True
    shared = np.nonzero(viol[rest_idx].any(axis=0))[0] if rest_idx.size else []
    if rest_idx.size:
        proj = coords[:, inst.n:] @ inst.action_dirs.T    # (m, N)
        out = np.abs(proj) > inst.strip_halfwidth
        for i in shared:
            members = rest_idx[viol[rest_idx, i]]
            if members.size < 2:
                continue
            sub = points[members]
            diff = sub[:, None, :] - sub[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            if dist.max() > threshold:
                e1 = False
            vals = out[members, i]
            if vals.any() and not vals.all():
                e2 = False
    return {"E1": e1, "E2": e2}


def _event_block(rng: RngStream, b: int, n: int, q: int, instances: int) -> tuple[int, int]:
    """E1 and E2 hits of instances b * BLOCK, ..., instance t from rng.child(2t)
    and its queries from rng.child(2t + 1).  An instance is freed only once
    the next is drawn, so the heap is reused rather than trimmed and faulted."""
    e1_hits = e2_hits = 0
    for t in range(b * BLOCK, min((b + 1) * BLOCK, instances)):
        inst = sample_adaptive_instance(n, None, rng.child(2 * t))
        pts = rng.child(2 * t + 1).generator().standard_normal((q, 2 * n))
        flags = detect_events(inst, pts, q)
        e1_hits += flags["E1"]
        e2_hits += flags["E2"]
    return e1_hits, e2_hits


def event_rate_experiment(n: int, q: int, instances: int, rng: RngStream) -> ExperimentReport:
    """Frequency of the pairwise-clustering event over random q-query transcripts."""
    report = ExperimentReport(
        "event-rate", {"n": n, "q": q, "instances": instances}, rng.seed
    )
    hits = map_units(_event_block, -(-instances // BLOCK), rng, n, q, instances)
    e1_hits = sum(e1 for e1, _ in hits)
    e2_hits = sum(e2 for _, e2 in hits)
    freq1, _ = report.add_rate("E1_rate", e1_hits, instances)
    report.add_rate("E2_rate", e2_hits, instances)
    report.assert_geq(
        "clustering event holds on at least 95% of random transcripts",
        freq1,
        0.95,
        source="derived",
    )
    return report


# -- strip crossing -------------------------------------------------------------


def strip_crossing_experiment(
    n: int,
    q: int,
    cluster_radius: float,
    trials: int,
    rng: RngStream,
    ratio_limit: float = 1.0,
) -> ExperimentReport:
    """Conditional probability that a nearby point crosses the strip boundary.

    A cluster of q action-space points sits on the sphere of radius sqrt(n);
    the extra point y is displaced orthogonally by the cluster radius.  Over
    a Gaussian action direction v, conditioned on the cluster agreeing on the
    strip indicator, we measure how often y disagrees.  The strip-crossing
    experiment's default radius is sqrt(q) n^{1/4} (6.3 at n = 100, q = 4);
    a larger radius, as the cluster_radius override may set, is clamped to
    sqrt(n), which keeps every constructed projection realizable by a point
    of the ball.

    Only the projections of v are read, and they need no n-vector.  Rotate
    the base point to sqrt(n) e1: v.base = sqrt(n) g0.  Each displacement
    direction o_j is uniform on the unit sphere of base^perp, so
    v.o_j = |v'| c_j, where v' is v's part in base^perp, |v'|^2 ~ chi^2_{n-1},
    and c_j = h_j / sqrt(h_j^2 + chi^2_{n-2}) is the first coordinate of a
    uniform unit vector of R^{n-1} (gauss.sphere_coords; sign(h_j) at n = 2).
    g0, |v'| and the c_j are independent, so a trial is 2 + 2q draws.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if q < 1:
        raise DomainError("need q >= 1")
    if not cluster_radius >= 0:  # NaN fails too
        raise DomainError(f"cluster radius must be a nonnegative number, got {cluster_radius}")
    effective = min(cluster_radius, math.sqrt(n))
    report = ExperimentReport(
        "strip-crossing",
        {
            "n": n,
            "q": q,
            "cluster_radius": cluster_radius,
            "effective_radius": effective,
            "trials": trials,
        },
        rng.seed,
    )
    gen = rng.generator()
    half = strip_halfwidth(n)
    log2n = math.log2(n)
    gamma = 50000.0 * math.sqrt(q) * n**0.25 * log2n
    shift_bound = 1000.0 * math.sqrt(q) * n**0.25 * log2n
    e1 = np.eye(1, n - 1)

    consistent = 0
    crossings = 0
    near_boundary = 0
    big_shift = 0
    batch = 20_000
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        t_base = math.sqrt(n) * gen.standard_normal(m)
        v_orth = np.sqrt(gen.chisquare(n - 1, m))

        def shift(radius):
            """v.(point - base) for a point displaced by radius along a fresh o_j."""
            return radius * v_orth * sphere_coords(e1, m, gen)[:, 0]

        out_base = np.abs(t_base) > half
        agree = np.ones(m, dtype=bool)
        # Displacement budget: mates within radius/3 and y at 2 radius/3 keeps
        # every cluster-to-y distance at most the cluster radius.
        for _ in range(q - 1):
            agree &= (np.abs(t_base + shift(effective / 3.0)) > half) == out_base
        y_shift = shift(2.0 * effective / 3.0)
        cross = (np.abs(t_base + y_shift) > half) != out_base
        consistent += int(np.count_nonzero(agree))
        crossings += int(np.count_nonzero(agree & cross))
        near_boundary += int(np.count_nonzero(np.abs(np.abs(t_base) - half) <= gamma))
        big_shift += int(np.count_nonzero(np.abs(y_shift) > shift_bound))
        done += m

    p_cond, _ = report.add_rate("conditional_crossing", crossings, consistent)
    scale = math.sqrt(q) * log2n / n**0.25
    report.add_estimate("ratio_to_scale", p_cond / scale)
    report.add_rate("boundary_window_rate", near_boundary, trials)
    report.add_rate("large_shift_rate", big_shift, trials)
    report.assert_leq(
        "conditional crossing probability <= recorded constant * sqrt(q) log2(n) / n^{1/4}",
        p_cond,
        ratio_limit * scale,
        source="derived",
    )
    return report
