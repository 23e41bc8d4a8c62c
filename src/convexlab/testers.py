"""One-sided testers: a batch runner, hull certificates, and baseline strategies.

A one-sided run rejects exactly when some 0-labeled query lies in the convex
hull of the 1-labeled queries; the certificate (hull coefficients) is always
returned, and only after it passes certificate_valid.  The rule is checked
once, at the leaf: more 1-queries never shrink the hull, so a 0-query inside
the hull of some prefix's 1-queries is inside the hull of all of them, and the
leaf verdict equals the verdict of checking after every query.

The leaf decides each 0-query in two stages, each sound on its own: one
separation pass (`_outside_mask`: the centroid, then a few Gilbert steps
toward the nearest hull point), and Wolfe's minimum-norm-point algorithm
(`in_convex_hull`), which decides the rest exactly.  The pass never marks a
row within tol of the hull, and the exact stage accepts only coefficients
that pass certificate_valid at 0.9 tol and separates only by the pass's
margin test, so every verdict is the one the min-t LP (min t with
|points^T lam - y|_inf <= t, inside when t <= 0.9 tol) would give; a target
that neither test can decide raises SolverError.

A strategy asks for its queries in batches: given the rows asked so far and
their labels, it returns the next rows, and the runner labels each batch with
one oracle call.  A non-adaptive strategy asks once; an adaptive one asks a
few rows at a time through the same runner.

A tester sees a membership oracle only through one protocol (`Oracle`): an
`ambient_dim` attribute and `labels(points)`, which maps an (m, ambient_dim)
array of rows to an int8 array of m labels in {0, 1} and raises
DimensionMismatchError on rows of another dimension.  The instance families
implement it themselves (AdaptiveInstance, PTFInstance, NazarovBody, and the
`yes` / `no` realizations of a TolerantInstance); any other oracle is a
BatchOracle built from a rule on checked rows.  `family_labels` draws the
families a tester runs against, the instance families and the convex
families that soundness checks, a stack of independent members at a time,
and labels a stack of batches, one per member; `family_oracle` is its
one-run case.  It answers for an instance family with a ViewOracle: the
labels of a fixed batch depend on an instance only through that batch's
view, so the oracle draws the view of the batch it is asked about, exactly
in law, and answers that one batch.

The rejection counts of the built-in strategies (cell_rejections) run in
blocks: a map_units unit is up to Cell.block runs of one cell, whose queries
are one stacked draw (baseline_queries) and whose labels are one stacked
draw of the family (family_labels), and each run then takes the leaf rule
(leaf_verdict) that run_one_sided applies.  Block j of a cell draws its
family from s.child(j).child(0) and its queries from s.child(j).child(1),
s the cell's stream.  run_one_sided stays the runner of any Strategy, the
adaptive ones included, and the reference a block's runs are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Protocol

import numpy as np

from . import ptf
from .errors import BudgetExceededError, DimensionMismatchError, DomainError, SolverError
from .gauss import haar_frames
from .parallel import map_units
from .report import ExperimentReport, wilson_interval
from .rng import RngStream

HULL_TOL = 1e-8
# Gilbert steps of the separation pass, per 0-query the centroid leaves.
FW_STEPS = 8
# Major cycles of the minimum-norm-point algorithm per row of the largest
# active set (min(m, d + 1) rows); past them a hull decision raises SolverError.
WOLFE_CYCLES = 20


class Oracle(Protocol):
    ambient_dim: int

    def labels(self, points: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class BatchOracle:
    """An Oracle from a rule that maps checked (m, ambient_dim) float rows to
    m truth values or 0/1 labels."""

    ambient_dim: int
    rule: Callable[[np.ndarray], np.ndarray]

    def labels(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(f"points must have dimension {self.ambient_dim}")
        return np.asarray(self.rule(points)).astype(np.int8)


@dataclass
class ViewOracle:
    """An Oracle that answers one batch, from that batch's view of a fresh draw.

    `view` maps checked (m, ambient_dim) rows to their m labels in one draw
    of a family, drawn without the draw itself.  A later batch would need
    the view conditioned on the answers already given, so a second labels
    call raises DomainError.
    """

    ambient_dim: int
    view: Callable[[np.ndarray], np.ndarray]
    answered: bool = field(default=False, init=False)

    def labels(self, points: np.ndarray) -> np.ndarray:
        if self.answered:
            raise DomainError("a view oracle answers one batch; a later batch needs the view conditioned on it")
        labels = BatchOracle(self.ambient_dim, self.view).labels(points)
        self.answered = True
        return labels


# A strategy maps the (m, d) rows asked so far and their int8 labels, as the
# oracle answered them, to the next (k, d) rows; None or zero rows ends the run.
Strategy = Callable[[np.ndarray, np.ndarray], Optional[np.ndarray]]


@dataclass
class Certificate:
    point: np.ndarray          # 0-labeled point inside the hull
    support: np.ndarray        # 1-labeled points spanning the hull
    coefficients: np.ndarray   # convex combination weights


@dataclass
class TesterVerdict:
    outcome: str               # "accept" or "reject"
    certificate: Certificate | None = None


def in_convex_hull(y: np.ndarray, points: np.ndarray, tol: float = HULL_TOL):
    """Convex-combination coefficients placing y within 0.9 tol (sup norm)
    of the hull of `points`, or None if y is farther than 0.9 tol from it.

    Wolfe's minimum-norm-point algorithm (P. Wolfe, "Finding the nearest
    point in a polytope", Math. Programming, 1976) runs on the translated
    rows q_i = p_i - y, from the nearest row.  A major cycle adds the row
    minimising <x, q_j> for the current hull point x; minor cycles move x to
    the point of the active rows' affine hull nearest the origin, and when a
    weight there is not positive, line-search back to the face and drop that
    row.  Every major cycle tests both verdicts, each sound alone:

    - inside: the expanded weights pass certificate_valid at 0.9 tol, the
      threshold the min-t LP (min t with |points^T lam - y|_inf <= t) used;
    - outside: u = -x passes _outside_mask's margin test, min_j <x, q_j> >
      tol |x|_1.  A hull point within 0.9 tol of y in sup norm would make
      that margin at most 0.9 tol |x|_1, so y is farther than 0.9 tol.

    Hence any verdict returned is the LP's.  At the nearest point, where
    neither holds (y within about tol sqrt(d) of the hull but its Euclidean
    nearest point more than 0.9 tol away in some coordinate), or past
    WOLFE_CYCLES * min(m, d + 1) major cycles, it raises SolverError; tol is
    never widened.
    """
    y = np.asarray(y, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 1:
        raise DomainError("need at least one hull point")
    if points.shape[1] != y.shape[0]:
        raise DimensionMismatchError("hull points and target have different dimensions")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if not (np.isfinite(y).all() and np.isfinite(points).all()):
        raise DomainError("hull points and target must be finite")
    q = points - y
    m, d = q.shape
    norms = np.sqrt(np.einsum("ij,ij->i", q, q))
    active = np.array([norms.argmin()])
    weights = np.ones(1)
    x = q[active[0]]
    previous = np.inf
    for _ in range(WOLFE_CYCLES * min(m, d + 1)):
        lam = np.zeros(m)
        lam[active] = weights
        if certificate_valid(y, points, lam, 0.9 * tol):
            return lam
        scores = q @ x
        j = scores.argmin()
        if scores[j] > tol * np.abs(x).sum():
            return None
        # The nearest point: no row improves on x beyond rounding, or the
        # last cycle did not shorten x.
        norm_sq = x @ x
        if j in active or norm_sq - scores[j] <= 1e-12 * np.sqrt(norm_sq) * norms.max() or norm_sq >= previous:
            raise SolverError("hull target in the undecided band: neither certified inside nor separated")
        previous = norm_sq
        active, weights = np.append(active, j), np.append(weights, 0.0)
        while True:
            # The affine minimiser, as a step from the current weights (the
            # bordered Gram system in least-squares form), so that the new
            # row's weight, as small as the step, keeps its sign however
            # close y is to the hull.
            rows = q[active]
            diffs = (rows[1:] - rows[0]).T
            c = np.linalg.lstsq(diffs, -x, rcond=None)[0]
            step = np.concatenate([[-c.sum()], c])
            negative = np.flatnonzero(weights + step < 0)
            if not len(negative):
                weights, x = weights + step, x + diffs @ c
                # Projecting the now small x off the face once more removes
                # the rounding the step left along it, which would otherwise
                # swamp a separation margin of order |x|^2.
                x = x + diffs @ np.linalg.lstsq(diffs, -x, rcond=None)[0]
                break
            # Line search back to the face: the first weight to reach 0 leaves.
            ratios = weights[negative] / -step[negative]
            theta = ratios.min()
            weights, x = weights + theta * step, x + theta * (diffs @ c)
            keep = weights > 0
            keep[negative[ratios.argmin()]] = False
            active, weights = active[keep], weights[keep]
    raise SolverError(f"hull decision took more than {WOLFE_CYCLES} * min(m, d + 1) major cycles")


def certificate_valid(y, points, lam, tol: float = HULL_TOL) -> bool:
    """Independent check: lam >= -tol, sums to 1, reconstructs y within tol."""
    lam = np.asarray(lam, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if lam.shape[0] != points.shape[0]:
        return False
    if lam.min(initial=0.0) < -tol:
        return False
    if abs(lam.sum() - 1.0) > tol:
        return False
    residual = np.abs(points.T @ lam - np.asarray(y, dtype=np.float64)).max()
    return bool(residual <= tol * (1.0 + 1e-9))


def _outside_mask(zeros, points, tol) -> np.ndarray:
    """The separation pass: a mask of the rows of `zeros` certainly not
    within tol of the hull of `points`, whose exact decision the leaf skips.

    Each row y keeps a running hull point x and is outside when u = y - x
    separates: <u, y> exceeds max_i <u, p_i> by more than tol * |u|_1, which
    no tol-approximate hull point can, whatever x is.  Iterate 0 is the
    centroid, tested on the whole (z, d) block; the rows it leaves take up to
    FW_STEPS Gilbert steps together (E. G. Gilbert, SIAM J. Control, 1966:
    x moves toward the support row maximising <p, y - x>, with exact line
    search for the distance to y) and drop out once separated.
    """
    x = points.mean(axis=0)
    u = zeros - x
    scores = u @ points.T
    margin = np.einsum("ij,ij->i", u, zeros) - scores.max(axis=1)
    outside = margin > tol * np.abs(u).sum(axis=1)
    rows = np.flatnonzero(~outside)
    if not len(rows):
        return outside
    u, scores = u[rows], scores[rows]
    x = np.broadcast_to(x, u.shape)
    for _ in range(FW_STEPS):
        step = points[scores.argmax(axis=1)] - x
        length_sq = np.einsum("ij,ij->i", step, step)
        gamma = np.einsum("ij,ij->i", u, step) / np.where(length_sq > 0, length_sq, 1.0)
        x = x + np.clip(gamma, 0.0, 1.0)[:, None] * step
        y = zeros[rows]
        u = y - x
        scores = u @ points.T
        margin = np.einsum("ij,ij->i", u, y) - scores.max(axis=1)
        separated = margin > tol * np.abs(u).sum(axis=1)
        outside[rows[separated]] = True
        keep = ~separated
        rows, x, u, scores = rows[keep], x[keep], u[keep], scores[keep]
        if not len(rows):
            break
    return outside


def _certified_outside(y, points, tol) -> bool:
    """_outside_mask of the single row y: the per-query form that
    perfbench's tracer wraps by name."""
    return bool(_outside_mask(y[None, :], points, tol)[0])


def run_one_sided(
    strategy: Strategy, oracle: Oracle, q: int
) -> tuple[TesterVerdict, np.ndarray, np.ndarray]:
    """Execute one root-to-leaf path of a one-sided tester.

    The strategy is asked for one batch at a time, given the rows and labels
    so far; each batch is checked against the budget q and the oracle's
    dimension, then labelled in one oracle call.  At the leaf, leaf_verdict
    tests each 0-query once against the hull of all the 1-queries; the first
    certificate rejects.  By monotonicity this is the verdict of checking
    after every query.  Returns the verdict, the (m, d) queries and their
    labels.
    """
    d = oracle.ambient_dim
    points = np.empty((0, d))
    labels = np.empty(0, dtype=np.int8)
    while (batch := strategy(points, labels)) is not None:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != d:
            raise DimensionMismatchError(f"tester produced a batch of shape {batch.shape}")
        if not len(batch):
            break
        if len(points) + len(batch) > q:
            raise BudgetExceededError(f"tester requested more than {q} queries")
        if not np.isfinite(batch).all():
            raise DomainError("tester produced a non-finite query")
        points = np.concatenate([points, batch])
        labels = np.concatenate([labels, oracle.labels(batch)])
    return leaf_verdict(points, labels), points, labels


def leaf_verdict(points: np.ndarray, labels: np.ndarray) -> TesterVerdict:
    """The one-sided rule at the leaf: each 0-query is tested once against
    the hull of all the 1-queries, the separation pass first and then the
    exact stage; the first certificate rejects."""
    support = points[labels == 1]
    if len(support):
        zeros = points[labels == 0]
        zeros = zeros[~_outside_mask(zeros, support, HULL_TOL)]
        for y in zeros:
            if (lam := in_convex_hull(y, support, HULL_TOL)) is not None:
                return TesterVerdict("reject", Certificate(point=y, support=support, coefficients=lam))
    return TesterVerdict("accept")


# -- baseline strategies ------------------------------------------------------


def baseline_queries(kind: str, budget: int, d: int, runs: int, rng: RngStream) -> np.ndarray:
    """The (runs, m, d) queries of `runs` runs of a built-in strategy:
    Gaussian rows of R^d, all drawn in one call from rng.

    line-segment: budget // 3 pairs (x, y), each followed by its midpoint.
    hull-sampling: budget iid points; rejection is left to the runner's rule.
    """
    if kind == "line-segment":
        if budget < 3:
            raise DomainError("line-segment strategy needs a budget of at least 3")
        ends = rng.generator().standard_normal((runs, budget // 3, 2, d))
        mids = 0.5 * (ends[:, :, 0] + ends[:, :, 1])
        return np.concatenate([ends, mids[:, :, None]], axis=2).reshape(runs, -1, d)
    if kind == "hull-sampling":
        if budget < 1:
            raise DomainError("hull-sampling strategy needs a budget of at least 1")
        return rng.generator().standard_normal((runs, budget, d))
    raise DomainError(f"unknown strategy kind {kind!r}")


def baseline_strategy(kind: str, budget: int, d: int, rng: RngStream) -> Strategy:
    """A built-in strategy: the queries of one run (baseline_queries), drawn
    in advance and asked as one batch, whatever the answers."""
    queries = baseline_queries(kind, budget, d, 1, rng)[0]
    return lambda points, labels: None if len(points) else queries


STRATEGY_KINDS = ("line-segment", "hull-sampling")
INSTANCE_FAMILIES = ("adaptive", "tolerant-yes", "tolerant-no", "ptf-yes", "ptf-no")
# Convex membership oracles with nontrivial Gaussian mass: no one-sided tester
# may ever reject them.
CONVEX_FAMILIES = ("halfspace", "ball", "ellipsoid", "ptf-yes")


def ambient_dim(family: str, n: int) -> int:
    """The dimension a family lives in: R^{2n} (adaptive), R^{n+1}
    (tolerant) or R^n."""
    if family == "adaptive":
        return 2 * n
    return n + 1 if family.startswith("tolerant-") else n


def family_labels(
    family: str, n: int, runs: int, rng: RngStream, c0_hat: float | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """`runs` independent draws of a named family from rng, as one rule that
    maps a (runs, m, d) stack of batches to their (runs, m) labels, batch k
    labelled by draw k.

    An instance family draws, when asked, the views of the stack it is asked
    about (one stacked draw: adaptive.sample_adaptive_labels,
    tolerant.sample_tolerant_views, ptf.sample_ptf_labels), so it answers
    one stack.  A convex family draws its parameters here, stacked, and
    answers any number.
    """
    from . import adaptive, tolerant

    if family == "adaptive":
        return lambda pts: adaptive.sample_adaptive_labels(pts, n, rng)
    if family in ("tolerant-yes", "tolerant-no"):
        realization = family.removeprefix("tolerant-")
        return lambda pts: np.array([
            getattr(view, realization)()
            for view in tolerant.sample_tolerant_views(pts, n, None, runs, rng, c0_hat)
        ])
    if family in ("ptf-yes", "ptf-no"):
        flavor = family.removeprefix("ptf-")
        return lambda pts: ptf.sample_ptf_labels(pts, n, 3, flavor, rng)
    if family == "halfspace":
        w = rng.generator().standard_normal((runs, n))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return lambda pts: (pts @ w[:, :, None])[:, :, 0] <= 0.3
    if family == "ball":
        return lambda pts: np.einsum("kij,kij->ki", pts, pts) <= n
    if family == "ellipsoid":
        axes = 0.5 + rng.generator().random((runs, n)) * 1.5
        frames = haar_frames(n, n, runs, rng.child(1))  # columns: the frame vectors
        return lambda pts: ((pts @ frames) ** 2 * axes[:, None, :]).sum(axis=2) <= n
    raise DomainError(f"unknown instance family {family!r}")


def family_oracle(family: str, n: int, rng: RngStream, c0_hat: float | None = None) -> Oracle:
    """One draw of a named family, as the oracle the tester queries: the
    one-run case of family_labels.

    An instance family answers one batch, from that batch's view in an
    instance drawn from rng (ViewOracle); a convex family answers any number
    of batches (BatchOracle).
    """
    rule = family_labels(family, n, 1, rng, c0_hat)
    oracle = ViewOracle if family in INSTANCE_FAMILIES else BatchOracle
    return oracle(ambient_dim(family, n), lambda pts: rule(pts[None])[0])


# A block, one map_units unit of cell_rejections, holds at most BLOCK_RUNS runs
# of one cell and at most BLOCK_COORDS query coordinates.  Over the benchmark's
# tester-loop cells on a 2-core Xeon, the peak RSS above a run-at-a-time pass
# was 0.6 MB at 2^15 coordinates, 0.1 MB at 2^14 and 10 MB with no cap.
BLOCK_RUNS = 32
BLOCK_COORDS = 1 << 15


@dataclass(frozen=True)
class Cell:
    """`trials` runs of a baseline strategy against a family.  The cell's
    stream is the run stream followed down `path`: (k, f) names
    rng.child(k).child(f), and () the run stream itself.  Its runs go in
    blocks of `block` runs, block j on the cell stream's child(j)
    (cell_rejections)."""

    strategy_kind: str
    family: str
    n: int
    budget: int
    trials: int
    path: tuple[int, ...] = ()

    @property
    def ambient_dim(self) -> int:
        return ambient_dim(self.family, self.n)

    @property
    def block(self) -> int:
        """Runs per block: BLOCK_RUNS, fewer when their budget x ambient_dim
        query coordinates would pass BLOCK_COORDS, and one when a single run
        does."""
        return max(1, min(BLOCK_RUNS, BLOCK_COORDS // max(1, self.budget * self.ambient_dim)))


def cell_rejections(cells, rng: RngStream, c0_hat: float | None = None) -> list[int]:
    """How many runs of each cell reject, every cell's blocks in one
    map_units call (so a pool starts once per call, not once per cell).

    Block j of a cell holds its runs j B, ..., (j + 1) B - 1, B = cell.block
    (the last block may be shorter), and draws from s.child(j), where s is
    the cell's stream, whatever the worker count (run_block).  The measured
    constant c0_hat reaches the tolerant families only.
    """
    cells = tuple(cells)
    for cell in cells:
        if cell.family not in INSTANCE_FAMILIES + CONVEX_FAMILIES:
            raise DomainError(f"unknown instance family {cell.family!r}")
    starts = tuple(accumulate((-(-cell.trials // cell.block) for cell in cells), initial=0))
    outcomes = map_units(_block_rejections, starts[-1], rng, cells, starts, c0_hat)
    return [sum(outcomes[a:b]) for a, b in zip(starts, starts[1:])]


def run_block(
    cell: Cell, runs: int, rng: RngStream, c0_hat: float | None = None
) -> tuple[list[TesterVerdict], np.ndarray, np.ndarray]:
    """`runs` runs of a cell's strategy against its family, from block
    stream rng.

    The queries of every run come from one stacked draw on rng.child(1)
    (baseline_queries), their labels from one stacked draw of the family on
    rng.child(0), a fresh draw per run (family_labels); each run then takes
    the leaf rule (leaf_verdict), which is run_one_sided's on that run's
    queries and labels.  Returns the verdicts, the (runs, m, d) queries and
    their (runs, m) labels.
    """
    queries = baseline_queries(cell.strategy_kind, cell.budget, cell.ambient_dim, runs, rng.child(1))
    labels = np.asarray(family_labels(cell.family, cell.n, runs, rng.child(0), c0_hat)(queries), dtype=np.int8)
    return [leaf_verdict(points, ys) for points, ys in zip(queries, labels)], queries, labels


def rejections(
    strategy_kind: str,
    family: str,
    n: int,
    budget: int,
    trials: int,
    rng: RngStream,
    c0_hat: float | None = None,
) -> int:
    """How many of `trials` runs of a baseline strategy reject a family:
    the one cell whose stream is rng."""
    return cell_rejections([Cell(strategy_kind, family, n, budget, trials)], rng, c0_hat)[0]


def rate_report(cell: Cell, rejects: int, seed: int) -> ExperimentReport:
    """The rejection-rate report of a cell whose runs rejected `rejects` times."""
    report = ExperimentReport(
        "rejection-rate",
        {
            "strategy": cell.strategy_kind,
            "family": cell.family,
            "n": cell.n,
            "budget": cell.budget,
            "trials": cell.trials,
        },
        seed,
    )
    report.add_rate("rejection_rate", rejects, cell.trials)
    lo, hi = wilson_interval(rejects, cell.trials)
    report.add_estimate("wilson_lower_99", lo)
    report.add_estimate("wilson_upper_99", hi)
    return report


def _block_rejections(rng: RngStream, i: int, cells, starts, c0_hat) -> int:
    c = bisect_right(starts, i) - 1
    cell, j = cells[c], i - starts[c]
    for index in cell.path:
        rng = rng.child(index)
    runs = min(cell.block, cell.trials - j * cell.block)
    return sum(v.outcome == "reject" for v in run_block(cell, runs, rng.child(j), c0_hat)[0])
