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
BatchOracle built from a rule on checked rows.  run_one_sided runs any
Strategy against any Oracle, the adaptive strategies included.

The families the built-in strategies run against, the instance families and
the convex families that soundness checks, are drawn by `family_labels`, a
stack of independent members at a time, which labels a stack of batches,
one per member.  An instance family draws, when asked, only the views of the
stack it is asked about: the labels of a fixed batch depend on an instance
only through that batch's view, so the draw is exact in law and answers
that one stack.

The rejection counts of the built-in strategies (cell_rejections) run in
blocks: a map_units unit is up to Cell.block runs of one cell, whose queries
are one stacked draw (baseline_queries) and whose labels are one stacked
draw of the family (family_labels), and the leaf rule then decides every
run (leaf_verdicts: one separation pass over the block, then the exact
stage run by run).  Block j of a cell draws its family from
s.child(j).child(0) and its queries from s.child(j).child(1), s the cell's
stream.  run_one_sided applies the same leaf rule to its one run, and is
the reference a block's runs are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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
# Scores <u, p> that one separation pass of leaf_verdicts holds (4 MB): a
# block of the benchmark's tester-loop cells takes one pass, and a run of
# ptf-no at n = 4 and budget 1500 (about 800 x 700) a pass of its own.
LEAF_SCORES = 1 << 19
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


def _outside_mask(zeros, points, tol, asked, support) -> np.ndarray:
    """The separation pass: a (stacks, z) mask of the rows of `zeros`
    certainly not within tol of the hull of `points`, whose exact decision
    the leaf skips.

    `zeros` (stacks, z, d) and `points` (stacks, m, d) are stacks, each row
    of zeros against the hull of its own stack's points.  The (stacks, z)
    mask `asked` selects the rows of zeros to decide (the others stay False)
    and the (stacks, m) mask `support` the rows of points that span the
    hull.  A row with no support row in its stack is outside.

    Each row y keeps a running hull point x and is outside when u = y - x
    separates: <u, y> exceeds max_i <u, p_i> by more than tol * |u|_1, which
    no tol-approximate hull point can, whatever x is.  Iterate 0 is the
    centroid; the asked rows it leaves take up to FW_STEPS Gilbert steps
    together (E. G. Gilbert, SIAM J. Control, 1966: x moves toward the
    support row maximising <p, y - x>, with exact line search for the
    distance to y) until every one is separated or the steps run out.
    """
    stacked, z = asked.shape
    if not points.shape[1]:
        return asked
    count = support.sum(axis=1)
    centroid = np.einsum("sm,smd->sd", support / np.maximum(count, 1)[:, None], points)
    spanned, hidden = count > 0, None if support.all() else ~support[:, None, :]
    x = np.broadcast_to(centroid[:, None, :], zeros.shape)
    u = zeros - x
    scores = _scores(u, points, hidden)
    outside = asked & (~spanned[:, None] | _separates(u, zeros, scores, tol))
    best = scores.argmax(axis=2)
    # The Gilbert steps run on the rows still asked, packed first in each
    # stack that has one, the stacks cut to those; a row carries its hull
    # point and the support row its last scores maximise.
    stacks, rows, live = np.arange(stacked), np.broadcast_to(np.arange(z), asked.shape), asked & ~outside
    for _ in range(FW_STEPS):
        if not live.any():
            break
        keep = live.any(axis=1)
        order = np.argsort(~live, axis=1, kind="stable")[keep, : live.sum(axis=1).max()]
        stacks = stacks[keep]
        rows, live, best = (np.take_along_axis(a[keep], order, axis=1) for a in (rows, live, best))
        x = np.take_along_axis(x[keep], order[..., None], axis=1)
        hull, mask = points[stacks], None if hidden is None else hidden[stacks]
        y = np.take_along_axis(zeros[stacks], rows[..., None], axis=1)
        step = np.take_along_axis(hull, best[..., None], axis=1) - x
        length_sq = _rowdot(step, step)
        gamma = _rowdot(y - x, step) / np.where(length_sq > 0, length_sq, 1.0)
        x = x + np.clip(gamma, 0.0, 1.0)[..., None] * step
        u = y - x
        scores = _scores(u, hull, mask)
        separated = live & _separates(u, y, scores, tol)
        best = scores.argmax(axis=2)
        outside[np.broadcast_to(stacks[:, None], rows.shape)[separated], rows[separated]] = True
        live = live & ~separated
    return outside


def _scores(u, points, hidden) -> np.ndarray:
    """<u, p_i> for each (stacks, rows, d) row of u and (stacks, m, d) row of
    its stack's points, -inf where `hidden` (None or (stacks, 1, m)) is set."""
    scores = u @ np.swapaxes(points, 1, 2)
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    return scores


def _separates(u, y, scores, tol) -> np.ndarray:
    """The margin test of (stacks, rows, d) rows y along u, given their
    scores (_scores)."""
    return _rowdot(u, y) - scores.max(axis=-1) > tol * np.abs(u).sum(axis=-1)


def _rowdot(a, b) -> np.ndarray:
    """<a_i, b_i> for each row of two stacks of rows of one shape."""
    d = a.shape[-1]
    return np.einsum("ij,ij->i", a.reshape(-1, d), b.reshape(-1, d)).reshape(a.shape[:-1])


def _certified_outside(y, points, tol) -> bool:
    """_outside_mask of the single row y against the hull of every row of
    `points`: the per-query form that perfbench's tracer wraps by name."""
    y, points = np.asarray(y, dtype=np.float64), np.asarray(points, dtype=np.float64)
    every = np.ones((1, len(points)), dtype=bool)
    return bool(_outside_mask(y[None, None], points[None], tol, np.ones((1, 1), dtype=bool), every)[0, 0])


def run_one_sided(
    strategy: Strategy, oracle: Oracle, q: int
) -> tuple[TesterVerdict, np.ndarray, np.ndarray]:
    """Execute one root-to-leaf path of a one-sided tester.

    The strategy is asked for one batch at a time, given the rows and labels
    so far; each batch is checked against the budget q and the oracle's
    dimension, then labelled in one oracle call.  At the leaf, leaf_verdicts
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
    return leaf_verdicts(points[None], labels[None])[0], points, labels


def leaf_verdicts(queries: np.ndarray, labels: np.ndarray) -> list[TesterVerdict]:
    """The one-sided rule at the leaf of each run of a (runs, m, d) stack
    of queries and their (runs, m) labels: each 0-query is tested once
    against the hull of its run's 1-queries.  One separation pass covers
    the runs, each run's 0-queries and 1-queries packed first, or as many
    runs at a time as keep its scores to LEAF_SCORES; the 0-queries it
    leaves go to the exact stage run by run, and a run's first certificate
    rejects it."""
    hulls, _, spans = packed_rows(queries, labels == 1)
    zeros, _, asked = packed_rows(queries, labels == 0)
    step = max(1, LEAF_SCORES // max(1, zeros.shape[1] * hulls.shape[1]))
    left = asked & ~np.concatenate([
        _outside_mask(zeros[i : i + step], hulls[i : i + step], HULL_TOL, asked[i : i + step], spans[i : i + step])
        for i in range(0, len(queries), step)
    ])
    verdicts = []
    for hull, span, rows, keep in zip(hulls, spans, zeros, left):
        verdict, support = TesterVerdict("accept"), hull[span]
        for y in rows[keep]:
            if (lam := in_convex_hull(y, support, HULL_TOL)) is not None:
                verdict = TesterVerdict("reject", Certificate(point=y, support=support, coefficients=lam))
                break
        verdicts.append(verdict)
    return verdicts


def packed_rows(stack: np.ndarray, mask: np.ndarray):
    """The rows of a (runs, m, d) stack that a (runs, m) mask selects,
    packed first in each run in their order, the stack cut to the longest
    run and zero past each run's rows: the (runs, k, d) rows, their (runs,
    k) indices in the stack and the (runs, k) mask of the packed rows."""
    count = mask.sum(axis=1)
    slot = np.arange(count.max(initial=0)) < count[:, None]
    order = np.zeros(slot.shape, dtype=np.intp)
    order[slot] = np.nonzero(mask)[1]
    rows = stack[np.arange(len(stack))[:, None], order]
    rows[~slot] = 0.0
    return rows, order, slot


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


# A block, one map_units unit of cell_rejections, holds at most BLOCK_RUNS runs
# of one cell and at most BLOCK_COORDS query coordinates.  Over the benchmark's
# tester-loop cells on a 2-core Xeon, with the labels drawn by
# nazarov.sample_violations and one separation pass per block, the peak RSS
# above a run-at-a-time pass was 0.4 MB at 2^15 coordinates, 0.0 MB at 2^14
# and 6.8 MB with no cap; 2^14 made the pass about 10 % slower.
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
    rng.child(0), a fresh draw per run (family_labels); the leaf rule then
    decides every run (leaf_verdicts), each verdict run_one_sided's on that
    run's queries and labels.  Returns the verdicts, the (runs, m, d) queries and
    their (runs, m) labels.
    """
    queries = baseline_queries(cell.strategy_kind, cell.budget, cell.ambient_dim, runs, rng.child(1))
    labels = np.asarray(family_labels(cell.family, cell.n, runs, rng.child(0), c0_hat)(queries), dtype=np.int8)
    return leaf_verdicts(queries, labels), queries, labels


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
