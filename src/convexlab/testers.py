"""One-sided testers: a batch runner, hull certificates, and baseline strategies.

A one-sided run rejects exactly when some 0-labeled query lies in the convex
hull of the 1-labeled queries; the certificate (hull coefficients) is always
returned and re-verified independently of the LP solver.  The rule is checked
once, at the leaf: more 1-queries never shrink the hull, so a 0-query inside
the hull of some prefix's 1-queries is inside the hull of all of them, and the
leaf verdict equals the verdict of checking after every query.

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
BatchOracle built from a rule on checked rows.  `family_oracle` names each
family a tester runs against: the instance families and the convex families
that soundness checks.  It answers for an instance family with a ViewOracle:
the labels of a fixed batch depend on an instance only through that batch's
view, so the oracle draws the view of the batch it is asked about, exactly
in law, and answers that one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from . import ptf
from .errors import BudgetExceededError, DimensionMismatchError, DomainError, SolverError
from .gauss import sample_haar_frame
from .parallel import map_units
from .report import ExperimentReport, wilson_interval
from .rng import RngStream

HULL_TOL = 1e-8


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
    """Convex-combination coefficients placing y within tol (sup norm) of
    the hull of `points`, or None if the feasibility LP is infeasible.
    """
    y = np.asarray(y, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 1:
        raise DomainError("need at least one hull point")
    if points.shape[1] != y.shape[0]:
        raise DimensionMismatchError("hull points and target have different dimensions")
    if not tol > 0:
        raise DomainError("tol must be positive")
    # Imported here so that a process that never tests hull membership never
    # loads scipy.optimize.
    from scipy.optimize import linprog

    m = points.shape[0]
    # lambda >= 0, sum lambda = 1, |points^T lambda - y|_inf <= tol.  The LP
    # runs at 0.9 tol with a tightened solver tolerance so the returned
    # certificate verifies strictly at tol.
    inner = 0.9 * tol
    a_ub = np.vstack([points.T, -points.T])
    b_ub = np.concatenate([y + inner, inner - y])
    res = linprog(
        c=np.zeros(m),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": max(1e-10, min(1e-7, tol * 1e-2))},
    )
    if res.status == 2:  # infeasible
        return None
    if res.status != 0:
        raise SolverError(f"hull LP did not converge (status {res.status}): {res.message}")
    lam = np.asarray(res.x, dtype=np.float64)
    if not certificate_valid(y, points, lam, tol):
        raise SolverError("LP reported feasible but the certificate fails re-verification")
    return lam


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
    return residual <= tol * (1.0 + 1e-9)


def _outside_mask(zeros, points, tol) -> np.ndarray:
    """Cheap sound separation tests: a mask of the rows of `zeros` that are
    certainly not within tol of the hull of `points`, so the leaf skips
    their LP.

    A row y is outside when it leaves the bounding box of `points` widened by
    tol, or when u = y - centroid separates: <u, y> exceeds max_i <u, p_i> by
    more than tol * |u|_1, since any tol-approximate hull point moves <u, .>
    by at most that much.  Never claims separation incorrectly.  The box and
    the centroid are computed once for the whole (z, d) block.
    """
    lo = points.min(axis=0) - tol
    hi = points.max(axis=0) + tol
    u = zeros - points.mean(axis=0)
    margin = np.einsum("ij,ij->i", u, zeros) - (points @ u.T).max(axis=0)
    return ((zeros < lo) | (zeros > hi)).any(axis=1) | (margin > tol * np.abs(u).sum(axis=1))


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
    dimension, then labelled in one oracle call.  At the leaf each 0-query is
    tested once against the hull of all the 1-queries; the first certificate
    rejects.  By monotonicity this is the verdict of checking after every
    query.  Returns the verdict, the (m, d) queries and their labels.
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
        points = np.concatenate([points, batch])
        labels = np.concatenate([labels, oracle.labels(batch)])
    support = points[labels == 1]
    if len(support):
        zeros = points[labels == 0]
        for y in zeros[~_outside_mask(zeros, support, HULL_TOL)]:
            lam = in_convex_hull(y, support, HULL_TOL)
            if lam is not None:
                cert = Certificate(point=y, support=support, coefficients=lam)
                return TesterVerdict("reject", cert), points, labels
    return TesterVerdict("accept"), points, labels


# -- baseline strategies ------------------------------------------------------


def baseline_strategy(kind: str, budget: int, d: int, rng: RngStream) -> Strategy:
    """A built-in strategy: Gaussian queries in R^d drawn in advance from rng
    and asked as one batch, whatever the answers.

    line-segment: budget // 3 pairs (x, y), each followed by its midpoint.
    hull-sampling: budget iid points; rejection is left to the runner's rule.
    """
    if kind == "line-segment":
        if budget < 3:
            raise DomainError("line-segment strategy needs a budget of at least 3")
        ends = rng.generator().standard_normal((budget // 3, 2, d))
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        queries = np.concatenate([ends, mids[:, None]], axis=1).reshape(-1, d)
    elif kind == "hull-sampling":
        if budget < 1:
            raise DomainError("hull-sampling strategy needs a budget of at least 1")
        queries = rng.generator().standard_normal((budget, d))
    else:
        raise DomainError(f"unknown strategy kind {kind!r}")
    return lambda points, labels: None if len(points) else queries


STRATEGY_KINDS = ("line-segment", "hull-sampling")
INSTANCE_FAMILIES = ("adaptive", "tolerant-yes", "tolerant-no", "ptf-yes", "ptf-no")
# Convex membership oracles with nontrivial Gaussian mass: no one-sided tester
# may ever reject them.
CONVEX_FAMILIES = ("halfspace", "ball", "ellipsoid", "ptf-yes")


def family_oracle(family: str, n: int, rng: RngStream, calibration=None) -> Oracle:
    """One draw of a named family, as the oracle the tester queries.

    An instance family answers one batch, from that batch's view in an
    instance drawn from rng (ViewOracle); it lives in R^{2n} (adaptive),
    R^{n+1} (tolerant) or R^n (ptf).  The convex families live in R^n and
    answer any number of batches.
    """
    from . import adaptive, tolerant

    if family == "adaptive":
        return ViewOracle(2 * n, lambda pts: adaptive.sample_adaptive_labels(pts, n, rng))
    if family in ("tolerant-yes", "tolerant-no"):
        realization = family.removeprefix("tolerant-")
        return ViewOracle(
            n + 1,
            lambda pts: getattr(tolerant.sample_tolerant_view(pts, n, None, rng, calibration), realization)(),
        )
    if family in ("ptf-yes", "ptf-no"):
        flavor = family.removeprefix("ptf-")
        return ViewOracle(n, lambda pts: ptf.sample_ptf_labels(pts, n, 3, flavor, rng))
    if family == "halfspace":
        w = rng.generator().standard_normal(n)
        w /= np.linalg.norm(w)
        return BatchOracle(n, lambda pts: pts @ w <= 0.3)
    if family == "ball":
        return BatchOracle(n, lambda pts: np.einsum("ij,ij->i", pts, pts) <= n)
    if family == "ellipsoid":
        axes = 0.5 + rng.generator().random(n) * 1.5
        frame = sample_haar_frame(n, n, rng.child(1)).vectors
        return BatchOracle(n, lambda pts: ((pts @ frame.T) ** 2 * axes).sum(axis=1) <= n)
    raise DomainError(f"unknown instance family {family!r}")


def rejections(
    strategy_kind: str,
    family: str,
    n: int,
    budget: int,
    trials: int,
    rng: RngStream,
    calibration=None,
) -> int:
    """How many of `trials` runs of a baseline strategy reject a family.

    Run t draws its oracle from rng.child(2t) and its queries from
    rng.child(2t + 1).
    """
    if family not in INSTANCE_FAMILIES + CONVEX_FAMILIES:
        raise DomainError(f"unknown instance family {family!r}")
    return sum(map_units(_rejects, trials, rng, strategy_kind, family, n, budget, calibration))


def rejection_rate(
    strategy_kind: str,
    instance_family: str,
    n: int,
    budget: int,
    trials: int,
    rng: RngStream,
    calibration=None,
) -> ExperimentReport:
    """Rejection frequency of a baseline strategy against an instance family."""
    rejects = rejections(strategy_kind, instance_family, n, budget, trials, rng, calibration)
    report = ExperimentReport(
        "rejection-rate",
        {
            "strategy": strategy_kind,
            "family": instance_family,
            "n": n,
            "budget": budget,
            "trials": trials,
        },
        rng.seed,
    )
    report.add_rate("rejection_rate", rejects, trials)
    lo, hi = wilson_interval(rejects, trials)
    report.add_estimate("wilson_lower_99", lo)
    report.add_estimate("wilson_upper_99", hi)
    return report


def _rejects(rng: RngStream, t: int, strategy_kind, family, n, budget, calibration) -> bool:
    oracle = family_oracle(family, n, rng.child(2 * t), calibration)
    strategy = baseline_strategy(strategy_kind, budget, oracle.ambient_dim, rng.child(2 * t + 1))
    return run_one_sided(strategy, oracle, budget)[0].outcome == "reject"
