import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import homogeneity_pvalue, separated_by_direction_scan, two_proportion_z
from convexlab import adaptive, nazarov, ptf, tolerant
from convexlab import testers
from convexlab.errors import BudgetExceededError, DimensionMismatchError, DomainError, SolverError
from convexlab.experiments import ExperimentConfig, run_experiment
from convexlab.rng import RngStream
from convexlab.testers import (
    CONVEX_FAMILIES,
    HULL_TOL,
    INSTANCE_FAMILIES,
    BLOCK_COORDS,
    BLOCK_RUNS,
    BatchOracle,
    Cell,
    _certified_outside,
    _outside_mask,
    baseline_strategy,
    cell_rejections,
    certificate_valid,
    family_labels,
    family_oracle,
    in_convex_hull,
    rate_report,
    rejections,
    run_block,
    run_one_sided,
)


def _constant(d: int, label: int) -> BatchOracle:
    return BatchOracle(d, lambda pts: np.full(len(pts), label))


def _outside_disk(d: int, radius_sq: float) -> BatchOracle:
    return BatchOracle(d, lambda pts: np.einsum("ij,ij->i", pts, pts) >= radius_sq)


class TestConvexHull:
    def test_vertex_is_inside(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lam = in_convex_hull(points[0], points)
        assert lam is not None
        assert certificate_valid(points[0], points, lam)

    def test_midpoint_coefficients(self):
        points = np.array([[0.0, 0.0], [2.0, 2.0]])
        lam = in_convex_hull(np.array([1.0, 1.0]), points)
        assert lam is not None
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-6)

    def test_outside_square_infeasible_and_separated(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([2.0, 2.0])
        assert in_convex_hull(y, square) is None
        assert separated_by_direction_scan(y, square)

    def test_interior_point_not_separated(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([0.25, 0.75])
        assert in_convex_hull(y, square) is not None
        assert not separated_by_direction_scan(y, square)

    def test_certificate_check_returns_a_python_bool(self):
        # A plain bool, so that a verdict serializes with json.
        points = np.array([[0.0, 0.0], [2.0, 2.0]])
        y = np.array([1.0, 1.0])
        assert certificate_valid(y, points, [0.5, 0.5]) is True
        # Wrong length, a negative weight, weights off sum 1, a wrong point.
        for lam in ([0.5, 0.25, 0.25], [1.5, -0.5], [0.5, 0.4], [0.25, 0.75]):
            verdict = certificate_valid(y, points, lam)
            assert type(verdict) is bool and not verdict, lam

    def test_validation(self):
        with pytest.raises(DomainError):
            in_convex_hull(np.zeros(2), np.zeros((0, 2)))
        with pytest.raises(DomainError):
            in_convex_hull(np.zeros(2), np.zeros((3, 2)), tol=0.0)


class _CountingOracle:
    """Wraps an oracle and records the size of every labels call."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.ambient_dim = oracle.ambient_dim
        self.batches = []

    def labels(self, points):
        self.batches.append(len(points))
        return self.oracle.labels(points)


def _batches(*batches):
    """A strategy asking the given batches in order, then stopping."""
    pending = iter(batches)
    return lambda points, labels: next(pending, None)


class TestRunOneSided:
    def test_constant_one_oracle_accepts(self):
        strategy = baseline_strategy("hull-sampling", 10, 4, RngStream(1))
        verdict, points, labels = run_one_sided(strategy, _constant(4, 1), 10)
        assert verdict.outcome == "accept"
        assert points.shape == (10, 4) and labels.dtype == np.int8 and labels.tolist() == [1] * 10

    def test_planted_triple_rejects_with_certificate(self):
        segment = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        oracle = BatchOracle(2, lambda pts: ~np.isclose(pts, 0.0).all(axis=1))

        def strategy(points, labels):
            return None if len(points) else segment

        verdict, points, labels = run_one_sided(strategy, oracle, 3)
        assert verdict.outcome == "reject"
        cert = verdict.certificate
        assert cert is not None
        assert certificate_valid(cert.point, cert.support, cert.coefficients)
        assert oracle.labels(cert.point[None, :])[0] == 0

    def test_budget_enforced(self):
        def greedy(points, labels):
            return np.zeros((1, 2))

        with pytest.raises(BudgetExceededError):
            run_one_sided(greedy, _constant(2, 1), 3)

    def test_one_labels_call_per_batch(self):
        rows = RngStream(10).generator().standard_normal((6, 3))
        oracle = _CountingOracle(_outside_disk(3, 3.0))
        verdict, points, labels = run_one_sided(_batches(rows[:2], rows[2:5], rows[5:]), oracle, 6)
        assert oracle.batches == [2, 3, 1]
        np.testing.assert_array_equal(points, rows)
        np.testing.assert_array_equal(labels, oracle.oracle.labels(rows))

    def test_batch_past_budget_is_not_labelled(self):
        rows = np.zeros((4, 2))
        oracle = _CountingOracle(_constant(2, 1))
        with pytest.raises(BudgetExceededError):
            run_one_sided(_batches(rows), oracle, 3)
        assert oracle.batches == []
        with pytest.raises(BudgetExceededError):
            run_one_sided(_batches(rows[:2], rows[2:]), oracle, 3)
        assert oracle.batches == [2]

    def test_batch_of_wrong_width_rejected(self):
        oracle = _CountingOracle(_constant(3, 1))
        with pytest.raises(DimensionMismatchError):
            run_one_sided(_batches(np.zeros((2, 3)), np.zeros((1, 4))), oracle, 5)
        assert oracle.batches == [2]
        with pytest.raises(DimensionMismatchError):
            run_one_sided(_batches(np.zeros(3)), oracle, 5)

    def test_zero_rows_end_the_run(self):
        oracle = _CountingOracle(_constant(2, 1))
        strategy = _batches(np.ones((2, 2)), np.empty((0, 2)), np.ones((1, 2)))
        verdict, points, labels = run_one_sided(strategy, oracle, 10)
        assert oracle.batches == [2]
        assert verdict.outcome == "accept" and points.shape == (2, 2)

    def test_reject_is_monotone_under_prefix_replay(self):
        # Rebuilding the verdict on growing prefixes never flips reject->accept.
        strategy = baseline_strategy("hull-sampling", 40, 2, RngStream(9))
        verdict, points, labels = run_one_sided(strategy, _outside_disk(2, 0.5), 40)
        assert verdict.outcome == "reject"
        rejected = False
        for k in range(1, len(points) + 1):
            ones = points[:k][labels[:k] == 1]
            zeros = points[:k][labels[:k] == 0]
            hit = bool(len(ones) and any(_lp_hull(z, ones) is not None for z in zeros))
            assert not (rejected and not hit)
            rejected = rejected or hit
        assert rejected


class TestStrategies:
    def test_line_segment_counts(self):
        strategy = baseline_strategy("line-segment", 3, 5, RngStream(2))
        verdict, points, labels = run_one_sided(strategy, _constant(5, 1), 3)
        assert len(points) == 3
        x, y, mid = points
        np.testing.assert_allclose(mid, 0.5 * (x + y))

    def test_line_segment_accepts_halfspace(self):
        oracle = BatchOracle(6, lambda pts: pts[:, 0] <= 0.5)
        for seed in range(5):
            strategy = baseline_strategy("line-segment", 12, 6, RngStream(seed))
            verdict, _, _ = run_one_sided(strategy, oracle, 12)
            assert verdict.outcome == "accept"

    def test_hull_sampling_single_query_accepts(self):
        strategy = baseline_strategy("hull-sampling", 1, 3, RngStream(3))
        verdict, points, labels = run_one_sided(strategy, _constant(3, 0), 1)
        assert verdict.outcome == "accept" and len(points) == 1

    def test_hull_sampling_rejects_disk_complement(self):
        # Complement of the unit disk: 0-labels inside, 1-labels around.
        oracle = _outside_disk(2, 1.0)
        rejections = 0
        for seed in range(10):
            strategy = baseline_strategy("hull-sampling", 50, 2, RngStream(seed, 17))
            verdict, _, _ = run_one_sided(strategy, oracle, 50)
            rejections += verdict.outcome == "reject"
        assert rejections >= 5

    def test_baseline_strategy_validation(self):
        with pytest.raises(DomainError):
            baseline_strategy("unknown", 10, 2, RngStream(0))
        with pytest.raises(DomainError):
            baseline_strategy("line-segment", 2, 2, RngStream(0))

    def test_queries_follow_the_stream(self):
        # Each query is the next standard_normal(d) draw of the strategy's
        # stream; midpoints take no draw.
        d = 5
        verdict, points, labels = run_one_sided(
            baseline_strategy("line-segment", 6, d, RngStream(8)), _constant(d, 1), 6
        )
        gen = RngStream(8).generator()
        x1, y1, x2, y2 = (gen.standard_normal(d) for _ in range(4))
        expected = [x1, y1, 0.5 * (x1 + y1), x2, y2, 0.5 * (x2 + y2)]
        np.testing.assert_array_equal(points, np.vstack(expected))
        verdict, points, labels = run_one_sided(
            baseline_strategy("hull-sampling", 3, d, RngStream(8)), _constant(d, 1), 3
        )
        gen = RngStream(8).generator()
        np.testing.assert_array_equal(
            points, np.vstack([gen.standard_normal(d) for _ in range(3)])
        )

    def test_strategy_dimension_must_match_oracle(self):
        with pytest.raises(DimensionMismatchError):
            run_one_sided(baseline_strategy("hull-sampling", 2, 3, RngStream(0)), _constant(4, 1), 2)


def _certified_outside_row(y, points, tol) -> bool:
    """The centroid margin test of one 0-query: iterate 0 of _outside_mask,
    so the pass marks every row this marks."""
    u = y - points.mean(axis=0)
    norm1 = np.abs(u).sum()
    return bool(norm1 > 0 and float(u @ y - (points @ u).max()) > tol * norm1)


def _feasibility_hull(y, points, tol=HULL_TOL):
    """The hull LP in its feasibility form: lam >= 0, sum lam = 1 and
    |points^T lam - y|_inf <= 0.9 tol, or None when infeasible.  It stalls
    on targets at the midpoint of two support rows in high dimension, which
    is why the runner no longer uses it; it stays here as the reference
    that the min-t LP must agree with."""
    from scipy.optimize import linprog

    m = points.shape[0]
    inner = 0.9 * tol
    res = linprog(
        c=np.zeros(m),
        A_ub=np.vstack([points.T, -points.T]),
        b_ub=np.concatenate([y + inner, inner - y]),
        A_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "time_limit": 20.0},
    )
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else res.x


def _lp_hull(y, points, tol=HULL_TOL):
    """The hull LP in its min-t form: minimise t subject to
    |points^T lam - y|_inf <= t, sum lam = 1, lam >= 0; y is inside when
    t* <= 0.9 tol, and the coefficients then pass certificate_valid at tol.
    Every convex combination is feasible, yet HiGHS can run for minutes on a
    target just outside a 2- or 3-row face in high dimension.  It shares no
    code with in_convex_hull and is the reference its verdicts must equal."""
    from scipy.optimize import linprog

    m, d = points.shape
    ones = np.ones((d, 1))
    res = linprog(
        c=np.concatenate([np.zeros(m), [1.0]]),
        A_ub=np.block([[points.T, -ones], [-points.T, -ones]]),
        b_ub=np.concatenate([y, -y]),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None, :],
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": max(1e-10, min(1e-7, tol * 1e-2)), "time_limit": 20.0},
    )
    assert res.status == 0, res.message
    if res.x[-1] > 0.9 * tol:
        return None
    assert certificate_valid(y, points, res.x[:-1], tol)
    return res.x[:-1]


def _near_hull_rows(support, gen, tol):
    """Rows within 0.5 tol (sup norm) of the hull of `support`: interior
    convex combinations, vertices and midpoints, each moved by a random
    offset, and vertices pushed 0.5 tol outward along a direction the
    vertex maximises, so that they lie just outside the hull."""
    m, d = support.shape
    rows = [gen.dirichlet(np.ones(m), 8) @ support, support[:4], 0.5 * (support[:4] + support[4:8])]
    rows = [r + gen.uniform(-0.5 * tol, 0.5 * tol, r.shape) for r in rows]
    w = gen.standard_normal((8, d))
    tops = support[(support @ w.T).argmax(axis=0)]
    rows.append(tops + 0.5 * tol * w / np.abs(w).max(axis=1, keepdims=True))
    return np.vstack(rows)


class TestPrefilter:
    @staticmethod
    def _assert_covers_rows(zeros, support):
        mask = _outside_mask(zeros, support, HULL_TOL)
        centroid = [_certified_outside_row(y, support, HULL_TOL) for y in zeros]
        assert mask.dtype == bool and mask.shape == (len(zeros),)
        assert not (np.array(centroid, dtype=bool) & ~mask).any()
        assert [_certified_outside(y, support, HULL_TOL) for y in zeros] == mask.tolist()
        return mask

    def test_marks_every_row_the_centroid_marks(self):
        gen = RngStream(920).generator()
        skips = 0
        for m, z, d in [(1, 5, 3), (2, 7, 2), (5, 9, 4), (12, 20, 6), (30, 30, 8), (40, 10, 40)]:
            support = gen.standard_normal((m, d))
            zeros = np.vstack([gen.standard_normal((z, d)), 0.3 * gen.standard_normal((z, d))])
            skips += int(self._assert_covers_rows(zeros, support).sum())
        assert 0 < skips < 160

    def test_edge_cases(self):
        gen = RngStream(921).generator()
        support = gen.standard_normal((6, 4))
        centroid = support.mean(axis=0)
        # one support row, y equal to a support row, y at the centroid
        # (u = 0, so the direction test is skipped), zero 0-queries.
        self._assert_covers_rows(np.vstack([support[0], support[0] + 1e-3]), support[:1])
        self._assert_covers_rows(support[[2, 4]], support)
        self._assert_covers_rows(centroid[None, :], support)
        assert not _outside_mask(centroid[None, :], support, HULL_TOL)[0]
        empty = _outside_mask(np.empty((0, 4)), support, HULL_TOL)
        assert empty.shape == (0,)

    def test_rows_within_half_tol_never_marked(self):
        gen = RngStream(930).generator()
        for m, d in [(8, 2), (8, 3), (12, 6), (40, 8), (200, 16), (9, 40)]:
            support = gen.standard_normal((m, d))
            rows = _near_hull_rows(support, gen, HULL_TOL)
            assert not _outside_mask(rows, support, HULL_TOL).any(), (m, d)

    def test_separates_rows_just_beyond_a_vertex(self):
        # Vertices pushed 2 tol outward along a direction the vertex
        # maximises.  The centroid misses most of them; a Gilbert step to
        # the vertex itself (the step length clipped at 1) separates them.
        gen = RngStream(935).generator()
        kept = separated = 0
        for m, d in [(8, 2), (8, 3), (12, 6), (40, 8), (200, 16), (9, 40)]:
            support = gen.standard_normal((m, d))
            w = gen.standard_normal((200, d))
            w /= np.abs(w).max(axis=1, keepdims=True)
            rows = support[(support @ w.T).argmax(axis=0)] + 2 * HULL_TOL * w
            rows = rows[[not _certified_outside_row(y, support, HULL_TOL) for y in rows]]
            kept += len(rows)
            separated += int(_outside_mask(rows, support, HULL_TOL).sum())
        assert kept > 400 and separated > 0.8 * kept

    def test_marked_rows_are_outside_by_the_lp(self):
        # Interior convex combinations, and rows up to 10 % beyond the
        # hull's supporting hyperplane in a random direction, where the
        # centroid misses many and the Gilbert steps decide the rest.
        gen = RngStream(934).generator()
        for m, d in [(8, 2), (12, 6), (40, 8), (9, 40)]:
            support = gen.standard_normal((m, d))
            w = gen.standard_normal((60, d))
            reach = (support @ w.T).max(axis=0) / np.einsum("ij,ij->i", w, w)
            far = gen.uniform(1.0, 1.1, 60)[:, None] * reach[:, None] * w
            rows = np.vstack([gen.dirichlet(np.ones(m), 20) @ support, far])
            mask = self._assert_covers_rows(rows, support)
            assert not mask[:20].any() and mask[20:].any(), (m, d)
            assert all(_lp_hull(y, support) is None for y in rows[mask]), (m, d)

    def test_separates_far_rows_the_centroid_keeps(self):
        # Rows just beyond the hull in a random direction: the centroid
        # test misses many of them, a few Gilbert steps separate them, and
        # every separated row is outside by the LP.
        gen = RngStream(931).generator()
        support = gen.standard_normal((60, 6))
        w = gen.standard_normal((200, 6))
        reach = (support @ w.T).max(axis=0) / np.einsum("ij,ij->i", w, w)
        rows = 1.05 * reach[:, None] * w
        kept = rows[[not _certified_outside_row(y, support, HULL_TOL) for y in rows]]
        separated = _outside_mask(kept, support, HULL_TOL)
        assert len(kept) > 20 and separated.mean() > 0.8
        assert all(_feasibility_hull(y, support) is None for y in kept[separated])

    def test_exact_stage_not_called_when_every_row_separates(self, monkeypatch):
        def fail(*args):
            raise AssertionError("exact hull stage ran on a separated row")

        monkeypatch.setattr(testers, "in_convex_hull", fail)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 5.0], [1.5, 0.5]])
        oracle = BatchOracle(2, lambda pts: pts.max(axis=1) <= 1.0)
        verdict, _, labels = run_one_sided(_batches(square), oracle, 6)
        assert verdict.outcome == "accept" and labels.tolist() == [1, 1, 1, 1, 0, 0]


class TestMidpoint:
    def test_planted_midpoint_certified(self):
        gen = RngStream(932).generator()
        support = gen.standard_normal((300, 20))
        for i, j in [(0, 1), (7, 250), (299, 3), (5, 5)]:
            y = 0.5 * (support[i] + support[j])
            lam = in_convex_hull(y, support, HULL_TOL)
            assert lam is not None and certificate_valid(y, support, lam, 0.9 * HULL_TOL)

    def test_decoy_rows_decided_as_the_reference(self):
        # Each decoy row agrees with 2y - p_i on the coordinate the rows
        # spread most along and nowhere else; a pair's midpoint moved by 0.4
        # tol stays inside, by 3 tol in every coordinate it is outside.
        gen = RngStream(933).generator()
        support = gen.standard_normal((50, 5))
        support[:, 0] *= 10.0
        y = support.mean(axis=0) + 0.1 * gen.standard_normal(5)
        decoys = gen.standard_normal((6, 5))
        decoys[:, 0] = 2.0 * y[0] - support[:6, 0]
        rows = np.vstack([support, decoys])
        middle = 0.5 * (rows[2] + rows[-4])
        far = rows[(rows @ np.ones(5)).argmax()] + 3.0 * HULL_TOL
        for target in (y, middle + 0.4 * HULL_TOL, far):
            lam = in_convex_hull(target, rows)
            assert (lam is None) == (_lp_hull(target, rows) is None)
            assert lam is None or certificate_valid(target, rows, lam)
        assert in_convex_hull(middle + 0.4 * HULL_TOL, rows) is not None
        assert in_convex_hull(far, rows) is None

    def test_interior_non_midpoints_certified(self):
        gen = RngStream(934).generator()
        support = gen.standard_normal((40, 4))
        y = gen.dirichlet(np.ones(40)) @ support
        lam = in_convex_hull(y, support)
        assert lam is not None and certificate_valid(y, support, lam)

    @pytest.mark.parametrize("d", [64, 128])
    def test_midpoint_targets_where_the_feasibility_lp_stalls(self, d):
        # The feasibility form ran past 20 s at these shapes.
        support = RngStream(935, d).generator().standard_normal((800, d))
        y = 0.5 * (support[3] + support[17])
        start = time.perf_counter()
        lam = in_convex_hull(y, support)
        assert time.perf_counter() - start < 1.0
        assert lam is not None and certificate_valid(y, support, lam)


class TestMinTLP:
    def test_agrees_with_the_feasibility_form(self):
        gen = RngStream(936).generator()
        inside = 0
        for m, d in [(3, 2), (5, 3), (8, 4), (20, 5), (12, 8), (30, 6)]:
            support = gen.standard_normal((m, d))
            targets = np.vstack([
                gen.dirichlet(np.ones(m), 3) @ support,
                0.5 * (support[0] + support[1]),
                support[2] if m > 2 else support[0],
                3.0 * gen.standard_normal((3, d)),
                support.mean(axis=0) + 2.0 * (support[0] - support.mean(axis=0)),
            ])
            for y in targets:
                ref = _lp_hull(y, support)
                assert (ref is None) == (_feasibility_hull(y, support) is None), (m, d, y)
                lam = in_convex_hull(y, support)
                assert (lam is None) == (ref is None), (m, d, y)
                if lam is not None:
                    inside += 1
                    assert certificate_valid(y, support, lam)
        assert 30 <= inside < 54

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        points = np.eye(3)
        y = np.full(3, 1.0 / 3.0)
        with pytest.raises(DomainError, match="finite"):
            in_convex_hull(np.array([bad, 0.0, 0.0]), points)
        with pytest.raises(DomainError, match="finite"):
            in_convex_hull(y, np.vstack([points, [0.0, bad, 0.0]]))
        oracle = _CountingOracle(_constant(3, 1))
        with pytest.raises(DomainError, match="finite"):
            run_one_sided(_batches(points, np.array([[bad, 0.0, 0.0]])), oracle, 10)
        assert oracle.batches == [3]


def _face_target(d, m, k, offset, rng):
    """m Gaussian rows in R^d whose first k are lifted along a random unit
    normal w onto a hyperplane 0.01 above the others, so that they span a
    face; returns the rows, the face centroid moved `offset` along w, and
    w.  The centroid is the hull point nearest the target."""
    gen = rng.generator()
    rows = gen.standard_normal((m, d))
    w = gen.standard_normal(d)
    w /= np.linalg.norm(w)
    rows[:k] += ((rows[k:] @ w).max() + 0.01 - rows[:k] @ w)[:, None] * w
    return rows, rows[:k].mean(axis=0) + offset * w, w


class TestWolfe:
    @pytest.mark.parametrize("d, m", [(2, 12), (4, 700), (16, 1500), (64, 800), (128, 3000)])
    def test_agrees_with_the_lp_reference(self, d, m):
        # Interior, vertex and midpoint targets, a midpoint moved 1e-7 in a
        # random direction (near an edge) and a far point.  A vertex pushed
        # 0.5 tol outward along a direction it maximises is inside at 0.9 tol
        # by construction; the LP stalls on it from d = 64 on.
        gen = RngStream(940, d).generator()
        support = gen.standard_normal((m, d))
        w = gen.standard_normal(d)
        top = support[(support @ w).argmax()]
        targets = [
            gen.dirichlet(np.ones(m)) @ support,
            support[5],
            0.5 * (support[1] + support[2]),
            0.5 * (support[1] + support[2]) + 1e-7 * gen.standard_normal(d),
            3.0 * top - 2.0 * support.mean(axis=0),
        ]
        verdicts = []
        for y in targets:
            lam = in_convex_hull(y, support)
            assert (lam is None) == (_lp_hull(y, support) is None), (d, m, len(verdicts))
            assert lam is None or certificate_valid(y, support, lam, 0.9 * HULL_TOL)
            verdicts.append(lam is not None)
        assert verdicts[:3] == [True] * 3 and not verdicts[4]
        pushed = top + 0.5 * HULL_TOL * w / np.abs(w).max()
        lam = in_convex_hull(pushed, support)
        assert lam is not None and certificate_valid(pushed, support, lam, 0.9 * HULL_TOL)

    @pytest.mark.parametrize("k", [2, 3])
    def test_near_face_targets_where_the_min_t_lp_stalls(self, k):
        # 2e-8 outside a k-row face at (64, 800): the min-t LP ran to its
        # 30 s limit here; the nearest point is certified within 0.9 tol.
        rows, y, _ = _face_target(64, 800, k, 2e-8, RngStream(6))
        start = time.perf_counter()
        lam = in_convex_hull(y, rows)
        assert time.perf_counter() - start < 1.0
        assert lam is not None and certificate_valid(y, rows, lam, 0.9 * HULL_TOL)

    def test_collinear_triples_and_repeated_rows(self):
        # Supports as line-segment asks them, each pair followed by its
        # midpoint (affinely dependent active sets), and with every row
        # repeated three times.
        gen = RngStream(941).generator()
        for d in (2, 5, 24):
            ends = gen.standard_normal((20, 2, d))
            triples = np.concatenate([ends, ends.mean(axis=1, keepdims=True)], axis=1).reshape(-1, d)
            a, b = ends[0]
            w = gen.standard_normal(d)
            top = triples[(triples @ w).argmax()]
            targets = [
                0.25 * a + 0.75 * b,
                triples[3],
                triples.mean(axis=0),
                top + 0.5 * HULL_TOL * w / np.abs(w).max(),
                top + 1e-3 * w,
            ]
            for support in (triples, np.repeat(triples, 3, axis=0)):
                for y in targets:
                    lam = in_convex_hull(y, support)
                    assert (lam is None) == (_lp_hull(y, support) is None), d
                    assert lam is None or certificate_valid(y, support, lam, 0.9 * HULL_TOL)
                assert in_convex_hull(targets[-1], support) is None

    def test_undecided_band_raises(self):
        # One row 0.95 tol from the target in one coordinate: more than 0.9
        # tol away in sup norm, yet within the margin tol |u|_1 of the
        # separation test.  0.5 tol is inside, 1.5 tol outside.
        row = RngStream(942).generator().standard_normal((1, 6))
        for offset, inside in ((0.5, True), (1.5, False)):
            y = row[0] + offset * HULL_TOL * np.eye(6)[2]
            assert (in_convex_hull(y, row) is not None) == inside
        with pytest.raises(SolverError, match="undecided"):
            in_convex_hull(row[0] + 0.95 * HULL_TOL * np.eye(6)[2], row)
        # The same band beyond a 3-row face at (64, 800), reached only at the
        # nearest point: offsets just inside it and beyond it decide.
        rows, _, w = _face_target(64, 800, 3, 0.0, RngStream(6))
        centroid = rows[:3].mean(axis=0)
        low, high = 0.9 * HULL_TOL / np.abs(w).max(), HULL_TOL * np.abs(w).sum()
        assert 2.0 * low < high
        assert in_convex_hull(centroid + 0.9 * low * w, rows) is not None
        assert in_convex_hull(centroid + 1.1 * high * w, rows) is None
        with pytest.raises(SolverError, match="undecided"):
            in_convex_hull(centroid + 0.5 * (low + high) * w, rows)

    def test_iteration_cap_raises(self, monkeypatch):
        gen = RngStream(937).generator()
        support = gen.standard_normal((200, 20))
        targets = [gen.dirichlet(np.full(200, 0.05)) @ support for _ in range(4)]
        assert all(in_convex_hull(y, support) is not None for y in targets)
        monkeypatch.setattr(testers, "WOLFE_CYCLES", 1)
        with pytest.raises(SolverError, match="major cycles"):
            for y in targets:
                in_convex_hull(y, support)


def _per_prefix_verdict(points, labels) -> str:
    """The rule checked after every query: reject at the first prefix in which
    a 0-query lies in the hull of that prefix's 1-queries.  A new 0-query is
    tested against the 1-queries so far, a new 1-query re-tests every 0-query.
    """
    zeros, ones = [], []
    for point, label in zip(points, labels):
        (ones if label else zeros).append(point)
        fresh = zeros if label else [point]
        if not ones:
            continue
        support = np.vstack(ones)
        for y in fresh:
            if not _certified_outside_row(y, support, HULL_TOL) and _lp_hull(y, support) is not None:
                return "reject"
    return "accept"


# Oracle builders (rng -> oracle): the instance families at n = 4, the other
# convex families in R^4, and two nonconvex sets in R^2 and R^3 that both
# strategies reject on almost every run.
PIN_ORACLES = {
    "adaptive": lambda rng: adaptive.sample_adaptive_instance(4, None, rng),
    "tolerant-yes": lambda rng: tolerant.sample_tolerant_instance(4, None, rng, 0.35).yes,
    "tolerant-no": lambda rng: tolerant.sample_tolerant_instance(4, None, rng, 0.35).no,
    "ptf-yes": lambda rng: ptf.sample_ptf_instance(4, 3, ptf.DEFAULT_CLIP, "yes", rng),
    "ptf-no": lambda rng: ptf.sample_ptf_instance(4, 3, ptf.DEFAULT_CLIP, "no", rng),
    **{
        f"control-{name}": (lambda rng, name=name: family_oracle(name, 4, rng))
        for name in CONVEX_FAMILIES
        if name not in INSTANCE_FAMILIES
    },
    "disk-complement": lambda rng: _outside_disk(2, 1.0),
    "spherical-shell": lambda rng: BatchOracle(
        3, lambda pts: np.abs(np.einsum("ij,ij->i", pts, pts) - 3.0) <= 1.5
    ),
}


class TestLeafVerdict:
    @pytest.mark.parametrize("name", list(PIN_ORACLES))
    def test_leaf_verdict_equals_per_prefix_rule(self, name):
        rejects = 0
        for kind in ("line-segment", "hull-sampling"):
            for seed in range(50):
                oracle = PIN_ORACLES[name](RngStream(900, seed))
                strategy = baseline_strategy(kind, 24, oracle.ambient_dim, RngStream(901, seed))
                verdict, points, labels = run_one_sided(strategy, oracle, 24)
                assert verdict.outcome == _per_prefix_verdict(points, labels), (kind, seed)
                if verdict.outcome == "accept":
                    continue
                rejects += 1
                cert = verdict.certificate
                assert any(np.array_equal(cert.point, z) for z in points[labels == 0])
                np.testing.assert_array_equal(cert.support, points[labels == 1])
                assert certificate_valid(cert.point, cert.support, cert.coefficients)
        if name.removeprefix("control-") in CONVEX_FAMILIES:
            assert rejects == 0
        if name in ("disk-complement", "spherical-shell"):
            assert rejects >= 90

    def test_history_carries_the_labels_as_answered(self):
        # An adaptive strategy: it asks each pair (x, y) as one batch, then
        # the midpoint only if both ends came back labeled 1.
        oracle = _CountingOracle(_outside_disk(2, 1.0))
        ends = 1.5 * RngStream(902).generator().standard_normal((20, 2, 2))
        state = {"pair": 0, "pending": False}

        def strategy(points, labels):
            if state["pending"]:
                state["pending"] = False
                if (labels[-2:] == 1).all():
                    return 0.5 * (points[-2] + points[-1])[None, :]
            if state["pair"] == len(ends):
                return None
            state["pair"] += 1
            state["pending"] = True
            return ends[state["pair"] - 1]

        verdict, points, labels = run_one_sided(strategy, oracle, 60)
        truth = oracle.oracle.labels(ends.reshape(-1, 2)).reshape(20, 2)
        expected, batches = [], []
        for (x, y), (x_label, y_label) in zip(ends, truth):
            both = x_label == y_label == 1
            expected += [x, y] + ([0.5 * (x + y)] if both else [])
            batches += [2] + ([1] if both else [])
        assert 0 < len(expected) - 40 < 20
        np.testing.assert_array_equal(points, np.vstack(expected))
        assert oracle.batches == batches
        assert verdict.outcome == _per_prefix_verdict(points, labels) == "reject"


class TestRejectionRate:
    def test_ptf_yes_never_rejects(self):
        count = rejections("hull-sampling", "ptf-yes", 16, 12, 40, RngStream(71))
        report = rate_report(Cell("hull-sampling", "ptf-yes", 16, 12, 40), count, 71)
        assert report.value("rejection_rate") == 0.0

    def test_tolerant_yes_rate_recorded_not_asserted(self, calibration_small):
        count = rejections("hull-sampling", "tolerant-yes", 16, 12, 30, RngStream(72), calibration_small)
        report = rate_report(Cell("hull-sampling", "tolerant-yes", 16, 12, 30), count, 72)
        assert 0.0 <= report.value("rejection_rate") <= 1.0
        assert not report.assertions  # measured only

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            rejections("hull-sampling", "mystery", 8, 6, 5, RngStream(0))
        with pytest.raises(DomainError):
            cell_rejections([Cell("hull-sampling", "mystery", 8, 6, 5)], RngStream(0))

    def test_rate_is_the_rejection_count_over_trials(self):
        count = rejections("line-segment", "adaptive", 4, 60, 40, RngStream(73))
        report = rate_report(Cell("line-segment", "adaptive", 4, 60, 40), count, 73)
        assert 0 < count < 40
        assert report.value("rejection_rate") == count / 40
        assert report.parameters == {
            "strategy": "line-segment", "family": "adaptive", "n": 4, "budget": 60, "trials": 40,
        }
        lo, hi = report.value("wilson_lower_99"), report.value("wilson_upper_99")
        assert lo <= count / 40 <= hi

    @pytest.mark.parametrize("family", CONVEX_FAMILIES)
    def test_convex_families_never_rejected(self, family):
        for kind in ("line-segment", "hull-sampling"):
            assert rejections(kind, family, 6, 24, 20, RngStream(74)) == 0

    def test_cells_draw_the_streams_of_their_paths(self):
        rng = RngStream(75)
        cells = [
            Cell("line-segment", "adaptive", 4, 60, 30, (0, 1)),
            Cell("hull-sampling", "ball", 4, 12, 0, (2,)),
            Cell("line-segment", "adaptive", 4, 60, 25, (3,)),
            Cell("hull-sampling", "adaptive", 4, 60, 20),
        ]
        expected = [
            rejections("line-segment", "adaptive", 4, 60, 30, rng.child(0).child(1)),
            0,
            rejections("line-segment", "adaptive", 4, 60, 25, rng.child(3)),
            rejections("hull-sampling", "adaptive", 4, 60, 20, rng),
        ]
        assert cell_rejections(cells, rng) == expected
        assert expected[0] > 0 and expected[2] > 0

    # The tester-loop sizes: soundness has 8 cells at 600 coordinates a run,
    # so 32-run blocks, 4 per cell.  rejection-rates runs adaptive budgets 4,
    # 16 and 64 at d = 128 (32, 16 and 4 runs a block), and at budget 30 ptf
    # (d = 64) at 17 and tolerant (d = 65) at 16 runs a block.
    BLOCKS = {
        "soundness": (20, 30, 100, 32),
        "rejection-rates": (64, None, 60, 2 + 4 + 15 + 4 + 4 + 4 + 4),
    }

    @pytest.mark.parametrize("name", ["soundness", "rejection-rates"])
    def test_one_map_units_call_per_run(self, monkeypatch, name):
        n, q, trials, blocks = self.BLOCKS[name]
        calls = []
        original = testers.map_units

        def counting(fn, n_units, *args):
            calls.append(n_units)
            return original(fn, n_units, *args)

        monkeypatch.setattr(testers, "map_units", counting)
        overrides = {"c0_hat": 0.35} if name == "rejection-rates" else {}
        config = ExperimentConfig(name, seed=3, n=n, q=q, trials=trials, overrides=overrides)
        assert run_experiment(config).all_passed()
        assert calls == [blocks]

    def test_tester_loop_sizes_leave_the_lp_solver_unloaded(self):
        # The soundness and rejection-rates runs of the benchmark's
        # tester-loop workload load no LP solver.
        script = (
            "import sys\n"
            "from convexlab.experiments import ExperimentConfig, run_experiment\n"
            "runs = [('soundness', 20, 30, 100, {}), ('rejection-rates', 64, None, 60, {'c0_hat': 0.35})]\n"
            "for name, n, q, trials, overrides in runs:\n"
            "    for seed in (1, 2):\n"
            "        config = ExperimentConfig(name, seed=seed, n=n, q=q, trials=trials, overrides=overrides)\n"
            "        assert run_experiment(config).all_passed(), (name, seed)\n"
            "assert 'scipy.optimize' not in sys.modules, 'an LP solver was loaded'\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestBlocks:
    """A unit of cell_rejections is a block of runs of one cell."""

    @pytest.mark.parametrize(
        "cell",
        [
            Cell("line-segment", "adaptive", 4, 60, 32),
            Cell("hull-sampling", "adaptive", 4, 64, 32),
            Cell("line-segment", "ptf-no", 4, 300, 12),
            Cell("hull-sampling", "tolerant-no", 16, 30, 8),
            Cell("line-segment", "ellipsoid", 6, 24, 8),
            Cell("hull-sampling", "halfspace", 6, 24, 8),
            Cell("hull-sampling", "ball", 6, 24, 8),
        ],
        ids=lambda cell: f"{cell.strategy_kind}-{cell.family}",
    )
    def test_each_run_is_run_one_sided_on_its_queries_and_labels(self, cell):
        rejects = 0
        for seed in range(4):
            verdicts, queries, labels = run_block(cell, cell.trials, RngStream(920, seed), 0.35)
            assert queries.shape == (cell.trials, queries.shape[1], cell.ambient_dim)
            assert labels.shape == queries.shape[:2] and labels.dtype == np.int8
            for verdict, points, ys in zip(verdicts, queries, labels):
                oracle = BatchOracle(cell.ambient_dim, lambda pts, ys=ys: ys)
                reference = run_one_sided(_batches(points), oracle, cell.budget)[0]
                assert verdict.outcome == reference.outcome
                rejects += verdict.outcome == "reject"
                if verdict.certificate is not None:
                    for field in ("point", "support", "coefficients"):
                        np.testing.assert_array_equal(
                            getattr(verdict.certificate, field), getattr(reference.certificate, field)
                        )
        if cell.strategy_kind == "line-segment" and cell.family in ("adaptive", "ptf-no"):
            assert rejects > 0
        if cell.family in CONVEX_FAMILIES:
            assert rejects == 0

    def test_blocks_respect_the_coordinate_cap(self, monkeypatch):
        monkeypatch.setenv("CONVEXLAB_WORKERS", "1")  # the recorder below runs in this process
        for family in INSTANCE_FAMILIES + CONVEX_FAMILIES:
            for n in (4, 20, 64, 300):
                for budget in (3, 30, 64, 1500):
                    cell = Cell("hull-sampling", family, n, budget, 1)
                    coords = budget * cell.ambient_dim
                    assert 1 <= cell.block <= BLOCK_RUNS
                    assert cell.block * coords <= BLOCK_COORDS or cell.block == 1
                    assert cell.block == BLOCK_RUNS or (cell.block + 1) * coords > BLOCK_COORDS
        seen = []
        original = testers.run_block

        def recording(cell, runs, rng, c0_hat=None):
            seen.append((cell, runs))
            return original(cell, runs, rng, c0_hat)

        monkeypatch.setattr(testers, "run_block", recording)
        cells = [
            Cell("hull-sampling", "ball", 8, 30, 200),         # 32 runs a block
            Cell("hull-sampling", "adaptive", 64, 64, 9),      # 4: the cap binds
            Cell("line-segment", "halfspace", 40, 1500, 3),    # 1: one run is past the cap
            Cell("hull-sampling", "ptf-yes", 8, 12, 0),
        ]
        cell_rejections(cells, RngStream(921))
        for cell in cells:
            runs = [r for c, r in seen if c == cell]
            assert sum(runs) == cell.trials
            assert all(r <= cell.block for r in runs) and runs[:-1] == [cell.block] * (len(runs) - 1)
            assert all(r * cell.budget * cell.ambient_dim <= BLOCK_COORDS or r == 1 for r in runs)
        assert [r for c, r in seen if c == cells[2]] == [1, 1, 1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_block_j_draws_from_child_j_at_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setenv("CONVEXLAB_WORKERS", workers)
        rng = RngStream(922)
        cells = [Cell("line-segment", "adaptive", 4, 60, 69, (1,)), Cell("line-segment", "ptf-no", 4, 300, 48)]
        expected = []
        for cell, stream in zip(cells, (rng.child(1), rng)):
            assert cell.block < cell.trials
            expected.append(sum(
                v.outcome == "reject"
                for j in range(-(-cell.trials // cell.block))
                for v in run_block(cell, min(cell.block, cell.trials - j * cell.block), stream.child(j))[0]
            ))
        assert cell_rejections(cells, rng) == expected
        assert all(count > 0 for count in expected)


# Materialized draws of each instance family: the reference for its view oracle.
MATERIALIZED = {
    "adaptive": lambda n, rng: adaptive.sample_adaptive_instance(n, None, rng),
    "tolerant-yes": lambda n, rng: tolerant.sample_tolerant_instance(n, None, rng, 0.35).yes,
    "tolerant-no": lambda n, rng: tolerant.sample_tolerant_instance(n, None, rng, 0.35).no,
    "ptf-yes": lambda n, rng: ptf.sample_ptf_instance(n, 3, ptf.DEFAULT_CLIP, "yes", rng),
    "ptf-no": lambda n, rng: ptf.sample_ptf_instance(n, 3, ptf.DEFAULT_CLIP, "no", rng),
}


def _mixed_batch(d: int, rng: RngStream) -> np.ndarray:
    """Two rows inside the ball of radius sqrt(d) that every family's
    construction lives in, and two outside it (still inside the PTF clip).
    The labels of every family vary from draw to draw, and at most two
    adaptive rows meet the normals, so the batch sees how their products
    are drawn."""
    radii = np.array([0.6, 0.9, 1.1, 1.4]) * np.sqrt(d)
    dirs = rng.generator().standard_normal((radii.size, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]


class TestViewOracles:
    @pytest.mark.parametrize("family, n", [(family, n) for family in INSTANCE_FAMILIES for n in (4, 8)])
    def test_view_labels_match_materialized(self, family, n):
        # Chi-square homogeneity of the label vectors of one fixed batch:
        # answered by a one-run oracle, and as the last run of a three-run
        # block whose other runs ask batches of their own first.
        trials = 2500
        d = MATERIALIZED[family](n, RngStream(0)).ambient_dim
        batch = _mixed_batch(d, RngStream(910))
        lazy = [tuple(family_oracle(family, n, RngStream(911, t), 0.35).labels(batch)) for t in range(trials)]
        blocked = []
        for t in range(trials):
            stack = np.stack([_mixed_batch(d, RngStream(917, 2 * t)), _mixed_batch(d, RngStream(917, 2 * t + 1)), batch])
            blocked.append(tuple(family_labels(family, n, 3, RngStream(918, t), 0.35)(stack)[2]))
        dense = [tuple(MATERIALIZED[family](n, RngStream(912, t)).labels(batch)) for t in range(trials)]
        assert len(set(dense)) >= 3
        assert homogeneity_pvalue(lazy, dense) > 1e-3
        assert homogeneity_pvalue(blocked, dense) > 1e-3

    def test_rejections_match_materialized(self):
        trials = 600
        lazy = rejections("line-segment", "adaptive", 4, 60, trials, RngStream(913))
        dense = 0
        for t in range(trials):
            inst = adaptive.sample_adaptive_instance(4, None, RngStream(914, 2 * t))
            strategy = baseline_strategy("line-segment", 60, 8, RngStream(914, 2 * t + 1))
            dense += run_one_sided(strategy, inst, 60)[0].outcome == "reject"
        assert lazy > 0 and dense > 0
        assert abs(two_proportion_z(lazy, trials, dense, trials)) < 3.29

    @pytest.mark.parametrize("family", INSTANCE_FAMILIES)
    def test_view_oracle_answers_one_batch(self, family):
        oracle = family_oracle(family, 4, RngStream(915), 0.35)
        rows = np.zeros((2, oracle.ambient_dim))
        with pytest.raises(DimensionMismatchError):
            oracle.labels(np.zeros((2, oracle.ambient_dim + 1)))
        assert oracle.labels(rows).shape == (2,)
        with pytest.raises(DomainError, match="one batch"):
            oracle.labels(rows)
        two_batches = _batches(rows[:1], rows[1:])
        with pytest.raises(DomainError, match="one batch"):
            run_one_sided(two_batches, family_oracle(family, 4, RngStream(916), 0.35), 2)


def _adaptive8():
    return adaptive.sample_adaptive_instance(8, None, RngStream(41))


def _tolerant16():
    return tolerant.sample_tolerant_instance(16, None, RngStream(42), 0.35)


PROTOCOL_IMPLEMENTERS = {
    "adaptive": _adaptive8,
    "tolerant-yes": lambda: _tolerant16().yes,
    "tolerant-no": lambda: _tolerant16().no,
    "ptf-yes": lambda: ptf.sample_ptf_instance(8, 3, ptf.DEFAULT_CLIP, "yes", RngStream(43)),
    "ptf-no": lambda: ptf.sample_ptf_instance(8, 3, ptf.DEFAULT_CLIP, "no", RngStream(43)),
    "body": lambda: nazarov.sample_body(8, 16, nazarov.solve_r_half(8, 16), RngStream(44)),
    "convexified-adaptive": lambda: adaptive.convexified_oracle(_adaptive8()),
    **{
        f"control-{name}": (lambda name=name: family_oracle(name, 6, RngStream(45)))
        for name in CONVEX_FAMILIES
        if name not in INSTANCE_FAMILIES
    },
}


class TestOracleProtocol:
    @pytest.mark.parametrize("name", list(PROTOCOL_IMPLEMENTERS))
    def test_labels_contract(self, name):
        oracle = PROTOCOL_IMPLEMENTERS[name]()
        d = oracle.ambient_dim
        pts = RngStream(46).generator().standard_normal((60, d))
        batch = oracle.labels(pts)
        assert batch.dtype == np.int8 and batch.shape == (60,)
        assert set(np.unique(batch).tolist()) <= {0, 1}
        for i in range(pts.shape[0]):
            single = oracle.labels(pts[i : i + 1])
            assert single.dtype == np.int8 and single.shape == (1,)
            assert single[0] == batch[i]
        with pytest.raises(DimensionMismatchError):
            oracle.labels(np.zeros((3, d + 1)))
