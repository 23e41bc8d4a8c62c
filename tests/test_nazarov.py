import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import bisect_quantile, homogeneity_pvalue, two_proportion_z
from convexlab import experiments, nazarov, parallel
from convexlab.errors import DimensionMismatchError, DomainError, ResourceLimitError
from convexlab.experiments import ExperimentConfig, run_experiment
from convexlab.gauss import std_normal_cdf
from convexlab.nazarov import (
    NazarovBody,
    PointKind,
    _count_batches,
    binomial_sf,
    classify,
    default_halfspace_count,
    estimate_unique_volume,
    flap_dogear_threshold,
    membership_prob,
    normal_products,
    pointwise_flap_dogear_check,
    check_r_estimate,
    sample_body,
    sample_violations,
    solve_r,
    solve_r_half,
    unique_multi_hits,
    verify_flap_dogear_ratio,
    verify_high_degree_bound,
)
from convexlab.report import fmt12
from convexlab.rng import RngStream
from convexlab.tolerant import C1_DEFAULT

# The flap-dogear-ratio test's success probabilities, 1/(2/c1 - 1), at
# c1 = ln 2 and c1 = 0.01, and two more.
_BINOMIAL_PS = (1.0 / (2.0 / math.log(2.0) - 1.0), 1.0 / 199.0, 0.3, 0.9)


def _exact_binomial_sf(m: int, n: int, p: float) -> Fraction:
    """P[Bin(n, p) >= m] in exact rational arithmetic at the float p."""
    a, b = p.as_integer_ratio()
    return Fraction(sum(math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(m, n + 1)), b**n)


class TestSolveR:
    def test_defining_equation_roundtrip(self):
        r = solve_r(100, 1024, 0.01)
        assert abs(std_normal_cdf(r / 10.0) - (1.0 - 0.01 / 1024)) <= 1e-12

    def test_desk_value_against_oracle(self):
        # The series oracle keeps only ~1e-9 of quantile precision this deep
        # in the tail; the defining-equation roundtrip above is the tight check.
        oracle = -bisect_quantile(0.01 / 1024)  # upper-tail quantile by symmetry
        assert abs(solve_r(100, 1024, 0.01) - 10.0 * oracle) <= 2e-8
        assert abs(solve_r(100, 1024, 0.01) - 42.7) <= 0.05

    def test_half_membership_convention(self):
        r = solve_r_half(100, 1024)
        oracle = -bisect_quantile(1.0 - 0.5 ** (1.0 / 1024))
        assert abs(r - 10.0 * oracle) <= 1e-8
        assert abs(r - 32.05) <= 0.02

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_r(100, 10, 10.0)
        with pytest.raises(DomainError):
            solve_r(100, 10, 0.0)

    def test_estimate_ratio_window_and_monotonicity(self):
        desk = check_r_estimate(100, 1024, 0.01)
        assert desk.all_passed()
        big = check_r_estimate(10_000, 2**100, 0.01)
        assert big.value("ratio") > desk.value("ratio")
        assert big.value("ratio") <= 1.0


class TestSampleBody:
    def test_determinism(self):
        a = sample_body(8, 16, 5.0, RngStream(11))
        b = sample_body(8, 16, 5.0, RngStream(11))
        np.testing.assert_array_equal(a.normals, b.normals)

    def test_trivial_membership(self):
        body = sample_body(2, 1, 10.0, RngStream(0))
        assert classify(body, np.zeros(2)).kind is PointKind.IN_BODY

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(nazarov, "DEFAULT_MEMORY_CAP", 10_000)
        with pytest.raises(ResourceLimitError):
            sample_body(1000, 1000, 5.0, RngStream(0))

    def test_normal_norm_concentration(self):
        n, num = 100, 1024
        body = sample_body(n, num, solve_r_half(n, num), RngStream(5))
        norms = np.linalg.norm(body.normals, axis=1)
        lo = math.sqrt(n) - 10.0 * n**0.25
        hi = math.sqrt(n) + 10.0 * n**0.25
        assert np.mean((norms >= lo) & (norms <= hi)) >= 0.99

    def test_default_halfspace_count(self):
        assert default_halfspace_count(16) == 16
        assert default_halfspace_count(100) == 1024
        with pytest.warns(RuntimeWarning):
            assert default_halfspace_count(1600) == 2**20


class TestClassify:
    def test_origin_in_body(self):
        body = sample_body(8, 32, solve_r_half(8, 32), RngStream(3))
        result = classify(body, np.zeros(8))
        assert result.kind is PointKind.IN_BODY and result.violated == ()

    def test_outside_ball(self):
        body = sample_body(8, 32, solve_r_half(8, 32), RngStream(3))
        x = np.zeros(8)
        x[0] = 1.01 * math.sqrt(8)
        assert classify(body, x).kind is PointKind.OUTSIDE

    @pytest.mark.parametrize("n", [2, 8, 32, 50])
    def test_ball_boundary_where_sqrt_n_squared_rounds_up(self, n):
        # sqrt(n) * e1 has norm exactly sqrt(n), though its x . x rounds above n.
        x = np.zeros(n)
        x[0] = math.sqrt(n)
        assert float(x @ x) > n
        body = NazarovBody(n=n, N=1, r=1.0, normals=np.eye(n)[1:2])
        assert classify(body, x).kind is PointKind.IN_BODY
        assert membership_prob(n, 1, 1.0, math.sqrt(n)) > 0.0
        self._assert_kernel_matches_spec(body, x[None, :])

    def test_tie_counts_inside(self):
        normals = np.array([[1.0, 0.0]])
        body = NazarovBody(n=2, N=1, r=1.0, normals=normals)
        assert classify(body, np.array([1.0, 0.0])).kind is PointKind.IN_BODY
        assert classify(body, np.array([1.0 + 1e-9, 0.0])).kind is PointKind.IN_FLAPS

    def test_dimension_mismatch(self):
        body = sample_body(8, 32, 5.0, RngStream(3))
        with pytest.raises(DimensionMismatchError):
            classify(body, np.zeros(9))
        with pytest.raises(DimensionMismatchError):
            body.violated(np.zeros((4, 9)))

    @staticmethod
    def _assert_kernel_matches_spec(body, points):
        """Batch kernel and body labels against the scalar classify spec."""
        mask = body.violated(points)
        assert mask.shape == (points.shape[0], body.N) and body.ambient_dim == body.n
        labels = body.labels(points)
        for x, row, label in zip(points, mask, labels):
            spec = classify(body, x)
            if spec.kind is PointKind.OUTSIDE:
                assert label == 0
                continue
            assert tuple(int(i) for i in np.nonzero(row)[0]) == spec.violated
            assert bool(label) == (spec.kind is PointKind.IN_BODY)

    def test_kernel_matches_classify_on_random_points(self):
        n, num = 8, 32
        body = sample_body(n, num, solve_r(n, num, 2.0), RngStream(24))
        pts = 1.2 * RngStream(25).generator().standard_normal((400, n))
        kinds = {classify(body, x).kind for x in pts}
        assert kinds == set(PointKind)
        self._assert_kernel_matches_spec(body, pts)

    def test_kernel_tie_and_ball_boundary(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        body = NazarovBody(n=2, N=2, r=0.5, normals=normals)
        pts = np.array([
            [0.5, 0.0],             # tie x . g = r: inside
            [0.5 + 1e-9, 0.0],      # just past the tie: violates g_0
            [1.0, -1.0],            # norm exactly sqrt(n), violates g_0
            [-1.0, -1.0],           # norm exactly sqrt(n), in the body
            [1.0, 1.0],             # norm exactly sqrt(n), violates both
            [1.0, 1.0 + 1e-9],      # just outside the ball
        ])
        np.testing.assert_array_equal(
            body.violated(pts),
            [[False, False], [True, False], [True, False], [False, False],
             [True, True], [True, True]],
        )
        kinds = [classify(body, x).kind for x in pts]
        assert kinds == [PointKind.IN_BODY, PointKind.IN_FLAPS, PointKind.IN_FLAPS,
                         PointKind.IN_BODY, PointKind.IN_FLAPS, PointKind.OUTSIDE]
        self._assert_kernel_matches_spec(body, pts)


class TestMembershipProb:
    def test_outside_ball_zero(self):
        assert membership_prob(100, 1024, 40.0, 10.1) == 0.0

    def test_half_at_shell(self):
        r = solve_r_half(100, 1024)
        assert abs(membership_prob(100, 1024, r, 10.0) - 0.5) <= 1e-10

    def test_closed_form_value(self):
        r = solve_r(100, 1024, 0.01)
        expected = math.exp(1024 * math.log1p(-0.01 / 1024))
        assert abs(membership_prob(100, 1024, r, 10.0) - expected) <= 1e-12

    def test_decreasing_in_norm(self):
        r = solve_r(100, 1024, 0.01)
        values = [membership_prob(100, 1024, r, s) for s in (2.0, 5.0, 8.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monte_carlo_agreement(self):
        n, num = 64, 128
        r = solve_r(n, num, 0.01)
        closed = membership_prob(n, num, r, math.sqrt(n))
        x = np.zeros(n)
        x[0] = math.sqrt(n)
        root = RngStream(31)
        hits = sum(
            classify(sample_body(n, num, r, root.child(i)), x).kind is PointKind.IN_BODY
            for i in range(2000)
        )
        freq = hits / 2000
        se = math.sqrt(closed * (1 - closed) / 2000)
        assert abs(freq - closed) <= 3 * se + 1e-9

    def test_half_at_shell_where_sqrt_n_squared_rounds_up(self):
        # math.sqrt(8) ** 2 > 8: the shell point must still count as in the ball.
        assert math.sqrt(8) ** 2 > 8
        assert abs(membership_prob(8, 64, solve_r_half(8, 64), math.sqrt(8)) - 0.5) <= 1e-10


class TestShellMembership:
    def test_hit_rate_matches_materialized_bodies(self):
        n, num, bodies = 16, 64, 4000
        report = run_experiment(ExperimentConfig("shell-membership", seed=32, n=n, N=num, trials=bodies))
        hits = round(report.value("mc_membership") * bodies)
        r = solve_r_half(n, num)
        x = np.zeros(n)
        x[0] = math.sqrt(n)
        root = RngStream(33)
        ref = sum(
            classify(sample_body(n, num, r, root.child(b)), x).kind is PointKind.IN_BODY
            for b in range(bodies)
        )
        assert abs(two_proportion_z(hits, bodies, ref, bodies)) <= 4.0

    def test_passes_where_sqrt_n_squared_rounds_up(self):
        report = run_experiment(ExperimentConfig("shell-membership", seed=34, n=8, N=64, trials=2000))
        assert report.all_passed()
        assert 0.4 < report.value("mc_membership") < 0.6

    def test_draws_no_body(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("shell-membership built a body")

        monkeypatch.setattr(nazarov, "sample_body", forbidden)
        run_experiment(ExperimentConfig("shell-membership", seed=35, n=1024, N=4096, trials=20))


class TestHighDegreeBound:
    def test_bound_holds_and_matches_binomial_form(self):
        n, num, c1 = 64, 256, 0.01
        r = solve_r(n, num, c1)
        report = verify_high_degree_bound(n, num, r, c1, 1, 20_000, RngStream(41))
        assert report.all_passed()
        closed = -math.expm1(num * math.log1p(-c1 / num))
        assert abs(report.value("shell_tail") - closed) <= 4 * math.sqrt(closed / 20_000)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_shell_tail_equals_per_point_counts(self, q):
        # The shell draws use one scalar tail; they must give the counts of a
        # tail per shell point, as the estimator drew them before.
        n, num, c1, trials = 100, 1024, 1.0, 2500  # about one violation a point
        r = solve_r(n, num, c1)
        report = verify_high_degree_bound(n, num, r, c1, q, trials, RngStream(43))
        counts = _count_batches(
            np.full(trials, math.sqrt(n)), num, r, RngStream(43).child(0).generator()
        )
        assert report.value("shell_tail") == np.count_nonzero(counts >= q) / trials

    def test_q_validation(self):
        with pytest.raises(DomainError):
            verify_high_degree_bound(64, 256, 30.0, 0.01, 0, 1000, RngStream(0))


@pytest.fixture(scope="module")
def materialized_counts():
    """Violation counts and ball membership of Gaussian points, one real body each."""
    n, num, trials = 8, 16, 20_000
    r = solve_r(n, num, 1.0)
    root = RngStream(71)
    pts = RngStream(72).generator().standard_normal((trials, n))
    counts = np.array(
        [int(sample_body(n, num, r, root.child(i)).violated(pts[i]).sum()) for i in range(trials)]
    )
    inside = np.einsum("ij,ij->i", pts, pts) <= n
    return n, num, r, counts, inside


class TestCountSamplers:
    """Two-sample pins of the count-level draws against materialized bodies."""

    def test_counts_match_materialized_bodies(self, materialized_counts):
        from scipy.stats import chi2_contingency

        n, num, r, counts, _ = materialized_counts
        gen = RngStream(73).generator()
        fast = _count_batches(np.sqrt(gen.chisquare(n, 200_000)), num, r, gen)
        table = [np.bincount(np.minimum(c, 3), minlength=4) for c in (counts, fast)]
        assert chi2_contingency(table).pvalue > 1e-3

    def test_unique_multi_match_materialized_bodies(self, materialized_counts):
        n, num, r, counts, inside = materialized_counts
        trials = counts.size
        points = 200_000
        unique, multi = unique_multi_hits(n, num, r, points, RngStream(74).generator())
        ref_unique = int(np.count_nonzero(inside & (counts == 1)))
        ref_multi = int(np.count_nonzero(inside & (counts >= 2)))
        assert abs(two_proportion_z(unique, points, ref_unique, trials)) <= 4.0
        assert abs(two_proportion_z(multi, points, ref_multi, trials)) <= 4.0

    def test_chunked_draws_cover_every_point(self, monkeypatch):
        # Above PAIRS_CHUNK points the draws come in chunks; the last one is
        # the remainder, and the chunks draw in order from one generator.
        monkeypatch.setattr(nazarov, "PAIRS_CHUNK", 1000)
        n, num, r = 8, 16, solve_r(8, 16, 1.0)
        got = unique_multi_hits(n, num, r, 2500, RngStream(80).generator())
        gen = RngStream(80).generator()
        expect = [0, 0]
        for size in (1000, 1000, 500):
            norms = np.sqrt(gen.chisquare(n, size))
            counts = _count_batches(norms[norms <= math.sqrt(n)], num, r, gen)
            expect[0] += int(np.count_nonzero(counts == 1))
            expect[1] += int(np.count_nonzero(counts >= 2))
        assert got == tuple(expect)

    def test_zero_norm_violates_nothing(self):
        counts = _count_batches(np.zeros(5), 16, 1.0, RngStream(75).generator())
        assert np.array_equal(counts, np.zeros(5))

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_equal_those_from_scipy_erfc(self, seed):
        # calibrate-c0's draw at desk size (n = 100, N = 1024, 200 x 2000
        # points): the binomial draws from sf_array's numpy erfc equal those
        # from scipy.special.erfc, which the count estimators drew from before.
        from scipy import special

        n, N = 100, 1024
        r = solve_r(n, N, C1_DEFAULT)
        norms = np.sqrt(RngStream(96, seed).generator().chisquare(n, 400_000))
        norms = norms[norms <= math.sqrt(n)]
        counts = _count_batches(norms, N, r, RngStream(97, seed).generator())
        p = 0.5 * special.erfc((r / norms) / math.sqrt(2.0))
        np.testing.assert_array_equal(counts, RngStream(97, seed).generator().binomial(N, p))


class TestNormalProducts:
    """Products of fixed rows with fresh normal vectors, drawn as R^T Z^T.

    Pinned against materialized bodies through the tolerant and adaptive
    views (TestLazyView in test_tolerant and test_adaptive).
    """

    BLOCK = RngStream(76).generator().standard_normal((3, 9))

    def test_covariance_is_the_gram_matrix(self):
        # Each column is one vector's products, N(0, A A^T); the mean of
        # x_i x_j over N columns has variance (S_ii S_jj + S_ij^2) / N.
        num = 50_000
        out = normal_products(self.BLOCK, num, RngStream(77).generator())
        assert out.shape == (3, num)
        gram = self.BLOCK @ self.BLOCK.T
        se = np.sqrt((np.outer(np.diag(gram), np.diag(gram)) + gram**2) / num)
        assert np.all(np.abs(out @ out.T / num - gram) <= 4.0 * se)

    def test_dependent_rows(self):
        block = np.vstack([self.BLOCK, 2.0 * self.BLOCK[:1], np.zeros((1, 9))])
        out = normal_products(block, 64, RngStream(78).generator())
        assert np.abs(out[3] - 2.0 * out[0]).max() <= 1e-10
        assert np.abs(out[4]).max() <= 1e-12
        wide = normal_products(self.BLOCK.T[:, :2], 64, RngStream(78).generator())
        assert wide.shape == (9, 64) and np.linalg.matrix_rank(wide) == 2

    def test_same_generator_same_bits(self):
        first = normal_products(self.BLOCK, 16, RngStream(79).generator())
        again = normal_products(self.BLOCK, 16, RngStream(79).generator())
        assert first.tobytes() == again.tobytes()


# Four rows of R^3 at distinct norms, the first two 0.3 rad apart, so that
# a fresh normal often violates both and a candidate's 1/c matters.
VIOLATION_ROWS = np.array(
    [[2.0, 0.0, 0.0], [2.2 * math.cos(0.3), 2.2 * math.sin(0.3), 0.0], [0.0, 0.0, 1.6], [-1.2, 1.5, 0.4]]
)
VIOLATION_RUNS = 20_000
# (N, r): tail masses sum_j sf(r/|x_j|) of 0.36 and 0.60, drawn sparse, and
# of 1.06, drawn by normal_products.
VIOLATION_CASES = [(4, 2.6), (16, 2.0), (3, 1.2)]


def _violation_statistics(viol: np.ndarray) -> list:
    """Per (runs, k, N) stack: each row's violation count capped at 2, each
    row pair's shared-column flag, and whether row 0 of runs 2t and 2t + 1
    share a column (independent bodies)."""
    k = viol.shape[1]
    counts = np.minimum(viol.sum(axis=2), 2)
    shared = [(viol[:, i] & viol[:, j]).any(axis=1) for i, j in combinations(range(k), 2)]
    across = (viol[0::2, 0] & viol[1::2, 0]).any(axis=1)
    return [c.tolist() for c in counts.T] + [f.tolist() for f in shared] + [across.tolist()]


@pytest.fixture(scope="module", params=VIOLATION_CASES, ids=lambda case: f"N{case[0]}-r{case[1]}")
def violation_draws(request):
    """One block of VIOLATION_RUNS runs of VIOLATION_ROWS through
    sample_violations, and as many normal_products draws, one per run."""
    N, r = request.param
    k = len(VIOLATION_ROWS)
    block = sample_violations(
        np.tile(VIOLATION_ROWS, (VIOLATION_RUNS, 1)), np.full(VIOLATION_RUNS, k), N, r, RngStream(447, N).generator()
    ).reshape(VIOLATION_RUNS, k, N)
    gen = RngStream(448, N).generator()
    dense = np.array([normal_products(VIOLATION_ROWS, N, gen) > r for _ in range(VIOLATION_RUNS)])
    return N, r, block, dense


class TestSampleViolations:
    """A block's violations: hit columns only (the tail mass at most 1) or
    normal_products, pinned against normal_products > r."""

    def test_statistics_match_normal_products(self, violation_draws):
        _, _, block, dense = violation_draws
        for index, (lazy, reference) in enumerate(zip(_violation_statistics(block), _violation_statistics(dense))):
            assert homogeneity_pvalue(lazy, reference) > 1e-3, index

    def test_hit_columns_are_uniform(self, violation_draws):
        from scipy import stats

        N, _, block, _ = violation_draws
        hits = np.bincount(np.nonzero(block.any(axis=1))[1], minlength=N)
        assert hits.min() > 0 and stats.chisquare(hits).pvalue > 1e-3

    def test_branch_follows_the_tail_mass(self, monkeypatch):
        calls = []
        original = nazarov.normal_products
        monkeypatch.setattr(nazarov, "normal_products", lambda *a: calls.append(1) or original(*a))
        counts = np.full(3, len(VIOLATION_ROWS))
        for N, r in VIOLATION_CASES:
            mass = nazarov.sf_array(r / np.linalg.norm(VIOLATION_ROWS, axis=1)).sum()
            calls.clear()
            sample_violations(np.tile(VIOLATION_ROWS, (3, 1)), counts, N, r, RngStream(449).generator())
            assert len(calls) == (3 if mass > 1.0 else 0), (N, r)

    def test_runs_of_any_size(self):
        # Runs of 0, 2 and 1 rows: the empty run takes no row, and the
        # counts must cover the rows.
        gen = RngStream(451).generator()
        rows = 0.5 * VIOLATION_ROWS[:3]
        viol = sample_violations(rows, np.array([0, 2, 1]), 16, 2.0, gen)
        assert viol.shape == (3, 16) and viol.dtype == bool
        with pytest.raises(DimensionMismatchError):
            sample_violations(rows, np.array([1, 1]), 16, 2.0, gen)
        assert sample_violations(np.empty((0, 3)), np.zeros(2, int), 16, 2.0, gen).shape == (0, 16)


class TestUniqueVolume:
    def test_single_halfspace_closed_form(self):
        # With one halfspace the uniquely-violated volume has an explicit
        # integrand; Rao-Blackwellized sampling of it is the oracle.
        n, r = 16, 6.0
        report = estimate_unique_volume(
            n, 1, r, bodies=100, points_per_body=2000, rng=RngStream(51)
        )
        from convexlab.gauss import sf_array

        gen = RngStream(52).generator()
        x = gen.standard_normal((200_000, n))
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        oracle = float(np.mean(np.where(norms <= math.sqrt(n), sf_array(r / norms), 0.0)))
        mean = report.value("vol_unique_mean")
        se = [e.ci_halfwidth for e in report.estimates if e.metric == "vol_unique_mean"][0]
        assert abs(mean - oracle) <= 4 * se + 2e-4

    def test_partition_identity(self):
        # unique + multiple + body counts partition the in-ball samples.
        n, num = 32, 64
        body = sample_body(n, num, solve_r(n, num, 0.5), RngStream(55))
        pts = RngStream(56).generator().standard_normal((5000, n))
        inside = np.einsum("ij,ij->i", pts, pts) <= n
        counts = body.violated(pts).sum(axis=1)
        unique = inside & (counts == 1)
        multi = inside & (counts >= 2)
        in_body = inside & (counts == 0)
        assert np.array_equal(unique | multi | in_body, inside)
        assert not np.any(unique & multi)

    def test_ball_mass_near_half(self):
        pts = RngStream(57).generator().standard_normal((50_000, 100))
        frac = float(np.mean(np.einsum("ij,ij->i", pts, pts) <= 100.0))
        assert abs(frac - 0.5) <= 0.02

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            estimate_unique_volume(8, 4, 3.0, bodies=10, points_per_body=2000, rng=RngStream(0))


class TestCalibration:
    """calibrate-c0's count-level estimate of the unique volume at c1 = 1/100."""

    @staticmethod
    def _calibrate(**kwargs):
        return run_experiment(ExperimentConfig("calibrate-c0", **kwargs))

    def test_unique_rate_matches_materialized_bodies(self):
        n, num = 16, 32
        calib = self._calibrate(seed=81, n=n, N=num, trials=1000)
        rate = next(e for e in calib.estimates if e.metric == "vol_unique_mean")
        assert rate.sample_count == 1000 * 2000
        report = estimate_unique_volume(
            n, num, solve_r(n, num, C1_DEFAULT), bodies=500, points_per_body=4000,
            rng=RngStream(82), c1=C1_DEFAULT,
        )
        body = next(e for e in report.estimates if e.metric == "vol_unique_mean")
        z = (rate.value - body.value) / math.hypot(rate.ci_halfwidth, body.ci_halfwidth)
        assert abs(z) <= 4.0
        assert calib.value("c0_hat") == rate.value / C1_DEFAULT

    def test_builds_no_body_and_starts_no_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("calibrate-c0 materialized work")

        monkeypatch.setattr(nazarov, "sample_body", forbidden)
        monkeypatch.setattr(parallel, "map_units", forbidden)
        monkeypatch.setattr(experiments, "map_units", forbidden)
        monkeypatch.setenv("CONVEXLAB_WORKERS", "2")
        assert self._calibrate(seed=83, n=100, N=1024).all_passed()


class TestFlapDogear:
    def test_thresholds(self):
        assert abs(flap_dogear_threshold(math.log(2)) - 0.8854) <= 5e-4
        assert abs(flap_dogear_threshold(0.01) - 198.0) <= 1e-9

    def test_ratio_bound_ln2(self):
        n, num, c1 = 64, 256, math.log(2)
        report = verify_flap_dogear_ratio(n, num, solve_r(n, num, c1), c1, 100_000, RngStream(61))
        assert report.all_passed()
        assert report.value("ratio") >= flap_dogear_threshold(c1)

    @pytest.mark.parametrize("unique, multi, passed", [(211, 0, True), (211, 4, True), (211, 6, False), (211, 8, False)])
    def test_exact_binomial_ratio_test(self, monkeypatch, unique, multi, passed):
        # Given u + m hits, m is Bin(u + m, 1/(ratio + 1)).  Four multi hits
        # beside 211 unique ones have p = 0.024 at ratio 198; the delta-method
        # bound failed them (ratio 52.75 against 198 - 3se = 118).
        monkeypatch.setattr(nazarov, "unique_multi_hits", lambda *args: (unique, multi))
        report = verify_flap_dogear_ratio(100, 1024, solve_r(100, 1024, 0.01), 0.01, 100_000, RngStream(62))
        total, pi = unique + multi, 1.0 / 199.0
        tail = sum(math.comb(total, k) * pi**k * (1.0 - pi) ** (total - k) for k in range(multi, total + 1))
        [check] = report.assertions
        assert check.observed == pytest.approx(tail, rel=1e-9)
        assert check.bound == pytest.approx(0.0013499, rel=1e-4)
        assert check.passed == passed

    def test_default_size_p_value_prints_one(self):
        # (u, m) at c1 = ln 2 and the default sizes, n = 100, N = 1024, 1e5
        # pairs: m lies 80 sd below the mean, so the tail is 1 to rounding.
        p = binomial_sf(3292, 12583 + 3292, 1.0 / (flap_dogear_threshold(math.log(2.0)) + 1.0))
        assert fmt12(p) == "1"

    def test_pointwise_closed_form(self):
        for c1 in (math.log(2), 0.01):
            report = pointwise_flap_dogear_check(100, 1024, solve_r(100, 1024, c1), c1)
            assert report.all_passed()


class TestBinomialSf:
    """binomial_sf, the exact tail of the flap-dogear-ratio test."""

    @staticmethod
    def _cases(ns):
        for n in ns:
            for p in _BINOMIAL_PS:
                mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
                for m in {0, 1, int(mean - 3 * sd), math.floor(mean), math.ceil(mean), int(mean + 3 * sd) + 1, n}:
                    if 0 <= m <= n:
                        yield m, n, p

    def test_matches_exact_rational_tail(self):
        # Measured maximum relative error against the exact sum: 1.5e-13, at
        # n = 201, p = 1/199, m = 140, a tail of 2.5e-270 where the saddle-point
        # terms reach 600.  Tails that underflow double precision are skipped.
        worst = 0.0
        for n in (1, 2, 5, 17, 64, 201, 300):
            for p in _BINOMIAL_PS:
                for m in range(0, n + 1, max(1, n // 20)):
                    exact = _exact_binomial_sf(m, n, p)
                    if exact >= Fraction(1, 10**290):
                        worst = max(worst, float(abs(Fraction(binomial_sf(m, n, p)) - exact) / exact))
        assert worst <= 2.5e-13

    def test_matches_bdtrc(self):
        # Measured maximum of |binomial_sf - bdtrc| / bdtrc: 2.8e-11, at the
        # largest n.  bdtrc goes through log-gamma sums, which lose digits to
        # cancellation as n grows; the exact test above bounds binomial_sf.
        from scipy.special import bdtrc

        for m, n, p in self._cases((1, 2, 7, 30, 201, 1000, 4999, 15875, 20_000)):
            ref = float(bdtrc(m - 1, n, p))
            got = binomial_sf(m, n, p)
            assert abs(got - ref) <= 4e-11 * ref + 1e-300, (m, n, p)

    def test_edges_and_clamp(self):
        for n in (0, 1, 50, 20_000):
            assert binomial_sf(0, n, 0.3) == 1.0
            assert binomial_sf(-4, n, 0.3) == 1.0
            assert binomial_sf(n + 1, n, 0.3) == 0.0
        for m, n, p in self._cases((1, 50, 15875, 20_000)):
            assert 0.0 <= binomial_sf(m, n, p) <= 1.0
        for p in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                binomial_sf(1, 10, p)
