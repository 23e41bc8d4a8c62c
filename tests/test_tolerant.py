import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ORTHANT_RTOL, homogeneity_pvalue, two_proportion_z
from convexlab.errors import CalibrationMissingError, DimensionMismatchError, DomainError
from convexlab.gauss import Frame, sample_haar_frame, std_normal_cdf, upper_orthant
from convexlab.nazarov import NazarovBody
from convexlab.rng import RngStream
from convexlab.tolerant import (
    BLOCK,
    C1_DEFAULT,
    CalibrationRecord,
    TolerantInstance,
    TolerantView,
    bivariate_tail_check,
    bivariate_upper_bound,
    c2_from,
    curb_interval_width,
    detect_bad,
    eps_from_volumes,
    estimate_eps_bounds,
    eval_no_batch,
    eval_yes_batch,
    region_boundaries,
    region_codes,
    region_of,
    same_unique_counts,
    sample_tolerant_instance,
    sample_tolerant_views,
    view_experiment,
    xy_pair_experiment,
)

C2_TEST = 0.02


@pytest.fixture(scope="module")
def inst(calibration_small):
    return sample_tolerant_instance(64, None, RngStream(401), calibration_small)


class TestRegions:
    def test_center_is_middle(self):
        assert region_of(0.0, C2_TEST) == "middle"

    def test_extremes(self):
        assert region_of(-100.0, C2_TEST) == "left"
        assert region_of(100.0, C2_TEST) == "right"

    def test_curb_mass_is_c2_per_interval(self):
        l1, l2, m2, r1 = region_boundaries(C2_TEST)
        assert abs((std_normal_cdf(l2) - std_normal_cdf(l1)) - C2_TEST) <= 1e-10
        assert abs((std_normal_cdf(r1) - std_normal_cdf(m2)) - C2_TEST) <= 1e-10

    def test_boundaries_assigned_to_curb(self):
        for b in region_boundaries(C2_TEST):
            assert region_of(b, C2_TEST) == "curb"

    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_partition(self, a):
        assert region_of(a, C2_TEST) in ("left", "middle", "right", "curb")

    def test_domain(self):
        with pytest.raises(DomainError):
            region_of(0.0, 0.6)


class TestInstance:
    def test_requires_calibration(self):
        with pytest.raises(CalibrationMissingError):
            sample_tolerant_instance(64, None, RngStream(0), None)

    @pytest.mark.parametrize(
        "bad",
        ["0.35", [0.35], True, {"c0_hat": 0.35}, CalibrationRecord(64, 256, 0.01, 0.003, 1e-4, 1)],
    )
    def test_calibration_of_wrong_type_rejected(self, bad):
        with pytest.raises(DomainError):
            sample_tolerant_instance(16, None, RngStream(0), bad)
        with pytest.raises(DomainError):
            estimate_eps_bounds(16, 16, 10, 100, RngStream(0), bad)

    def test_integer_constant_stored_as_float(self):
        from_int = sample_tolerant_instance(16, None, RngStream(5), 1)
        assert from_int.c0_hat == 1.0 and isinstance(from_int.c0_hat, float)

    def test_constants_tied_together(self, inst):
        assert inst.c1 == C1_DEFAULT
        assert inst.c2 == inst.tau == inst.c0_hat * inst.c1 / 100.0

    def test_action_direction_unit_and_orthogonal(self, inst):
        action, control = inst.frame.vectors[0], inst.frame.vectors[1:]
        assert abs(float(action @ action) - 1.0) <= 1e-12
        assert np.abs(control @ action).max() <= 1e-8

    @pytest.mark.parametrize("rows, dim", [(64, 65), (66, 66)], ids=["control-only", "wrong-ambient"])
    def test_frame_of_wrong_size_rejected(self, inst, rows, dim):
        with pytest.raises(DimensionMismatchError, match="n \\+ 1 vectors"):
            TolerantInstance(
                n=inst.n,
                N=inst.N,
                r=inst.r,
                frame=Frame(ambient_dim=dim, vectors=np.eye(dim)[:rows]),
                body=inst.body,
                p_set=inst.p_set,
                c0_hat=inst.c0_hat,
                stream=inst.stream,
            )

    def test_r_convention(self, inst):
        lhs = std_normal_cdf(inst.r / math.sqrt(inst.n))
        assert abs(lhs - (1.0 - inst.c1 / inst.N)) <= 1e-9

    def test_p_set_is_fair(self, calibration_small):
        sizes = [
            sample_tolerant_instance(16, 64, RngStream(500, k), calibration_small).p_set.sum()
            for k in range(300)
        ]
        mean = np.mean(sizes) / 64
        assert abs(mean - 0.5) <= 3 * math.sqrt(0.25 / (300 * 64)) + 0.02

    def test_shell_holds_stated_mass(self, inst):
        lo, hi = inst.shell
        pts = RngStream(402).generator().standard_normal((100_000, inst.n + 1))
        norms = np.linalg.norm(pts, axis=1)
        freq = float(np.mean((norms >= lo) & (norms <= hi)))
        se = math.sqrt(inst.tau / 100_000)
        assert freq >= 1.0 - inst.tau - 3 * se


class TestLabels:
    def test_control_norm_overflow_is_zero(self, inst):
        # Control projection larger than sqrt(n) forces label 0.
        x = inst.frame.vectors[1] * (1.2 * math.sqrt(inst.n))  # the first control row
        assert inst.view(x[None, :]).codes[0] == 0

    @pytest.mark.parametrize("n", [8, 32, 50])
    def test_control_ball_boundary_where_sqrt_n_squared_rounds_up(self, n):
        # x_C = sqrt(n) e1 lies on the control ball, though x_C . x_C rounds
        # above n: it is probed, and coded 0 (the zero case |x_C| >= sqrt(n)).
        x = np.zeros((1, n + 1))
        x[0, 0] = math.sqrt(n)
        xc = x[:, :n]
        assert float(xc[0] @ xc[0]) > n
        body = NazarovBody(n=n, N=1, r=1.0, normals=np.eye(n)[1:2])
        view = TolerantView.of(n, C2_TEST, x, xc, x[:, n], body.violated, np.zeros(1, dtype=bool))
        assert view.probed.tolist() == [0]
        assert view.codes.tolist() == [0]

    def test_shell_body_point_is_one(self, inst):
        lo, _ = inst.shell
        x = inst.frame.vectors[0] * (lo + 0.5)  # on the action line: control part zero, inside the body
        assert inst.view(x[None, :]).codes[0] == 1
        assert inst.yes.labels(x[None, :])[0] == inst.no.labels(x[None, :])[0] == 1

    def test_yes_no_agree_on_plain_labels(self, inst):
        pts = RngStream(403).generator().standard_normal((10_000, inst.n + 1))
        codes = inst.view(pts).codes
        plain = (codes == 0) | (codes == 1)
        yes = eval_yes_batch(inst, pts)
        no = eval_no_batch(inst, pts)
        np.testing.assert_array_equal(yes[plain], no[plain])

    def test_responses_differ_only_on_starred(self, inst):
        pts = RngStream(404).generator().standard_normal((20_000, inst.n + 1))
        codes = inst.view(pts).codes
        yes = eval_yes_batch(inst, pts)
        no = eval_no_batch(inst, pts)
        disagree = yes != no
        assert np.all(codes[disagree] >= 2)

    def test_mapping_table_on_starred_points(self, inst):
        # Build synthetic points in a known unique flap with chosen action coords.
        pts = RngStream(405).generator().standard_normal((80_000, inst.n + 1))
        codes = inst.view(pts).codes
        starred = np.nonzero(codes >= 2)[0]
        if starred.size == 0:
            pytest.skip("no starred samples at this seed")
        from convexlab.tolerant import region_codes

        a = pts[starred] @ inst.frame.vectors[0]
        regions = region_codes(a, inst.c2)
        yes = eval_yes_batch(inst, pts[starred])
        no = eval_no_batch(inst, pts[starred])
        for i in range(starred.size):
            code, reg = codes[starred[i]], regions[i]
            if code == 2:  # zero-star
                assert yes[i] == 0
                assert no[i] == (0 if reg == 1 else 1)
            else:  # one-star
                assert yes[i] == 1
                assert no[i] == (1 if reg == 1 else 0)

    def test_dimension_check(self, inst):
        with pytest.raises(DimensionMismatchError):
            inst.view(np.zeros((1, inst.n)))


class TestBadEvent:
    def test_single_query_never_bad(self, inst):
        q = RngStream(406).generator().standard_normal(inst.n + 1)
        flag, witness = detect_bad(inst, q[None, :])
        assert flag is False and witness is None

    def test_synthetic_pair_in_same_flap(self, inst):
        # Construct two points sharing a unique flap with action coordinates
        # forced into left and right regions.
        pts = RngStream(407).generator().standard_normal((120_000, inst.n + 1))
        codes = inst.view(pts).codes
        lo, hi = inst.shell
        found = False
        for idx in np.nonzero(codes >= 2)[0]:
            x, action = pts[idx], inst.frame.vectors[0]
            xc_part = x - float(x @ action) * action
            pair = np.vstack([xc_part - 3.0 * action, xc_part + 3.0 * action])
            norms = np.linalg.norm(pair, axis=1)
            if not ((norms >= lo) & (norms <= hi)).all():
                continue
            flag, witness = detect_bad(inst, pair)
            assert flag is True and witness == (0, 1)
            found = True
            break
        assert found, "no synthetic pair found at this seed"

    def test_far_queries_not_bad(self, inst):
        pts = RngStream(408).generator().standard_normal((6, inst.n + 1)) * 0.1
        flag, _ = detect_bad(inst, pts)
        assert flag is False


def _bad_by_pairs(view):
    """TolerantView.bad by the pair loop: the reference the grouped form is
    pinned against."""
    unique = view.viol.sum(axis=1) == 1
    idx = view.probed[unique]
    if idx.size < 2:
        return False, None
    flaps = np.argmax(view.viol[unique], axis=1)
    regions = region_codes(view.action[idx], view.c2)
    for a in range(idx.size):
        for b in range(a + 1, idx.size):
            if flaps[a] != flaps[b]:
                continue
            ra, rb = regions[a], regions[b]
            if ra != rb and ra != 3 and rb != 3:
                return True, (int(idx[a]), int(idx[b]))
    return False, None


def _loop_accepts(view, pair) -> bool:
    """Whether the pair loop's test holds for the witness `pair`."""
    a, b = pair
    if not (a < b and a in view.probed and b in view.probed):
        return False
    rows = {int(i): row for i, row in zip(view.probed, view.viol)}
    if rows[a].sum() != 1 or rows[b].sum() != 1 or np.argmax(rows[a]) != np.argmax(rows[b]):
        return False
    ra, rb = region_codes(view.action[[a, b]], view.c2)
    return ra != rb and ra != 3 and rb != 3


def _random_view(m: int, gen) -> TolerantView:
    """A view of m rows on a few flaps, so that rows often share one.

    Half the views put every row of a flap in one coarse region, where no
    pair is bad unless a row is moved; curb rows come from a wide c2.
    """
    N = int(gen.integers(1, 9))
    c2 = float(gen.choice([0.004, 0.1]))
    probed = np.sort(gen.choice(m, size=int(gen.integers(0, m + 1)), replace=False))
    viol = np.zeros((probed.size, N), dtype=bool)
    hits = gen.integers(0, 3, size=probed.size)  # 0, 1 or 2 violated halfspaces
    for row, k in enumerate(hits):
        viol[row, gen.choice(N, size=min(k, N), replace=False)] = True
    action = gen.standard_normal(m)
    if gen.random() < 0.5:
        centers = np.array([-2.0, 0.0, 2.0])[gen.integers(0, 3, size=N)]
        flap = np.argmax(viol, axis=1)
        action[probed] = centers[flap] + 0.1 * gen.standard_normal(probed.size)
        moved = probed[gen.random(probed.size) < 1.0 / max(m, 1)]
        action[moved] = gen.standard_normal(moved.size) * 2.0
    zeros = np.zeros(m)
    return TolerantView(16, c2, zeros, zeros, action, probed, viol, gen.random(N) < 0.5)


class TestGroupedBad:
    """TolerantView.bad groups the uniquely violated rows by flap; pinned
    against the pair loop."""

    @pytest.mark.parametrize("m", [2, 3, 8, 40, 200, 1000])
    def test_matches_the_pair_loop_on_random_views(self, m):
        gen = RngStream(440, m).generator()
        flags = []
        for _ in range(200 if m <= 40 else 40):
            view = _random_view(m, gen)
            flag, witness = view.bad()
            ref_flag, ref_witness = _bad_by_pairs(view)
            assert flag is ref_flag
            assert (witness is None) == (ref_witness is None)
            if flag:
                assert _loop_accepts(view, witness)
            flags.append(flag)
        if m >= 3:
            assert 0 < sum(flags) < len(flags)

    def test_matches_the_pair_loop_on_sampled_views(self):
        # q = 1000 shell queries at n = 16, N = 32 share flaps often.
        from convexlab.experiments import _shell_queries

        c0_hat, flags = 0.35, []
        for q in (50, 1000):
            queries = _shell_queries(16, q, c0_hat * C1_DEFAULT / 100.0, RngStream(441, q))
            for view in sample_tolerant_views(queries, 16, 32, 30, RngStream(442, q), c0_hat):
                flag, witness = view.bad()
                assert flag is _bad_by_pairs(view)[0]
                assert witness is None if not flag else _loop_accepts(view, witness)
                flags.append(flag)
        assert 0 < sum(flags) < len(flags)


class TestViewExperiment:
    def test_far_queries_give_identical_views(self, calibration_small):
        queries = np.full((3, 65), 10.0)  # far outside the shell: all-zero rows
        report = view_experiment(queries, 64, 200, RngStream(409), calibration_small)
        assert report.value("tv_unconditioned") == 0.0
        assert report.value("tv_conditioned") == 0.0

    def test_conditioned_views_match_within_noise(self, calibration_small):
        from convexlab.experiments import _shell_queries

        tau = calibration_small * C1_DEFAULT / 100.0
        queries = _shell_queries(64, 4, tau, RngStream(410))
        report = view_experiment(queries, 64, 800, RngStream(411), calibration_small)
        assert report.all_passed()

    def test_query_cap(self, calibration_small):
        with pytest.raises(DomainError):
            view_experiment(np.zeros((21, 65)), 64, 10, RngStream(0), calibration_small)


def _pin_queries(n: int) -> np.ndarray:
    """Three shell rows of R^{n+1}: x0 with |x0|^2 = n + 1, so x0 is in the
    ball exactly when its action coordinate has |a| >= 1; x1 and x2 at 1.3
    times the ball radius (correlation 0.9), in the ball only when much of
    their norm is action, which a view that confuses |x| with |x_C| misses.
    """
    u, v, w = np.linalg.qr(RngStream(420).generator().standard_normal((n + 1, 3)))[0].T
    big = 1.3 * math.sqrt(n)
    return np.vstack([math.sqrt(n + 1.0) * w, big * u, big * (0.9 * u + math.sqrt(0.19) * v)])


def _view_keys(view) -> tuple:
    """Two outcomes of one view: its statistics and its labels.

    The statistics are the region of a0, each row's violation count (capped
    at 3; -1 when the row is not probed) and whether x1 and x2 share a
    violated halfspace (-1 unless both are probed).
    """
    counts = np.full(view.norms.size, -1)
    counts[view.probed] = np.minimum(view.viol.sum(axis=1), 3)
    rows = dict(zip(view.probed.tolist(), view.viol))
    shared = int((rows[1] & rows[2]).any()) if 1 in rows and 2 in rows else -1
    stats = (int(region_codes(view.action[:1], view.c2)[0]), tuple(counts.tolist()), shared)
    labels = (tuple(view.codes), tuple(view.yes()), tuple(view.no()), view.bad()[0])
    return stats, labels


@pytest.fixture(scope="module")
def pinned_views():
    """Outcomes of 20000 materialized and 20000 lazy views of the pin queries."""
    n, trials, c0_hat = 7, 20_000, 0.35
    queries = _pin_queries(n)
    dense = [
        _view_keys(sample_tolerant_instance(n, None, RngStream(421, t), c0_hat).view(queries))
        for t in range(trials)
    ]
    lazy = [
        _view_keys(sample_tolerant_views(queries, n, None, 1, RngStream(422, t), c0_hat)[0])
        for t in range(trials)
    ]
    return dense, lazy


class TestLazyView:
    def test_statistics_match_materialized(self, pinned_views):
        dense, lazy = pinned_views
        assert homogeneity_pvalue([k[0] for k in dense], [k[0] for k in lazy]) > 1e-3

    def test_labels_match_materialized(self, pinned_views):
        dense, lazy = pinned_views
        assert homogeneity_pvalue([k[1] for k in dense], [k[1] for k in lazy]) > 1e-3

    @pytest.mark.parametrize("q", [6, 67])  # 67 rows exceed the dimension n + 1 = 65
    def test_control_and_action_split_the_norm(self, inst, calibration_small, q):
        queries = RngStream(423, q).generator().standard_normal((q, inst.n + 1))
        for view in (
            inst.view(queries),
            sample_tolerant_views(queries, inst.n, None, 1, RngStream(424), calibration_small)[0],
        ):
            assert np.abs(view.xc_norm**2 + view.action**2 - view.norms**2).max() <= 1e-10

    def test_only_shell_rows_in_the_ball_are_probed(self, inst, calibration_small):
        lo, hi = inst.shell
        queries = RngStream(425).generator().standard_normal((200, inst.n + 1))
        queries[:50] *= (hi + 1.0) / np.linalg.norm(queries[:50], axis=1)[:, None]
        for view in (
            inst.view(queries),
            sample_tolerant_views(queries, inst.n, None, 1, RngStream(426), calibration_small)[0],
        ):
            expected = (view.norms >= lo) & (view.norms <= hi) & (view.xc_norm <= math.sqrt(inst.n))
            np.testing.assert_array_equal(view.probed, np.nonzero(expected)[0])
            assert view.viol.shape == (view.probed.size, inst.N)
            assert 0 < view.probed.size < 150

    def test_query_shape_checked(self, calibration_small):
        with pytest.raises(DimensionMismatchError):
            sample_tolerant_views(np.zeros((2, 64)), 64, None, 1, RngStream(0), calibration_small)
        with pytest.raises(DimensionMismatchError):  # a stack holds one set per trial
            sample_tolerant_views(np.zeros((3, 2, 65)), 64, None, 2, RngStream(0), calibration_small)


BLOCK_PIN_TRIALS = 10_240


def _pair_key(v, w) -> tuple:
    """Outcome of two views: the region of each one's first action
    coordinate and how many of the 32 flaps their P sets agree on (in fours).
    Two independent instances give the product law; a frame or a P set
    shared between them does not."""
    regions = region_codes(np.array([v.action[0], w.action[0]]), v.c2)
    return int(regions[0]), int(regions[1]), int((v.p_set == w.p_set).sum()) // 4


@pytest.fixture(scope="module")
def block_views():
    """Outcomes of BLOCK_PIN_TRIALS materialized views and as many views
    drawn BLOCK at a time, of 8 shell queries at n = 16, N = 32: per view,
    and for the pairs (0, 1), (2, 3), ... of consecutive views."""
    from convexlab.experiments import _shell_queries

    n, N, c0_hat = 16, 32, 0.35
    queries = _shell_queries(n, 8, c0_hat * C1_DEFAULT / 100.0, RngStream(430))
    dense = [
        sample_tolerant_instance(n, N, RngStream(431, t), c0_hat).view(queries)
        for t in range(BLOCK_PIN_TRIALS)
    ]
    lazy = [
        view
        for b in range(BLOCK_PIN_TRIALS // BLOCK)
        for view in sample_tolerant_views(queries, n, N, BLOCK, RngStream(432, b), c0_hat)
    ]

    def outcomes(views):
        keys = [_view_keys(v) for v in views]
        pairs = [_pair_key(v, w) for v, w in zip(views[0::2], views[1::2])]
        return [k[0] for k in keys], [k[1] for k in keys], pairs

    return outcomes(dense), outcomes(lazy)


class TestBlockViews:
    """view-tv draws BLOCK views per unit from one stack of frames, one
    normal generator and one (BLOCK, N) draw of P sets; pinned against
    materialized instances."""

    @pytest.mark.parametrize("part", ["statistics", "labels", "pairs"])
    def test_match_materialized(self, block_views, part):
        index = ("statistics", "labels", "pairs").index(part)
        dense, lazy = block_views
        assert homogeneity_pvalue(dense[index], lazy[index]) > 1e-3


class TestEpsBounds:
    def test_formula_replay(self):
        v_u, v_d, c2, tau = 0.004, 1e-5, 3e-5, 3e-5
        eps1, eps2 = eps_from_volumes(v_u, v_d, c2, tau)
        assert abs(eps1 - (2 * c2 + tau + 2 * v_d)) <= 1e-18
        assert abs(eps2 - ((1 - 2 * c2) / 3.0) * (0.3 * v_u - tau / 2)) <= 1e-18

    def test_limit_behaviour(self):
        eps1, eps2 = eps_from_volumes(0.01, 0.0, 0.0, 0.0)
        assert eps1 == 0.0
        assert abs(eps2 - 0.001) <= 1e-15

    def test_gap_positive(self, calibration_small):
        report = estimate_eps_bounds(64, 256, 100, 1000, RngStream(412), calibration_small)
        assert report.all_passed()
        assert report.value("gap") > 0

    def test_requires_calibration(self):
        with pytest.raises(CalibrationMissingError):
            estimate_eps_bounds(64, 256, 10, 100, RngStream(0), None)


class TestBivariateTail:
    def test_independence_limit_sanity(self):
        report = bivariate_tail_check(0.01, 1.0, 1.0, 200_000, RngStream(413))
        prod = (1 - std_normal_cdf(1.0)) ** 2
        assert abs(report.value("joint_tail") - prod) <= 0.003
        assert report.value("bound") >= prod - 1e-12

    def test_grid_cell(self):
        report = bivariate_tail_check(0.9, 2.0, 2.0, 200_000, RngStream(414))
        assert report.all_passed()

    def test_bound_symmetric_at_equal_thresholds(self):
        assert abs(bivariate_upper_bound(0.7, 2.0, 2.0) - bivariate_upper_bound(0.7, 2.0, 2.0)) == 0.0
        # swapping h and k flips the roles but keeps the value at h == k
        assert abs(bivariate_upper_bound(0.4, 1.5, 1.5) - bivariate_upper_bound(0.4, 1.5, 1.5)) == 0.0

    def test_bound_dominates_the_exact_tail(self):
        # bivariate_upper_bound >= upper_orthant to within the latter's
        # relative error ORTHANT_RTOL.  Where rho h >> k both sides equal
        # sf(h) to 1e-30 or closer; at rho 0.86, h 5, k 1.25 the exact tail
        # sits 9.0e-12 relative below the bound.
        for rho in np.linspace(0.05, 0.95, 11):
            for h in np.linspace(0.25, 5.0, 20):
                for k in np.linspace(0.25, 5.0, 20):
                    exact = upper_orthant(h, k, rho)
                    bound = bivariate_upper_bound(rho, h, k)
                    assert bound >= exact * (1.0 - ORTHANT_RTOL), (rho, h, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            bivariate_tail_check(0.0, 1.0, 1.0, 1000, RngStream(0))
        with pytest.raises(DomainError):
            bivariate_tail_check(0.5, -1.0, 1.0, 1000, RngStream(0))


def _paired_normal_star_counts(N, h, k, rho, trials, gen):
    """Reference for same_unique_counts from materialized paired normal draws."""
    g1 = gen.standard_normal((trials, N))
    g2 = gen.standard_normal((trials, N))
    viol_x = g1 > h
    viol_y = rho * g1 + math.sqrt(1.0 - rho * rho) * g2 > k
    rows = np.nonzero(viol_y.sum(axis=1) == 1)[0]
    y_flap = np.argmax(viol_y[rows], axis=1)
    x_same = viol_x[rows].sum(axis=1) == 1
    x_flap = np.argmax(viol_x[rows], axis=1)
    return rows.size, int(np.count_nonzero(x_same & (x_flap == y_flap)))


class TestSameUniqueCounts:
    @pytest.mark.parametrize("rho", [-0.3, 0.6, 0.95])
    def test_matches_paired_normal_draws(self, rho):
        N, h, k = 8, 1.0, 1.3
        ref_trials, fast_trials = 40_000, 400_000
        ref = _paired_normal_star_counts(N, h, k, rho, ref_trials, RngStream(421).generator())
        fast = same_unique_counts(N, h, k, rho, fast_trials, RngStream(422).generator())
        assert abs(two_proportion_z(fast[0], fast_trials, ref[0], ref_trials)) <= 4.0
        assert abs(two_proportion_z(fast[1], fast[0], ref[1], ref[0])) <= 4.0

    def test_identical_points_always_share_the_flap(self):
        cond, star = same_unique_counts(16, 1.5, 1.5, 1.0, 10_000, RngStream(423).generator())
        assert cond > 0 and star == cond


def _shell_pair(n, gap):
    """x = sqrt(n+1) e1 and y on the same sphere at distance `gap` from x."""
    s = math.sqrt(n + 1.0)
    theta = 2.0 * math.asin(gap / (2.0 * s))
    x, y = np.zeros(n + 1), np.zeros(n + 1)
    x[0] = s
    y[0], y[1] = s * math.cos(theta), s * math.sin(theta)
    return x, y


def _action_hits_reference(x, y, width, trials, gen):
    """Part (i) of xy-pair as it was before the n-free sampler: one uniform
    (n+1)-wide direction per trial.  Returns (separation hits, retention hits)."""
    dirs = gen.standard_normal((trials, x.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sep = np.abs(dirs @ (x - y)) >= width
    keep = np.sqrt(np.maximum(x @ x - (dirs @ x) ** 2, 0.0)) >= np.linalg.norm(x) - 1.0
    return int(sep.sum()), int(keep.sum())


def _control_rho_reference(x, y, rng):
    """Part (ii)'s correlation from a full Haar frame of R^{n+1}: rows 1..n
    span the control subspace."""
    control = sample_haar_frame(x.size, x.size, rng).vectors[1:]
    xp, yp = control @ x, control @ y
    return float(xp @ yp / (np.linalg.norm(xp) * np.linalg.norm(yp)))


class TestXYPair:
    def test_action_rates_match_n_wide_reference(self, calibration_small):
        n, trials = 16, 200_000
        width = curb_interval_width(c2_from(calibration_small))
        # A gap at which about half the directions separate the pair.
        x, y = _shell_pair(n, width * math.sqrt(n + 1.0) / 0.6745)
        report = xy_pair_experiment(n, x, y, trials, RngStream(417), calibration_small)
        sep, keep = _action_hits_reference(x, y, width, trials, RngStream(418).generator())
        for metric, ref in (("action_separation_rate", sep), ("projection_retention_rate", keep)):
            hits = round(report.value(metric) * trials)
            assert 0 < ref < trials
            assert abs(two_proportion_z(hits, trials, ref, trials)) <= 4.0

    def test_control_rho_matches_full_frame(self, calibration_small):
        from scipy.stats import ks_2samp

        n, draws = 16, 400
        x, y = _shell_pair(n, math.sqrt(n + 1.0))  # rho near 1/2
        fast = [
            xy_pair_experiment(n, x, y, 10, RngStream(419, t), calibration_small).value("rho")
            for t in range(draws)
        ]
        ref = [_control_rho_reference(x, y, RngStream(420, t)) for t in range(draws)]
        assert ks_2samp(fast, ref).pvalue > 1e-3

    def test_identical_points_never_separate(self, calibration_small):
        n = 64
        s = math.sqrt(n + 1.0)
        x = np.zeros(n + 1)
        x[0] = s
        report = xy_pair_experiment(n, x, x.copy(), 20_000, RngStream(415), calibration_small)
        assert report.value("action_separation_rate") == 0.0

    def test_far_pair_star_bounded(self, calibration_small):
        n = 64
        s = math.sqrt(n + 1.0)
        x = np.zeros(n + 1)
        x[0] = s
        y = np.zeros(n + 1)
        y[0], y[1] = s * 0.5, s * math.sqrt(3) / 2.0
        report = xy_pair_experiment(n, x, y, 150_000, RngStream(416), calibration_small)
        assert report.all_passed()
        assert report.value("same_unique_rate") <= report.value("conditional_bound") + 0.01

    def test_rejects_out_of_shell_points(self, calibration_small):
        n = 64
        x = np.zeros(n + 1)
        x[0] = 1.0  # far inside the shell's inner radius
        with pytest.raises(DomainError):
            xy_pair_experiment(n, x, x, 1000, RngStream(0), calibration_small)
