import math

import numpy as np
import pytest

from convexlab.adaptive import (
    AdaptiveInstance,
    convexified_oracle,
    detect_events,
    estimate_distance_lb,
    eval_adaptive_batch,
    event_rate_experiment,
    sample_adaptive_instance,
    sample_violating_triple,
    strip_crossing_experiment,
    strip_halfwidth,
    thin_shell_bounds,
)
from convexlab.errors import DimensionMismatchError, DomainError
from convexlab.gauss import Frame, sample_haar_frame, std_normal_cdf
from convexlab.nazarov import NazarovBody, classify, solve_r_half
from convexlab.rng import RngStream
from convexlab.testers import in_convex_hull, run_one_sided


@pytest.fixture(scope="module")
def inst100():
    return sample_adaptive_instance(100, None, RngStream(301))


@pytest.fixture(scope="module")
def inst16():
    return sample_adaptive_instance(16, None, RngStream(302))


class TestInstance:
    def test_default_halfspace_count(self, inst16):
        assert inst16.N == 16

    def test_frames_orthogonal(self, inst16):
        rows = inst16.frame.vectors
        cross = rows[:16] @ rows[16:].T
        assert np.abs(cross).max() <= 1e-8

    @pytest.mark.parametrize("rows, dim", [(16, 32), (32, 33)], ids=["control-only", "wrong-ambient"])
    def test_frame_of_wrong_size_rejected(self, inst16, rows, dim):
        with pytest.raises(DimensionMismatchError, match="2n vectors"):
            AdaptiveInstance(
                n=16,
                N=inst16.N,
                r=inst16.r,
                frame=Frame(ambient_dim=dim, vectors=np.eye(dim)[:rows]),
                body=inst16.body,
                action_dirs=inst16.action_dirs,
                stream=inst16.stream,
            )

    def test_half_membership_convention(self, inst100):
        value = std_normal_cdf(inst100.r / 10.0) ** inst100.N
        assert abs(value - 0.5) <= 1e-9

    def test_minimum_dimension(self):
        with pytest.raises(DomainError):
            sample_adaptive_instance(3, None, RngStream(0))


class TestOracle:
    def test_far_point_labeled_zero(self, inst16):
        x = np.zeros(32)
        x[0] = 1.1 * math.sqrt(32)
        assert inst16.labels(x[None, :])[0] == 0

    def test_origin_labeled_one(self, inst16):
        assert inst16.labels(np.zeros((1, 32)))[0] == 1

    def test_strip_zero_point(self, inst100):
        # A point in exactly one flap whose action inner product is zero lies
        # inside the strip, so its label is 0.
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(303))
        assert trip is not None
        v = inst100.action_dirs[trip.flap_index]
        action = inst100.frame.vectors[inst100.n:]
        v_ambient = v @ action
        proj = float(action @ trip.x @ v)
        shifted = trip.x - proj * v_ambient / float(v @ v)
        assert abs(float(action @ shifted @ v)) <= 1e-6
        assert np.linalg.norm(shifted) <= math.sqrt(200)
        assert inst100.labels(shifted[None, :])[0] == 0

    def test_dimension_mismatch(self, inst16):
        with pytest.raises(DimensionMismatchError):
            inst16.labels(np.zeros((1, 31)))

    def test_rotation_invariance(self, inst16):
        d = 32
        rot = sample_haar_frame(d, d, RngStream(304)).vectors
        rotated = AdaptiveInstance(
            n=inst16.n,
            N=inst16.N,
            r=inst16.r,
            frame=Frame(ambient_dim=d, vectors=inst16.frame.vectors @ rot.T),
            body=inst16.body,
            action_dirs=inst16.action_dirs,
            stream=inst16.stream,
        )
        pts = RngStream(305).generator().standard_normal((1000, d))
        base = eval_adaptive_batch(inst16, pts)
        conj = eval_adaptive_batch(rotated, pts @ rot.T)
        np.testing.assert_array_equal(base, conj)


class TestLabelRule:
    def test_batch_rule_matches_per_row_spec(self):
        # The labelling rule read row by row from the instance's own fields:
        # the control rows of its frame, then the action rows.
        flap_labels = set()
        for n in (4, 8):
            for seed in range(10):
                inst = sample_adaptive_instance(n, None, RngStream(340, seed))
                gen = RngStream(341, seed).generator()
                pts = gen.standard_normal((40, 2 * n)) * gen.uniform(0.3, 1.1, (40, 1))
                expected = []
                control, action = inst.frame.vectors[:n], inst.frame.vectors[n:]
                for x in pts:
                    xc, xa = control @ x, action @ x
                    if x @ x > 2 * n or math.sqrt(xc @ xc) > math.sqrt(n):
                        expected.append(0)
                        continue
                    violated = [j for j in range(inst.N) if inst.body.normals[j] @ xc > inst.r]
                    outside = [abs(inst.action_dirs[j] @ xa) > strip_halfwidth(n) for j in violated]
                    expected.append(int(all(outside)))
                    if violated:
                        flap_labels.add(expected[-1])
                assert eval_adaptive_batch(inst, pts).tolist() == expected
        assert flap_labels == {0, 1}

    @pytest.mark.parametrize("n", [8, 32, 50])
    def test_control_ball_boundary_where_sqrt_n_squared_rounds_up(self, n):
        # x = sqrt(n) e1 has control norm exactly sqrt(n), though x_C . x_C
        # rounds above n: the rule labels it as the body and the convexified
        # oracle, which reads the body's labels, do.
        eye, r = np.eye(2 * n), solve_r_half(n, 2)
        inst = AdaptiveInstance(
            n=n,
            N=2,
            r=r,
            frame=Frame(ambient_dim=2 * n, vectors=eye),
            body=NazarovBody(n=n, N=2, r=r, normals=np.eye(n)[1:3]),
            action_dirs=np.eye(n)[:2],
            stream=RngStream(0),
        )
        x = eye[:1] * math.sqrt(n)
        assert float(x[0] @ x[0]) > n
        assert inst.labels(x).tolist() == convexified_oracle(inst).labels(x).tolist() == [1]


class TestViolatingTriples:
    def test_replay_and_geometry(self, inst100):
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(306))
        assert trip is not None
        labels = inst100.labels(np.vstack([trip.x, trip.x_plus, trip.x_minus]))
        assert labels.tolist() == [0, 1, 1]
        lo, hi = thin_shell_bounds(inst100.n)
        assert lo <= np.linalg.norm(trip.x) <= hi
        np.testing.assert_allclose(trip.x, 0.5 * (trip.x_plus + trip.x_minus), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(trip.x_plus - trip.x), 1.0, atol=1e-12
        )

    def test_control_class_unchanged_along_action(self, inst100):
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(307))
        assert trip is not None
        control = inst100.frame.vectors[:inst100.n]
        base = classify(inst100.body, control @ trip.x)
        plus = classify(inst100.body, control @ trip.x_plus)
        minus = classify(inst100.body, control @ trip.x_minus)
        assert base == plus == minus

    def test_triple_is_hull_certificate(self, inst100):
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(308))
        assert trip is not None
        lam = in_convex_hull(trip.x, np.vstack([trip.x_minus, trip.x_plus]))
        assert lam is not None
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-6)

    def test_distance_lower_bound_positive(self, inst100):
        report = estimate_distance_lb(inst100, 100_000, RngStream(309))
        assert report.all_passed()
        assert report.value("p_hat") > 0

    def test_convexified_instance_has_no_triples(self, inst100):
        oracle = convexified_oracle(inst100)
        report = estimate_distance_lb(inst100, 100_000, RngStream(310), oracle=oracle)
        assert report.value("p_hat") == 0.0

    def test_a_const_validation(self, inst16):
        with pytest.raises(DomainError):
            sample_violating_triple(inst16, 100, a_const=0.0, rng=RngStream(0))


class TestZeroLabelAnatomy:
    def test_every_inner_zero_comes_from_a_strip_hit(self, inst100):
        # Inside the ball with a small control part, the only way to be
        # labeled 0 is to sit in a flap whose strip test fails.
        pts = RngStream(320).generator().standard_normal((4000, 200))
        labels = eval_adaptive_batch(inst100, pts)
        norms_sq = np.einsum("ij,ij->i", pts, pts)
        control, action = inst100.frame.vectors[:100], inst100.frame.vectors[100:]
        xc = pts @ control.T
        xc_sq = np.einsum("ij,ij->i", xc, xc)
        inner_zero = (labels == 0) & (norms_sq <= 200.0) & (xc_sq <= 100.0)
        rows = np.nonzero(inner_zero)[0]
        assert rows.size > 0
        for i in rows:
            viol = np.nonzero(inst100.body.normals @ xc[i] > inst100.r)[0]
            assert viol.size >= 1
            xa = action @ pts[i]
            in_strip = [
                abs(float(inst100.action_dirs[j] @ xa)) <= strip_halfwidth(inst100.n)
                for j in viol
            ]
            assert any(in_strip)

    def test_seed_probability_stable_across_instances(self):
        # Coefficient of variation of the triple-seed probability over seeds.
        p_hats = []
        for seed in range(10):
            inst = sample_adaptive_instance(100, None, RngStream(330, seed))
            report = estimate_distance_lb(inst, 100_000, RngStream(331, seed))
            p_hats.append(report.value("p_hat"))
        p_hats = np.array(p_hats)
        assert p_hats.min() > 0
        assert p_hats.std(ddof=1) / p_hats.mean() < 0.5


class TestEvents:
    def test_empty_transcript_vacuous(self, inst16):
        flags = detect_events(inst16, np.empty((0, 32)), 3)
        assert set(flags) == {"E1", "E2"}
        assert all(flags.values())

    def test_duplicate_flap_point_keeps_strip_event(self, inst100):
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(311))
        assert trip is not None
        flags = detect_events(inst100, np.vstack([trip.x, trip.x]), 3)
        assert flags["E2"]

    def test_event_rate_on_random_transcripts(self):
        report = event_rate_experiment(64, 3, 200, RngStream(312))
        assert report.all_passed()
        assert report.value("E1_rate") >= 0.95

    def test_reject_implies_strip_disagreement(self, inst100):
        # A run that rejects must have seen two same-flap queries with
        # different strip indicators: the E2 event fails on its transcript.
        trip = sample_violating_triple(inst100, 200_000, rng=RngStream(313))
        assert trip is not None
        queries = np.vstack([trip.x_minus, trip.x_plus, trip.x])

        def cheater(points, labels):
            return None if len(points) else queries

        verdict, points, labels = run_one_sided(cheater, inst100, 3)
        assert verdict.outcome == "reject"
        flags = detect_events(inst100, points, 3)
        assert not flags["E2"]


def _strip_cells_reference(n, q, radius, trials, gen, chunk=50_000):
    """The n-wide loop that strip_crossing_experiment replaces: the base point,
    the q displaced points and v drawn as n-vectors.  Returns the counts of
    the cells (cluster disagrees, agrees and y stays, agrees and y crosses)."""
    half = strip_halfwidth(n)
    cells = np.zeros(3, dtype=np.int64)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        base = gen.standard_normal((m, n))
        base *= math.sqrt(n) / np.linalg.norm(base, axis=1, keepdims=True)

        def displaced(scale):
            raw = gen.standard_normal((m, n))
            raw -= (np.einsum("ij,ij->i", raw, base) / n)[:, None] * base
            return base + scale * raw / np.linalg.norm(raw, axis=1, keepdims=True)

        v = gen.standard_normal((m, n))

        def outside(points):
            return np.abs(np.einsum("ij,ij->i", v, points)) > half

        out_base = outside(base)
        agree = np.ones(m, dtype=bool)
        for _ in range(q - 1):
            agree &= outside(displaced(radius / 3.0)) == out_base
        cross = outside(displaced(2.0 * radius / 3.0)) != out_base
        cells += [m - agree.sum(), (agree & ~cross).sum(), (agree & cross).sum()]
    return cells


def _strip_cells(report, trials):
    rate = report.estimate("conditional_crossing")
    crossings = round(rate.value * rate.sample_count)
    return [trials - rate.sample_count, rate.sample_count - crossings, crossings]


class TestStripCrossing:
    def test_zero_radius_never_crosses(self):
        report = strip_crossing_experiment(64, 4, 0.0, 20_000, RngStream(314))
        assert report.value("conditional_crossing") == 0.0

    def test_desk_scale_rate_bounded(self):
        report = strip_crossing_experiment(100, 4, 2.0 * 100**0.25, 50_000, RngStream(315))
        assert report.all_passed()
        assert 0.0 < report.value("conditional_crossing") < 1.0

    @pytest.mark.parametrize("n", [2, 8, 12, 16])
    def test_cells_match_n_wide_reference(self, n):
        from scipy.stats import chi2_contingency

        trials = 400_000
        radius = math.sqrt(n)
        fast = _strip_cells(strip_crossing_experiment(n, 4, radius, trials, RngStream(316, n)), trials)
        ref = _strip_cells_reference(n, 4, radius, trials, RngStream(317, n).generator())
        assert chi2_contingency(np.array([fast, ref]), correction=False).pvalue > 1e-3

    def test_rejects_n_below_two(self):
        with pytest.raises(DomainError):
            strip_crossing_experiment(1, 4, 1000.0 * math.sqrt(4) * 1**0.25, 100, RngStream(318))

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_rejects_radius_that_is_not_a_nonnegative_number(self, radius):
        with pytest.raises(DomainError, match="cluster radius"):
            strip_crossing_experiment(64, 4, radius, 100, RngStream(318))

    def test_large_n_allocates_no_n_wide_batch(self):
        import tracemalloc

        tracemalloc.start()
        try:
            report = strip_crossing_experiment(
                4096, 4, 1000.0 * math.sqrt(4) * 4096**0.25, 20_000, RngStream(319)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < report.value("conditional_crossing") < 1.0
        # One n-wide batch of the old loop was 20,000 x 4096 floats, 655 MB.
        assert peak < 4e6
