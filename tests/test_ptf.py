import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import homogeneity_pvalue
from convexlab.errors import DimensionMismatchError, DomainError, SolverError
from convexlab.gauss import Frame, haar_coords, sample_haar_frame
from convexlab.ptf import (
    BLOCK,
    DEFAULT_CLIP,
    MOMENT_RTOL,
    DiscreteDistribution,
    PTFInstance,
    estimate_no_distance,
    eval_ptf_batch,
    eval_ptf_rescaled,
    gaussian_raw_moment,
    match_moments_nonneg,
    match_moments_with_negative,
    moment_error,
    response_tv_experiment,
    sample_ptf_instance,
    _response_block,
)
from convexlab.rng import RngStream
from convexlab.testers import baseline_strategy, run_one_sided


class TestRawMoments:
    def test_base_cases(self):
        assert gaussian_raw_moment(2.5, 0) == 1.0
        assert gaussian_raw_moment(2.5, 1) == 2.5

    def test_cubic_identity(self):
        # E[(mu+g)^3] = mu^3 + 3 mu for unit-variance g.
        assert gaussian_raw_moment(1.0, 3) == pytest.approx(4.0, abs=1e-14)

    @given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=0, max_value=8))
    def test_against_binomial_expansion(self, mu, k):
        # Independent oracle: expand (mu + g)^k with known central moments.
        central = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]
        oracle = sum(
            math.comb(k, j) * mu ** (k - j) * central[j] for j in range(k + 1)
        )
        assert gaussian_raw_moment(mu, k) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


class TestMomentMatching:
    def test_l1_single_atom(self):
        mu, law = match_moments_nonneg(1)
        assert mu == 1.0
        np.testing.assert_array_equal(law.atoms, [1.0])
        np.testing.assert_array_equal(law.probs, [1.0])

    def test_l3_exact_atoms(self):
        mu, law = match_moments_nonneg(3)
        assert mu == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(law.atoms, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(law.probs, [0.5, 0.5], atol=1e-12)
        assert [law.moment(k) for k in (1, 2, 3)] == pytest.approx([1.0, 2.0, 4.0], abs=1e-12)

    def test_l5_nodes_and_weights(self):
        mu, law = match_moments_nonneg(5)
        root3 = math.sqrt(3.0)
        assert mu == pytest.approx(root3, abs=1e-12)
        np.testing.assert_allclose(law.atoms, [0.0, root3, 2 * root3], atol=1e-9)
        np.testing.assert_allclose(law.probs, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)
        for k in range(1, 6):
            target = gaussian_raw_moment(mu, k)
            assert law.moment(k) == pytest.approx(target, rel=1e-9)

    def test_atoms_nonnegative(self):
        for l in (1, 3, 5, 7):
            _, law = match_moments_nonneg(l)
            assert law.atoms.min() >= -1e-12

    def test_even_l_rejected(self):
        with pytest.raises(DomainError):
            match_moments_nonneg(2)

    def test_negative_law_l1_exact(self):
        law = match_moments_with_negative(1.0, 1, neg_atom=-1.0, neg_prob=0.5)
        np.testing.assert_allclose(law.atoms, [-1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(law.probs, [0.5, 0.5], atol=1e-12)
        assert law.moment(1) == pytest.approx(1.0, abs=1e-12)

    def test_negative_law_l3(self):
        law = match_moments_with_negative(1.0, 3, neg_atom=-1.0, neg_prob=0.01)
        assert len(law.atoms) == 3
        assert float(law.probs[law.atoms < 0].sum()) == pytest.approx(0.01, abs=1e-15)
        for k in (1, 2, 3):
            assert law.moment(k) == pytest.approx(
                gaussian_raw_moment(1.0, k), rel=1e-9, abs=1e-9
            )

    def test_negative_law_validation(self):
        with pytest.raises(DomainError):
            match_moments_with_negative(1.0, 3, neg_atom=0.5)
        with pytest.raises(DomainError):
            match_moments_with_negative(1.0, 3, neg_prob=0.0)
        # Planting half the mass at a huge negative atom breaks the adjusted
        # moment sequence.
        with pytest.raises(SolverError):
            match_moments_with_negative(1.0, 3, neg_atom=-50.0, neg_prob=0.5)

    def test_moment_error(self):
        mu, law = match_moments_nonneg(3)
        assert moment_error(law, mu, 3) <= 1e-12
        shifted = DiscreteDistribution(law.atoms + 1e-6, law.probs)
        assert moment_error(shifted, mu, 3) > MOMENT_RTOL

    def test_distribution_invariants(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.6, 0.6]))


class TestInstance:
    def test_yes_coeffs_nonnegative(self):
        inst = sample_ptf_instance(64, 3, DEFAULT_CLIP, "yes", RngStream(601))
        assert inst.coeffs.min() >= 0.0

    def test_no_flavor_negative_fraction(self):
        inst = sample_ptf_instance(1000, 3, DEFAULT_CLIP, "no", RngStream(602))
        frac = float(np.mean(inst.coeffs < 0))
        assert abs(frac - 0.01) <= 3 * math.sqrt(0.01 * 0.99 / 1000)

    def test_reproducible(self):
        a = sample_ptf_instance(16, 3, DEFAULT_CLIP, "no", RngStream(603))
        b = sample_ptf_instance(16, 3, DEFAULT_CLIP, "no", RngStream(603))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.basis.vectors, b.basis.vectors)

    def test_basis_of_wrong_size_rejected(self):
        frame = sample_haar_frame(4, 3, RngStream(604))
        with pytest.raises(DimensionMismatchError, match="full frame"):
            PTFInstance(
                n=4, l=3, basis=frame, coeffs=np.ones(4), mu=1.0, clip_c=1.0,
                flavor="yes", neg_atom=-1.0, neg_prob=0.01, stream=RngStream(0),
            )


class TestEval:
    def test_origin_inside(self):
        inst = sample_ptf_instance(16, 3, DEFAULT_CLIP, "yes", RngStream(605))
        assert inst.labels(np.zeros((1, 16)))[0] == 1

    def test_clip_boundary(self):
        inst = sample_ptf_instance(16, 3, DEFAULT_CLIP, "no", RngStream(606))
        x = np.zeros(16)
        x[0] = inst.clip_radius + 1.0
        assert inst.labels(x[None, :])[0] == 0

    def test_scaled_and_rescaled_paths_agree(self):
        inst = sample_ptf_instance(32, 3, DEFAULT_CLIP, "no", RngStream(607))
        pts = RngStream(608).generator().standard_normal((10_000, 32))
        np.testing.assert_array_equal(eval_ptf_batch(inst, pts), eval_ptf_rescaled(inst, pts))

    def test_yes_instance_midpoint_convexity(self):
        inst = sample_ptf_instance(32, 3, DEFAULT_CLIP, "yes", RngStream(609))
        gen = RngStream(610).generator()
        x = gen.standard_normal((10_000, 32))
        y = gen.standard_normal((10_000, 32))
        lx = eval_ptf_batch(inst, x)
        ly = eval_ptf_batch(inst, y)
        both = (lx == 1) & (ly == 1)
        mids = eval_ptf_batch(inst, 0.5 * (x[both] + y[both]))
        assert np.all(mids == 1)

    def test_rotation_invariance(self):
        inst = sample_ptf_instance(16, 3, DEFAULT_CLIP, "no", RngStream(611))
        rot = sample_haar_frame(16, 16, RngStream(612)).vectors
        rotated = PTFInstance(
            n=16, l=3,
            basis=Frame(ambient_dim=16, vectors=inst.basis.vectors @ rot.T),
            coeffs=inst.coeffs, mu=inst.mu, clip_c=inst.clip_c, flavor=inst.flavor,
            neg_atom=inst.neg_atom, neg_prob=inst.neg_prob, stream=inst.stream,
        )
        pts = RngStream(613).generator().standard_normal((1000, 16))
        np.testing.assert_array_equal(
            eval_ptf_batch(inst, pts), eval_ptf_batch(rotated, pts @ rot.T)
        )

    def test_dimension_check(self):
        inst = sample_ptf_instance(16, 3, DEFAULT_CLIP, "yes", RngStream(614))
        with pytest.raises(DimensionMismatchError):
            inst.labels(np.zeros((1, 17)))


def _toy_all_negative_instance():
    """A 2-D instance whose sublevel set is the clipped complement of a disk."""
    basis = Frame(ambient_dim=2, vectors=np.eye(2))
    return PTFInstance(
        n=2, l=1, basis=basis, coeffs=np.array([-1.0, -1.0]), mu=-1.0, clip_c=100.0,
        flavor="no", neg_atom=-1.0, neg_prob=0.5, stream=RngStream(0),
    )


class TestNoDistance:
    def test_yes_flavor_rejected(self):
        inst = sample_ptf_instance(16, 3, DEFAULT_CLIP, "yes", RngStream(615))
        with pytest.raises(DomainError):
            estimate_no_distance(inst, 10, 10, RngStream(0))

    def test_toy_against_grid_oracle(self):
        # Independent geometry: the set is {|x|^2 >= 2} within the clip ball.
        inst = _toy_all_negative_instance()
        grid = np.linspace(-4.0, 4.0, 41)
        pts = np.array([[a, b] for a in grid for b in grid])
        norms_sq = np.einsum("ij,ij->i", pts, pts)
        off_boundary = np.abs(norms_sq - 2.0) > 1e-9  # knife-edge ties round either way
        labels = eval_ptf_batch(inst, pts[off_boundary])
        oracle = (
            (norms_sq[off_boundary] >= 2.0)
            & (norms_sq[off_boundary] <= inst.clip_radius**2)
        ).astype(np.int8)
        np.testing.assert_array_equal(labels, oracle)

    def test_toy_pattern_frequency_high(self):
        inst = _toy_all_negative_instance()
        report = estimate_no_distance(inst, 200, 16, RngStream(616))
        assert report.all_passed()
        assert report.value("witness_pattern_rate") >= 0.5

    def test_desk_instance_positive_witness_rate(self):
        inst = None
        for seed in range(40):
            cand = sample_ptf_instance(100, 3, DEFAULT_CLIP, "no", RngStream(617, seed))
            if np.count_nonzero(cand.coeffs < 0) >= 1:
                inst = cand
                break
        assert inst is not None
        report = estimate_no_distance(inst, 300, 24, RngStream(618))
        assert report.all_passed()
        assert report.value("witness_pattern_rate") > 0.0


class TestResponseTV:
    def test_origin_query_identical(self):
        queries = np.zeros((1, 32))
        report = response_tv_experiment(queries, 32, 3, 400, RngStream(619))
        assert report.value("tv") == 0.0

    def test_desk_scale_runs_clean(self):
        queries = RngStream(620).generator().standard_normal((6, 64))
        report = response_tv_experiment(queries, 64, 3, 600, RngStream(621))
        assert report.all_passed()
        assert 0.0 <= report.value("tv") <= 1.0

    def test_query_cap(self):
        with pytest.raises(DomainError):
            response_tv_experiment(np.zeros((21, 16)), 16, 3, 10, RngStream(0))


PIN_N, PIN_TRIALS = 8, 20_000


def _response_keys(yes, no, bad):
    """Per-trial outcomes (yes pattern, no pattern, bad basis)."""
    return [(tuple(y), tuple(m), bool(b)) for y, m, b in zip(yes, no, bad)]


@pytest.fixture(scope="module")
def response_pin():
    """Three queries of R^8, the l = 3 laws, and the responses of
    PIN_TRIALS full sample_haar_frame bases with fresh coefficients."""
    n, trials = PIN_N, PIN_TRIALS
    mu, yes_law = match_moments_nonneg(3)
    no_law = match_moments_with_negative(mu, 3)
    u, v, w = np.linalg.qr(RngStream(624).generator().standard_normal((n, 3)))[0].T
    root = math.sqrt(n)
    queries = np.vstack([0.9 * root * u, root * (0.8 * u + 0.6 * v), 1.1 * root * w])
    full = np.array([
        queries @ sample_haar_frame(n, n, RngStream(625, t)).vectors.T for t in range(trials)
    ])
    return queries, mu, yes_law, no_law, 10.0 * math.log(n) / n, full


class TestLazyProjections:
    """response-tv draws the queries' basis projections with haar_coords, a
    block of trials per stack; pinned here against full sample_haar_frame
    bases."""

    @staticmethod
    def _keys(response_pin, proj_sq, seed):
        # Coefficient draws as response_tv_experiment makes them, one law each.
        _, mu, yes_law, no_law, clip_sq, _ = response_pin
        n, trials = PIN_N, PIN_TRIALS
        yes_c = yes_law.sample((trials, n), RngStream(seed, 1))
        no_c = no_law.sample((trials, n), RngStream(seed, 2))
        yes = np.einsum("tqn,tn->tq", proj_sq, yes_c) <= mu
        no = np.einsum("tqn,tn->tq", proj_sq, no_c) <= mu
        bad = (proj_sq >= clip_sq).any(axis=(1, 2))
        peak = np.minimum(np.floor(n * proj_sq.max(axis=2)), 6).astype(int)
        return _response_keys(yes, no, bad), [tuple(row) for row in peak]

    def test_responses_match_full_bases(self, response_pin):
        queries, full, n = response_pin[0], response_pin[-1], PIN_N
        lazy = np.array([haar_coords(queries, RngStream(626, t)) for t in range(PIN_TRIALS)])
        dense_keys = self._keys(response_pin, full**2 / n, 627)
        lazy_keys = self._keys(response_pin, lazy**2 / n, 628)
        assert homogeneity_pvalue(dense_keys[0], lazy_keys[0]) > 1e-3
        assert homogeneity_pvalue(dense_keys[1], lazy_keys[1]) > 1e-3

    def test_block_responses_match_full_bases(self, response_pin):
        # The trials of response_tv_experiment's map_units units, one block
        # each, against independent full bases.  Trials within a block must
        # be independent too: a draw shared across a block spreads the
        # block totals wider than BLOCK times the variance of one trial.
        from scipy.stats import chi2

        queries, mu, yes_law, no_law, clip_sq, full = response_pin
        n, trials = PIN_N, PIN_TRIALS - BLOCK // 2  # the last block is short
        blocks = [
            _response_block(RngStream(629), b, trials, queries, n, mu, clip_sq, yes_law, no_law)
            for b in range(-(-trials // BLOCK))
        ]
        assert [block[0].size for block in blocks[-2:]] == [BLOCK, BLOCK - BLOCK // 2]
        bad, yes, no = (np.concatenate(column) for column in zip(*blocks))
        dense_keys = self._keys(response_pin, full**2 / n, 627)
        assert homogeneity_pvalue(dense_keys[0], _response_keys(yes, no, bad)) > 1e-3
        totals = yes.sum(axis=1) + no.sum(axis=1)
        full_blocks = trials // BLOCK
        sums = totals[: full_blocks * BLOCK].reshape(full_blocks, BLOCK).sum(axis=1)
        dispersion = ((sums - sums.mean()) ** 2).sum() / (BLOCK * totals.var(ddof=1))
        assert chi2.sf(dispersion, full_blocks - 1) > 1e-3

    def test_stacked_frames_match_full_bases(self, response_pin):
        # Per frame, and for pairs of consecutive frames of a stack, which
        # must be independent.
        queries, full = response_pin[0], response_pin[-1]
        stacks = [haar_coords(queries, RngStream(630, b), BLOCK) for b in range(PIN_TRIALS // BLOCK)]
        lazy = np.concatenate(stacks)
        dense_peak, lazy_peak = (
            [tuple(row) for row in np.minimum(np.floor((coords**2).max(axis=2)), 6).astype(int)]
            for coords in (full[: lazy.shape[0]], lazy)
        )
        assert homogeneity_pvalue(dense_peak, lazy_peak) > 1e-3
        assert homogeneity_pvalue(
            list(zip(dense_peak[0::2], dense_peak[1::2])), list(zip(lazy_peak[0::2], lazy_peak[1::2]))
        ) > 1e-3


class TestOneSidedSoundnessOnYes:
    def test_never_certifies_nonconvexity(self):
        inst = sample_ptf_instance(24, 3, DEFAULT_CLIP, "yes", RngStream(622))
        for seed in range(50):
            strategy = baseline_strategy("hull-sampling", 20, 24, RngStream(623, seed))
            verdict, _, _ = run_one_sided(strategy, inst, 20)
            assert verdict.outcome == "accept"
