import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import OWENS_T_RTOL, bisect_quantile, series_normal_cdf
from convexlab import gauss
from convexlab.errors import DimensionMismatchError, DomainError
from convexlab.gauss import (
    Frame,
    haar_coords,
    owens_t,
    sample_haar_frame,
    sf_array,
    sphere_coords,
    std_normal_cdf,
    std_normal_isf,
    std_normal_quantile,
    std_normal_sf,
    upper_orthant,
    verify_tail_bounds,
)
from convexlab.rng import RngStream


class TestCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry_identity(self):
        assert abs(std_normal_cdf(0.7) + std_normal_cdf(-0.7) - 1.0) <= 1e-12

    def test_against_series_oracle(self):
        # Oracle value bracketed by the standard tail inequalities at r=1.96.
        r = 1.96
        oracle = series_normal_cdf(r)
        phi = math.exp(-r * r / 2.0) / math.sqrt(2.0 * math.pi)
        lower = phi * (1.0 / r - 1.0 / r**3)
        upper = phi * (1.0 / r - 1.0 / r**3 + 3.0 / r**5)
        assert lower <= 1.0 - oracle <= upper
        assert abs(std_normal_cdf(r) - oracle) <= 1e-12

    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_matches_series_in_core_range(self, x):
        # The alternating series cancels catastrophically past |x| ~ 4.
        assert abs(std_normal_cdf(x) - series_normal_cdf(x)) <= 1e-13

    @given(st.floats(min_value=4.0, max_value=12.0))
    def test_tail_bracketed_beyond_series_range(self, r):
        phi = math.exp(-r * r / 2.0) / math.sqrt(2.0 * math.pi)
        tail = std_normal_sf(r)
        assert phi * (1.0 / r - 1.0 / r**3) <= tail <= phi * (1.0 / r - 1.0 / r**3 + 3.0 / r**5)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                std_normal_cdf(bad)

    def test_sf_array_matches_series(self):
        # The count samplers draw from sf_array; the series oracle shares no code with it.
        xs = np.linspace(-4.0, 4.0, 161)
        oracle = np.array([1.0 - series_normal_cdf(x) for x in xs])
        assert np.abs(sf_array(xs) - oracle).max() <= 1e-13


class TestSfArray:
    """sf_array's numpy erfc against scipy.special.erfc, which evaluates the
    same Cephes approximations in C."""

    def test_matches_scipy_erfc_on_a_dense_grid(self):
        # Measured maximum of |sf_array - scipy| / max(scipy, tiny) on this
        # grid: 5.8e-16 (numpy 2.4.6, scipy 1.17.1); in the subnormal tail the
        # two differ by at most one subnormal step.  Bound: 1e-15.
        from scipy import special

        xs = np.linspace(-40.0, 40.0, 400_001)
        ref = 0.5 * special.erfc(xs / math.sqrt(2.0))
        got = sf_array(xs)
        tiny = np.finfo(np.float64).tiny
        assert (np.abs(got - ref) / np.maximum(ref, tiny)).max() <= 1e-15
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)

    def test_special_values(self):
        got = sf_array(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 40.0, -40.0]))
        np.testing.assert_array_equal(got, [0.0, 1.0, np.nan, 0.5, 0.5, 0.0, 1.0])

    def test_shapes(self):
        assert sf_array(np.array([])).shape == (0,)
        scalar = sf_array(1.96)
        assert np.ndim(scalar) == 0 and abs(scalar - std_normal_sf(1.96)) <= 1e-16
        grid = np.linspace(-12.0, 12.0, 40_000)
        np.testing.assert_array_equal(sf_array(grid.reshape(200, 200)), sf_array(grid).reshape(200, 200))

    def test_in_range_chunk_matches_the_general_path(self):
        # Arguments in [sqrt 2, 8 sqrt 2) take the one P/Q evaluation; one nan
        # sends the same chunk through the per-range masks instead.
        xs = np.linspace(1.5, 11.0, 5_000)
        np.testing.assert_array_equal(sf_array(np.append(xs, np.nan))[:-1], sf_array(xs))


class TestOwensT:
    """owens_t against scipy.special.owens_t, which ports the same algorithm
    (Patefield and Tandy 2000) to C."""

    def test_matches_scipy_on_a_dense_grid(self):
        # Measured maximum of |owens_t - scipy| / |scipy| (numpy 2.4.6, scipy
        # 1.17.1): 2.1e-14 on the coarse grid; 1.6e-13 on the dense strip
        # around the cells where T3's series runs (h past 3.36, a from 0.36
        # to 1, and 1/a there for a > 1), at h = 3.37, a = 0.8875, where an
        # mpmath quadrature puts both sides about 1e-13 off.  3.6e-15 at the
        # cancellation corner h ~ 8, a ~ 1.05 of the a > 1 identity.  Bound:
        # OWENS_T_RTOL.
        from scipy import special

        grids = [
            np.meshgrid(np.linspace(0.05, 8.0, 160), np.linspace(-20.0, 20.0, 401)),
            np.meshgrid(np.linspace(3.3, 4.9, 161), np.linspace(0.45, 2.2, 461)),
            np.meshgrid(np.linspace(7.5, 8.0, 21), np.linspace(1.0, 1.1, 41)),
        ]
        h = np.concatenate([g[0].ravel() for g in grids])
        a = np.concatenate([g[1].ravel() for g in grids])
        ref = special.owens_t(h, a)
        got = np.array([owens_t(x, y) for x, y in zip(h.tolist(), a.tolist())])
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        nonzero = ref != 0.0
        assert (np.abs(got - ref)[nonzero] / np.abs(ref[nonzero])).max() <= OWENS_T_RTOL

    def test_symmetries_and_closed_forms(self):
        for h in (0.3, 1.7, 5.0):
            for a in (0.2, 0.99, 3.0):
                assert owens_t(-h, a) == owens_t(h, a)
                assert owens_t(h, -a) == -owens_t(h, a)
            assert owens_t(h, 0.0) == 0.0
        for h in (0.3, 1.7, 3.5):  # inside the series oracle's range
            tail = 1.0 - series_normal_cdf(h)
            assert abs(owens_t(h, 1.0) - 0.5 * tail * (1.0 - tail)) <= 1e-13
        for a in (0.5, 1.0, 7.0):
            assert abs(owens_t(0.0, a) - math.atan(a) / (2.0 * math.pi)) <= 1e-16

    def test_rejects_non_finite(self):
        for h, a in ((math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(DomainError):
                owens_t(h, a)

    def test_series_and_quadrature_constants(self):
        # T3's polynomial stands for 1/(1 + x^2) on [0, 1]; T5 is the
        # 26-point Gauss-Legendre rule folded onto [0, 1].
        x = np.linspace(0.0, 1.0, 10_001)
        poly = np.polynomial.polynomial.polyval(x * x, gauss._OWEN_T3)
        assert np.abs(poly - 1.0 / (1.0 + x * x)).max() <= 1e-15
        nodes, weights = np.polynomial.legendre.leggauss(26)
        np.testing.assert_allclose(gauss._OWEN_T5_X2, nodes[13:] ** 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss._OWEN_T5_W, weights[13:] / (2.0 * math.pi), rtol=0, atol=1e-16)


class TestUpperOrthant:
    @pytest.mark.parametrize("rho", [-0.3, 0.5, 0.95, 0.999])
    @pytest.mark.parametrize("h,k", [(0.5, 1.2), (1.0, 1.0), (2.0, 3.0), (3.5, 3.2)])
    def test_matches_scipy_bivariate_cdf(self, rho, h, k):
        from scipy.stats import multivariate_normal

        law = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        oracle = law.cdf([-h, -k])  # P[X > h, Y > k] by symmetry
        assert abs(upper_orthant(h, k, rho) - oracle) <= 1e-9 * oracle + 1e-15

    @pytest.mark.parametrize("h,k", [(0.5, 1.2), (2.0, 2.0), (3.0, 1.5)])
    def test_degenerate_correlations(self, h, k):
        from scipy.stats import multivariate_normal

        law = multivariate_normal(mean=[0.0, 0.0], cov=np.ones((2, 2)), allow_singular=True)
        tail = 1.0 - series_normal_cdf(max(h, k))
        assert abs(upper_orthant(h, k, 1.0) - tail) <= 1e-13
        assert abs(upper_orthant(h, k, 1.0) - law.cdf([-h, -k])) <= 1e-9 * tail
        assert abs(upper_orthant(h, k, 1.0 - 1e-12) - tail) <= 1e-5 * tail
        assert upper_orthant(h, k, -1.0) == 0.0

    def test_domain(self):
        for h, k, rho in ((0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 1.0 + 1e-12)):
            with pytest.raises(DomainError):
                upper_orthant(h, k, rho)


class TestQuantile:
    def test_half_is_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_roundtrip_through_cdf(self):
        assert abs(std_normal_quantile(std_normal_cdf(1.3)) - 1.3) <= 1e-9

    def test_two_thirds_against_bisection_oracle(self):
        oracle = bisect_quantile(2.0 / 3.0)
        assert abs(std_normal_quantile(2.0 / 3.0) - oracle) <= 1e-10

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_inverse_property(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)

    def test_isf_deep_tail(self):
        # Far below where 1 - q rounds to 1 in double precision.
        q = 1e-30
        x = std_normal_isf(q)
        assert abs(std_normal_sf(x) - q) <= 1e-12 * q + 1e-300
        assert 11.0 < x < 12.5


class TestFrame:
    def test_full_frame_gram_identity(self):
        frame = sample_haar_frame(3, 3, RngStream(1))
        gram = frame.vectors @ frame.vectors.T
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_one_dimensional_is_sign(self):
        values = {float(sample_haar_frame(1, 1, RngStream(s)).vectors[0, 0]) for s in range(12)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_projection_mean_matches_subspace_fraction(self):
        # |proj of a fixed unit vector onto a random k-frame|^2 has mean k/d.
        d, k, draws = 16, 8, 10_000
        z = np.zeros(d)
        z[0] = 1.0
        root = RngStream(5)
        samples = np.empty(draws)
        for i in range(draws):
            frame = sample_haar_frame(d, k, root.child(i))
            samples[i] = float(np.sum(frame.coords(z) ** 2))
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(samples.mean() - k / d) <= 3 * se

    def test_invariant_violations_rejected(self):
        with pytest.raises(DomainError):
            Frame(ambient_dim=2, vectors=np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            sample_haar_frame(2, 3, RngStream(0))
        with pytest.raises(DimensionMismatchError):
            Frame(ambient_dim=3, vectors=np.eye(2))

    def test_coords_dimension_check(self):
        frame = sample_haar_frame(4, 2, RngStream(9))
        with pytest.raises(DimensionMismatchError):
            frame.coords(np.zeros(3))


class TestHaarCoords:
    """Coordinates of fixed rows in a Haar frame, drawn without the frame.

    The law is pinned against full frames in test_ptf (TestLazyProjections).
    """

    QUERIES = RngStream(180).generator().standard_normal((5, 12))

    def test_gram_identity(self):
        coords = haar_coords(self.QUERIES, RngStream(181))
        assert coords.shape == (5, 12)
        gram = self.QUERIES @ self.QUERIES.T
        assert np.abs(coords @ coords.T - gram).max() <= 1e-10

    def test_repeated_and_zero_rows(self):
        x = np.vstack([self.QUERIES[:2], self.QUERIES[:1], np.zeros((1, 12))])
        coords = haar_coords(x, RngStream(182))
        assert np.abs(coords @ coords.T - x @ x.T).max() <= 1e-10
        assert np.abs(coords[2] - coords[0]).max() <= 1e-10
        assert np.abs(coords[3]).max() <= 1e-12

    def test_more_rows_than_dimension(self):
        x = self.QUERIES[:, :4]
        coords = haar_coords(x, RngStream(183))
        assert coords.shape == (5, 4)
        assert np.abs(coords @ coords.T - x @ x.T).max() <= 1e-10

    def test_same_stream_same_bits(self):
        first = haar_coords(self.QUERIES, RngStream(184))
        assert first.tobytes() == haar_coords(self.QUERIES, RngStream(184)).tobytes()
        assert not np.array_equal(first, haar_coords(self.QUERIES, RngStream(185)))

    @pytest.mark.parametrize("d, k", [(20, 20), (128, 64), (101, 5), (100, 8), (200, 200)])
    def test_one_frame_stack_is_the_two_dimensional_qr(self, d, k):
        # Single draws (sample_haar_frame, the testers' views) go through the
        # stacked QR; at one frame they keep the bits of a 2-D QR of the
        # same d x k Gaussian.
        q, r = np.linalg.qr(RngStream(186, d).generator().standard_normal((d, k)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        reference = (q * signs).T
        frame = sample_haar_frame(d, k, RngStream(186, d))
        assert frame.vectors.tobytes() == reference.tobytes()
        points = RngStream(187, d).generator().standard_normal((k, d))
        coords = haar_coords(points, RngStream(186, d))
        assert coords.tobytes() == (np.linalg.qr(points.T, mode="r").T @ reference).tobytes()
        np.testing.assert_array_equal(haar_coords(points, RngStream(186, d), 1)[0], coords)

    def test_stack_shape_and_independent_frames(self):
        stack = haar_coords(self.QUERIES, RngStream(188), 5)
        assert stack.shape == (5, *self.QUERIES.shape)
        gram = self.QUERIES @ self.QUERIES.T
        for coords in stack:
            assert np.abs(coords @ coords.T - gram).max() <= 1e-9
        assert len({coords.tobytes() for coords in stack}) == 5


class TestSphereCoords:
    """Coordinates of fixed rows along uniform directions, drawn without the
    directions; xy-pair and strip-crossing pin them against n-wide loops."""

    def test_matches_normalized_gaussian_directions(self):
        from scipy.stats import ks_2samp

        x = RngStream(186).generator().standard_normal((3, 7))
        fast = sphere_coords(x, 50_000, RngStream(187).generator())
        g = RngStream(188).generator().standard_normal((50_000, 7))
        ref = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ x.T
        for a, b in ((fast[:, 0], ref[:, 0]), (fast[:, 2], ref[:, 2]),
                     (fast[:, 0] * fast[:, 1], ref[:, 0] * ref[:, 1])):
            assert ks_2samp(a, b).pvalue > 1e-3

    def test_zero_row_and_full_dimension(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
        coords = sphere_coords(x, 1000, RngStream(189).generator())
        assert not coords[:, 0].any()
        assert np.abs(coords[:, 1]).max() <= 3.0 + 1e-12
        # With k = d the direction lies in the row space: X u is a unit vector.
        coords = sphere_coords(np.eye(2), 1000, RngStream(190).generator())
        assert np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() <= 1e-12


class TestTailBounds:
    def test_report_passes_and_has_trivial_cell(self):
        report = verify_tail_bounds(100, 20_000, RngStream(3))
        assert report.all_passed()
        # The t=0 relative-tail cell has bound exactly 1.
        trivial = [a for a in report.assertions if "t=0.0" in a.description]
        assert trivial and trivial[0].bound >= 1.0

    def test_chi_square_extreme_threshold_unreachable(self):
        report = verify_tail_bounds(100, 20_000, RngStream(4))
        upper25 = report.value("chi2_upper_tail[t=25.0]")
        assert upper25 == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            verify_tail_bounds(1, 20_000, RngStream(0))
        with pytest.raises(DomainError):
            verify_tail_bounds(100, 100, RngStream(0))
