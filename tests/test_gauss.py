import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ORTHANT_RTOL, bisect_quantile, series_normal_cdf
from convexlab import gauss
from convexlab.errors import DimensionMismatchError, DomainError
from convexlab.gauss import (
    Frame,
    haar_coords,
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


# P[X > h, Y > k] at correlation rho as (rho, h, k, value), the value to 40
# digits from mpmath 1.3.0 by the integral over x of phi(x) P[Y > k | X = x],
# which shares nothing with Sheppard's form:
#   def orthant(h, k, rho):
#       h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
#       s = mp.sqrt((1 - rho) * (1 + rho))
#       step = [(k + m * s) / rho for m in (-40, -10, -3, -1, 0, 1, 3, 10, 40)] if rho > 0 else []
#       pts = sorted({h, h + 0.01, h + 0.1, h + 0.3, *(p for p in step if p > h)})
#       pts += [pts[-1] + 1, pts[-1] + 3, pts[-1] + 10, pts[-1] + 40]
#       return mp.quad(lambda x: mp.npdf(x) * mp.ncdf((rho * x - k) / s), pts)
# run at mp.mp.dps = 45 - floor(log10(value)) and printed with
# mp.nstr(value, 40); at 15 more digits every value agreed to 2e-43.  The
# rows at 1 - 7.7e-10 with k = h + 2e-7 are xy-pair's near pairs.
ORTHANT_TABLE = [
    (0.05, 0.1, 0.1, "2.196421798719747635236469503111556445867e-1"),
    (0.05, 0.1, 8.0, "3.85928183023163938715147763969565173292e-16"),
    (0.05, 1.25, 5.0, "4.604463909290992108406466022474866291349e-8"),
    (0.05, 3.3, 3.3, "4.290479275414474656284272248587786803658e-7"),
    (0.05, 6.0, 2.0, "4.451383414823844736968998101950158119579e-11"),
    (0.05, 8.0, 8.0, "8.979032295424042410508835998889918568726e-30"),
    (0.3, 0.1, 0.1, "2.598299458698584929409739237450460866501e-1"),
    (0.3, 0.1, 8.0, "6.176224935239918984761986772965036696278e-16"),
    (0.3, 1.25, 5.0, "1.793223325177853221385732530843891580018e-7"),
    (0.3, 3.3, 3.3, "4.774850046486207961633109976050546864775e-6"),
    (0.3, 6.0, 2.0, "4.307179145018082809846016916711829191356e-10"),
    (0.3, 8.0, 8.0, "1.750664974025027246963295936155142703378e-24"),
    (0.5, 0.1, 0.1, "2.944218298579369407169979277904441132832e-1"),
    (0.5, 0.1, 8.0, "6.220944982622368922139335603495294338377e-16"),
    (0.5, 1.25, 5.0, "2.690521708101808728448399209611530924798e-7"),
    (0.5, 3.3, 3.3, "2.004945464564409831376071306759151783723e-5"),
    (0.5, 6.0, 2.0, "8.807946193305638794363902066459497208925e-10"),
    (0.5, 8.0, 8.0, "1.788660548590185170717230814086309853632e-21"),
    (0.86, 0.1, 0.1, "3.753759756246251203616357213816661751434e-1"),
    (0.86, 0.1, 8.0, "6.220960574271784123515995172588188422488e-16"),
    (0.86, 1.25, 5.0, "2.866515717707128928362100603079967106059e-7"),
    (0.86, 3.3, 3.3, "1.592405443495270204759898727777810385577e-4"),
    (0.86, 6.0, 2.0, "9.865876449313570674138593498664401007152e-10"),
    (0.86, 8.0, 8.0, "1.61436092864448639935452172992334850956e-17"),
    (0.925, 0.1, 0.1, "3.984531700388684587125382691261960044819e-1"),
    (0.925, 0.1, 8.0, "6.220960574271784123515995172588188422489e-16"),
    (0.925, 1.25, 5.0, "2.866515718791939116558227945247753736972e-7"),
    (0.925, 3.3, 3.3, "2.331955762627629511634183537207043775439e-4"),
    (0.925, 6.0, 2.0, "9.865876450376981406998901765637568924377e-10"),
    (0.925, 8.0, 8.0, "6.782279156997953857062563941327813573204e-17"),
    (0.97, 0.1, 0.1, "4.212851068706174104115871479493459616028e-1"),
    (0.97, 0.1, 8.0, "6.220960574271784123515995172588188422489e-16"),
    (0.97, 1.25, 5.0, "2.866515718791939116737523328746453538544e-7"),
    (0.97, 3.3, 3.3, "3.192025274708979971481055817844241567806e-4"),
    (0.97, 6.0, 2.0, "9.865876450376981407008641323980420186698e-10"),
    (0.97, 8.0, 8.0, "1.967672400165966554080071610438897582072e-16"),
    (0.9999, 0.1, 0.1, "4.57932579321656204184174675219620357083e-1"),
    (0.9999, 0.1, 8.0, "6.220960574271784123515995172588188422489e-16"),
    (0.9999, 1.25, 5.0, "2.866515718791939116737523328746453538544e-7"),
    (0.9999, 3.3, 3.3, "4.737063887969086120581458642217335288361e-4"),
    (0.9999, 6.0, 2.0, "9.865876450376981407008641323980420186698e-10"),
    (0.9999, 8.0, 8.0, "5.936066284283378556685329333816888035076e-16"),
    (0.99999999923, 0.1, 0.1, "4.601659481827044534270854541380682259544e-1"),
    (0.99999999923, 0.1, 8.0, "6.220960574271784123515995172588188422489e-16"),
    (0.99999999923, 1.25, 5.0, "2.866515718791939116737523328746453538544e-7"),
    (0.99999999923, 3.3, 3.3, "4.833971744902742513035214232338500379409e-4"),
    (0.99999999923, 6.0, 2.0, "9.865876450376981407008641323980420186698e-10"),
    (0.99999999923, 8.0, 8.0, "6.220169609655059233648230253823581765615e-16"),
    (0.86, 5.0, 1.25, "2.866515717707128928362100603079967106059e-7"),
    (0.99999999923, 1.0, 1.0000002, "1.586514414826200422340717110403651128199e-1"),
    (0.99999999923, 3.0, 3.0000002, "1.349828204207914699109590084507007222132e-3"),
    (0.99999999923, 5.0, 5.0000002, "2.866281473933589329182923372187055695228e-7"),
    (-0.3, 0.1, 0.1, "1.63838984435672278466336726994306744777e-1"),
    (-0.3, 0.5, 2.0, "2.347636108949546913570874331364322603709e-3"),
    (-0.3, 1.25, 5.0, "4.748564322723735811308737442589739812914e-10"),
    (-0.3, 3.3, 3.3, "1.188826340190616109131023905366756473156e-9"),
    (-0.3, 8.0, 6.0, "3.015533341606904659543498543318380185082e-34"),
    (-0.3, 8.0, 8.0, "2.461353984230998352741018382427935816725e-43"),
    (-0.6, 8.0, 8.0, "1.603960665285043110163595317284986907398e-73"),
    (-0.9, 0.1, 0.1, "3.876796546377346827470608977340213417047e-2"),
    (-0.9, 0.5, 2.0, "2.607111320523776178256157821903437973661e-10"),
    (-0.9, 1.25, 5.0, "2.245613839449049317441047373336105715426e-47"),
    (-0.9, 3.3, 3.3, "1.677861229062443905860227941239998415284e-51"),
    (-0.9, 8.0, 6.0, "6.887340197008434238603368606701101861369e-218"),
    (-0.9, 8.0, 8.0, "6.408583860248017358148387517723269681412e-283"),
]


class TestSheppardOrthant:
    def test_matches_the_40_digit_table(self):
        # Measured worst case (numpy 2.4.6): on this table 3.4e-15 relative
        # for rho > 0 and 1.4e-14 sf(h) sf(k) for rho < 0, where the result
        # is the difference of sf(h) sf(k) and the integral; on 2,020 points
        # with h, k in [0.1, 8] at 24 values of rho, 1.1e-14 (sf(8) alone is
        # 5.7e-15 off) and 2.2e-14.  exp of an argument near h k = 64
        # carries about 64 ulp.  The row at rho = -0.6, h = k = 8 read
        # 3.3e-12 with panels wider than 16 / (h^2 + k^2).  Bound:
        # ORTHANT_RTOL.
        for rho, h, k, value in ORTHANT_TABLE:
            got, exact = upper_orthant(h, k, rho), float(value)
            if rho > 0:
                assert abs(got - exact) <= ORTHANT_RTOL * exact, (rho, h, k)
            else:
                scale = std_normal_sf(h) * std_normal_sf(k)
                assert abs(got - exact) <= ORTHANT_RTOL * scale, (rho, h, k)

    def test_symmetric_in_the_thresholds(self):
        for rho, h, k, _ in ORTHANT_TABLE:
            assert upper_orthant(k, h, rho) == upper_orthant(h, k, rho)

    def test_infinite_threshold_raises(self):
        for h, k in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
            for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
                with pytest.raises(DomainError):
                    upper_orthant(h, k, rho)

    def test_between_zero_and_the_smaller_tail(self):
        # Unclamped, rounding puts some of these below 0 (rho = -0.99) or a
        # few ulp above the smaller tail (rho near 1).
        for rho in (-0.99, 0.999, 0.999999):
            for h in (0.1, 0.5, 1.25, 3.3):
                for k in (0.1, 0.5, 1.25, 3.3, h + 2e-7):
                    p = upper_orthant(h, k, rho)
                    assert 0.0 <= p <= min(std_normal_sf(h), std_normal_sf(k)), (rho, h, k)

    def test_zero_past_the_underflow_of_sf(self):
        for h, k, rho in ((40.0, 1.0, 0.5), (1e8, 1e8, 0.99), (2.0, 1e300, -0.5)):
            assert upper_orthant(h, k, rho) == 0.0

    def test_gauss_legendre_constants(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(gauss._GL16_X, nodes[8:], rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss._GL16_W, weights[8:], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(gauss._GL16_NODES, -gauss._GL16_NODES[::-1])
        np.testing.assert_array_equal(gauss._GL16_WEIGHTS, gauss._GL16_WEIGHTS[::-1])


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


    def test_trials_stack_keeps_its_bits(self):
        # A trials stack for one query set: the QR of X^T, then R^T W^T over
        # one (trials, d, k) Gaussian and one stacked, sign-fixed QR.
        d, k = self.QUERIES.shape[1], self.QUERIES.shape[0]
        q, r = np.linalg.qr(RngStream(189).generator().standard_normal((5, d, k)))
        signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
        signs[signs == 0] = 1.0
        reference = np.linalg.qr(self.QUERIES.T, mode="r").T @ np.swapaxes(q * signs[:, None, :], 1, 2)
        assert haar_coords(self.QUERIES, RngStream(189), 5).tobytes() == reference.tobytes()

    def test_stack_of_query_sets_matches_single_draws_in_law(self):
        from scipy.stats import ks_2samp

        sets = np.stack([self.QUERIES, self.QUERIES[::-1] * 2.0, self.QUERIES])
        stacks = np.array([haar_coords(sets, RngStream(190, t)) for t in range(3000)])
        assert stacks.shape == (3000, *sets.shape)
        for coords, x in zip(stacks[0], sets):
            assert np.abs(coords @ coords.T - x @ x.T).max() <= 1e-9
        single = np.array([haar_coords(sets[1], RngStream(191, t)) for t in range(3000)])
        for a, b in ((stacks[:, 1, 0, 0], single[:, 0, 0]), (stacks[:, 1, 2, 7], single[:, 2, 7]),
                     (stacks[:, 1, 0, 0] * stacks[:, 1, 1, 0], single[:, 0, 0] * single[:, 1, 0])):
            assert ks_2samp(a, b).pvalue > 1e-3
        # Sets 0 and 2 are equal and their frames independent: uncorrelated.
        assert abs(np.corrcoef(stacks[:, 0, 0, 0], stacks[:, 2, 0, 0])[0, 1]) < 0.1
        with pytest.raises(DomainError):
            haar_coords(sets, RngStream(192), 2)


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
