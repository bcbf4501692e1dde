import warnings

import numpy as np
import pytest
from scipy import integrate

from phasehop.hankel import AccuracyWarning, PhasorSumDistribution, hankel_transform


def two_link_density(s):
    # |e^{j u1} + e^{j u2}| has the arcsine-type density 2 / (pi sqrt(4 - s^2))
    return 2.0 / (np.pi * np.sqrt(4.0 - s * s))


def three_link_cdf(s):
    """F_3(s) as one integral: the first two phasors sum to length
    r = 2 sin(phi) with phi uniform on [0, pi/2], and the third at a uniform
    angle psi gives |S| <= s when cos(psi) <= (s^2 - r^2 - 1) / (2r). So
    F_3(s) = (2/pi) * integral_0^{pi/2} (1 - arccos(clip(...)) / pi) dphi,
    split where the clip switches on or off."""
    def integrand(phi):
        u = np.sin(phi)
        return 1.0 - np.arccos(np.clip((s * s - 4 * u * u - 1) / (4 * u), -1, 1)) / np.pi

    kinks = [np.arcsin(u) for u in ((1 - s) / 2, (s - 1) / 2, (1 + s) / 2) if 0 < u < 1]
    val, _ = integrate.quad(integrand, 0.0, np.pi / 2, points=kinks or None,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 / np.pi * val


class TestHankelTransform:
    def test_gaussian_self_reciprocal(self):
        val = hankel_transform(lambda t: np.exp(-t * t / 2), 0, 1.0)
        assert val == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_exponential_pair(self):
        val = hankel_transform(lambda t: np.exp(-t), 0, 2.0)
        assert val == pytest.approx((1 + 4) ** -1.5, abs=1e-6)

    def test_two_phasor_pair(self):
        from scipy.special import j0

        val = hankel_transform(lambda t: j0(t) ** 2, 0, 1.0)
        assert val == pytest.approx(two_link_density(1.0), abs=1e-5)

    def test_order_one_pair(self):
        # H1 of e^{-t} is s / (1 + s^2)^{3/2}
        val = hankel_transform(lambda t: np.exp(-t), 1, 1.5)
        assert val == pytest.approx(1.5 / (1 + 1.5 ** 2) ** 1.5, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hankel_transform(np.exp, 2, 1.0)
        with pytest.raises(ValueError):
            hankel_transform(np.exp, 0, 0.0)


class TestPhasorSumDistribution:
    def test_invalid_links(self):
        with pytest.raises(ValueError):
            PhasorSumDistribution(0)

    def test_fractional_links_rejected(self):
        # 2.5 and 3.5 links used to give a NaN cdf
        for n in (2.5, 3.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="whole number"):
                PhasorSumDistribution(n)
        assert PhasorSumDistribution(np.int64(3)).cdf(1.0) == PhasorSumDistribution(
            3).cdf(1.0)

    def test_domain_error(self):
        d = PhasorSumDistribution(3)
        with pytest.raises(ValueError):
            d.pdf(3.5)
        with pytest.raises(ValueError):
            d.cdf(-0.1)

    def test_two_phasor_pdf(self):
        d = PhasorSumDistribution(2)
        assert d.pdf(1.0) == pytest.approx(two_link_density(1.0), abs=1e-4)

    def test_accuracy_warning_near_zero(self):
        # n = 2 is the closed form: the true density near s = 0, with no
        # quadrature and no warning
        d = PhasorSumDistribution(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            for s in (0.0, 0.002, 1.998):
                assert d.pdf(s) == pytest.approx(two_link_density(s), rel=1e-15)
        assert d.pdf(2.0) == np.inf

    def test_accuracy_warning_three_links_at_edge(self):
        # n = 3 is a closed form: no quadrature and no warning. The
        # quadrature gave about -2.3 at s = 2.998, clamped to 0, and 0 at
        # s = 3, where the density is sqrt(3) / (2 pi)
        d = PhasorSumDistribution(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            # 40-digit mpmath of Borwein's 2F1 form
            assert d.pdf(2.998) == pytest.approx(0.27575638183486125, rel=1e-14)
            assert d.pdf(3.0) == pytest.approx(np.sqrt(3) / (2 * np.pi), rel=1e-15)
            assert d.pdf(1.0) == np.inf  # logarithmic singularity
            assert d.pdf(0.0) == 0.0

    def test_accuracy_warning_eight_links_at_edge(self):
        # the density is about 0 near s = 8; the quadrature gives -1.2e-7,
        # flagged, then clamped to 0
        d = PhasorSumDistribution(8)
        with pytest.warns(AccuracyWarning, match="markedly negative"):
            val = d.pdf(7.998)
        assert val == 0.0

    def test_three_link_density(self):
        # the closed form integrates to the one-integral cdf, and holds its
        # digits next to s = 1, where the 2F1 argument rounds to 1 and
        # scipy's hyp2f1 returns ~1e15 (references: 40-digit mpmath of
        # Borwein's 2F1 form)
        d = PhasorSumDistribution(3)
        for s in (0.5, 2.0, 2.9, 3.0):
            val, _ = integrate.quad(d.pdf, 0.0, s, points=[1.0] if s > 1 else None,
                                    epsabs=1e-13, epsrel=1e-13, limit=200)
            assert val == pytest.approx(three_link_cdf(s), abs=1e-13)
        for s, want in ((1.0 - 1e-9, 3.3602502161996141637),
                        (1.0 + 1e-9, 3.3602502027624891697),
                        (1.0 + 2e-7, 2.5550027964616203443)):
            assert d.pdf(s) == pytest.approx(want, rel=1e-14)

    def test_edge_divergence_monotone(self):
        d = PhasorSumDistribution(2)
        assert d.pdf(1.99) > d.pdf(1.0)

    def test_normalization_n20(self):
        d = PhasorSumDistribution(20)
        s = np.linspace(0, 20, 801)
        vals = np.array([d.pdf(float(x)) for x in s])
        assert np.trapezoid(vals, s) == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_single_link(self):
        d = PhasorSumDistribution(1)
        assert d.cdf(0.5) == pytest.approx(0.0, abs=1e-4)
        assert d.cdf(1.0 - 1e-9) == 0.0
        assert d.cdf(1.0) == 1.0
        with pytest.raises(ValueError):
            d.cdf(1.5)

    def test_two_phasor_cdf(self):
        d = PhasorSumDistribution(2)
        assert d.cdf(1.0) == pytest.approx(1.0 / 3.0, abs=1e-3)
        s = np.concatenate([[0.0, 0.002, 0.02], np.linspace(0.05, 1.95, 39),
                            [1.998, 2.0]])
        np.testing.assert_allclose(d.cdf(s), 2 / np.pi * np.arcsin(s / 2), rtol=1e-15)

    def test_full_support(self):
        d = PhasorSumDistribution(20)
        assert d.cdf(20.0) == pytest.approx(1.0, abs=1e-4)
        assert d.cdf(0.0) == 0.0

    def test_three_phasor_cdf(self):
        d = PhasorSumDistribution(3)
        s = np.concatenate([[0.002, 0.05], np.linspace(0.1, 2.9, 29), [2.95, 2.998]])
        ref = np.array([three_link_cdf(x) for x in s])
        np.testing.assert_allclose(d.cdf(s), ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("n", range(5, 21))
    def test_series_matches_hankel_oracle(self, n):
        from scipy.special import j0

        pts = np.linspace(0.1 * n, 0.9 * n, 7)
        oracle = [s * hankel_transform(lambda t: j0(t) ** n / t, 1, s) for s in pts]
        np.testing.assert_allclose(PhasorSumDistribution(n).cdf(pts), oracle,
                                   rtol=0, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_cdf_array_is_scalar(self, n):
        d = PhasorSumDistribution(n)
        s = np.linspace(0.0, n, 13).reshape(13, 1)
        curve = d.cdf(s)
        assert curve.shape == (13, 1)
        scalar = [d.cdf(float(x)) for x in s.ravel()]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_array_equal(curve.ravel(), scalar)
        with pytest.raises(ValueError):
            d.cdf(np.array([1.0, np.nan]))

    def test_cdf_monotone(self):
        d = PhasorSumDistribution(5)
        grid = np.linspace(0.05, 4.95, 40)
        vals = [d.cdf(float(s)) for s in grid]
        assert np.all(np.diff(vals) >= -1e-6)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16, 30])
    def test_pdf_matches_cdf_derivative(self, n):
        # interior points, keeping clear of the random-walk density's
        # singular abscissas at integer s where derivatives blow up
        d = PhasorSumDistribution(n)
        pts = [
            s for s in np.linspace(0.15 * n, 0.85 * n, 60)
            if abs(s - round(s)) > 0.25
        ][:20]
        assert len(pts) == 20
        h = 0.01
        for s in pts:
            num = (d.cdf(float(s + h)) - d.cdf(float(s - h))) / (2 * h)
            assert num == pytest.approx(d.pdf(float(s)), abs=1e-3)


class TestRayleighLimit:
    def test_sup_distance_shrinks(self):
        dists = []
        for n in (10, 20, 40):
            d = PhasorSumDistribution(n)
            grid = np.linspace(0.02 * n, 0.98 * n, 60)
            delta = [
                abs(d.cdf(float(s)) - (1 - np.exp(-s * s / n))) for s in grid
            ]
            dists.append(max(delta))
        assert dists[0] > dists[1] > dists[2]


class TestMcAgreement:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_deciles(self, n):
        rng = np.random.default_rng(1234 + n)
        samples = np.abs(np.exp(1j * rng.uniform(0, 2 * np.pi, (10**6, n))).sum(axis=1))
        samples.sort()
        d = PhasorSumDistribution(n)
        for q in np.arange(0.1, 1.0, 0.1):
            s = float(np.quantile(samples, q))
            emp = np.searchsorted(samples, s, side="right") / samples.size
            ana = d.cdf(s)
            sigma = np.sqrt(ana * (1 - ana) / samples.size)
            assert abs(emp - ana) <= 3 * sigma + 1e-4
