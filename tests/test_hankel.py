import numpy as np
import pytest

from phasehop.hankel import AccuracyWarning, PhasorSumDistribution, hankel_transform


def two_link_density(s):
    # |e^{j u1} + e^{j u2}| has the arcsine-type density 2 / (pi sqrt(4 - s^2))
    return 2.0 / (np.pi * np.sqrt(4.0 - s * s))


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
        # the true density at s = 0.002 is 2 / (pi sqrt(4 - s^2)) ~ 0.318, but
        # the quadrature returns about -1.04e-2: flagged, then clamped to 0
        d = PhasorSumDistribution(2)
        with pytest.warns(AccuracyWarning, match="markedly negative"):
            val = d.pdf(0.002)
        assert val == 0.0

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

    def test_full_support(self):
        d = PhasorSumDistribution(20)
        assert d.cdf(20.0) == pytest.approx(1.0, abs=1e-4)
        assert d.cdf(0.0) == 0.0

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
