import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from phasehop import hankel
from phasehop.analytic import CapacityMethod, outage_static
from phasehop.hankel import (AccuracyWarning, PhasorSumDistribution, _cdf_grid,
                             _cdf_series, _j1_zeros, hankel_transform)
from phasehop.model import Scenario, Scheme


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

    def test_links_stored_as_int(self):
        # a whole float or numpy integer was kept as given: n_links was 5.0
        for n in (5.0, np.int64(5), np.float32(5.0)):
            d = PhasorSumDistribution(n)
            assert type(d.n_links) is int and d.n_links == 5
            assert d == PhasorSumDistribution(5)

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
        # the density is about 0 near s = 8 (2.4e-10 on 40,000 series
        # terms): no warning and no negative value
        d = PhasorSumDistribution(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            val = d.pdf(7.998)
        assert 0.0 <= val <= 1e-8

    # References. n = 4: mpmath 1.3.0 at mp.dps = 30 of Borwein, Straub, Wan
    # and Zudilin's form (2/pi^2) (sqrt(16 - s^2)/s)
    # Re 3F2(1/2, 1/2, 1/2; 5/6, 7/6; (16 - s^2)^3 / (108 s^4)), `mp.hyp3f2`,
    # rounded to 17 digits. n = 5: nested one-step integrals, (s/pi) times
    # the integral over psi in (0, pi) of p4(r)/r with r^2 = s^2 + 1 -
    # 2s cos psi (scipy quad, split where r = 2 and stopped where r = 4; two
    # independent runs agree to 5e-13). n = 6: the cdf series' derivative
    # on 40,000 zeros of J1, those past the 1,000th from McMahon's expansion
    # refined by Newton steps.
    @pytest.mark.parametrize("n, tol, refs", [
        (4, dict(rel=1e-12), {
            0.5: 0.21315195617124543, 1.0: 0.32993380106006406, 1.5: 0.41850487636816906,
            1.9: 0.47967005882279104, 2.1: 0.37886972457603717, 2.5: 0.26101694727225171,
            3.0: 0.17963005041600284, 3.5: 0.11216561489129166, 3.9: 0.046182803265283659}),
        (5, dict(abs=5e-6), {
            0.5: 0.165802301806, 1.5: 0.363803525068, 2.5: 0.318161329391,
            3.0: 0.224551974511, 4.0: 0.0715262734384, 4.5: 0.0315214897299,
            4.9: 0.00577992632037, 4.99: 0.000567537996411}),
        (6, dict(abs=3e-7), {
            1.93: 0.354912644424525, 4.31: 0.0648937023916853,
            5.5: 0.00735225658336811, 5.9: 0.000601364251822827}),
    ])
    def test_density_references(self, n, tol, refs):
        d = PhasorSumDistribution(n)
        for s, want in refs.items():
            assert d.pdf(s) == pytest.approx(want, **tol)

    def test_density_scan_warns_nothing(self):
        # every link count, across the whole support: no warning of any kind,
        # and a finite, nonnegative density off the singular points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(1, 41):
                s = np.linspace(0.0, n, 101)
                vals = PhasorSumDistribution(n).pdf(s)
                assert np.all(vals >= 0.0), n
                assert np.all(np.isfinite(vals[(s != 1.0) & (s != 2.0)])), n

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 40])
    def test_cdf_array_is_scalar(self, n):
        d = PhasorSumDistribution(n)
        s = np.linspace(0.0, n, 13).reshape(13, 1)
        for law in (d.cdf, d.pdf):
            curve = law(s)
            assert curve.shape == (13, 1)
            scalar = [law(float(x)) for x in s.ravel()]
            assert all(isinstance(v, float) for v in scalar)
            np.testing.assert_array_equal(curve.ravel(), scalar)
            with pytest.raises(ValueError):
                law(np.array([1.0, np.nan]))

    def test_cdf_monotone(self):
        d = PhasorSumDistribution(5)
        grid = np.linspace(0.05, 4.95, 40)
        vals = [d.cdf(float(s)) for s in grid]
        assert np.all(np.diff(vals) >= -1e-6)

    @pytest.mark.parametrize("n", [5, 6, 20])
    def test_pdf_in_chunks_keeps_its_bits(self, n):
        # the series terms of a whole array at once, summed row by row,
        # against the pdf that works in chunks of hankel._CHUNK terms
        _, freq, coef, _ = hankel._series_table((n,))
        rows = 3 * hankel._CHUNK // (2 * freq.size)  # 3 chunks and a part
        s = np.linspace(0.0, n, 2 * rows + 2).reshape(2, rows + 1, 1)
        terms = (special.j0(np.multiply.outer(s, freq)) * (n * freq * coef)).sum(axis=-1)
        want = np.where(s < n, np.maximum(0.0, 2.0 * s / n**2 * (1.0 + terms)), 0.0)
        np.testing.assert_array_equal(PhasorSumDistribution(n).pdf(s), want)

    def test_pdf_memory(self):
        # 5,000 points at n = 6 built one 5,000 x 1,000 temporary and peaked
        # at 80 MB; in chunks, like the cdf, about 8.6 MB
        d = PhasorSumDistribution(6)
        d.pdf(1.0)  # the series table is built outside the measurement
        tracemalloc.start()
        try:
            d.pdf(np.linspace(0.0, 6.0, 5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


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


class TestJ1Zeros:
    # mpmath 1.3.0, besseljzero(1, m) at mp.dps = 30, to 20 digits
    REFS = {1: "3.8317059702075123156", 2: "7.0155866698156187535",
            10: "32.189679910974403627", 100: "314.94347283776716246",
            1000: "3142.3779324168182165"}

    def test_within_one_ulp_of_jn_zeros(self):
        gamma, norm = _j1_zeros()
        ref = special.jn_zeros(1, 1000)
        assert gamma.shape == ref.shape
        assert np.all(np.abs(gamma - ref) <= np.spacing(ref))
        np.testing.assert_array_equal(norm, gamma * special.j0(gamma) ** 2)
        assert not (gamma.flags.writeable or norm.flags.writeable)

    def test_mpmath_references(self):
        gamma, _ = _j1_zeros()
        for m, want in self.REFS.items():
            assert abs(gamma[m - 1] - float(want)) <= np.spacing(float(want)), m


def series_reference(k, rho):
    """F_k(rho-) for one link count k: the closed forms at k = 1 and 2,
    else the _cdf_series terms of k alone, summed row by row."""
    if k == 1:
        return (rho > 1.0).astype(float)
    x = np.minimum(rho, k)
    if k == 2:
        return np.arcsin(x / 2.0) * (2.0 / np.pi)
    freq, coef = _cdf_series(k)
    u = x / k
    terms = (special.j1(np.multiply.outer(x, freq)) * coef).sum(axis=-1)
    return np.where(x >= k, 1.0, np.clip(u * u + 2.0 * u * terms, 0.0, 1.0))


LAWS = {"20-0.5": Scenario(20, 0.5, scheme=Scheme.STATIC),
        "64-0.2": Scenario(64, 0.2, scheme=Scheme.STATIC),
        "het5": Scenario(5, (0.9, 0.7, 0.5, 0.3, 0.1), scheme=Scheme.STATIC),
        "empty": Scenario(5, 0.0, scheme=Scheme.STATIC)}


def law_links(scenario):
    pmf = scenario.link_count_distribution().pmf
    links = np.flatnonzero(pmf)
    return links[links > 0], pmf


def edge_amplitudes(n):
    """0, every link count k and its two neighbouring floats, points in
    between, and inf."""
    k = np.arange(1.0, n + 1)
    return np.concatenate(([0.0, np.inf], k, np.nextafter(k, 0.0), np.nextafter(k, np.inf),
                           np.linspace(0.0, n + 1, 97)))


class TestCdfGrid:
    @pytest.mark.parametrize("law", LAWS)
    def test_matches_per_link_count_series(self, law):
        sc = LAWS[law]
        links, pmf = law_links(sc)
        rho = edge_amplitudes(sc.n_elements)
        grid = _cdf_grid(links, rho)
        assert grid.shape == rho.shape + links.shape
        ref = np.array([series_reference(k, rho) for k in links]).reshape(-1, rho.size).T
        np.testing.assert_allclose(grid, ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(grid @ pmf[links], ref @ pmf[links], rtol=0, atol=1e-15)
        # the mixture itself, at the rates of these amplitudes
        rates = np.log2(1.0 + rho[np.isfinite(rho)] ** 2)
        root = np.sqrt(np.power(2.0, rates) - 1.0)
        want = pmf[0] * (rates > 0.0) + sum(p * series_reference(k, root)
                                            for k, p in zip(links, pmf[links]))
        np.testing.assert_allclose(outage_static(sc, rates, CapacityMethod.EXACT_HANKEL),
                                   np.minimum(1.0, want), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("law", LAWS)
    def test_array_is_scalar(self, law):
        links, _ = law_links(LAWS[law])
        rho = edge_amplitudes(LAWS[law].n_elements)
        grid = _cdf_grid(links, rho.reshape(-1, 1))
        assert grid.shape == (rho.size, 1, links.size)
        scalar = np.array([_cdf_grid(links, x) for x in rho])
        np.testing.assert_array_equal(grid[:, 0], scalar)

    def test_one_link_atom(self):
        # F_1(rho-) = 1[rho > 1]: the atom at 1 is not below 1; the law's
        # own cdf is right-continuous
        rho = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
        np.testing.assert_array_equal(_cdf_grid(np.array([1]), rho)[:, 0], [0.0, 0.0, 1.0])
        assert PhasorSumDistribution(1).cdf(1.0) == 1.0

    def test_one_series_call_per_chunk(self, monkeypatch):
        # link counts at or below every amplitude of a chunk get no J1
        # terms, and no chunk holds more than _CHUNK of them
        sizes = []

        def j1(x, out=None):
            sizes.append(x.size)
            return special.j1(x, out=out)

        links = np.arange(3, 21)
        for table in (links, np.arange(1, 65)):  # build the tables first
            _cdf_grid(table, np.array(0.5))
        monkeypatch.setattr(hankel, "special", types.SimpleNamespace(j1=j1))
        _cdf_grid(links, np.array([5.5, 7.0]))
        assert sizes == [2 * sum(_cdf_series(k)[0].size for k in range(6, 21))]
        sizes.clear()
        assert np.all(_cdf_grid(links, np.array([20.0, np.inf])) == 1.0)
        assert sizes == []
        _cdf_grid(np.arange(1, 65), np.linspace(0.0, 70.0, 2000))
        assert len(sizes) > 1 and max(sizes) <= hankel._CHUNK

    def test_curve_memory(self):
        # 2,000 rates at (64, 0.2): one cdf call per link count peaked at
        # 31.6 MiB and one unchunked pass at 459 MB; in chunks, about 10 MB
        sc = Scenario(64, 0.2, scheme=Scheme.STATIC)
        tracemalloc.start()
        try:
            outage_static(sc, np.linspace(0.0, 9.0, 2000), CapacityMethod.EXACT_HANKEL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 31.6 * 2**20
