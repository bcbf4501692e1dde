import numpy as np
import pytest

from phasehop.model import Scenario, Scheme, symbol_capacity


class TestScenario:
    def test_basic(self):
        sc = Scenario(20, 0.5)
        assert sc.scheme is Scheme.HOPPING
        np.testing.assert_allclose(sc.prob_vector, np.full(20, 0.5))
        assert sc.is_homogeneous

    def test_heterogeneous(self):
        sc = Scenario(3, (0.1, 0.5, 0.9))
        assert not sc.is_homogeneous
        d = sc.link_count_distribution()
        assert d.support_max == 3
        assert d.pmf[0] == pytest.approx(0.9 * 0.5 * 0.1, rel=1e-12)

    def test_homogeneous_distribution_is_binomial(self):
        d = Scenario(20, 0.5).link_count_distribution()
        assert d.pmf[0] == 2.0 ** -20

    def test_link_law_computed_once(self):
        sc = Scenario(3, (0.1, 0.5, 0.9))
        assert sc.link_count_distribution() is sc.link_count_distribution()
        assert Scenario(3, (0.1, 0.5, 0.9)) == sc
        with pytest.raises(ValueError):
            sc.link_count_distribution().pmf[0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(0, 0.5)
        with pytest.raises(ValueError):
            Scenario(5, 1.5)
        with pytest.raises(ValueError):
            Scenario(5, (0.5, 0.5))  # wrong length
        with pytest.raises(ValueError):
            Scenario(5, 0.5, los_amplitude=-1.0)
        with pytest.raises(ValueError):
            Scenario(5, 0.5, scheme=Scheme.QUANTIZED)  # missing levels
        with pytest.raises(ValueError):
            Scenario(5, 0.5, scheme=Scheme.QUANTIZED, quant_levels=1)

    def test_dict_round_trip(self):
        for sc in (
            Scenario(20, 0.5, 3.0),
            Scenario(3, (0.1, 0.5, 0.9), scheme=Scheme.QUANTIZED, quant_levels=4),
            Scenario(7, 1.0, scheme=Scheme.PERFECT),
        ):
            assert Scenario.from_dict(sc.to_dict()) == sc


class TestEffectiveChannel:
    def test_los_only(self):
        cap = symbol_capacity(np.zeros(0), np.zeros((1, 0)), 3.0)
        assert cap == pytest.approx([np.log2(10.0)])

    def test_destructive_pair(self):
        cap = symbol_capacity(np.zeros(2), np.array([[0.0, np.pi]]))
        assert cap[0] == pytest.approx(0.0, abs=1e-15)

    def test_perfect_alignment(self):
        cap = symbol_capacity(np.array([0.3, 1.1]), np.array([[-0.3, -1.1]]))
        assert cap[0] == pytest.approx(np.log2(5.0), abs=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = rng.integers(0, 10)
            phi = rng.uniform(0, 2 * np.pi, k)
            los_phase = float(rng.uniform(0, 2 * np.pi))
            a = float(rng.uniform(0, 4))
            los = a * np.exp(1j * los_phase)
            bound = np.log2(1.0 + (a + k) ** 2)
            theta = rng.uniform(0, 2 * np.pi, (20, k))
            assert np.all(symbol_capacity(phi, theta, los) <= bound + 1e-12)
            aligned = np.mod(los_phase - phi, 2 * np.pi)[None, :]
            cap = symbol_capacity(phi, aligned, los)
            assert cap[0] == pytest.approx(bound, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            symbol_capacity(np.zeros(2), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            symbol_capacity(np.zeros(2), np.zeros(2))


class TestInstantaneousCapacity:
    def test_values(self):
        for los, want in ((0.0, 0.0), (1.0, 1.0), (3.0j, np.log2(10))):
            cap = symbol_capacity(np.zeros(0), np.zeros((1, 0)), los)
            assert cap[0] == pytest.approx(want, abs=1e-12)

    def test_increasing_in_magnitude(self):
        # |1 + exp(j*theta)| = 2|cos(theta/2)| grows as theta goes from pi to 0
        theta = np.linspace(np.pi, 0.0, 30)[:, None]
        caps = symbol_capacity(np.zeros(1), theta, 1.0)
        assert np.all(np.diff(caps) > 0)

    def test_rows_match_complex_sum(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(0, 2 * np.pi, 7)
        theta = rng.uniform(0, 2 * np.pi, (40, 7))
        los = 1.5 * np.exp(0.4j)
        h = los + np.exp(1j * (phi + theta)).sum(axis=1)
        np.testing.assert_allclose(symbol_capacity(phi, theta, los),
                                   np.log2(1.0 + np.abs(h) ** 2), rtol=1e-13)
