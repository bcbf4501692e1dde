import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from phasehop.model import Scenario, Scheme, _characteristic, symbol_capacity


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
        for a in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="los_amplitude"):
                Scenario(5, 0.5, los_amplitude=a)
        with pytest.raises(ValueError):
            Scenario(5, 0.5, scheme=Scheme.QUANTIZED)  # missing levels
        with pytest.raises(ValueError):
            Scenario(5, 0.5, scheme=Scheme.QUANTIZED, quant_levels=1)

    def test_amplitude_whose_channel_overflows(self):
        # (a + n)^2 overflowed: static eps_capacity ended in a brentq RuntimeError,
        # and perfect outage and the simulator raised overflow warnings
        top = float(np.sqrt(np.finfo(float).max))  # 1.3407807929942596e154
        for scheme in Scheme:
            k = 2 if scheme is Scheme.QUANTIZED else None
            Scenario(3, 0.5, top, scheme, quant_levels=k)
            with pytest.raises(ValueError, match=r"^los_amplitude \+ n_elements must be "
                               r"below about 1.34e154, where the largest channel "
                               r"\(a \+ n\)\^2 overflows a float, got 1e\+200 \+ 3$"):
                Scenario(3, 0.5, 1e200, scheme, quant_levels=k)
        with pytest.raises(ValueError, match="los_amplitude"):
            Scenario(3, 0.5, float(np.nextafter(top, np.inf)))

    @pytest.mark.parametrize("field, value", [
        ("n_elements", "20"), ("n_elements", True), ("n_elements", None),
        ("n_elements", [20]),
        ("link_probs", "0.5"), ("link_probs", True), ("link_probs", None),
        ("link_probs", [[0.5]]), ("link_probs", np.full((1, 1), 0.5)),
        ("link_probs", (0.5, "0.5", 0.5)), ("link_probs", [True, 0.5, 0.5]),
        ("link_probs", np.nan), ("link_probs", (0.5, np.nan, 0.5)),
        ("los_amplitude", "1"), ("los_amplitude", True), ("los_amplitude", None),
        ("quant_levels", "4"), ("quant_levels", True),
    ])
    def test_rejects_non_numbers(self, field, value):
        # "20" raised TypeError; True, None, "0.5" and [[0.5]] were accepted
        args = {"n_elements": 3, "link_probs": 0.5, "scheme": Scheme.QUANTIZED,
                "quant_levels": 4, field: value}
        with pytest.raises(ValueError, match=field if field != "link_probs" else "prob"):
            Scenario(**args)

    def test_scheme_checked(self):
        # a string was kept: montecarlo.run simulated scheme="static" as hopping
        assert Scenario(4, 0.5, scheme="static").scheme is Scheme.STATIC
        for scheme in ("sideways", None, 2):
            with pytest.raises(ValueError, match="not a valid Scheme"):
                Scenario(4, 0.5, scheme=scheme)

    def test_numbers_stored_as_floats(self):
        sc = Scenario(3, np.array([0, 1, np.float32(0.5)]), los_amplitude=np.int64(2))
        assert sc == Scenario(3, (0.0, 1.0, 0.5), 2.0)
        assert [type(v) for v in (*sc.link_probs, sc.los_amplitude)] == [float] * 4
        assert type(Scenario(3, np.array(0.5)).link_probs) is float

    def test_from_dict_passes_values_through(self):
        # from_dict called float() on p and a, so "0.5" and "1" passed
        for d in ({"n": 3, "p": "0.5"}, {"n": 3, "p": 0.5, "a": "1"},
                  {"n": 3, "p": 0.5, "a": None},
                  {"n": 3, "p": 0.5, "k": None}):
            with pytest.raises(ValueError):
                Scenario.from_dict(d)

    def test_from_dict_rejects_fractional_counts(self):
        # int() used to truncate 2.5 elements to 2 and 2.7 levels to 2
        with pytest.raises(ValueError, match="n_elements must be a whole number"):
            Scenario.from_dict({"n": 2.5, "p": 0.5})
        with pytest.raises(ValueError, match="quant_levels must be a whole number"):
            Scenario.from_dict({"n": 4, "p": 0.5, "scheme": "quantized", "k": 2.7})
        sc = Scenario.from_dict({"n": 4.0, "p": 0.5, "scheme": "quantized", "k": 2.0})
        assert (type(sc.n_elements), type(sc.quant_levels)) == (int, int)

    def test_fractional_quant_levels(self):
        # 2.5 levels used to be simulated as 2 levels on a 2 pi/2.5 grid
        with pytest.raises(ValueError, match="quant_levels must be a whole number"):
            Scenario(4, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2.5)
        for bad in (2.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="n_elements must be a whole number"):
                Scenario(bad, 0.5)
        sc = Scenario(np.int64(4), 0.5, scheme=Scheme.QUANTIZED, quant_levels=4.0)
        assert (type(sc.n_elements), sc.quant_levels) == (int, 4)

    def test_levels_only_for_quantized(self):
        # quant_levels used to be ignored silently by the other schemes
        for scheme in (Scheme.HOPPING, Scheme.STATIC, Scheme.PERFECT):
            with pytest.raises(ValueError, match="scheme takes no quant_levels"):
                Scenario(20, 0.5, scheme=scheme, quant_levels=4)
            assert Scenario(20, 0.5, scheme=scheme).quant_levels is None

    def test_dict_round_trip(self):
        for sc in (
            Scenario(20, 0.5, 3.0),
            Scenario(3, (0.1, 0.5, 0.9), scheme=Scheme.QUANTIZED, quant_levels=4),
            Scenario(7, 1.0, scheme=Scheme.PERFECT),
        ):
            assert Scenario.from_dict(sc.to_dict()) == sc


class TestScenarioHash:
    # the hash is computed once per instance and kept off the pickled state

    def test_equal_scenarios_hash_equal(self):
        probs = [0.1, 0.5, 0.9]
        for a, b in [
            (Scenario(20, 0.5), Scenario(20.0, 0.5)),
            (Scenario(np.int64(20), np.float32(0.5)), Scenario(20, 0.5)),
            (Scenario(3, probs), Scenario(3, tuple(probs))),
            (Scenario(3, np.array(probs)), Scenario(3, probs)),
            (Scenario(20, 0.5, scheme="static"), Scenario(20, 0.5, scheme=Scheme.STATIC)),
            (Scenario(4, 0.5, 1, "quantized", 2.0), Scenario(4, 0.5, 1.0, Scheme.QUANTIZED, 2)),
        ]:
            assert a == b and hash(a) == hash(b)
            assert hash(a) == hash(b)  # once more, from the cached value
            assert {a: 1}[b] == 1

    def test_replace_gives_a_new_hash(self):
        sc = Scenario(20, 0.5, scheme=Scheme.STATIC)
        hash(sc)
        for changes in ({"n_elements": 21}, {"link_probs": 0.4}, {"los_amplitude": 1.0},
                        {"scheme": Scheme.PERFECT}):
            other = dataclasses.replace(sc, **changes)
            fresh = Scenario(**{**dataclasses.asdict(sc), **changes})
            assert other != sc and other == fresh
            assert hash(other) == hash(fresh) != hash(sc)

    def test_pickle_from_another_hash_seed(self):
        # enum and str hashes change with PYTHONHASHSEED; a hash cached in
        # one process must not travel to another in the pickle
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys; from phasehop.model import Scenario; "
                "sc = Scenario(20, (0.5,) * 20, 1.5, 'static'); "
                "print(hash(sc), hash(sc.scheme)); "
                "sys.stdout.write(pickle.dumps(sc).hex())")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=str(src),
                                                  PYTHONHASHSEED=seed)).stdout
        hashes, blob = out.split("\n")
        there, scheme_there = map(int, hashes.split())
        sc = pickle.loads(bytes.fromhex(blob))
        fresh = Scenario(20, (0.5,) * 20, 1.5, Scheme.STATIC)
        assert sc == fresh and hash(sc) == hash(fresh)
        assert {fresh: 1}[sc] == 1
        if scheme_there != hash(Scheme.STATIC):  # the seeds differ, as they should
            assert there != hash(fresh)


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


class TestCharacteristic:
    @pytest.mark.parametrize("links, a", [(3, 1.5), (8, 0.0)])
    def test_is_mean_of_simulated_channel(self, links, a):
        # h = a e^{j phi_0} + sum of `links` unit phasors, all phases uniform
        rng = np.random.default_rng(2024)
        phases = rng.uniform(0.0, 2 * np.pi, size=(100_000, links + 1))
        h = np.abs(a * np.exp(1j * phases[:, 0]) + np.exp(1j * phases[:, 1:]).sum(axis=1))
        for t in (0.3, 1.0, 2.5):
            samples = special.j0(t * h)
            err = samples.std() / np.sqrt(samples.size)
            assert abs(samples.mean() - _characteristic(t, links, a)) < 4 * err

    def test_exact_identities(self):
        t = np.linspace(0.0, 20.0, 201)
        for a in (0.0, 1.5):
            np.testing.assert_array_equal(_characteristic(t, 0, a), special.j0(a * t))
        np.testing.assert_array_equal(_characteristic(t, 1), special.j0(t))
        for k in (1, 4, 30):
            np.testing.assert_allclose(_characteristic(t, k, gaussian=True),
                                       np.exp(-k * t ** 2 / 4), rtol=1e-15, atol=0)


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


class TestPrecision:
    """symbol_capacity computes in float64 whatever theta's dtype."""

    @pytest.mark.parametrize("a", [0.0, 2.0])
    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_float32_theta_near_float64(self, k, a):
        # float32 theta gives the float64 result of its values, bit for bit
        rng = np.random.default_rng(k)
        phi = rng.uniform(0, 2 * np.pi, k)
        theta = rng.random((50_000, k), dtype=np.float32) * np.float32(2 * np.pi)
        los = complex(a * np.exp(1.3j))
        c32 = symbol_capacity(phi, theta, los)
        assert c32.dtype == np.float64
        np.testing.assert_array_equal(c32, symbol_capacity(phi, theta.astype(float), los))


@st.composite
def _theta_inputs(draw):
    k, m = draw(st.integers(0, 12)), draw(st.integers(1, 20))
    dtype = draw(st.sampled_from([np.float64, np.int64, np.int32, np.uint8]))
    floats = st.floats(-100.0, 100.0)
    theta = draw(hnp.arrays(dtype, (m, k),
                            elements=floats if dtype is np.float64 else None))
    phi = draw(hnp.arrays(np.float64, k, elements=floats))
    los = draw(st.complex_numbers(max_magnitude=10.0))
    return phi, theta, los


@settings(max_examples=100, deadline=None)
@given(_theta_inputs())
def test_float64_and_integer_theta_keep_their_bits(inputs):
    # reference: the all-float64 formula, written out
    phi, theta, los = inputs
    ang = phi[None, :] + np.asarray(theta, dtype=float)
    re = los.real + np.cos(ang).sum(axis=1)
    im = los.imag + np.sin(ang).sum(axis=1)
    np.testing.assert_array_equal(symbol_capacity(phi, theta, los),
                                  np.log2(1.0 + re * re + im * im))
