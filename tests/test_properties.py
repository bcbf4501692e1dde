"""Property tests: the array analytic API against its own scalar calls and
against a per-rate loop, the outage dispatch against the per-scheme
functions, monotonicity of the hopping outage, and Scenario dict
round-trips."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasehop import analytic
from phasehop.analytic import (
    CapacityMethod,
    EmpiricalCdf,
    eps_capacity,
    erg_capacity_los,
    erg_capacity_nlos,
    outage,
    outage_general_fading,
    outage_hopping,
    outage_perfect,
    outage_static,
)
from phasehop.model import Scenario, Scheme
from phasehop.specfun import cal_e, cal_e_inverse, marcum_q1

SETTINGS = settings(max_examples=50, deadline=None)

probs = st.floats(0.0, 1.0)
amplitudes = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


@st.composite
def scenarios(draw, scheme, n_max=64, los=True):
    n = draw(st.integers(1, n_max))
    p = draw(st.one_of(probs, st.lists(probs, min_size=n, max_size=n).map(tuple)))
    a = draw(amplitudes) if los else 0.0
    k = draw(st.integers(2, 8)) if scheme is Scheme.QUANTIZED else None
    return Scenario(n, p, a, scheme, quant_levels=k)


def rate_arrays(max_size=12):
    return st.lists(st.floats(0.0, 30.0), min_size=1, max_size=max_size).map(np.array)


def eps_arrays(max_size=8):
    return st.lists(st.floats(0.0, 0.999), min_size=1,
                    max_size=max_size).map(np.array)


def any_scenario(n_max=64):
    return st.sampled_from(list(Scheme)).flatmap(lambda s: scenarios(s, n_max))


def _same_as_scalar(f, sc, values):
    curve = f(sc, values)
    scalar = [f(sc, float(v)) for v in values]
    assert all(isinstance(v, float) for v in scalar)
    assert curve.shape == values.shape
    np.testing.assert_array_equal(curve, scalar)


@SETTINGS
@given(any_scenario(32), rate_arrays(8))
def test_outage_array_is_scalar(sc, rates):
    _same_as_scalar(outage, sc, rates)


PER_SCHEME = (outage_hopping, outage_static,
              lambda sc, rate, _: outage_perfect(sc, rate))


@SETTINGS
@given(any_scenario(16), rate_arrays(6), st.sampled_from(list(CapacityMethod)))
def test_outage_is_the_one_per_scheme_function(sc, rates, method):
    # exactly one per-scheme function takes the scenario, and outage gives
    # its bits on the array and on each rate alone
    assume(not (sc.scheme is Scheme.STATIC and sc.los_amplitude > 0
                and method is CapacityMethod.EXACT_HANKEL))  # no such law
    served = 0
    for f in PER_SCHEME:
        try:
            curve = f(sc, rates, method)
        except ValueError as exc:
            assert "scheme must be" in str(exc)
            continue
        served += 1
        np.testing.assert_array_equal(outage(sc, rates, method), curve)
        for r in rates:
            alone = outage(sc, float(r), method)
            assert isinstance(alone, float) and alone == f(sc, float(r), method)
    assert served == 1


@SETTINGS
@given(st.sampled_from([Scheme.HOPPING, Scheme.PERFECT]).flatmap(
    scenarios), eps_arrays())
def test_eps_capacity_array_is_scalar(sc, eps):
    _same_as_scalar(eps_capacity, sc, eps)


@settings(max_examples=8, deadline=None)
@given(scenarios(Scheme.STATIC, n_max=8), eps_arrays(3))
def test_static_eps_capacity_array_is_scalar(sc, eps):
    _same_as_scalar(eps_capacity, sc, eps)


def _arrays_between(lo, hi):
    return st.lists(st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi])),
                    min_size=1, max_size=12).map(np.array)


@SETTINGS
@given(_arrays_between(1e-300, 1e300), _arrays_between(1e-300, 1e3),
       st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40),
       st.lists(st.floats(-1.0, 70.0), min_size=1, max_size=12).map(np.array),
       _arrays_between(0.0, 2000.0))
def test_general_fading_array_is_scalar(x, y, samples, points, rates):
    sigma2 = EmpiricalCdf.from_samples(samples)
    cases = [(cal_e, x), (cal_e_inverse, np.append(y, np.inf)), (sigma2, points),
             (lambda r: outage_general_fading(r, sigma2), np.append(rates, np.inf))]
    for f, values in cases:
        _same_as_scalar(lambda _, v: f(v), None, values)
        np.testing.assert_array_equal(f(values[:, None]), f(values)[:, None])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(CapacityMethod)), st.sampled_from([0.0, 1.5, 3.0]),
       st.lists(st.integers(0, 80), min_size=1, max_size=8).map(np.array))
def test_capacity_array_is_scalar_and_table(method, a, links):
    caps = erg_capacity_los(links, a, method)
    scalar = [erg_capacity_los(int(k), a, method) for k in links]
    assert all(isinstance(v, float) for v in scalar)
    assert caps.shape == links.shape
    np.testing.assert_array_equal(caps, scalar)
    for n in (int(links.max()), 80, 256):
        np.testing.assert_array_equal(caps, analytic._capacity_table(n, a, method)[links])
    if a == 0.0:
        np.testing.assert_array_equal(erg_capacity_nlos(links, method), caps)
    with pytest.raises(ValueError, match="whole number"):
        erg_capacity_los(np.append(links, 2.5), a, method)


def loop_outage(sc, rate: float) -> float:
    """One rate at a time in Python floats, with a linear count over the
    capacities in place of the capacity table."""
    dist = sc.link_count_distribution()
    n, a = sc.n_elements, sc.los_amplitude
    if sc.scheme is not Scheme.STATIC:
        caps = ([math.log2(1 + (a + i) ** 2) for i in range(n + 1)]
                if sc.scheme is Scheme.PERFECT
                else [erg_capacity_los(i, a) for i in range(n + 1)])
        k = sum(c < rate for c in caps)
        return 0.0 if k == 0 else float(dist.cdf[k - 1])
    snr = 2.0**rate - 1.0
    total = float(dist.pmf[0]) if rate > math.log2(1.0 + a * a) else 0.0
    for i in range(1, n + 1):
        if a == 0.0:
            fixed = 1.0 - math.exp(-snr / i)
        else:
            fixed = 1.0 - marcum_q1(math.sqrt(2.0 * a * a / i), math.sqrt(2.0 * snr / i))
        total += float(dist.pmf[i]) * fixed
    return min(1.0, total)


@SETTINGS
@given(any_scenario(32), rate_arrays(6))
def test_matches_per_rate_loop(sc, rates):
    # Python's 2.0**r and numpy's differ in the last bit for some r; the
    # static mixture moves by at most a few ulps of 1 for it
    curve = outage(sc, rates)
    loop = [loop_outage(sc, float(r)) for r in rates]
    if sc.scheme is Scheme.STATIC:
        np.testing.assert_allclose(curve, loop, rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(curve, loop)


# links 0, 1, 5 and 6 have zero weight: K is 2 plus a Binomial(2, 1/2)
ZERO_WEIGHT_LAW = (1.0, 1.0, 0.0, 0.5, 0.5, 0.0)
GRID_RATES = np.concatenate((np.linspace(0.0, 6.0, 61), [1e-9, 40.0, 1e3]))


@pytest.mark.parametrize("a, method", [(0.0, CapacityMethod.APPROX_EI),
                                       (0.0, CapacityMethod.EXACT_HANKEL),
                                       (1.5, CapacityMethod.APPROX_EI)])
def test_static_grid_with_zero_weight_links(a, method):
    sc = Scenario(6, ZERO_WEIGHT_LAW, a, Scheme.STATIC)
    curve = outage_static(sc, GRID_RATES, method)
    np.testing.assert_array_equal(
        curve, [outage_static(sc, float(r), method) for r in GRID_RATES])
    if method is CapacityMethod.APPROX_EI:
        np.testing.assert_allclose(
            curve, [loop_outage(sc, float(r)) for r in GRID_RATES], rtol=0, atol=1e-15)
    assert outage_static(sc, np.inf, method) == 1.0
    np.testing.assert_array_equal(outage_static(sc, [np.inf, 0.0], method), [1.0, 0.0])


@pytest.mark.parametrize("n, p", [(6, ZERO_WEIGHT_LAW), (20, 0.5), (64, 0.3)])
def test_static_los_one_marcum_call(monkeypatch, n, p):
    calls = []

    def counted(a, b):
        calls.append(np.shape(b))
        return marcum_q1(a, b)

    monkeypatch.setattr(analytic, "marcum_q1", counted)
    sc = Scenario(n, p, 1.5, Scheme.STATIC)
    for rates in (1.0, np.linspace(0.0, 8.0, 500)):
        calls.clear()
        outage_static(sc, rates)
        assert len(calls) == 1
        assert calls[0][0] == np.size(rates)


@SETTINGS
@given(st.integers(1, 64), st.floats(0.0, 1.0), st.floats(0.0, 1.0), amplitudes,
       rate_arrays(40))
def test_hopping_monotone_in_rate_and_p(n, p1, p2, a, rates):
    lo, hi = sorted((p1, p2))
    rates = np.sort(rates)
    weak = outage_hopping(Scenario(n, lo, a), rates)
    strong = outage_hopping(Scenario(n, hi, a), rates)
    assert np.all(np.diff(weak) >= 0) and np.all(np.diff(strong) >= 0)
    assert np.all(strong <= weak + 1e-12)


@SETTINGS
@given(st.sampled_from(list(Scheme)).flatmap(scenarios))
def test_scenario_dict_round_trip(sc):
    assert Scenario.from_dict(sc.to_dict()) == sc
