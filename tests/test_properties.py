"""Property tests: the array analytic API against its own scalar calls and
against a per-rate loop, monotonicity of the hopping outage, and Scenario
dict round-trips."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasehop.analytic import (
    eps_capacity,
    erg_capacity_los,
    outage_hopping,
    outage_perfect,
    outage_static,
)
from phasehop.model import Scenario, Scheme
from phasehop.specfun import marcum_q1

SETTINGS = settings(max_examples=50, deadline=None)
OUTAGE = {Scheme.HOPPING: outage_hopping, Scheme.QUANTIZED: outage_hopping,
          Scheme.STATIC: outage_static, Scheme.PERFECT: outage_perfect}

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
    return st.sampled_from(list(Scheme)).flatmap(
        lambda s: scenarios(s, n_max, los=s is not Scheme.PERFECT))


def _same_as_scalar(f, sc, values):
    curve = f(sc, values)
    scalar = [f(sc, float(v)) for v in values]
    assert all(isinstance(v, float) for v in scalar)
    assert curve.shape == values.shape
    np.testing.assert_array_equal(curve, scalar)


@SETTINGS
@given(any_scenario(32), rate_arrays(8))
def test_outage_array_is_scalar(sc, rates):
    _same_as_scalar(OUTAGE[sc.scheme], sc, rates)


@SETTINGS
@given(st.sampled_from([Scheme.HOPPING, Scheme.PERFECT]).flatmap(
    lambda s: scenarios(s, los=s is Scheme.HOPPING)), eps_arrays())
def test_eps_capacity_array_is_scalar(sc, eps):
    _same_as_scalar(eps_capacity, sc, eps)


@settings(max_examples=8, deadline=None)
@given(scenarios(Scheme.STATIC, n_max=8), eps_arrays(3))
def test_static_eps_capacity_array_is_scalar(sc, eps):
    _same_as_scalar(eps_capacity, sc, eps)


def loop_outage(sc, rate: float) -> float:
    """One rate at a time in Python floats, with a linear count over the
    capacities in place of the capacity table."""
    dist = sc.link_count_distribution()
    n, a = sc.n_elements, sc.los_amplitude
    if sc.scheme in (Scheme.HOPPING, Scheme.QUANTIZED):
        k = sum(erg_capacity_los(i, a) < rate for i in range(n + 1))
        return 0.0 if k == 0 else float(dist.cdf[k - 1])
    snr = 2.0**rate - 1.0
    if sc.scheme is Scheme.PERFECT:
        k = math.floor(math.sqrt(snr))
        return 0.0 if rate == 0.0 else 1.0 if k >= n else float(dist.cdf[k])
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
    curve = OUTAGE[sc.scheme](sc, rates)
    loop = [loop_outage(sc, float(r)) for r in rates]
    if sc.scheme is Scheme.STATIC:
        np.testing.assert_allclose(curve, loop, rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(curve, loop)


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
