"""Regenerate bench/refs.json, the pinned references of the benchmark checks.

    python3 bench/make_refs.py

Needs only mpmath (1.3.0 made the committed file); takes a few minutes.

Exact ergodic capacity with n unit phasors and LOS amplitude a:

    C(n, a) = (2/ln 2) * integral_0^inf (1 - J0(a t) J0(t)^n) K1(t) dt,

from ln(1 + r^2) = 2 * integral_0^inf (1 - J0(r t)) K1(t) dt and
E[J0(|S| t)] = J0(t)^n for the sum S of n uniform-phase unit phasors.
Every C(n) shares one node set: tanh-sinh on [0, 1], where K1 has its
1/t and t*log(t) terms, and Gauss-Legendre on quarter periods of J0 up to
t = 26*pi, where K1 < 1e-36. The script evaluates the rule at two
resolutions and refuses to write unless they agree to 1e-31 and C(1), C(2)
match their closed forms 1 and 2*log2((1+sqrt 5)/2).

Approximate capacity (the exponential-integral form of analytic.APPROX_EI):

    C~(n) = exp(1/n) * E1(1/n) / ln 2.
"""
import json
import pathlib

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre, TanhSinh

DPS = 36
DIGITS = 30
EXACT_N = range(1, 51)
LOS = (20, 3)
APPROX_N = range(1, 257)
OUT = pathlib.Path(__file__).with_name("refs.json")


def _nodes(gl_degree, ts_degree):
    prec = mp.mp.prec
    # mpmath's tanh-sinh level k holds only the abscissas new at that level,
    # and its weights omit the step size h
    ts, h = TanhSinh(mp.mp), mp.mpf(2) ** -ts_degree
    nodes = [(x, w * h) for k in range(1, ts_degree + 1)
             for x, w in ts.get_nodes(mp.mpf(0), mp.mpf(1), k, prec)]
    edges = [mp.mpf(1)] + [mp.pi * k / 2 for k in range(1, 53)]
    gl = GaussLegendre(mp.mp)
    for a, b in zip(edges[:-1], edges[1:]):
        nodes += gl.get_nodes(a, b, gl_degree, prec)
    return nodes


def capacities(gl_degree, ts_degree):
    """C(n) for n in EXACT_N and C(*LOS), on one shared node set."""
    acc = {n: mp.mpf(0) for n in EXACT_N}
    acc_los = mp.mpf(0)
    n_los, a_los = LOS
    for x, w in _nodes(gl_degree, ts_degree):
        j0 = mp.besselj(0, x)
        wk = w * mp.besselk(1, x)
        for n in EXACT_N:
            acc[n] += wk * (1 - j0 ** n)
        acc_los += wk * (1 - mp.besselj(0, a_los * x) * j0 ** n_los)
    scale = 2 / mp.log(2)
    return {n: scale * v for n, v in acc.items()}, scale * acc_los


def main():
    mp.mp.dps = DPS
    coarse, coarse_los = capacities(5, 7)
    fine, fine_los = capacities(6, 8)
    worst = max(abs(fine[n] - coarse[n]) for n in EXACT_N)
    worst = max(worst, abs(fine_los - coarse_los))
    if worst > mp.mpf(10) ** -(DIGITS + 1):
        raise SystemExit(f"quadrature not converged: {mp.nstr(worst, 3)}")
    c2 = 2 * mp.log((1 + mp.sqrt(5)) / 2) / mp.log(2)
    for n, closed in ((1, mp.mpf(1)), (2, c2)):
        if abs(fine[n] - closed) > mp.mpf(10) ** -(DIGITS + 1):
            raise SystemExit(f"C({n}) misses its closed form by "
                             f"{mp.nstr(fine[n] - closed, 3)}")
    refs = {
        "generator": "bench/make_refs.py",
        "mpmath": mp.__version__,
        "digits": DIGITS,
        "exact_capacity": {str(n): mp.nstr(fine[n], DIGITS) for n in EXACT_N},
        "exact_capacity_los": {"n": LOS[0], "a": LOS[1],
                               "value": mp.nstr(fine_los, DIGITS)},
        "approx_capacity": {
            str(n): mp.nstr(mp.exp(mp.mpf(1) / n) * mp.e1(mp.mpf(1) / n)
                            / mp.log(2), DIGITS)
            for n in APPROX_N
        },
        "closed_forms": {"1": "1", "2": mp.nstr(c2, DIGITS)},
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {OUT} (two resolutions agree to {mp.nstr(worst, 3)})")


if __name__ == "__main__":
    main()
