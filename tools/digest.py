"""Print SHA-256 digests of phasehop outputs, one line per family or part
of a family, to show that a change keeps them bit for bit.

    python tools/digest.py

The script imports the `src/` of the tree it sits in, so running it in two
checkouts compares them. The lines are:

- montecarlo.<scheme>: `run` for one scheme (quantized once per K, at
  K = 2, 5, 16, 17 and 256: 16 is the largest K whose fast loop takes two
  links a drawn byte, 17 the smallest that takes one), at a = 0 and 1.5,
  seeds 0 and 2^64 - 1 and 1 to 4 workers;
- montecarlo.quantized_sum_samples: at K = 2, 3, 5 and 256;
- channel: `symbol_capacity` on float64 (row- and column-major) and
  integer theta;
- analytic.<method>: the public functions of `phasehop.analytic` for one
  method (`exact` or `approx`) on a fixed grid of scenarios, rates (0,
  1023.5 and inf among them) and eps; `approx` also takes the outputs
  that need no method (perfect outage, `min_outage`, the empirical cdf
  and general-fading outage);
- hankel.cdf: `PhasorSumDistribution(n).cdf` and `.pdf` for n = 1 to 6
  and 20, and `hankel._cdf_grid` over the link sets 1..20 and
  (2, 3, 7, 64), at amplitudes that take in each link count, its two
  neighbouring floats, 0 and inf;
- figures.<id>: one figure at its scaled-down overrides in `SMALL_FIGURES`
  of `tests/test_report.py`, columns and metadata;
- errors: the type and text of the error each of a fixed list of bad
  inputs raises ("ok" where it raises none).

A change that moves one scheme's samples, or one method's capacities,
thus shows that the others kept their bits. Bits depend on the machine
and the numpy build, so compare digests made on one machine.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from phasehop import analytic, montecarlo, report  # noqa: E402
from phasehop.analytic import CapacityMethod  # noqa: E402
from phasehop.hankel import PhasorSumDistribution, _cdf_grid  # noqa: E402
from phasehop.model import Scenario, Scheme, symbol_capacity  # noqa: E402

_METHODS = tuple(CapacityMethod)
_RATES = np.concatenate((np.linspace(0.0, 8.0, 33), [1023.5, np.inf]))
_EPS = np.array([0.0, 1e-9, 1e-3, 0.1, 0.5, 0.9])
_TOP_SEED = 2**64 - 1


def _feed(h, *values) -> None:
    """Add each value to h: text as UTF-8, anything else as an array's
    dtype, shape and bytes."""
    for value in values:
        if isinstance(value, str):
            h.update(value.encode())
        else:
            x = np.asarray(value)
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(x.tobytes())


def montecarlo_digests() -> dict[str, str]:
    out = {}
    # 7 links, 4 blocks: odd rows x links, so that a block's link states
    # end part-way through a four-word Philox output, with rows of 0 and of
    # all 7 links
    p = (0.0, 0.3, 0.5, 0.9, 1.0, 0.5, 0.2)
    schemes = {scheme.value: (scheme, None)
               for scheme in (Scheme.PERFECT, Scheme.STATIC, Scheme.HOPPING)}
    schemes.update({f"quantized{k}": (Scheme.QUANTIZED, k) for k in (2, 5, 16, 17, 256)})
    for name, (scheme, k) in schemes.items():
        h = hashlib.sha256()
        for a in (0.0, 1.5):
            for seed in (0, _TOP_SEED):
                config = montecarlo.McConfig(Scenario(7, p, a, scheme, quant_levels=k),
                                             3 * 256 + 5, 9, seed)
                for workers in (1, 2, 3, 4):
                    res = montecarlo.run(config, workers)
                    _feed(h, res.per_slow_capacity, res.n_avail)
        out[f"montecarlo.{name}"] = h.hexdigest()
    h = hashlib.sha256()
    for k in (2, 3, 5, 256):  # the second shape takes two chunks
        for n, samples, seed in ((5, 999, 7), (64, 5000, _TOP_SEED)):
            _feed(h, montecarlo.quantized_sum_samples(n, k, samples, seed))
    out["montecarlo.quantized_sum_samples"] = h.hexdigest()
    return out


def channel_digest() -> dict[str, str]:
    h = hashlib.sha256()
    rng = np.random.default_rng(3)
    for k in (0, 1, 3, 10, 50):
        phi = rng.uniform(0.0, 2 * np.pi, k)
        levels = rng.integers(0, 256, (257, k))
        thetas = (rng.uniform(-10.0, 10.0, (257, k)), rng.uniform(0.0, 7.0, (k, 257)).T,
                  levels, levels.astype(np.uint8), levels.astype(np.int32))
        for theta in thetas:
            for los in (0.0, complex(2.0 * np.exp(1.3j))):
                _feed(h, symbol_capacity(phi, theta, los))
    return {"channel": h.hexdigest()}


def analytic_digests() -> dict[str, str]:
    hashes = {method: hashlib.sha256() for method in _METHODS}
    approx = hashes[CapacityMethod.APPROX_EI]  # also takes the outputs of no method
    ns = np.arange(0, 41)
    for method, h in hashes.items():
        _feed(h, analytic.erg_capacity_nlos(ns, method), analytic.erg_capacity_nlos(7, method))
        for a in (0.0, 0.5, 3.0):
            _feed(h, analytic.erg_capacity_los(ns, a, method),
                  analytic.erg_capacity_los(2, a, method))
    scenarios = [Scenario(20, 0.5), Scenario(20, 0.5, 3.0), Scenario(12, 0.9),
                 Scenario(6, (0.1, 0.5, 0.9, 1.0, 0.0, 0.3), 1.5),
                 Scenario(20, 0.5, scheme="quantized", quant_levels=2),
                 Scenario(20, 0.5, scheme="static"), Scenario(6, 0.7, scheme="static"),
                 Scenario(6, 0.5, 1.5, "static"), Scenario(20, 0.5, scheme="perfect"),
                 Scenario(20, 0.5, 3.0, "perfect")]
    for sc in scenarios:
        methods = _METHODS
        if sc.scheme is Scheme.STATIC and sc.los_amplitude:
            methods = (CapacityMethod.APPROX_EI,)  # exact static takes no LOS
        for method in methods:
            h = hashes[method]
            _feed(h, analytic.outage(sc, _RATES, method), analytic.outage(sc, 1.5, method),
                  analytic.eps_capacity(sc, _EPS, method))
            if sc.scheme in (Scheme.HOPPING, Scheme.QUANTIZED):
                _feed(h, analytic.outage_hopping(sc, _RATES, method))
            elif sc.scheme is Scheme.STATIC:
                _feed(h, analytic.outage_static(sc, _RATES, method))
        if sc.scheme is Scheme.PERFECT:
            _feed(approx, analytic.outage_perfect(sc, _RATES))
        _feed(approx, analytic.min_outage(sc))
    for links in (1, 2, 6):
        for method, h in hashes.items():
            _feed(h, analytic.outage_static_fixed(links, _RATES, 0.0, method))
        _feed(approx, analytic.outage_static_fixed(links, _RATES, 1.5, CapacityMethod.APPROX_EI))
    cdf = analytic.EmpiricalCdf.from_samples(np.random.default_rng(4).exponential(10.0, 500))
    _feed(approx, cdf(_RATES), analytic.outage_general_fading(_RATES, cdf))
    return {f"analytic.{method.value}": h.hexdigest() for method, h in hashes.items()}


def hankel_digest() -> dict[str, str]:
    h = hashlib.sha256()
    for n in (1, 2, 3, 4, 5, 6, 20):
        law = PhasorSumDistribution(n)
        s = np.linspace(0.0, n, 4 * n + 3)  # 7 points at n = 1, 11 at n = 2, ...
        _feed(h, law.cdf(s), law.cdf(float(s[1])), law.pdf(s[:7]), law.pdf(float(s[-2])))
    for links in (np.arange(1, 21), np.array([2, 3, 7, 64])):
        k = links.astype(float)
        rho = np.concatenate(([0.0, np.inf], k, np.nextafter(k, 0.0), np.nextafter(k, np.inf),
                              np.linspace(0.0, k[-1] + 1.0, 41)))
        _feed(h, _cdf_grid(links, rho), _cdf_grid(links, rho[::7].reshape(-1, 1)))
    return {"hankel.cdf": h.hexdigest()}


def _small_figures() -> dict:
    """The `SMALL_FIGURES` table of tests/test_report.py."""
    spec = importlib.util.spec_from_file_location(
        "_small_figures", ROOT / "tests" / "test_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SMALL_FIGURES


def figures_digests() -> dict[str, str]:
    out = {}
    for fid, (overrides, _) in _small_figures().items():
        h = hashlib.sha256()
        ds = report.build_figure(fid, overrides)
        _feed(h, json.dumps(ds.metadata, sort_keys=True))
        for name, column in ds.columns.items():
            _feed(h, name, column)
        out[f"figures.{fid.value}"] = h.hexdigest()
    return out


def _bad_inputs():
    """Calls that should fail, each with a label."""
    quantized = Scenario(4, 0.5, scheme="quantized", quant_levels=257)
    sc = Scenario(20, 0.5)
    yield "mc-cap", lambda: montecarlo.McConfig(quantized, 10, 10)
    yield "mc-cap-2^64", lambda: montecarlo.McConfig(
        Scenario(4, 0.5, scheme="quantized", quant_levels=2**64 + 1), 10, 10)
    for k in (257, 1000, 2**64 + 1, 1, 2.5):
        yield f"sum-k{k}", lambda k=k: montecarlo.quantized_sum_samples(3, k, 10)
    yield "sum-n0", lambda: montecarlo.quantized_sum_samples(0, 4, 10)
    yield "sum-seed", lambda: montecarlo.quantized_sum_samples(3, 4, 10, seed=-1)
    yield "histogram-k257", lambda: report.build_figure(
        report.FigureId.COSINE_HISTOGRAM, {"k": 257, "samples": 10, "n_values": [2]})
    yield "mc-guard", lambda: montecarlo.McConfig(sc, 10**6, 10**5)
    yield "mc-slow0", lambda: montecarlo.McConfig(sc, 0, 10)
    yield "mc-seed", lambda: montecarlo.McConfig(sc, 10, 10, seed=2**64)
    yield "mc-workers", lambda: montecarlo.run(montecarlo.McConfig(sc, 10, 10), workers=0)
    yield "mc-rate", lambda: montecarlo.run(montecarlo.McConfig(sc, 10, 10)).outage_at(-1.0)
    yield "scenario-p", lambda: Scenario(4, 1.5)
    yield "scenario-p-nan", lambda: Scenario(4, float("nan"))
    yield "scenario-p-len", lambda: Scenario(4, (0.5, 0.5))
    yield "scenario-a", lambda: Scenario(4, 0.5, float("inf"))
    yield "scenario-reach", lambda: Scenario(4, 0.5, 1e200)
    yield "scenario-k", lambda: Scenario(4, 0.5, scheme="quantized")
    yield "scenario-static-k", lambda: Scenario(4, 0.5, scheme="static", quant_levels=4)
    yield "outage-rate", lambda: analytic.outage(sc, -1.0)
    yield "outage-nan", lambda: analytic.outage(sc, [1.0, float("nan")])
    yield "eps-1", lambda: analytic.eps_capacity(sc, 1.0)
    yield "static-exact-los", lambda: analytic.outage(
        Scenario(6, 0.5, 1.5, "static"), 1.0, CapacityMethod.EXACT_HANKEL)
    yield "hopping-static", lambda: analytic.outage_hopping(Scenario(6, 0.5, scheme="static"), 1.0)
    yield "erg-a", lambda: analytic.erg_capacity_los(2, 1e308)
    yield "erg-n", lambda: analytic.erg_capacity_nlos(2.5, CapacityMethod.APPROX_EI)
    yield "method", lambda: analytic.outage(sc, 1.0, "fast")
    yield "figure-override", lambda: report.build_figure(report.FigureId.SCHEME_COMPARISON,
                                                         {"bogus": 1})
    yield "figure-eps", lambda: report.build_figure(report.FigureId.EPS_CAP_NLOS,
                                                    {"eps_min": 0})


def errors_digest() -> dict[str, str]:
    h = hashlib.sha256()
    for label, call in _bad_inputs():
        try:
            call()
            outcome = "ok"
        except (ValueError, TypeError, OverflowError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        _feed(h, f"{label}\n{outcome}\n")
    return {"errors": h.hexdigest()}


FAMILIES = {"montecarlo": montecarlo_digests, "channel": channel_digest,
            "analytic": analytic_digests, "hankel": hankel_digest,
            "figures": figures_digests, "errors": errors_digest}


def main() -> None:
    for family in FAMILIES.values():
        for name, value in family().items():
            print(name, value)


if __name__ == "__main__":
    main()
