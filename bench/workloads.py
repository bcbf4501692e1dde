"""The four benchmark workloads: inputs from a seed, the timed task list and
the correctness checks that run after it.

Each workload keeps the engines it does not measure idle:

  exact-capacity   the Hankel-transform kernel (hankel, analytic exact path)
  analytic-curves  closed-form curves point by point, plus the report/cli
                   write path; no hankel, no montecarlo
  mc-hopping       Monte-Carlo fast loop (many symbols per slow sample)
  mc-static        Monte-Carlo slow loop (one Philox stream per sample,
                   no fast loop)

A workload's task list is a list of (name, task) pairs. run.py times each
task on its own: task(pkg, out_dir) returns one output. Untimed tasks run
once, after the timed rounds, for the checks and in the traced round only. The timed code
reaches the package only through its public names, on the module objects
passed in as `pkg`, so a round of tasks can run on a freshly imported
package with cold lru_cache tables.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy import stats

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFS = json.loads((pathlib.Path(__file__).with_name("refs.json")).read_text())
MODULES = ("analytic", "cli", "hankel", "model", "montecarlo", "report", "specfun")

DIGITS_CAP = 15.0
# ECDF agreement: exact binomial tails, Bonferroni over the rates, so a
# correct simulator fails on at most this share of seeds. A Gaussian sigma
# bound is too tight where the expected count is a few samples.
ALPHA_ECDF = 1e-3
# Mean and variance z-tests: two-sided tail 6.8e-6 each.
Z_MOMENT = 4.5


def import_package(fresh: bool = False) -> SimpleNamespace:
    """The phasehop modules from this checkout's src/, re-imported from
    scratch when fresh (new module objects, cold memo tables)."""
    if not (SRC / "phasehop" / "__init__.py").is_file():
        raise SystemExit(f"error: phasehop sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m.split(".")[0] == "phasehop"]:
            del sys.modules[name]
    pkg = importlib.import_module("phasehop")
    if pathlib.Path(pkg.__file__).resolve().parent != SRC / "phasehop":
        raise SystemExit(f"error: imported phasehop from {pkg.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"phasehop.{m}")
                              for m in MODULES})


def exact_ref(n: int) -> float:
    return 0.0 if n == 0 else float(REFS["exact_capacity"][str(n)])


def approx_ref(n: int) -> float:
    return float(REFS["approx_capacity"][str(n)])


class Checks:
    """Named pass/fail results plus the digit scores behind exact_digits."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []
        self.digits: list[float] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def error_digits(self, err: float) -> float:
        """Record -log10(err), capped at DIGITS_CAP."""
        d = DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))
        self.digits.append(d)
        return d

    def digits_vs(self, value: float, ref: float) -> float:
        return self.error_digits(abs(value - ref) / abs(ref))

    def curve(self, name: str, values) -> None:
        v = np.asarray(values, dtype=float)
        self.add(name, np.all((v >= 0) & (v <= 1)) and np.all(np.diff(v) >= 0),
                 "outage in [0,1], nondecreasing in rate")

    def ecdf(self, name: str, emp, ana, n: int) -> None:
        """The n-sample ECDF emp against the analytic cdf ana: each count
        must lie inside the two-sided Binomial(n, ana) tails of total
        probability ALPHA_ECDF / len(ana)."""
        k = np.rint(np.asarray(emp) * n)
        tail = np.minimum(stats.binom.cdf(k, n, ana), stats.binom.sf(k - 1, n, ana))
        limit = ALPHA_ECDF / (2 * len(ana))
        self.add(name, tail.min() >= limit,
                 f"smallest tail probability {tail.min():.1e} (limit {limit:.1e})")

    def mean_z(self, name: str, samples, mean: float) -> None:
        x = np.asarray(samples, dtype=float)
        z = (x.mean() - mean) / (x.std(ddof=1) / math.sqrt(x.size))
        self.add(name, abs(z) <= Z_MOMENT, f"z = {z:.2f} against {mean:.10g}")

    def identical(self, name: str, a, b) -> None:
        a, b = np.asarray(a), np.asarray(b)
        same = a.shape == b.shape and np.array_equal(a, b)
        rel = 0.0 if same else 1.0
        if not same and a.shape == b.shape:
            rel = float(np.abs(a - b).max() / max(np.abs(a).max(), 1e-300))
        self.error_digits(rel)
        self.add(name, same, "bit-identical" if same else f"max rel diff {rel:.1e}")


@dataclass(frozen=True)
class Workload:
    """make_inputs(seed, scale) -> inputs; tasks(inputs) -> [(name, task)],
    the timed task list; check(pkg, inputs, outputs by task name) -> Checks;
    untimed(inputs) -> [(name, task)], the untimed tasks."""

    name: str
    make_inputs: Callable[[int, float], dict]
    tasks: Callable[[dict], list]
    check: Callable[[SimpleNamespace, dict, dict], Checks]
    untimed: Callable[[dict], list] = lambda inputs: []


# ---------------------------------------------------------------- exact ----

# Link counts whose exact static outage (the phasor-sum cdf) is timed point
# by point. C(2) and C(6) themselves are left out of the timed list: each
# is one call of 30 s and 6 s on a 2-core box, too long to repeat within a
# run, and they are built from the very cdf calls timed here.
CDF_LINKS = (2, 6)
# n = 2 cdf accuracy grid, against (2/pi) asin(s/2): s = j/20, j = 1..39,
# and two points nearer each end of [0, 2], where the cdf is steepest
CDF2_GRID = np.concatenate([[0.002, 0.02], np.arange(1, 40) / 20.0, [1.98, 1.998]])


def _exact_inputs(seed: int, scale: float = 1.0) -> dict:
    rng = np.random.default_rng(seed)
    full = scale >= 1
    points, cdf_points = (8, 64) if full else (2, 8)
    # one amplitude s per stratum, so the number of phasor-cdf evaluations
    # (those with s < n) is the same for every seed while s itself varies
    s = np.arange(points) + rng.uniform(0.1, 0.9, points)
    cdf_s = {n: n * (np.arange(cdf_points) + rng.uniform(0.1, 0.9, cdf_points))
             / cdf_points for n in CDF_LINKS}
    return {
        "ns": (12, 20, 50) if full else (12, 20),
        "static_rates": np.log2(1.0 + s * s),
        "cdf_s": cdf_s,
        "n": 20, "p": 0.5, "eps": 1e-5,
        "work": {"exact_capacities": 3 if full else 2,
                 "exact_static_points": points,
                 "exact_fixed_link_points": {n: cdf_points for n in CDF_LINKS},
                 "exact_eps_capacities": 1},
    }


def _fixed_link_outage(pkg, n: int, s) -> np.ndarray:
    """Exact static outage with exactly n links at amplitudes s, the
    phasor-sum cdf F_n(s)."""
    an = pkg.analytic
    exact = an.CapacityMethod.EXACT_HANKEL
    return np.array([an.outage_static_fixed(n, float(np.log2(1.0 + x * x)), 0.0,
                                            exact) for x in s])


def _exact_tasks(inp) -> list:
    def capacity(n):
        return lambda pkg, _: pkg.analytic.erg_capacity_nlos(
            n, pkg.analytic.CapacityMethod.EXACT_HANKEL)

    def fixed(n):
        return lambda pkg, _: _fixed_link_outage(pkg, n, inp["cdf_s"][n])

    def static_scenario(pkg):
        return pkg.model.Scenario(inp["n"], inp["p"], scheme=pkg.model.Scheme.STATIC)

    def eps_capacity(pkg, _):
        an = pkg.analytic
        return an.eps_capacity(static_scenario(pkg), inp["eps"],
                               an.CapacityMethod.EXACT_HANKEL)

    def static_outage(pkg, _):
        an = pkg.analytic
        sc = static_scenario(pkg)
        return np.array([an.outage_static(sc, float(r), an.CapacityMethod.EXACT_HANKEL)
                         for r in inp["static_rates"]])

    return ([(f"C({n})", capacity(n)) for n in inp["ns"]]
            + [(f"fixed-link outage n={n}", fixed(n)) for n in CDF_LINKS]
            + [("eps-capacity", eps_capacity), ("static outage", static_outage)])


def _exact_check(pkg, inp, out) -> Checks:
    ch = Checks()
    caps = [out[f"C({n})"] for n in inp["ns"]]
    for n, c in zip(inp["ns"], caps):
        ref = exact_ref(n)
        d = ch.digits_vs(c, ref)
        ch.add(f"C({n}) vs pinned reference", abs(c - ref) <= 1e-4 * ref,
               f"{c!r} vs {ref!r} ({d:.2f} digits)")
    ch.add("C(n) increasing in n", np.all(np.diff(caps) > 0))
    v = out["eps-capacity"]
    ch.add("exact static eps-capacity(20, 0.5, 1e-5) in (0, 0.005)",
           0 < v < 0.005, f"{v!r}")
    ch.curve("exact static outage points", out["static outage"])

    for n in CDF_LINKS:
        v = out[f"fixed-link outage n={n}"]
        ch.add(f"n={n} fixed-link outage in [0, 1]", np.all((v >= 0) & (v <= 1)))
    # the n=2 cdf's accuracy enters exact_digits, not a pass/fail check: near
    # s = 0 and s = 2 the Hankel cdf is off by up to a few 1e-2 and is not
    # monotone. A fixed grid keeps exact_digits independent of the seed.
    err = float(np.abs(_fixed_link_outage(pkg, 2, CDF2_GRID)
                       - 2.0 / np.pi * np.arcsin(CDF2_GRID / 2.0)).max())
    ch.error_digits(err)
    return ch


# ------------------------------------------------------------- analytic ----

# (scheme, n, p key, a): hopping NLOS across p and n, up to n = 256 where
# the link-count law's O(n^2) convolution dominates; one curve for each
# other scheme. Each LOS static point costs n Marcum-Q calls. "het" is the
# seeded per-element probability vector.
CURVES = [
    ("hopping", 20, "0.5", 0.0), ("hopping", 20, "het", 0.0),
    ("hopping", 64, "het", 0.0), ("hopping", 256, "0.5", 0.0),
    ("static", 64, "het", 0.0), ("perfect", 20, "0.5", 0.0),
    ("hopping", 20, "0.5", 3.0), ("static", 10, "het", 3.0),
]
# eps sweeps keep scalar p: with the seeded vector, how many eps fall below
# Pr(no link), where no capacity is evaluated, would vary by seed
EPS_SWEEPS = [("hopping", 64, "0.5"), ("hopping", 20, "0.9"),
              ("static", 20, "0.5")]


def _analytic_inputs(seed: int, scale: float = 1.0) -> dict:
    rng = np.random.default_rng(seed)
    full = scale >= 1
    curves = [c for c in CURVES if full or c[1] <= 20]
    eps_sweeps = [e for e in EPS_SWEEPS if full or e[1] <= 20]
    points, eps_points, figure_points = (500, 200, 200) if full else (40, 20, 40)
    probs = {n: {"0.5": 0.5, "0.9": 0.9, "het": tuple(rng.uniform(0.1, 0.9, n))}
             for n in (10, 20, 64, 256)}

    def rates(n, a):
        # a = 0 reproduces report's own grid: 0 .. C~(n) + 1
        top = approx_ref(n) + 1.0 if a == 0 else math.log2(1 + n + a * a) + 1.0
        return np.linspace(0.0, top, points)

    return {
        "probs": probs,
        "curves": [(s, n, k, a, rates(n, a)) for s, n, k, a in curves],
        "eps_grid": np.logspace(-9, -1, eps_points),
        "eps_sweeps": eps_sweeps,
        "figure_points": figure_points,
        "cli_rate_grid": "0:8:0.04" if full else "0:8:0.5",
        "work": {"rate_curves": len(curves), "rate_points": len(curves) * points,
                 "eps_sweeps": len(eps_sweeps),
                 "eps_points": len(eps_sweeps) * eps_points + 1,
                 "cli_figure_points": 6 * figure_points,
                 "cli_calls": 3},
    }


def _scenario(pkg, scheme: str, n: int, p, a: float = 0.0):
    return pkg.model.Scenario(n, p, a, pkg.model.Scheme(scheme))


def _curve_label(scheme, n, key, a=None) -> str:
    return f"{scheme} n={n} p={key}" + ("" if a is None else f" a={a:g}")


CLI_FIGURES = ("scheme-comparison", "eps-cap-nlos")


def _analytic_tasks(inp) -> list:
    def curve(scheme, n, key, a, rates):
        def task(pkg, _):
            an = pkg.analytic
            f = {"hopping": an.outage_hopping, "static": an.outage_static,
                 "perfect": an.outage_perfect}[scheme]
            sc = _scenario(pkg, scheme, n, inp["probs"][n][key], a)
            return np.array([f(sc, float(r)) for r in rates])
        return task

    def eps_sweep(scheme, n, key):
        def task(pkg, _):
            sc = _scenario(pkg, scheme, n, inp["probs"][n][key])
            return np.array([pkg.analytic.eps_capacity(sc, float(e))
                             for e in inp["eps_grid"]])
        return task

    def eps_20(pkg, _):
        return pkg.analytic.eps_capacity(_scenario(pkg, "hopping", 20, 0.5), 1e-5)

    def cli(args):
        def task(pkg, out_dir):
            argv = [a.replace("{out}", out_dir) for a in args]
            with contextlib.redirect_stdout(io.StringIO()):
                return pkg.cli.main(argv), out_dir
        return task

    overrides = json.dumps({"points": inp["figure_points"]})
    return ([(f"curve {_curve_label(s, n, k, a)}", curve(s, n, k, a, r))
             for s, n, k, a, r in inp["curves"]]
            + [(f"eps {_curve_label(*e)}", eps_sweep(*e)) for e in inp["eps_sweeps"]]
            + [("eps-capacity(20, 0.5, 1e-5)", eps_20)]
            + [(f"cli figure {fid}", cli(["figure", "--id", fid, "--out-dir",
                                          "{out}", "--overrides", overrides]))
               for fid in CLI_FIGURES]
            + [("cli outage", cli(["outage", "--n", "64", "--p", "0.5", "--scheme",
                                   "static", "--rate-grid", inp["cli_rate_grid"],
                                   "--out", os.path.join("{out}", "outage.csv")]))])


def _analytic_check(pkg, inp, out) -> Checks:
    ch = Checks()
    an, report = pkg.analytic, pkg.report
    for scheme, n, key, a, rates in inp["curves"]:
        label = _curve_label(scheme, n, key, a)
        v = out[f"curve {label}"]
        ch.curve(f"{label} curve", v)
        if scheme == "hopping" and a == 0.0:
            floor = an.min_outage(_scenario(pkg, scheme, n, inp["probs"][n][key]))
            ch.add(f"{label} outage at 0+ equals min_outage",
                   math.isclose(v[1], floor, rel_tol=1e-12, abs_tol=0.0),
                   f"{v[1]!r} vs {floor!r}")
    for scheme, n, key in inp["eps_sweeps"]:
        label = f"{_curve_label(scheme, n, key)} eps sweep"
        v = out[f"eps {_curve_label(scheme, n, key)}"]
        ch.add(f"{label} nonnegative, nondecreasing in eps",
               np.all(v >= 0) and np.all(np.diff(v) >= 0))
        if scheme == "hopping":
            # every hopping eps-capacity is a plateau C~(k) of the Ei form
            plateaus = np.array([0.0] + [approx_ref(k) for k in range(1, n + 1)])
            k = np.abs(plateaus[:, None] - v[None, :]).argmin(axis=0)
            worst = min((ch.digits_vs(x, plateaus[i]) for x, i in zip(v, k) if i),
                        default=DIGITS_CAP)
            ch.add(f"{label} sits on the pinned C~(k) plateaus", worst >= 12,
                   f"{worst:.2f} digits")
    v = out["eps-capacity(20, 0.5, 1e-5)"]
    ch.add("eps-capacity(20, 0.5, 1e-5) = 0.8603 +- 0.001",
           abs(v - 0.8603) <= 0.001, f"{v!r}")

    cli = [out[f"cli figure {fid}"] for fid in CLI_FIGURES] + [out["cli outage"]]
    codes = [code for code, _ in cli]
    ch.add("cli exit codes are 0", codes == [0, 0, 0], str(codes))
    d = cli[0][1]
    for fid, cols in zip(CLI_FIGURES, (("hopping", "static", "perfect"), None)):
        csv = report.read_csv(os.path.join(d, fid + ".csv"))
        js = report.read_json(os.path.join(d, fid + ".json")).columns
        ch.add(f"{fid}: CSV and JSON hold the same columns",
               list(csv) == list(js)
               and all(np.array_equal(csv[k], js[k]) for k in csv))
        for c in cols or ():
            ch.curve(f"{fid}: {c} column", csv[c])
    csv = report.read_csv(os.path.join(d, "outage.csv"))
    lo, hi, step = (float(x) for x in inp["cli_rate_grid"].split(":"))
    ch.add("cli outage CSV covers its rate grid",
           np.array_equal(csv["rate"], np.arange(lo, hi + 0.5 * step, step)))
    ch.curve("cli outage CSV", csv["outage"])
    return ch


# ---------------------------------------------------------- Monte-Carlo ----

def _mc_seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64)]


def _workers() -> int:
    return min(2, os.cpu_count() or 1)


def _mc_hopping_inputs(seed: int, scale: float = 1.0) -> dict:
    f = min(scale, 1.0)
    slow, fast = max(20, int(100 * f)), max(50, int(5000 * f))
    s = _mc_seeds(seed, 4)
    los = REFS["exact_capacity_los"]
    runs = [  # name, (n, p, a, scheme, K), slow, fast, seed
        ("hopping", (20, 0.5, 0.0, "hopping", None), slow, fast, s[0]),
        ("quantized", (20, 0.5, 0.0, "quantized", 2), slow, fast, s[1]),
        ("los", (los["n"], 1.0, float(los["a"]), "hopping", None),
         max(20, int(60 * f)), fast, s[2]),
    ]
    qsum = (50, 4, max(10_000, int(200_000 * f)), s[3])
    return {"runs": runs, "qsum": qsum, "workers": _workers(),
            "work": {"slow_x_fast": {r[0]: [r[2], r[3]] for r in runs},
                     "quantized_sum_draws": qsum[2],
                     "workers": [1, _workers()]}}


def _mc_static_inputs(seed: int, scale: float = 1.0) -> dict:
    slow = max(500, int(5_000 * min(scale, 1.0)))
    s = _mc_seeds(seed, 2)
    runs = [("static", (20, 0.5, 0.0, "static", None), slow, 1, s[0]),
            ("perfect", (20, 0.5, 0.0, "perfect", None), slow, 1, s[1])]
    return {"runs": runs, "qsum": None, "workers": _workers(),
            "work": {"slow_x_fast": {r[0]: [r[2], r[3]] for r in runs},
                     "workers": [1, _workers()]}}


def _mc_run(scenario, slow, fast, seed, workers):
    def task(pkg, _):
        mc, model = pkg.montecarlo, pkg.model
        n, p, a, scheme, k = scenario
        sc = model.Scenario(n, p, a, model.Scheme(scheme), quant_levels=k)
        return mc.run(mc.McConfig(sc, slow, fast, seed),
                      workers=workers).per_slow_capacity
    return task


def _mc_tasks(inp) -> list:
    """Each run serial (workers=1), then the quantized sum if any."""
    tasks = [(f"{name} serial", _mc_run(scenario, slow, fast, seed, 1))
             for name, scenario, slow, fast, seed in inp["runs"]]
    if inp["qsum"]:
        tasks.append(("quantized sum", lambda pkg, _:
                      pkg.montecarlo.quantized_sum_samples(*inp["qsum"])))
    return tasks


def _mc_parallel(inp) -> list:
    """Each run again with workers=W, untimed: how fast the second core is
    depends on what else the host runs on it, which a timing on a shared
    host cannot separate from the simulator."""
    return [(f"{name} parallel", _mc_run(scenario, slow, fast, seed, inp["workers"]))
            for name, scenario, slow, fast, seed in inp["runs"]]


def _mc_common_checks(ch: Checks, inp, out) -> None:
    for name, (n, p, a, *_), slow, _, _ in inp["runs"]:
        w1, w2 = out[f"{name} serial"], out[f"{name} parallel"]
        ch.identical(f"{name}: workers=1 and workers={inp['workers']} agree",
                     w1, w2)
        top = math.log2(1.0 + (a + n) ** 2)
        ch.add(f"{name}: {slow} capacities finite, within [0, log2(1+(a+n)^2)]",
               w1.size == slow and np.all(np.isfinite(w1))
               and np.all((w1 >= 0) & (w1 <= top * (1 + 1e-12))))


def _mc_hopping_check(pkg, inp, out) -> Checks:
    ch = Checks()
    _mc_common_checks(ch, inp, out)
    runs = {r[0]: r for r in inp["runs"]}

    _, (n, p, *_), slow, _, _ = runs["hopping"]
    caps = np.array([exact_ref(i) for i in range(n + 1)])
    mid = 0.5 * (caps[:-1] + caps[1:])  # between the exact plateaus
    sc = _scenario(pkg, "hopping", n, p)
    ana = np.array([pkg.analytic.outage_hopping(sc, float(r)) for r in mid])
    ch.ecdf("hopping: ECDF matches the step mixture at plateau midpoints",
            np.searchsorted(np.sort(out["hopping serial"]), mid) / slow, ana, slow)

    ref = REFS["exact_capacity_los"]
    ch.mean_z(f"los: mean capacity matches exact C({ref['n']}, a={ref['a']})",
              out["los serial"], float(ref["value"]))

    n_q, k_q, draws, _ = inp["qsum"]
    x = out["quantized sum"]
    ch.add("quantized sum: draw count", x.size == draws)
    ch.mean_z("quantized sum: mean 0", x, 0.0)
    var, mu4 = n_q / 2.0, n_q * 3.0 / 8.0 + 3.0 * n_q * (n_q - 1) / 4.0
    z = (x.var() - var) / math.sqrt((mu4 - var * var) / x.size)
    ch.add(f"quantized sum: variance {var:g}", abs(z) <= Z_MOMENT, f"z = {z:.2f}")
    return ch


def _mc_static_check(pkg, inp, out) -> Checks:
    ch = Checks()
    _mc_common_checks(ch, inp, out)
    runs = {r[0]: r for r in inp["runs"]}

    _, (n, p, *_), slow, _, _ = runs["perfect"]
    caps = out["perfect serial"]
    k = np.rint(np.sqrt(np.exp2(caps) - 1.0))
    exact = np.log2(1.0 + k * k)
    rel = float(np.max(np.abs(caps - exact) / np.maximum(exact, 1.0)))
    ch.error_digits(rel)
    ch.add("perfect: every capacity is log2(1+k^2) for a link count k",
           rel <= 1e-14 and np.all(k <= n), f"max rel err {rel:.1e}")
    plateaus = np.log2(1.0 + np.arange(n + 1) ** 2.0)
    mid = 0.5 * (plateaus[:-1] + plateaus[1:])
    sc = _scenario(pkg, "perfect", n, p)
    ana = np.array([pkg.analytic.outage_perfect(sc, float(r)) for r in mid])
    ch.ecdf("perfect: ECDF matches the link-count law at plateau midpoints",
            np.searchsorted(np.sort(caps), mid) / slow, ana, slow)

    _, (n, p, *_), _, _, _ = runs["static"]
    ch.mean_z("static: mean |h|^2 equals n*p", np.exp2(out["static serial"]) - 1.0,
              n * p)
    return ch


WORKLOADS = {w.name: w for w in (
    Workload("exact-capacity", _exact_inputs, _exact_tasks, _exact_check),
    Workload("analytic-curves", _analytic_inputs, _analytic_tasks, _analytic_check),
    Workload("mc-hopping", _mc_hopping_inputs, _mc_tasks, _mc_hopping_check,
             _mc_parallel),
    Workload("mc-static", _mc_static_inputs, _mc_tasks, _mc_static_check,
             _mc_parallel),
)}
