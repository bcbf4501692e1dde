"""Dataset emission: figure-reproduction tables and CSV/JSON writers.

Each figure id corresponds to one published curve family, and one table,
_FIGURES, gives its builder and its original parameters. build_figure
evaluates the analytic curves (every outage column by analytic.outage)
and, where the original plot contains simulation markers, the matching
Monte-Carlo ECDF, each run configured from the figure's sample counts and
seed by _config, at the original parameters unless overridden. A builder
evaluates its columns in a fixed order, so a bad override always fails
in the same place.
"""
from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import analytic, montecarlo
from .analytic import CapacityMethod
from .model import Scenario, Scheme, _capacity
from .specfun import is_real, whole_number

__all__ = ["FigureId", "FigureDataset", "build_figure", "csv_lines", "write_csv",
           "write_json", "read_csv", "read_json"]


class FigureId(enum.Enum):
    ERG_CAP_COMPARE = "erg-cap-compare"
    ERG_CAP_LOS = "erg-cap-los"
    OUT_HOPPING_NLOS = "out-hopping-nlos"
    OUT_HOPPING_LOS = "out-hopping-los"
    EPS_CAP_NLOS = "eps-cap-nlos"
    OUT_QUANTIZED = "out-quantized"
    QUANTIZED_SWEEP_K2 = "quantized-sweep-k2"
    STATIC_NLOS = "static-nlos"
    SCHEME_COMPARISON = "scheme-comparison"
    COSINE_HISTOGRAM = "cosine-histogram"


@dataclass(frozen=True)
class FigureDataset:
    """Named equal-length columns plus the metadata needed to rebuild them."""

    figure_id: FigureId
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns must have equal length, got {lengths}")
        cols = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        object.__setattr__(self, "columns", cols)


def _rate_grid(n: int, points: int) -> np.ndarray:
    top = analytic.erg_capacity_nlos(n, CapacityMethod.APPROX_EI) + 1.0
    return np.linspace(0.0, top, points)


def build_figure(figure_id: FigureId, overrides: dict | None = None) -> FigureDataset:
    """Evaluate one figure's dataset at its original defaults, with the
    given parameter overrides applied."""
    builder, defaults = _FIGURES[figure_id]
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown override {key!r} for {figure_id.value}")
        params[key] = _like_default(key, params[key], value)
    columns = builder(params)
    meta = {"figure_id": figure_id.value,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}}
    return FigureDataset(figure_id, columns, meta)


def _like_default(key: str, default, value):
    """An override in the type of its default: a whole number for an int
    (4.0 is 4), at least 1 except the seed, which may be 0; a float for a
    float; and a non-empty tuple of those for a tuple, which a list also
    gives (as JSON metadata does)."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"override {key!r} must be a non-empty list, got {value!r}")
        return tuple(_like_default(key, default[0], v) for v in value)
    if not is_real(value):
        raise ValueError(f"override {key!r} must be a number, got {value!r}")
    if isinstance(default, int):
        return whole_number(value, 0 if key == "seed" else 1, key)
    return float(value)


def _config(sc: Scenario, p) -> montecarlo.McConfig:
    """The figure's simulation of sc: its slow and fast sample counts and
    seed, or its `samples` slow samples with one fast sample each."""
    slow, fast = (p["samples"], 1) if "samples" in p else (p["slow"], p["fast"])
    return montecarlo.McConfig(sc, slow, fast, p["seed"])


def _build_erg_cap_compare(p):
    ns = np.arange(1, p["n_max"] + 1)
    return {"n": ns,
            "exact": analytic.erg_capacity_nlos(ns, CapacityMethod.EXACT_HANKEL),
            "approx": analytic.erg_capacity_nlos(ns, CapacityMethod.APPROX_EI)}


def _build_erg_cap_los(p):
    ns = np.arange(0, p["n"] + 1)
    ana = analytic.erg_capacity_los(ns, p["a"])
    mc = [_capacity(p["a"], 0.0)]  # no link: the LOS-only channel
    for n in ns[1:]:
        sc = Scenario(int(n), 1.0, p["a"], Scheme.HOPPING)
        mc.append(float(montecarlo.run(_config(sc, p)).per_slow_capacity.mean()))
    return {"n": ns, "analytic": ana, "mc": mc}


def _build_outage_per_p(scheme, prefix, p):
    """The outage of `scheme` at each link probability in p_values: the
    analytic column `{prefix}_p...` and the simulated one `mc_p...`."""
    rates = _rate_grid(p["n"], p["points"])
    cols = {"rate": rates}
    for prob in p["p_values"]:
        sc = Scenario(p["n"], prob, p.get("a", 0.0), scheme)
        cols[f"{prefix}_p{prob:g}"] = analytic.outage(sc, rates)
        cols[f"mc_p{prob:g}"] = montecarlo.run(_config(sc, p)).outage_at(rates)
    return cols


def _build_eps_cap_nlos(p):
    for key in ("eps_min", "eps_max"):
        if not 0.0 < p[key] < 1.0:
            raise ValueError(f"override {key!r} must lie in (0, 1), got {p[key]}")
    if p["eps_min"] > p["eps_max"]:
        raise ValueError(f"override 'eps_min' must not exceed eps_max, "
                         f"got {p['eps_min']} > {p['eps_max']}")
    eps = np.logspace(np.log10(p["eps_min"]), np.log10(p["eps_max"]), p["points"])
    cols = {"eps": eps}
    for prob in p["p_values"]:
        sc = Scenario(p["n"], prob, 0.0, Scheme.HOPPING)
        cols[f"rate_p{prob:g}"] = analytic.eps_capacity(sc, eps)
    return cols


def _build_out_quantized(p):
    rates = _rate_grid(p["n"], p["points"])
    sc = Scenario(p["n"], p["p"], 0.0, Scheme.QUANTIZED, quant_levels=p["k"])
    cfg = _config(sc, p)  # its checks come before the analytic column's
    return {"rate": rates, "analytic": analytic.outage(sc, rates),
            "mc_quantized": montecarlo.run(cfg).outage_at(rates)}


def _build_quantized_sweep(p):
    n_top = max(p["n_values"])
    rates = _rate_grid(n_top, p["points"])
    cols = {"rate": rates}
    for n in p["n_values"]:
        for scheme, k in ((Scheme.QUANTIZED, p["k"]), (Scheme.HOPPING, None)):
            sc = Scenario(n, p["p"], 0.0, scheme, quant_levels=k)
            cols[f"mc_{scheme.value}_n{n}"] = montecarlo.run(_config(sc, p)).outage_at(rates)
    return cols


def _build_scheme_comparison(p):
    rates = _rate_grid(p["n"], p["points"])
    cols = {"rate": rates}
    for scheme in (Scheme.HOPPING, Scheme.STATIC, Scheme.PERFECT):
        sc = Scenario(p["n"], p["p"], 0.0, scheme)
        cols[scheme.value] = analytic.outage(sc, rates)
    return cols


def _build_cosine_histogram(p):
    n_top = max(p["n_values"])
    lim = 4.0 * np.sqrt(n_top / 2.0)
    edges = np.linspace(-lim, lim, p["bins"] + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    cols = {"x": centers}
    for n in p["n_values"]:
        x = montecarlo.quantized_sum_samples(n, p["k"], p["samples"], p["seed"])
        hist, _ = np.histogram(x, bins=edges, density=True)
        cols[f"density_n{n}"] = hist
        var = n / 2.0
        cols[f"normal_n{n}"] = np.exp(-centers**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return cols


_build_out_hopping = functools.partial(_build_outage_per_p, Scheme.HOPPING, "analytic")
_build_static_nlos = functools.partial(_build_outage_per_p, Scheme.STATIC, "approx")

_FIGURES = {  # each figure's builder and its original parameters
    FigureId.ERG_CAP_COMPARE: (_build_erg_cap_compare, {"n_max": 50}),
    FigureId.ERG_CAP_LOS: (_build_erg_cap_los, {"n": 20, "a": 3.0, "slow": 1000,
        "fast": 5000, "seed": 0}),
    FigureId.OUT_HOPPING_NLOS: (_build_out_hopping, {"n": 20, "p_values": (0.1, 0.5, 0.9),
        "slow": 2000, "fast": 10000, "seed": 0, "points": 500}),
    FigureId.OUT_HOPPING_LOS: (_build_out_hopping, {"n": 20, "a": 3.0,
        "p_values": (0.0, 0.5, 1.0), "slow": 2000, "fast": 10000, "seed": 0, "points": 500}),
    FigureId.EPS_CAP_NLOS: (_build_eps_cap_nlos, {"n": 20, "p_values": (0.1, 0.5, 0.9),
        "eps_min": 1e-9, "eps_max": 1e-1, "points": 500}),
    FigureId.OUT_QUANTIZED: (_build_out_quantized, {"n": 20, "p": 0.5, "k": 2,
        "slow": 2000, "fast": 10000, "seed": 0, "points": 500}),
    FigureId.QUANTIZED_SWEEP_K2: (_build_quantized_sweep, {"n_values": (16, 64), "p": 0.5,
        "k": 2, "slow": 500, "fast": 20000, "seed": 0, "points": 500}),
    FigureId.STATIC_NLOS: (_build_static_nlos, {"n": 20, "p_values": (0.1, 0.5, 0.9),
        "samples": 10**6, "seed": 0, "points": 500}),
    FigureId.SCHEME_COMPARISON: (_build_scheme_comparison, {"n": 20, "p": 0.5, "points": 500}),
    FigureId.COSINE_HISTOGRAM: (_build_cosine_histogram, {"n_values": (4, 50), "k": 4,
        "samples": 10**6, "seed": 0, "bins": 80}),
}


def csv_lines(columns: dict):
    """Header line, then one line per row of the columns, 17 significant
    digits. Raises ValueError at once if the columns differ in length."""
    names = list(columns)
    rows = np.column_stack([columns[n] for n in names]) if names else ()
    body = (",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    return itertools.chain([",".join(names) + "\n"], body)


def write_csv(columns: dict, path) -> None:
    """Write name -> column as CSV (see csv_lines)."""
    lines = csv_lines(columns)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> dict:
    """Columns of a file written by write_csv, as name -> float array."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            names = header.split(",") if header else []
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    if data.size == 0:
        return {n: np.array([]) for n in names}
    return {n: data[:, i] for i, n in enumerate(names)}


def write_json(dataset: FigureDataset, path) -> None:
    payload = {
        "metadata": dataset.metadata,
        "columns": {k: [float(x) for x in v] for k, v in dataset.columns.items()},
    }
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON to {path}: {exc}") from exc


def read_json(path) -> FigureDataset:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read JSON from {path}: {exc}") from exc
    fid = FigureId(payload["metadata"]["figure_id"])
    return FigureDataset(fid, payload["columns"], payload["metadata"])
