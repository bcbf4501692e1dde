"""Dataset emission: figure-reproduction tables and CSV/JSON writers.

Each figure id corresponds to one published curve family; build_figure
evaluates the analytic curves and, where the original plot contains
simulation markers, the matching Monte-Carlo ECDF, at the original
parameters unless overridden.
"""
from __future__ import annotations

import enum
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


_DEFAULTS = {
    FigureId.ERG_CAP_COMPARE: {"n_max": 50},
    FigureId.ERG_CAP_LOS: {"n": 20, "a": 3.0, "slow": 1000, "fast": 5000, "seed": 0},
    FigureId.OUT_HOPPING_NLOS: {
        "n": 20, "p_values": (0.1, 0.5, 0.9),
        "slow": 2000, "fast": 10000, "seed": 0, "points": 500,
    },
    FigureId.OUT_HOPPING_LOS: {
        "n": 20, "a": 3.0, "p_values": (0.0, 0.5, 1.0),
        "slow": 2000, "fast": 10000, "seed": 0, "points": 500,
    },
    FigureId.EPS_CAP_NLOS: {
        "n": 20, "p_values": (0.1, 0.5, 0.9),
        "eps_min": 1e-9, "eps_max": 1e-1, "points": 500,
    },
    FigureId.OUT_QUANTIZED: {
        "n": 20, "p": 0.5, "k": 2, "slow": 2000, "fast": 10000,
        "seed": 0, "points": 500,
    },
    FigureId.QUANTIZED_SWEEP_K2: {
        "n_values": (16, 64), "p": 0.5, "k": 2,
        "slow": 500, "fast": 20000, "seed": 0, "points": 500,
    },
    FigureId.STATIC_NLOS: {
        "n": 20, "p_values": (0.1, 0.5, 0.9), "samples": 10**6,
        "seed": 0, "points": 500,
    },
    FigureId.SCHEME_COMPARISON: {"n": 20, "p": 0.5, "points": 500},
    FigureId.COSINE_HISTOGRAM: {
        "n_values": (4, 50), "k": 4, "samples": 10**6, "seed": 0, "bins": 80,
    },
}


def _rate_grid(n: int, points: int) -> np.ndarray:
    top = analytic.erg_capacity_nlos(n, CapacityMethod.APPROX_EI) + 1.0
    return np.linspace(0.0, top, points)


def build_figure(figure_id: FigureId, overrides: dict | None = None) -> FigureDataset:
    """Evaluate one figure's dataset at its original defaults, with the
    given parameter overrides applied."""
    params = dict(_DEFAULTS[figure_id])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown override {key!r} for {figure_id.value}")
        params[key] = _like_default(key, params[key], value)
    builder = _BUILDERS[figure_id]
    columns = builder(params)
    meta = {"figure_id": figure_id.value, "params": _jsonable(params)}
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _build_erg_cap_compare(p):
    ns = np.arange(1, p["n_max"] + 1)
    return {"n": ns,
            "exact": analytic.erg_capacity_nlos(ns, CapacityMethod.EXACT_HANKEL),
            "approx": analytic.erg_capacity_nlos(ns, CapacityMethod.APPROX_EI)}


def _build_erg_cap_los(p):
    ns = np.arange(0, p["n"] + 1)
    ana = analytic.erg_capacity_los(ns, p["a"])
    mc = []
    for n in ns:
        if n == 0:
            mc.append(_capacity(p["a"], 0.0))
            continue
        sc = Scenario(int(n), 1.0, p["a"], Scheme.HOPPING)
        cfg = montecarlo.McConfig(sc, p["slow"], p["fast"], p["seed"])
        mc.append(float(montecarlo.run(cfg).per_slow_capacity.mean()))
    return {"n": ns, "analytic": ana, "mc": mc}


def _build_out_hopping(p, a):
    rates = _rate_grid(p["n"], p["points"])
    cols = {"rate": rates}
    for prob in p["p_values"]:
        sc = Scenario(p["n"], prob, a, Scheme.HOPPING)
        cols[f"analytic_p{prob:g}"] = analytic.outage_hopping(sc, rates)
        cfg = montecarlo.McConfig(sc, p["slow"], p["fast"], p["seed"])
        cols[f"mc_p{prob:g}"] = montecarlo.run(cfg).outage_at(rates)
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
    cfg = montecarlo.McConfig(sc, p["slow"], p["fast"], p["seed"])
    return {
        "rate": rates,
        "analytic": analytic.outage_hopping(sc, rates),
        "mc_quantized": montecarlo.run(cfg).outage_at(rates),
    }


def _build_quantized_sweep(p):
    n_top = max(p["n_values"])
    rates = _rate_grid(n_top, p["points"])
    cols = {"rate": rates}
    for n in p["n_values"]:
        for scheme, tag in ((Scheme.QUANTIZED, "quantized"), (Scheme.HOPPING, "hopping")):
            k = p["k"] if scheme is Scheme.QUANTIZED else None
            sc = Scenario(n, p["p"], 0.0, scheme, quant_levels=k)
            cfg = montecarlo.McConfig(sc, p["slow"], p["fast"], p["seed"])
            cols[f"mc_{tag}_n{n}"] = montecarlo.run(cfg).outage_at(rates)
    return cols


def _build_static_nlos(p):
    rates = _rate_grid(p["n"], p["points"])
    cols = {"rate": rates}
    for prob in p["p_values"]:
        sc = Scenario(p["n"], prob, 0.0, Scheme.STATIC)
        cols[f"approx_p{prob:g}"] = analytic.outage_static(sc, rates)
        cfg = montecarlo.McConfig(sc, p["samples"], 1, p["seed"])
        cols[f"mc_p{prob:g}"] = montecarlo.run(cfg).outage_at(rates)
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


_BUILDERS = {
    FigureId.ERG_CAP_COMPARE: _build_erg_cap_compare,
    FigureId.ERG_CAP_LOS: _build_erg_cap_los,
    FigureId.OUT_HOPPING_NLOS: lambda p: _build_out_hopping(p, 0.0),
    FigureId.OUT_HOPPING_LOS: lambda p: _build_out_hopping(p, p["a"]),
    FigureId.EPS_CAP_NLOS: _build_eps_cap_nlos,
    FigureId.OUT_QUANTIZED: _build_out_quantized,
    FigureId.QUANTIZED_SWEEP_K2: _build_quantized_sweep,
    FigureId.STATIC_NLOS: _build_static_nlos,
    FigureId.SCHEME_COMPARISON: _build_scheme_comparison,
    FigureId.COSINE_HISTOGRAM: _build_cosine_histogram,
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
