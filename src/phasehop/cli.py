"""Command-line frontend.

Thin adapters around the library: every subcommand parses flags and an
optional JSON scenario file, builds the corresponding objects and prints
or writes the library's results without further numerics. Probabilities
are printed in scientific notation with 6 significant digits, rates and
capacities with 4 decimals.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analytic, montecarlo, report
from .analytic import CapacityMethod
from .model import Scenario, Scheme
from .specfun import whole_number

__all__ = ["main"]

_METHODS = [m.value for m in CapacityMethod]
# the config keys; Scenario, CapacityMethod and McConfig check their values
_CONFIG_KEYS = {"n", "p", "a", "scheme", "k", "method", "mc"}
_MC_KEYS = {"slow", "fast", "seed"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as a single stderr line with exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _load_config(path) -> dict:
    """The JSON object in path. Its keys, and those of its "mc" object, must
    be known, and the "mc" values whole numbers, for every subcommand."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    mc = cfg.get("mc", {}) if isinstance(cfg, dict) else None
    if not isinstance(mc, dict):
        raise ValueError(f"config {path} and its 'mc' must be JSON objects")
    unknown = sorted(set(cfg) - _CONFIG_KEYS) + sorted(
        f"mc.{key}" for key in set(mc) - _MC_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {path}")
    for key, value in mc.items():  # checked here too: only mc builds a McConfig
        whole_number(value, 0 if key == "seed" else 1, f"mc.{key}")
    return cfg


def _parse_p(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        return float(parts[0])
    return tuple(float(v) for v in parts)


def _merged_scenario(args) -> tuple[Scenario, dict]:
    """Scenario from config file plus flag overrides; returns the merged
    raw config as well (for the method and the MC settings)."""
    cfg = _load_config(args.config) if args.config else {}
    for key in ("n", "p", "a", "scheme", "k", "method"):
        if (value := getattr(args, key, None)) is not None:
            cfg[key] = value
    if "n" not in cfg or "p" not in cfg:
        raise ValueError("scenario requires at least --n and --p (or a config file)")
    return Scenario.from_dict(cfg), cfg


def _scenario_and_method(args) -> tuple[Scenario, CapacityMethod]:
    """Merged scenario and the --method flag or config "method" (default
    approx); the perfect scheme's plateaus have no method to choose."""
    scenario, cfg = _merged_scenario(args)
    if "method" in cfg and scenario.scheme is Scheme.PERFECT:
        raise ValueError("perfect scheme takes no method")
    return scenario, CapacityMethod(cfg.get("method", "approx"))


def _emit_csv(columns: dict, out) -> None:
    """CSV to the --out path, or to stdout when none is given."""
    if out is None:
        sys.stdout.writelines(report.csv_lines(columns))
    else:
        report.write_csv(columns, out)


def _add_scenario_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON scenario file")
    p.add_argument("--n", type=int, help="number of surface elements")
    p.add_argument("--p", type=_parse_p,
                   help="connection probability (scalar or comma list)")
    p.add_argument("--a", type=float, help="LOS amplitude (0 = NLOS)")
    p.add_argument("--scheme", choices=[s.value for s in Scheme])
    p.add_argument("--k", type=int,
                   help="quantization levels (mc and the cosine-histogram figure take "
                   "at most 256)")


def _cmd_capacity(args) -> int:
    method = CapacityMethod(args.method or "approx")
    print(f"{analytic.erg_capacity_los(args.links, args.a, method):.4f}")
    return 0


def _rate_points(args) -> np.ndarray:
    if args.rate is not None:
        return np.array([args.rate])
    try:
        lo, hi, step = (float(v) for v in args.rate_grid.split(":"))
    except ValueError as exc:
        raise ValueError(f"invalid --rate-grid {args.rate_grid!r}, "
                         "expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise ValueError(f"invalid --rate-grid {args.rate_grid!r}")
    return np.arange(lo, hi + 0.5 * step, step)


def _cmd_outage(args) -> int:
    scenario, method = _scenario_and_method(args)
    rates = _rate_points(args)
    outage = analytic.outage(scenario, rates, method)
    if rates.size == 1 and args.out is None:
        print(f"{outage[0]:.5e}")
        return 0
    _emit_csv({"rate": rates, "outage": outage}, args.out)
    return 0


def _cmd_eps_capacity(args) -> int:
    scenario, method = _scenario_and_method(args)
    print(f"{analytic.eps_capacity(scenario, args.eps, method):.4f}")
    return 0


def _cmd_mc(args) -> int:
    scenario, cfg = _merged_scenario(args)
    if "method" in cfg:
        raise ValueError("mc takes no method (config key 'method')")
    mc_cfg = cfg.get("mc", {})
    if scenario.scheme in (Scheme.STATIC, Scheme.PERFECT) and (
            args.fast is not None or "fast" in mc_cfg):
        raise ValueError(f"{scenario.scheme.value} scheme runs no fast loop: mc takes "
                         "no --fast (config key 'mc.fast')")
    slow = args.slow if args.slow is not None else mc_cfg.get("slow", 1000)
    fast = args.fast if args.fast is not None else mc_cfg.get("fast", 1000)
    seed = args.seed if args.seed is not None else mc_cfg.get("seed", 0)
    config = montecarlo.McConfig(scenario, slow, fast, seed)
    result = montecarlo.run(config, workers=args.workers)
    _emit_csv({"capacity": result.per_slow_capacity}, args.out)
    return 0


def _cmd_figure(args) -> int:
    fid = report.FigureId(args.id)
    overrides = None
    if args.overrides:
        try:
            overrides = json.loads(args.overrides)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid --overrides JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValueError(f"--overrides must be a JSON object, got {args.overrides}")
    dataset = report.build_figure(fid, overrides)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, fid.value)
    report.write_csv(dataset.columns, base + ".csv")
    report.write_json(dataset, base + ".json")
    print(base + ".csv")
    print(base + ".json")
    return 0


@functools.lru_cache(maxsize=1)  # built once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="phasehop",
                     description="Outage and capacity of RIS phase hopping")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="ergodic capacity for a fixed link count")
    p.add_argument("--links", type=int, required=True,
                   help="number of available links")
    p.add_argument("--a", type=float, default=0.0, help="LOS amplitude (0 = NLOS)")
    p.add_argument("--method", choices=_METHODS)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("outage", help="outage probability at a rate or rate grid")
    _add_scenario_flags(p)
    p.add_argument("--method", choices=_METHODS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float, help="single rate, bits")
    group.add_argument("--rate-grid", help="lo:hi:step sweep")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("eps-capacity", help="eps-outage capacity")
    _add_scenario_flags(p)
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--eps", type=float, required=True,
                   help="tolerated outage probability")
    p.set_defaults(func=_cmd_eps_capacity)

    p = sub.add_parser("mc", help="Monte-Carlo simulation run")
    _add_scenario_flags(p)
    p.add_argument("--slow", type=int, help="slow-fading realizations")
    p.add_argument("--fast", type=int, help="fast symbols per realization (hopping and "
                   "quantized only)")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--workers", type=int, default=1, help="threads over blocks "
                   "of 256 slow samples; the output is the same for any value")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("figure", help="reproduce a published figure dataset")
    p.add_argument("--id", required=True, choices=[f.value for f in report.FigureId],
                   help="figure identifier slug")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--overrides", help="JSON object of parameter overrides")
    p.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
