"""Command-line frontend.

Thin adapters around the library: every subcommand parses flags and an
optional JSON scenario file, builds the corresponding objects and prints
or writes the library's results without further numerics. Probabilities
are printed in scientific notation with 6 significant digits, rates and
capacities with 4 decimals.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analytic, montecarlo, report
from .analytic import CapacityMethod
from .model import Scenario, Scheme

__all__ = ["main"]

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "p": {
            "anyOf": [
                {"type": "number", "minimum": 0, "maximum": 1},
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                    "minItems": 1,
                },
            ]
        },
        "a": {"type": "number", "minimum": 0},
        "scheme": {"enum": ["hopping", "quantized", "static", "perfect"]},
        "k": {"type": "integer", "minimum": 2},
        "method": {"enum": ["exact", "approx"]},
        "mc": {
            "type": "object",
            "properties": {
                "slow": {"type": "integer", "minimum": 1},
                "fast": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as a single stderr line with exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _load_config(path) -> dict:
    import jsonschema

    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CliError(f"config schema violation: {exc.message}") from exc
    return cfg


def _parse_p(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        return float(parts[0])
    return tuple(float(v) for v in parts)


def _merged_scenario(args) -> tuple[Scenario, dict]:
    """Scenario from config file plus flag overrides; returns the merged
    raw config as well (for MC settings)."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    if getattr(args, "p", None) is not None:
        cfg["p"] = list(args.p) if isinstance(args.p, tuple) else args.p
    if getattr(args, "a", None) is not None:
        cfg["a"] = args.a
    if getattr(args, "scheme", None) is not None:
        cfg["scheme"] = args.scheme
    if getattr(args, "k", None) is not None:
        cfg["k"] = args.k
    if "n" not in cfg or "p" not in cfg:
        raise CliError("scenario requires at least --n and --p (or a config file)")
    try:
        scenario = Scenario.from_dict(cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return scenario, cfg


def _method(args, cfg=None) -> CapacityMethod:
    name = getattr(args, "method", None) or (cfg or {}).get("method") or "approx"
    return CapacityMethod(name)


def _print_rate(value: float):
    print(f"{value:.4f}")


def _emit_csv(columns: dict, out) -> None:
    """CSV to the --out path, or to stdout when none is given."""
    if out is None:
        sys.stdout.writelines(report.csv_lines(columns))
    else:
        report.write_csv(columns, out)


def _add_scenario_flags(p: argparse.ArgumentParser, with_scheme=True):
    p.add_argument("--config", help="JSON scenario file")
    p.add_argument("--n", type=int, help="number of surface elements")
    p.add_argument("--p", type=_parse_p,
                   help="connection probability (scalar or comma list)")
    p.add_argument("--a", type=float, help="LOS amplitude (0 = NLOS)")
    if with_scheme:
        p.add_argument("--scheme",
                       choices=["hopping", "quantized", "static", "perfect"])
        p.add_argument("--k", type=int, help="quantization levels")
    p.add_argument("--method", choices=["exact", "approx"])


def _cmd_capacity(args) -> int:
    a = args.a if args.a is not None else 0.0
    _print_rate(analytic.erg_capacity_los(args.links, a, _method(args)))
    return 0


def _rate_points(args) -> np.ndarray:
    if args.rate is not None:
        return np.array([args.rate])
    try:
        lo, hi, step = (float(v) for v in args.rate_grid.split(":"))
    except ValueError as exc:
        raise CliError(f"invalid --rate-grid {args.rate_grid!r}, "
                       "expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise CliError(f"invalid --rate-grid {args.rate_grid!r}")
    return np.arange(lo, hi + 0.5 * step, step)


def _outage(scenario: Scenario, rates: np.ndarray, method: CapacityMethod):
    if scenario.scheme in (Scheme.HOPPING, Scheme.QUANTIZED):
        return analytic.outage_hopping(scenario, rates, method)
    if scenario.scheme is Scheme.STATIC:
        return analytic.outage_static(scenario, rates, method)
    return analytic.outage_perfect(scenario, rates)


def _cmd_outage(args) -> int:
    scenario, cfg = _merged_scenario(args)
    rates = _rate_points(args)
    outage = _outage(scenario, rates, _method(args, cfg))
    if rates.size == 1 and args.out is None:
        print(f"{outage[0]:.5e}")
        return 0
    _emit_csv({"rate": rates, "outage": outage}, args.out)
    return 0


def _cmd_eps_capacity(args) -> int:
    scenario, cfg = _merged_scenario(args)
    method = _method(args, cfg)
    _print_rate(analytic.eps_capacity(scenario, args.eps, method))
    return 0


def _cmd_mc(args) -> int:
    scenario, cfg = _merged_scenario(args)
    mc_cfg = cfg.get("mc", {})
    slow = args.slow if args.slow is not None else mc_cfg.get("slow", 1000)
    fast = args.fast if args.fast is not None else mc_cfg.get("fast", 1000)
    seed = args.seed if args.seed is not None else mc_cfg.get("seed", 0)
    try:
        config = montecarlo.McConfig(scenario, slow, fast, seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = montecarlo.run(config, workers=args.workers)
    _emit_csv({"capacity": result.per_slow_capacity}, args.out)
    return 0


def _cmd_figure(args) -> int:
    import os

    try:
        fid = report.FigureId(args.id)
    except ValueError as exc:
        valid = ", ".join(f.value for f in report.FigureId)
        raise CliError(f"unknown figure id {args.id!r}; one of: {valid}") from exc
    overrides = None
    if args.overrides:
        try:
            overrides = json.loads(args.overrides)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid --overrides JSON: {exc}") from exc
    try:
        dataset = report.build_figure(fid, overrides)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, fid.value)
    report.write_csv(dataset.columns, base + ".csv")
    report.write_json(dataset, base + ".json")
    print(base + ".csv")
    print(base + ".json")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="phasehop",
                     description="Outage and capacity of RIS phase hopping")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="ergodic capacity for a fixed link count")
    p.add_argument("--links", type=int, required=True,
                   help="number of available links")
    p.add_argument("--a", type=float, help="LOS amplitude (0 = NLOS)")
    p.add_argument("--method", choices=["exact", "approx"])
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("outage", help="outage probability at a rate or rate grid")
    _add_scenario_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float, help="single rate, bits")
    group.add_argument("--rate-grid", help="lo:hi:step sweep")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("eps-capacity", help="eps-outage capacity")
    _add_scenario_flags(p)
    p.add_argument("--eps", type=float, required=True,
                   help="tolerated outage probability")
    p.set_defaults(func=_cmd_eps_capacity)

    p = sub.add_parser("mc", help="Monte-Carlo simulation run")
    _add_scenario_flags(p)
    p.add_argument("--slow", type=int, help="slow-fading realizations")
    p.add_argument("--fast", type=int, help="fast symbols per realization")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("figure", help="reproduce a published figure dataset")
    p.add_argument("--id", required=True, help="figure identifier slug")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--overrides", help="JSON object of parameter overrides")
    p.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
