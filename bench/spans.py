"""In-memory span tracing of phasehop's public callables.

The tracer replaces a callable on the object its callers look it up on (a
module global or a class attribute) with a wrapper that records one span
per call: name, start, end and the enclosing span. A layer's self time is
its spans' durations minus the time their child spans cover. The package
itself is not modified; `restore` puts the originals back.

Only the main thread calls traced names: montecarlo.run's worker threads
run private code, so the span stack needs no lock.
"""
from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def trace_points(pkg):
    """(owner, attribute, span name) for every lookup site the benchmark
    traces. `from .x import f` copies f into the importing module, so such
    names are wrapped where the importing module looks them up."""
    an, hk, md, sf = pkg.analytic, pkg.hankel, pkg.model, pkg.specfun
    return [
        (hk, "hankel_transform", "hankel.transform"),
        (hk.PhasorSumDistribution, "cdf", "hankel.cdf"),
        (an, "erg_capacity_nlos", "analytic.erg_capacity"),
        (an, "erg_capacity_los", "analytic.erg_capacity"),
        (an, "outage_hopping", "analytic.outage"),
        (an, "outage_static", "analytic.outage"),
        (an, "outage_perfect", "analytic.outage"),
        (an, "eps_capacity", "analytic.eps_capacity"),
        (md.Scenario, "link_count_distribution", "model.link_law"),
        (md, "binomial", "specfun.convolution"),
        (md, "poisson_binomial", "specfun.convolution"),
        (sf, "poisson_binomial", "specfun.convolution"),
        (an, "cal_e", "specfun.cal_e"),
        (sf, "cal_e", "specfun.cal_e"),
        (an, "marcum_q1", "specfun.marcum_q1"),
        (pkg.montecarlo, "run", "montecarlo.run"),
        (pkg.montecarlo, "quantized_sum_samples", "montecarlo.quantized_sum"),
        (pkg.report, "build_figure", "report.build_figure"),
        (pkg.report, "write_csv", "report.write"),
        (pkg.report, "write_json", "report.write"),
        (pkg.cli, "main", "cli.main"),
    ]


class Tracer:
    """Records spans and per-name call counts and self times."""

    def __init__(self, pkg):
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.mc = defaultdict(float)  # montecarlo work and time, by kind
        self.bytes_written = 0
        self._stack: list = []  # [span index, seconds covered by children]
        self._patches = Patches()
        self._fast_loop = (pkg.model.Scheme.HOPPING, pkg.model.Scheme.QUANTIZED)
        hooks = {"montecarlo.run": self._mc_run, "report.write": self._write}
        for owner, attr, name in trace_points(pkg):
            self._patches.wrap(owner, attr,
                               lambda f, n=name: self._traced(f, n, hooks.get(n)))

    def _traced(self, original, name, hook):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += end - start
                self.spans[index] = (name, start, end,
                                     parent[0] if parent is not None else -1)
                self.calls[name] += 1
                self.self_s[name] += end - start - covered
                if hook is not None:
                    hook(args, kwargs, end - start)
        return traced

    def _mc_run(self, args, kwargs, seconds):
        config = args[0] if args else kwargs["config"]
        workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
        self.mc["slow_samples"] += config.slow_samples
        self.mc[f"run_w{1 if workers == 1 else 2}_s"] += seconds
        if config.scenario.scheme in self._fast_loop:
            self.mc["fast_symbols"] += config.slow_samples * config.fast_samples
            self.mc["fast_loop_s"] += seconds
        else:
            self.mc["slow_only_samples"] += config.slow_samples
            self.mc["slow_only_s"] += seconds

    def _write(self, args, kwargs, seconds):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.bytes_written += os.path.getsize(path)

    def restore(self) -> None:
        self._patches.restore()

    def write(self, path) -> None:
        """Spans as [name index, start us, duration us, parent index]."""
        names = sorted(self.calls)
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round((s - t0) * 1e6, 3), round((e - s) * 1e6, 3), p]
                for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start_us",
                                                   "duration_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


class AllocPeak:
    """Peak traced allocation (tracemalloc) inside montecarlo calls. Kept
    out of the timed and traced rounds because tracemalloc slows every
    allocation."""

    def __init__(self, pkg):
        self.peak_bytes = 0
        self._patches = Patches()
        for attr in ("run", "quantized_sum_samples"):
            self._patches.wrap(pkg.montecarlo, attr, self._measured)

    def _measured(self, original):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    def restore(self) -> None:
        self._patches.restore()


def per_layer(tracer: Tracer, accuracy_warnings: int, peak_bytes: int,
              overhead: float) -> dict:
    """The per-layer metric values, by the names BENCHMARK.json lists."""
    c, s, mc = tracer.calls, tracer.self_s, tracer.mc

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "hankel.transform_calls": c["hankel.transform"],
        "hankel.transform_s": s["hankel.transform"],
        "hankel.cdf_calls": c["hankel.cdf"],
        "hankel.cdf_s": s["hankel.cdf"],
        "hankel.accuracy_warnings": accuracy_warnings,
        "analytic.erg_capacity_calls": c["analytic.erg_capacity"],
        "analytic.erg_capacity_s": s["analytic.erg_capacity"],
        "analytic.outage_calls": c["analytic.outage"],
        "analytic.outage_s": s["analytic.outage"],
        "analytic.eps_capacity_calls": c["analytic.eps_capacity"],
        "analytic.eps_capacity_s": s["analytic.eps_capacity"],
        "model.link_law_calls": c["model.link_law"],
        "model.link_law_s": s["model.link_law"],
        "specfun.convolution_s": s["specfun.convolution"],
        "specfun.cal_e_calls": c["specfun.cal_e"],
        "specfun.marcum_q1_calls": c["specfun.marcum_q1"],
        "specfun.marcum_q1_s": s["specfun.marcum_q1"],
        "montecarlo.slow_samples": int(mc["slow_samples"]),
        "montecarlo.us_per_slow": 1e6 * ratio(mc["slow_only_s"],
                                              mc["slow_only_samples"]),
        "montecarlo.run_w1_s": mc["run_w1_s"],
        "montecarlo.run_w2_s": mc["run_w2_s"],
        "montecarlo.speedup_w2": ratio(mc["run_w1_s"], mc["run_w2_s"]),
        "montecarlo.fast_symbols": int(mc["fast_symbols"]),
        "montecarlo.ns_per_symbol": 1e9 * ratio(mc["fast_loop_s"],
                                                mc["fast_symbols"]),
        "montecarlo.quantized_sum_s": s["montecarlo.quantized_sum"],
        "montecarlo.peak_alloc_mb": peak_bytes / 2**20,
        "report.build_figure_s": s["report.build_figure"],
        "report.write_s": s["report.write"],
        "report.bytes_written": tracer.bytes_written,
        "cli.main_calls": c["cli.main"],
        "cli.main_s": s["cli.main"],
        "trace_overhead_frac": overhead,
    }
