"""Run one phasehop benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src. The
workloads are described in bench/README.md and defined in workloads.py.

--trace 0 runs the workload's task list in rounds, each round on a freshly
imported package, until another round would overrun --seconds (at least one
round). Each task is timed on its own, between two timings of a fixed
reference job, the probe. It reports the end-to-end metrics: wall_norm, the
task list's wall time in probe times (per task the median over rounds of
task wall / probe wall, summed over tasks); the median set-up time of fresh
interpreters; peak RSS; and exact_digits.

--trace 1 runs one untraced round, one round with every public layer wrapped
in spans (spans.py), and, when that round called montecarlo, one round with
tracemalloc on inside montecarlo calls; it reports the per-layer metrics.

Checks run after the timed rounds, on the first round's outputs. Every run
writes a record with its environment, checks and metrics, plus the spans of
a traced round, under .bench_out/. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np
from scipy import special

import spans
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def prepare(workload: str, seed: int, scale: float = 1.0):
    """Everything before the first timed call: imports, inputs and tasks."""
    pkg = workloads.import_package()
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed, scale)
    return pkg, wl, inputs, wl.tasks(inputs)


def probe() -> float:
    """Wall seconds of a fixed reference job, about 4 ms: ten times four
    blocks of 24 Gauss-Legendre panels over J0(t)^6 J1(1.3 t), the kind of
    vectorised numpy and scipy.special work phasehop's kernels do. On a
    shared host the machine's speed drifts by 20-80% for seconds at a time.
    The probe slows with it, so task wall / probe wall stays steady. It is
    timed as a whole, not best-of, so that it meets the host's intermittent
    stalls as often as a task does. It uses numpy and scipy only, never
    phasehop."""
    start = time.perf_counter()
    for _ in range(10):
        for k in range(4):
            edges = np.pi / 1.3 * np.arange(24 * k, 24 * k + 25)
            lo, hi = edges[:-1, None], edges[1:, None]
            t = 0.5 * (hi - lo) * GL_NODES + 0.5 * (lo + hi)
            j = special.j0(t)
            g = np.sign(j) ** 6 * np.exp(6 * np.log(np.abs(j))) * special.j1(1.3 * t)
            np.cumsum(0.5 * (hi - lo)[:, 0] * (g @ GL_WEIGHTS))
    return time.perf_counter() - start


def one_round(tasks, pkg, out_dir, probed=False):
    """Each task's output and wall seconds, by task name; when probed, also
    each task's wall over the mean probe wall just before and after it; and
    the number of hankel accuracy warnings."""
    os.makedirs(out_dir)
    outputs, walls, rel = {}, {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, task in tasks:
            gc.collect()  # garbage of earlier tasks and rounds, untimed
            before = probe() if probed else 0.0
            start = time.perf_counter()
            outputs[name] = task(pkg, str(out_dir))
            walls[name] = time.perf_counter() - start
            if probed:
                rel[name] = walls[name] / (0.5 * (before + probe()))
    accuracy = sum(issubclass(w.category, pkg.hankel.AccuracyWarning)
                   for w in caught)
    return outputs, walls, rel, accuracy


def run_checks(wl, pkg, inputs, out) -> workloads.Checks:
    try:
        return wl.check(pkg, inputs, out)
    except Exception:  # a crashing check is a failed check, not a lost run
        checks = workloads.Checks()
        checks.add("checks ran to completion", False, traceback.format_exc())
        return checks


def timed_rounds(tasks, pkg, scratch, seconds):
    """Per-round task walls and probe-relative walls, and the first round's
    package and outputs."""
    walls, rels, first = [], [], None
    start = time.perf_counter()
    while True:
        if walls:
            pkg = workloads.import_package(fresh=True)
        out, wall, rel, _ = one_round(tasks, pkg, scratch / f"round{len(walls)}",
                                      probed=True)
        walls.append(wall)
        rels.append(rel)
        first = first or (pkg, out)
        if time.perf_counter() - start + sum(wall.values()) > seconds:
            return walls, rels, first


def task_medians(rounds) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def setup_times(workload: str, seed: int) -> list[float]:
    """Interpreter start to inputs ready, in fresh interpreters: the parent's
    spawn time against the child's CLOCK_MONOTONIC reading (one clock
    across processes on Linux)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def git_hash() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, inputs) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git": git_hash(), "work": inputs["work"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    pkg, wl, inputs, tasks = prepare(args.workload, args.seed)
    untimed = wl.untimed(inputs)
    OUT.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tasks = tasks + untimed
            out, walls, _, _ = one_round(tasks, pkg, scratch / "untraced")
            checks = run_checks(wl, pkg, inputs, out)
            rounds, rels = [walls], None
            traced_pkg = workloads.import_package(fresh=True)
            tracer = spans.Tracer(traced_pkg)
            try:
                _, traced, _, accuracy = one_round(tasks, traced_pkg,
                                                   scratch / "traced")
            finally:
                tracer.restore()
            tracer.write(f"{stem}-spans.json")
            peak = 0
            simulated = (tracer.calls["montecarlo.run"]
                         + tracer.calls["montecarlo.quantized_sum"])
            if simulated:
                alloc_pkg = workloads.import_package(fresh=True)
                alloc = spans.AllocPeak(alloc_pkg)
                try:
                    one_round(tasks, alloc_pkg, scratch / "alloc")
                finally:
                    alloc.restore()
                peak = alloc.peak_bytes
            overhead = sum(traced.values()) / sum(walls.values()) - 1
            values = spans.per_layer(tracer, accuracy, peak, overhead)
            listed = spec["per_layer"]
        else:
            rounds, rels, (pkg, out) = timed_rounds(tasks, pkg, scratch,
                                                    args.seconds)
            out.update(one_round(untimed, pkg, scratch / "untimed")[0])
            checks = run_checks(wl, pkg, inputs, out)
            values = {
                "wall_norm": sum(task_medians(rels).values()),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "exact_digits": min(checks.digits, default=0.0),
                "setup_s": statistics.median(setup_times(args.workload, args.seed)),
            }
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted = len(checks.items)
    failed = sum(not ok for _, ok, _ in checks.items)
    env = environment(args, inputs)
    record = {"environment": env,
              "round_walls_s": [sum(r.values()) for r in rounds],
              "task_median_s": task_medians(rounds),
              "task_median_probe": task_medians(rels) if rels else None,
              "metrics": metrics,
              "checks": [{"name": n, "ok": ok, "detail": d}
                         for n, ok, d in checks.items]}
    pathlib.Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} round(s), record in {stem.relative_to(ROOT)}.json")
    print("# environment " + json.dumps(env))
    for name, ok, detail in checks.items:
        if not ok:
            print(f"# FAILED {name}: {detail}")
    print(f"# fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted} checks)")
    print(f"# wall_s {sum(task_medians(rounds).values()):.6g} s "
          "(per task the median over rounds, summed; not normalised)")
    for name, m in metrics.items():
        print(f"# {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
