"""Self-test of the benchmark harness at reduced size.

    python3 -m pytest -q bench/selftest.py

Runs every workload's task list at a few percent of its benchmark size,
untraced and traced. It checks the result JSON, the correctness checks,
that traced counts repeat across seeds, that each layer is idle on the
workloads that bypass it, and that a run without the package sources fails
without printing a result.
"""
import contextlib
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SCALE = 0.05
COUNTS = ("_calls", "_samples", "_symbols", "bytes_written", "_warnings")


def _small(name, seed):
    return run.prepare(name, seed, SCALE)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_at_reduced_size(name, tmp_path):
    pkg, wl, inputs, tasks = _small(name, 3)
    out, walls, rel, _ = run.one_round(tasks, pkg, tmp_path / "round", probed=True)
    out.update(run.one_round(wl.untimed(inputs), pkg, tmp_path / "untimed")[0])
    checks = wl.check(pkg, inputs, out)
    assert list(walls) == list(rel) == [n for n, _ in tasks]
    assert min(walls.values()) > 0 and min(rel.values()) > 0
    assert checks.items and checks.digits
    assert [c for c in checks.items if not c[1]] == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_idle_layers_read_zero(name, tmp_path):
    layers = []
    for seed in (3, 4):
        _, wl, inputs, tasks = _small(name, seed)
        tasks += wl.untimed(inputs)
        pkg = workloads.import_package(fresh=True)
        tracer = spans.Tracer(pkg)
        try:
            _, _, _, warned = run.one_round(tasks, pkg, tmp_path / f"s{seed}")
        finally:
            tracer.restore()
        assert not hasattr(pkg.analytic.erg_capacity_nlos, "__wrapped__")
        layers.append(spans.per_layer(tracer, warned, 0, 0.0))
    assert set(layers[0]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k in layers[0] if k.endswith(COUNTS)]
    assert {k: layers[0][k] for k in counts} == {k: layers[1][k] for k in counts}
    values = layers[0]
    hankel = [k for k in values if k.startswith("hankel.")]
    mc = [k for k in values if k.startswith("montecarlo.")]
    if name == "exact-capacity":
        assert values["hankel.transform_calls"] > 0
    else:
        assert all(values[k] == 0 for k in hankel)
    if name.startswith("mc-"):
        assert values["montecarlo.slow_samples"] > 0
    else:
        assert all(values[k] == 0 for k in mc)
    if name == "analytic-curves":
        assert values["cli.main_calls"] == 3 and values["report.bytes_written"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_json(trace, monkeypatch):
    prepare = run.prepare
    monkeypatch.setattr(run, "prepare", lambda w, s: prepare(w, s, SCALE))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "mc-static", "--seed", "5",
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_package_sources_fails_silently(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-static", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_pinned_closed_forms():
    refs = workloads.REFS
    assert float(refs["exact_capacity"]["1"]) == 1.0
    c2 = 2 * math.log2((1 + math.sqrt(5)) / 2)
    assert float(refs["exact_capacity"]["2"]) == pytest.approx(c2, rel=1e-15)
    assert float(refs["closed_forms"]["2"]) == float(refs["exact_capacity"]["2"])
