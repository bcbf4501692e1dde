import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from phasehop import analytic, montecarlo
from phasehop.analytic import CapacityMethod
from phasehop.cli import main
from phasehop.model import Scenario, Scheme


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse flag errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_approx_single_link(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--links", "1",
                               "--method", "approx")
        assert code == 0
        assert out.strip() == "0.8603"

    def test_los_only(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--links", "0", "--a", "3")
        assert code == 0
        assert out.strip() == "3.3219"

    def test_nlos_zero(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--links", "0", "--a", "0")
        assert code == 0
        assert float(out) == 0.0

    def test_exact_with_los(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--links", "6", "--a", "2",
                               "--method", "exact")
        assert code == 0
        assert out.strip() == "2.9712"


class TestOutage:
    def test_perfect_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                               "--scheme", "perfect", "--rate", "1")
        assert code == 0
        assert out.strip() == "9.53674e-07"  # one link carries exactly 1 bit

    def test_hopping_floor(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                               "--scheme", "hopping", "--rate", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(9.54e-7, rel=1e-2)

    def test_static_floor(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--n", "20", "--p", "0.1",
                               "--scheme", "static", "--rate", "0.001")
        assert code == 0
        assert float(out) == pytest.approx(0.1216, abs=0.002)

    def test_grid_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "outage", "--n", "10", "--p", "0.5",
                             "--scheme", "hopping",
                             "--rate-grid", "0:3:0.5", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "rate,outage"
        assert len(lines) == 8

    @pytest.mark.parametrize("scheme,rate,want", [
        ("hopping", "nan", None), ("static", "nan", None), ("perfect", "nan", None),
        ("hopping", "inf", "1.00000e+00"), ("static", "2000", "1.00000e+00"),
        ("perfect", "inf", "1.00000e+00"), ("perfect", "2000", "1.00000e+00"),
    ])
    def test_bad_and_huge_rates(self, capsys, scheme, rate, want):
        code, out, err = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                                 "--scheme", scheme, "--rate", rate)
        if want is None:
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        else:
            assert (code, out.strip(), err) == (0, want, "")

    def test_los_static_near_overflow(self, capsys):
        # R in [1023, 1024) printed an overflow RuntimeWarning before its 1.0
        code, out, err = run_cli(capsys, "outage", "--n", "10", "--p", "0.5", "--a", "3",
                                 "--scheme", "static", "--rate", "1023.5")
        assert (code, out.strip(), err) == (0, "1.00000e+00", "")

    def test_perfect_with_los(self, capsys):
        # k links aligned with the LOS phasor; a > 0 was an error
        code, out, err = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                                 "--a", "3", "--scheme", "perfect", "--rate", "5")
        direct = analytic.outage_perfect(Scenario(20, 0.5, 3.0, Scheme.PERFECT), 5.0)
        assert (code, out.strip(), err) == (0, f"{direct:.5e}", "")

    def test_golden_vs_library(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--n", "15", "--p", "0.7",
                               "--scheme", "hopping", "--rate", "2.2")
        direct = analytic.outage_hopping(Scenario(15, 0.7), 2.2)
        assert float(out) == pytest.approx(direct, rel=1e-4)


class TestEpsCapacity:
    def test_hopping(self, capsys):
        code, out, _ = run_cli(capsys, "eps-capacity", "--n", "20", "--p", "0.5",
                               "--scheme", "hopping", "--eps", "1e-5")
        assert code == 0
        assert out.strip() == "0.8603"

    def test_zero_capacity(self, capsys):
        code, out, _ = run_cli(capsys, "eps-capacity", "--n", "20", "--p", "0.1",
                               "--scheme", "hopping", "--eps", "1e-3")
        assert code == 0
        assert float(out) == 0.0

    def test_perfect(self, capsys):
        code, out, _ = run_cli(capsys, "eps-capacity", "--n", "20", "--p", "0.5",
                               "--scheme", "perfect", "--eps", "1e-5")
        assert code == 0
        assert float(out) == pytest.approx(1.0)

    def test_perfect_with_los(self, capsys):
        # one link beside the LOS phasor: log2(1 + 4^2)
        code, out, err = run_cli(capsys, "eps-capacity", "--n", "20", "--p", "0.5",
                                 "--a", "3", "--scheme", "perfect", "--eps", "1e-5")
        assert (code, out.strip(), err) == (0, "4.0875", "")

    def test_strong_los_static(self, capsys):
        # died with scipy.stats' OverflowError traceback (ncx2.sf at nc = 800)
        code, out, _ = run_cli(capsys, "eps-capacity", "--n", "1", "--p", "1",
                               "--a", "20", "--scheme", "static", "--eps", "1e-3")
        assert code == 0
        assert out.strip() == "8.3167"


class TestMc:
    def test_run_and_determinism(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--n", "6", "--p", "0.5", "--scheme", "hopping",
                "--slow", "40", "--fast", "100", "--seed", "1"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_text() == f2.read_text()
        assert len(f1.read_text().splitlines()) == 41

    def test_matches_library(self, capsys, tmp_path):
        f = tmp_path / "c.csv"
        assert main(["mc", "--n", "6", "--p", "0.5", "--scheme", "quantized",
                     "--k", "2", "--slow", "10", "--fast", "50", "--seed", "3",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        vals = [float(v) for v in f.read_text().splitlines()[1:]]
        cfg = montecarlo.McConfig(
            Scenario(6, 0.5, scheme=Scheme.QUANTIZED, quant_levels=2), 10, 50, 3
        )
        np.testing.assert_allclose(vals, montecarlo.run(cfg).per_slow_capacity,
                                   rtol=1e-15)

    def test_quantized_level_cap(self, capsys, tmp_path):
        # the simulator takes at most 256 levels; analytic commands take more
        f = tmp_path / "q.csv"
        args = ["mc", "--n", "4", "--p", "0.5", "--scheme", "quantized",
                "--slow", "5", "--fast", "10", "--out", str(f)]
        assert run_cli(capsys, *args, "--k", "257") == (
            2, "", "error: the simulator takes at most 256 quantization levels, where "
                   "quantized hopping is continuous hopping, got 257\n")
        assert not f.exists()
        assert run_cli(capsys, *args, "--k", "256")[0] == 0
        assert run_cli(capsys, "outage", "--n", "4", "--p", "0.5", "--scheme", "quantized",
                       "--k", "257", "--rate", "1")[0] == 0


class TestFigure:
    def test_emits_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "--id", "scheme-comparison",
            "--out-dir", str(tmp_path), "--overrides", '{"points": 12}',
        )
        assert code == 0
        assert (tmp_path / "scheme-comparison.csv").exists()
        assert (tmp_path / "scheme-comparison.json").exists()

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "figure", "--id", "nope", "--out-dir", ".")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_override(self, capsys, tmp_path):
        # the library's ValueError, printed by main as it is
        code, out, err = run_cli(capsys, "figure", "--id", "scheme-comparison",
                                 "--out-dir", str(tmp_path), "--overrides", '{"bogus": 1}')
        assert (code, out) == (2, "")
        assert err == "error: unknown override 'bogus' for scheme-comparison\n"

    @pytest.mark.parametrize("fid, overrides, message", [
        ("scheme-comparison", "[1]", "--overrides must be a JSON object, got [1]"),
        ("static-nlos", '{"n": "x"}', "override 'n' must be a number, got 'x'"),
        ("static-nlos", '{"p_values": 0.5}',
         "override 'p_values' must be a non-empty list, got 0.5"),
        ("cosine-histogram", '{"samples": 2.5}',
         "samples must be a whole number >= 1, got 2.5"),
        ("cosine-histogram", '{"bins": 2.5}', "bins must be a whole number >= 1, got 2.5"),
        ("scheme-comparison", '{"points": 2.5}',
         "points must be a whole number >= 1, got 2.5"),
        # drew the histogram from int(2.5) = 2 links beside a normal curve for 2.5
        ("cosine-histogram", '{"n_values": [2.5]}',
         "n_values must be a whole number >= 1, got 2.5"),
        # wrote a header-only CSV, or a rate column alone, and exited 0
        ("scheme-comparison", '{"points": 0}', "points must be a whole number >= 1, got 0"),
        ("cosine-histogram", '{"bins": 0}', "bins must be a whole number >= 1, got 0"),
        ("static-nlos", '{"p_values": []}',
         "override 'p_values' must be a non-empty list, got []"),
        # printed "max() arg is an empty sequence"
        ("cosine-histogram", '{"n_values": []}',
         "override 'n_values' must be a non-empty list, got []"),
        # three RuntimeWarnings and a 28-line error dumping a NaN eps grid
        ("eps-cap-nlos", '{"eps_min": 0}', "override 'eps_min' must lie in (0, 1), got 0.0"),
        # a 125-line error
        ("eps-cap-nlos", '{"eps_max": 2}', "override 'eps_max' must lie in (0, 1), got 2.0"),
        # exited 0 with the eps grid in reverse order
        ("eps-cap-nlos", '{"eps_min": 0.5, "eps_max": 0.1}',
         "override 'eps_min' must not exceed eps_max, got 0.5 > 0.1"),
        # an OverflowError traceback from the capacity rule
        ("erg-cap-los", '{"a": 1e308, "n": 2, "slow": 10, "fast": 10}',
         "a must be at most 215 for the capacity rule, got 1e+308"),
        # the simulator's level cap, as for mc --k 257
        ("cosine-histogram", '{"k": 257}', "the simulator takes at most 256 quantization "
         "levels, where quantized hopping is continuous hopping, got 257"),
    ])
    def test_override_of_wrong_type(self, capsys, tmp_path, fid, overrides, message):
        code, out, err = run_cli(capsys, "figure", "--id", fid, "--out-dir", str(tmp_path),
                                 "--overrides", overrides)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

    def test_whole_float_overrides(self, capsys, tmp_path):
        # 4.0 means 4, as hand-written JSON may give it
        texts = []
        for overrides in ('{"k": 4, "n_values": [4], "samples": 1000, "bins": 8}',
                          '{"k": 4.0, "n_values": [4.0], "samples": 1e3, "bins": 8.0}'):
            code, _, _ = run_cli(capsys, "figure", "--id", "cosine-histogram",
                                 "--out-dir", str(tmp_path), "--overrides", overrides)
            assert code == 0
            texts.append((tmp_path / "cosine-histogram.csv").read_text())
        assert texts[0].startswith("x,density_n4,normal_n4\n")
        assert texts[1] == texts[0]


class TestConfigFile:
    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = {"n": 20, "p": 0.1, "scheme": "hopping"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "outage", "--config", str(path),
                               "--p", "0.5", "--rate", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(9.54e-7, rel=1e-2)

    def test_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 20, "p": 0.5, "scheme": "sideways"}))
        code, _, err = run_cli(capsys, "outage", "--config", str(path),
                               "--rate", "1")
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cfg", [
        {"n": "20", "p": 0.5}, {"n": True, "p": 0.5},
        {"n": 20, "p": "0.5"}, {"n": 20, "p": []}, {"n": 20, "p": [[0.5]]},
        {"n": 20, "p": 0.5, "a": "1"}, {"n": 20, "p": 0.5, "a": None},
        {"n": 20, "p": 0.5, "scheme": None}, {"n": 20, "p": 0.5, "method": ["exact"]},
        {"n": 20, "p": 0.5, "extra": 1}, [{"n": 20, "p": 0.5}],
        {"n": 20, "p": 0.5, "mc": {"slow": "5"}},
        # null is no default: "k" and "method" were rejected as null
        {"n": 20, "p": 0.5, "k": None}, {"n": 20, "p": 0.5, "method": None},
        {"n": 20, "p": 0.5, "mc": None}, {"n": 20, "p": 0.5, "mc": {"slow": True}},
        {"n": 20, "p": 0.5, "mc": {"extra": 1}},
        {"n": 20, "p": float("nan")},  # json reads NaN
    ], ids=json.dumps)
    def test_invalid_config(self, capsys, tmp_path, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        for args in (("outage", "--rate", "1"), ("mc", "--slow", "2", "--fast", "2")):
            code, out, err = run_cli(capsys, args[0], "--config", str(path), *args[1:])
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("cfg, key", [
        ({"n": 20, "p": 0.5, "extra": 1}, "'extra'"),
        ({"n": 20, "p": 0.5, "mc": {"slow": 5, "runs": 1}}, "'mc.runs'"),
    ])
    def test_unknown_key_named(self, capsys, tmp_path, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "outage", "--config", str(path), "--rate", "1")
        assert (code, err) == (2, f"error: unknown config key {key} in {path}\n")

    def test_runs_without_jsonschema(self, tmp_path):
        # the config is checked by the library alone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 20, "p": 0.5, "mc": {"seed": 1}}))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.modules['jsonschema'] = None; from phasehop.cli import main; "
                f"sys.exit(main(['outage', '--config', {str(path)!r}, '--rate', '1']))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert (done.returncode, done.stdout, done.stderr) == (0, "2.00272e-05\n", "")

    def test_mc_block_from_config(self, capsys, tmp_path):
        cfg = {"n": 5, "p": 0.5, "scheme": "hopping",
               "mc": {"slow": 7, "fast": 20, "seed": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "mc", "--config", str(path))
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_mc_rejects_method_in_config(self, capsys, tmp_path):
        # mc has no method; the key was ignored and mc ran with exit 0
        cfg = {"n": 5, "p": 0.5, "method": "exact", "mc": {"slow": 7, "fast": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "mc", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("scheme", ["static", "perfect"])
    def test_mc_rejects_fast_without_fast_loop(self, capsys, tmp_path, scheme):
        # static and perfect run no fast loop; --fast and "mc.fast" were
        # ignored, and every value printed the same capacities with exit 0
        scenario = ("--n", "4", "--p", "0.5", "--scheme", scheme, "--slow", "6")
        rejected = (2, "", f"error: {scheme} scheme runs no fast loop: mc takes no "
                    "--fast (config key 'mc.fast')\n")
        assert run_cli(capsys, "mc", *scenario, "--fast", "7") == rejected
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "p": 0.5, "scheme": scheme,
                                    "mc": {"slow": 6, "fast": 7}}))
        assert run_cli(capsys, "mc", "--config", str(path)) == rejected
        code, out, err = run_cli(capsys, "mc", *scenario)
        assert (code, err, len(out.splitlines())) == (0, "", 7)


class TestErrors:
    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "outage", "--n", "20", "--p", "0.5")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_rate_grid(self, capsys):
        code, _, err = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                               "--rate-grid", "banana")
        assert code == 2
        assert err.startswith("error:")

    def test_negative_rate(self, capsys):
        code, _, err = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                               "--rate", "-1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("args", [
        ("capacity", "--links", "3", "--a", "inf"),
        ("capacity", "--links", "3", "--a", "nan"),
        ("outage", "--n", "20", "--p", "0.5", "--a", "nan", "--rate", "1"),
        ("eps-capacity", "--n", "20", "--p", "0.5", "--a", "inf", "--eps", "0.1"),
        # finite, but past the capacity rule's budget: an OverflowError traceback
        ("capacity", "--links", "2", "--a", "1e308"),
        # (a + n)^2 overflows: a brentq RuntimeError traceback on an infinite bracket
        ("eps-capacity", "--n", "3", "--p", "0.5", "--a", "1e200", "--scheme", "static",
         "--eps", "0.1"),
    ])
    def test_non_finite_amplitude(self, capsys, args):
        # these printed 0.0000, nan or 0.00000e+00 with exit 0
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("outage", "--n", "20", "--p", "nan", "--rate", "1"),
        ("outage", "--n", "20", "--p", "nan", "--scheme", "static", "--rate", "1"),
        ("outage", "--n", "3", "--p", "0.5,nan,0.5", "--rate", "1"),
        ("mc", "--n", "20", "--p", "nan", "--slow", "5", "--fast", "5"),
    ])
    def test_nan_probability(self, capsys, args):
        # printed nan or zero capacities with exit 0, or a broadcast error
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: connection probabilities must lie in [0, 1]")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("outage", "--n", "4", "--p", "0.5", "--rate-grid", "0:1e12:1e-3"),
        ("figure", "--id", "scheme-comparison", "--overrides", '{"points": 1000000000000000}'),
    ])
    def test_out_of_memory(self, capsys, tmp_path, monkeypatch, args):
        # 7 PiB grids, past the address space, so numpy fails before it
        # touches memory; this printed a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("outage", "--n", "20", "--p", "0.5", "--scheme", "hopping", "--k", "4",
         "--rate", "1"),
        ("mc", "--n", "6", "--p", "0.5", "--method", "exact"),
    ])
    def test_ignored_option(self, capsys, args):
        # --k outside the quantized scheme and --method on mc were ignored
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args, value", [
        (("outage", "--rate", "1.5"), "2.00272e-05"),
        (("eps-capacity", "--eps", "1e-5"), "1.0000"),
    ])
    def test_perfect_takes_no_method(self, capsys, tmp_path, args, value):
        # perfect plateaus have no method; --method and a config "method"
        # were ignored and the plateau value printed with exit 0
        scenario = ("--n", "20", "--p", "0.5", "--scheme", "perfect")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 20, "p": 0.5, "scheme": "perfect",
                                    "method": "approx"}))
        rejected = "error: perfect scheme takes no method\n"
        for extra in (("--method", "exact"), ("--method", "approx")):
            assert run_cli(capsys, args[0], *scenario, *extra, *args[1:]) == (
                2, "", rejected)
        assert run_cli(capsys, args[0], "--config", str(path), *args[1:]) == (
            2, "", rejected)
        assert run_cli(capsys, args[0], *scenario, *args[1:]) == (0, value + "\n", "")

    def test_parser_reused_in_one_process(self, capsys):
        # the parser is built once per process: a rejected argv between two
        # calls leaves what each call prints unchanged
        assert run_cli(capsys, "outage", "--n", "20", "--p", "0.5", "--rate", "1.5") == (
            0, "2.01225e-04\n", "")
        assert run_cli(capsys, "capacity", "--links", "x") == (
            2, "", "error: argument --links: invalid int value: 'x'\n")
        assert run_cli(capsys, "capacity", "--links", "6", "--a", "2",
                       "--method", "exact") == (0, "2.9712\n", "")

    @pytest.mark.parametrize("args", [("outage", "--rate", "500"),
                                      ("eps-capacity", "--eps", "0.1")])
    def test_marcum_nan(self, capsys, args):
        # static LOS outage at a = 1e150 printed nan with exit 0, and
        # eps-capacity gave scipy's message on a NaN function value
        code, out, err = run_cli(capsys, args[0], "--n", "3", "--p", "0.5", "--a", "1e150",
                                 "--scheme", "static", *args[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: marcum_q1 cannot be computed at a=1.41421356")
        assert len(err.splitlines()) == 1

    def test_missing_scenario(self, capsys):
        code, _, err = run_cli(capsys, "eps-capacity", "--eps", "0.1")
        assert code == 2
        assert err.startswith("error:")
