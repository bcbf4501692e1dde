import json

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

    def test_exact_with_los_rejected(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--links", "6", "--a", "2",
                                 "--method", "exact")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOutage:
    def test_perfect_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--n", "20", "--p", "0.5",
                               "--scheme", "perfect", "--rate", "1")
        assert code == 0
        assert out.strip() == "2.00272e-05"

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

    def test_mc_block_from_config(self, capsys, tmp_path):
        cfg = {"n": 5, "p": 0.5, "scheme": "hopping",
               "mc": {"slow": 7, "fast": 20, "seed": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "mc", "--config", str(path))
        assert code == 0
        assert len(out.splitlines()) == 8


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

    def test_missing_scenario(self, capsys):
        code, _, err = run_cli(capsys, "eps-capacity", "--eps", "0.1")
        assert code == 2
        assert err.startswith("error:")
