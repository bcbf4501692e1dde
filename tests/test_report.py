import numpy as np
import pytest

from phasehop.report import (
    FigureDataset,
    FigureId,
    build_figure,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


# every figure at scaled-down sample counts and grids, with its column names
SMALL_FIGURES = {
    FigureId.ERG_CAP_COMPARE: ({"n_max": 6}, ["n", "exact", "approx"]),
    FigureId.ERG_CAP_LOS: ({"n": 3, "slow": 10, "fast": 40}, ["n", "analytic", "mc"]),
    FigureId.OUT_HOPPING_NLOS: (
        {"slow": 20, "fast": 50, "points": 15},
        ["rate", "analytic_p0.1", "mc_p0.1", "analytic_p0.5", "mc_p0.5",
         "analytic_p0.9", "mc_p0.9"]),
    FigureId.OUT_HOPPING_LOS: (
        {"slow": 20, "fast": 50, "points": 15},
        ["rate", "analytic_p0", "mc_p0", "analytic_p0.5", "mc_p0.5", "analytic_p1", "mc_p1"]),
    FigureId.EPS_CAP_NLOS: ({"points": 15}, ["eps", "rate_p0.1", "rate_p0.5", "rate_p0.9"]),
    FigureId.OUT_QUANTIZED: ({"slow": 20, "fast": 100, "points": 15},
                             ["rate", "analytic", "mc_quantized"]),
    FigureId.QUANTIZED_SWEEP_K2: (
        {"slow": 10, "fast": 40, "points": 15},
        ["rate", "mc_quantized_n16", "mc_hopping_n16", "mc_quantized_n64", "mc_hopping_n64"]),
    FigureId.STATIC_NLOS: (
        {"samples": 600, "points": 15},
        ["rate", "approx_p0.1", "mc_p0.1", "approx_p0.5", "mc_p0.5", "approx_p0.9", "mc_p0.9"]),
    FigureId.SCHEME_COMPARISON: ({"points": 15}, ["rate", "hopping", "static", "perfect"]),
    FigureId.COSINE_HISTOGRAM: ({"samples": 2000, "bins": 12},
                                ["x", "density_n4", "normal_n4", "density_n50", "normal_n50"]),
}


class TestFigureDataset:
    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            FigureDataset(FigureId.SCHEME_COMPARISON,
                          {"a": [1.0, 2.0], "b": [1.0]})


class TestBuildFigure:
    def test_scheme_comparison_defaults(self):
        ds = build_figure(FigureId.SCHEME_COMPARISON, {"points": 60})
        assert set(ds.columns) == {"rate", "hopping", "static", "perfect"}
        assert ds.metadata["params"]["n"] == 20
        assert ds.metadata["params"]["p"] == 0.5
        hop = ds.columns["hopping"]
        assert np.all(ds.columns["perfect"] <= hop + 1e-12)
        low = hop <= 0.1  # ordering vs static holds in the reliability region
        assert np.all(hop[low] <= ds.columns["static"][low] + 1e-9)

    def test_erg_cap_compare_gap(self):
        ds = build_figure(FigureId.ERG_CAP_COMPARE, {"n_max": 10})
        gap = np.asarray(ds.columns["exact"]) - np.asarray(ds.columns["approx"])
        assert gap[5] == pytest.approx(0.035, abs=0.005)
        assert np.all(gap > 0)
        assert np.all(np.diff(gap[5:]) < 0)  # gap shrinks with more links

    def test_erg_cap_los_no_link_row(self):
        # the LOS-only row took a ** 2, 1 ulp off the analytic a * a at a = 9.072
        ds = build_figure(FigureId.ERG_CAP_LOS,
                          {"n": 1, "a": 9.072, "slow": 2, "fast": 2})
        assert ds.columns["mc"][0] == ds.columns["analytic"][0]

    def test_eps_cap_grid(self):
        ds = build_figure(
            FigureId.EPS_CAP_NLOS,
            {"points": 40, "p_values": (0.5,), "n": 20},
        )
        rates = np.asarray(ds.columns["rate_p0.5"])
        assert np.all(np.diff(rates) >= 0)  # nondecreasing in eps
        assert rates[0] == 0.0  # eps = 1e-9 is below the zero-link mass

    def test_out_hopping_small(self):
        ds = build_figure(
            FigureId.OUT_HOPPING_NLOS,
            {"p_values": (0.5,), "slow": 50, "fast": 200, "points": 30},
        )
        assert {"rate", "analytic_p0.5", "mc_p0.5"} == set(ds.columns)

    def test_cosine_histogram(self):
        ds = build_figure(
            FigureId.COSINE_HISTOGRAM, {"samples": 10**4, "n_values": (4,)}
        )
        assert "density_n4" in ds.columns and "normal_n4" in ds.columns

    def test_unknown_override(self):
        with pytest.raises(ValueError):
            build_figure(FigureId.SCHEME_COMPARISON, {"bogus": 1})


class TestWriters:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        columns = {"x": rng.normal(size=20), "y": rng.uniform(1e-12, 1e12, 20)}
        path = tmp_path / "t.csv"
        write_csv(columns, path)
        cols = read_csv(path)
        np.testing.assert_array_equal(cols["x"], columns["x"])
        np.testing.assert_array_equal(cols["y"], columns["y"])

    def test_csv_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv({"x": [1.0]}, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "x"

    def test_empty_dataset_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv({"x": [], "y": []}, path)
        assert path.read_text() == "x,y\n"

    def test_unequal_columns_write_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv({"a": [1.0, 2.0], "b": [1.0]}, path)
        assert not path.exists()

    def test_json_round_trip(self, tmp_path):
        ds = build_figure(FigureId.SCHEME_COMPARISON, {"points": 10})
        path = tmp_path / "t.json"
        write_json(ds, path)
        back = read_json(path)
        assert back.figure_id is ds.figure_id
        assert back.metadata == ds.metadata
        for name in ds.columns:
            np.testing.assert_array_equal(back.columns[name], ds.columns[name])

    @pytest.mark.parametrize("figure_id", list(FigureId), ids=lambda f: f.value)
    def test_metadata_rebuilds_identically(self, figure_id):
        overrides, names = SMALL_FIGURES[figure_id]
        ds = build_figure(figure_id, overrides)
        assert list(ds.columns) == names
        again = build_figure(figure_id, dict(ds.metadata["params"]))
        assert again.metadata == ds.metadata
        for name in ds.columns:
            np.testing.assert_array_equal(again.columns[name], ds.columns[name])

    def test_write_error_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv({"x": [1.0]}, "/no/such/dir/file.csv")
