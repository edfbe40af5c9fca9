"""Tests of the per-table / per-figure experiment harnesses."""

import pytest

from repro.eval import fig5, fig6, fig7, greenwave, precision, table1, table2
from repro.perf.baselines import ACCELERATOR_BASELINES, GPU_BASELINES
from repro.perf.roofline import RooflineModel


class TestTable1:
    def test_every_metric_within_five_percent(self):
        for name, paper, model in table1.run():
            assert model == pytest.approx(paper, rel=0.05), name


class TestTable2:
    def test_rows_cover_all_nine_configurations(self):
        rows = table2.run()
        assert len(rows) == 9
        assert {row.name for row in rows} == set(table2.PAPER_NTX_ROWS)

    def test_geomeans_within_thirty_percent_of_paper(self):
        for row in table2.run():
            paper = row.paper["geomean"]
            assert row.geomean == pytest.approx(paper, rel=0.30), row.name

    def test_efficiency_ordering_matches_paper(self):
        """Larger configurations are more efficient; 14nm beats 22nm."""
        rows = {row.name: row.geomean for row in table2.run()}
        assert rows["NTX (16x) 22FDX"] < rows["NTX (32x) 22FDX"] < rows["NTX (64x) 22FDX"]
        assert rows["NTX (16x) 14nm"] < rows["NTX (64x) 14nm"] < rows["NTX (512x) 14nm"]
        assert rows["NTX (16x) 14nm"] > rows["NTX (16x) 22FDX"]

    @pytest.mark.parametrize("name", sorted(table2.PAPER_NTX_ROWS))
    def test_platform_columns_match_paper(self, name):
        row = next(row for row in table2.run() if row.name == name)
        summary, paper = row.config.summary(), row.paper
        assert summary["freq_ghz"] == pytest.approx(paper["freq_ghz"], rel=0.10)
        assert summary["peak_tops"] == pytest.approx(paper["peak_tops"], rel=0.07)
        assert summary["area_mm2"] == pytest.approx(paper["area_mm2"], rel=0.05)
        assert summary["lim"] == paper["lim"]

    def test_every_configuration_beats_every_gpu_but_not_scaledeep(self):
        geomeans = {row.name: row.geomean for row in table2.run()}
        best_gpu = max(gpu.geomean_efficiency for gpu in GPU_BASELINES)
        assert min(geomeans.values()) > best_gpu
        scaledeep = next(a for a in ACCELERATOR_BASELINES if a.name == "ScaleDeep")
        assert geomeans["NTX (512x) 14nm"] < scaledeep.geomean_efficiency * 1.1


class TestFig5:
    def test_kernel_set_matches_figure(self):
        names = {spec.name for spec in fig5.figure5_kernels()}
        assert {"AXPY 16", "AXPY 16384", "GEMV 16", "GEMV 16384", "GEMM 1024",
                "CONV 3x3", "CONV 7x7", "LAP1D", "LAP3D", "DIFF"} <= names

    def test_bound_classification_matches_paper(self):
        points = {p.name: p for p in fig5.run()}
        for name in fig5.PAPER_EXPECTATIONS["memory_bound"]:
            assert points[name].bound == "memory", name
        for name in fig5.PAPER_EXPECTATIONS["compute_bound"]:
            assert points[name].bound == "compute", name

    def test_compute_bound_kernels_near_practical_peak(self):
        points = {p.name: p for p in fig5.run()}
        for name in ("CONV 3x3", "CONV 5x5", "CONV 7x7", "GEMM 1024"):
            assert points[name].performance_gflops > 15.0

    def test_larger_problems_outperform_small_ones(self):
        points = {p.name: p for p in fig5.run()}
        assert points["AXPY 16384"].performance_gflops > points["AXPY 16"].performance_gflops
        assert points["GEMM 1024"].performance_gflops > points["GEMM 16"].performance_gflops

    def test_roofs_match_paper_expectations(self):
        model = RooflineModel()
        expectations = fig5.PAPER_EXPECTATIONS
        assert model.peak_flops / 1e9 == pytest.approx(expectations["peak_gflops"])
        assert model.peak_bandwidth / 1e9 == pytest.approx(expectations["bandwidth_gbs"])
        assert model.practical_flops / 1e9 == pytest.approx(
            expectations["practical_gflops"], rel=0.01
        )
        sweep = model.bandwidth_sweep([64, 128, 256])
        assert sweep[128]["ridge_flop_per_byte"] == pytest.approx(2.0)
        assert sweep[256]["ridge_flop_per_byte"] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["LAP1D", "LAP2D", "LAP3D", "DIFF"])
    def test_stencils_reach_the_practical_bandwidth_roof(self, name):
        model = RooflineModel()
        point = next(p for p in fig5.run() if p.name == name)
        roof = point.operational_intensity * model.practical_bandwidth / 1e9
        assert point.performance_gflops == pytest.approx(roof, rel=0.15)


class TestFig6:
    def test_headline_ratios(self):
        result = fig6.run()
        assert result.ratio_22nm_vs_gpu == pytest.approx(2.5, abs=0.5)
        assert result.ratio_14nm_vs_gpu == pytest.approx(3.0, abs=0.7)

    def test_ntx_beats_every_gpu_bar(self):
        result = fig6.run()
        ntx_bars = [v for k, v in result.bars.items() if k.startswith("NTX")]
        other_bars = [v for k, v in result.bars.items() if not k.startswith("NTX")]
        assert min(ntx_bars) > max(other_bars)


class TestFig7:
    def test_headline_ratios(self):
        result = fig7.run()
        assert result.ratio_22nm_vs_gpu == pytest.approx(6.5, abs=1.0)
        assert result.ratio_14nm_vs_gpu == pytest.approx(10.4, abs=1.5)

    def test_ntx_density_dominates(self):
        result = fig7.run()
        ntx = [v for k, v in result.bars.items() if k.startswith("NTX")]
        others = [v for k, v in result.bars.items() if not k.startswith("NTX")]
        assert min(ntx) > max(others)


class TestPrecision:
    def test_pcs_is_more_accurate_by_a_similar_factor(self):
        result = precision.run()
        assert result.rmse_pcs < result.rmse_float32
        # Paper: 1.7x lower RMSE; accept a band around it for synthetic data.
        assert 1.2 <= result.improvement <= 3.0

    def test_longer_reductions_widen_the_gap(self):
        short = precision.run(outputs=64, reduction_length=9)
        long = precision.run(outputs=64, reduction_length=81)
        assert long.improvement > short.improvement


class TestGreenWave:
    def test_ntx16_estimate_in_paper_band(self):
        result = greenwave.run()
        # Paper estimates 130 Gflop/s at 11 Gflop/s W for NTX 16.
        assert result.ntx16_gflops == pytest.approx(130.0, rel=0.25)
        assert result.ntx16_gflops_w == pytest.approx(11.0, rel=0.25)

    @pytest.mark.parametrize(
        "metric, platform, margin",
        [("gflops_w", "Green Wave", 5.0), ("gflops_w", "GPU", 20.0), ("gflops", "GPU", 0.5)],
    )
    def test_ntx_margin_over_green_wave_and_gpu(self, metric, platform, margin):
        result = greenwave.run()
        ntx16 = getattr(result, f"ntx16_{metric}")
        assert ntx16 > margin * greenwave.PAPER_VALUES[platform][metric]
