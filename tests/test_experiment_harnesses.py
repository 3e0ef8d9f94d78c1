"""Integration smoke tests for every experiment harness (tables and figures).

Each harness is run at a tiny scale and its output rows are checked for the
expected shape: correct experiment tag, one row per configuration, and
well-formed (finite, correctly-signed) values.  The heavier statistical
claims live in the benchmarks; these tests guarantee the harnesses stay
runnable.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    figure1_runtime_vs_k,
    figure3_cluster_capture,
    figure4_kmedian_sweep,
    table1_spread_runtime,
    table2_distortion_ratios,
    table3_dataset_summary,
    table4_sampler_sweep,
    table5_streaming_comparison,
    table6_bico_distortion,
    table7_imbalance_sweep,
    table8_downstream_cost,
    table9_streamkm_distortion,
)
from repro.experiments.ablations import (
    ablation_seeding,
    ablation_spread_reduction,
    ablation_weight_correction,
)
from repro.experiments.common import make_samplers
from repro.evaluation.tables import format_table


class TestCommonHelpers:
    def test_make_samplers_line_up(self):
        samplers = make_samplers(16, seed=0)
        assert set(samplers) == {"uniform", "lightweight", "welterweight", "fast_coreset"}

    def test_make_samplers_with_sensitivity(self):
        samplers = make_samplers(16, seed=0, include_sensitivity=True)
        assert "sensitivity" in samplers

    def test_welterweight_default_j(self):
        samplers = make_samplers(64, seed=0)
        assert samplers["welterweight"].j == int(math.ceil(math.log2(64)))


class TestTable1:
    def test_rows_and_values(self, tiny_scale):
        rows = table1_spread_runtime(scale=tiny_scale, r_values=(5, 10), k=6, repetitions=1)
        assert len(rows) == 2
        assert all(row.experiment == "table1" for row in rows)
        assert all(row.values["runtime_mean"] > 0 for row in rows)
        assert rows[0].parameters["r"] == 5.0

    def test_depth_grows_with_spread(self, tiny_scale):
        rows = table1_spread_runtime(scale=tiny_scale, r_values=(10, 40), k=6, repetitions=1)
        shallow, deep = (row.values["depth"] for row in rows)
        assert deep > shallow


class TestFigure1:
    def test_rows_and_slowdown_factors(self, tiny_scale):
        rows = figure1_runtime_vs_k(
            scale=tiny_scale, k_values=(4, 8), datasets=("gaussian",), repetitions=1, m_scalar=5
        )
        assert len(rows) == 4  # 2 methods x 2 k values
        methods = {row.method for row in rows}
        assert methods == {"sensitivity", "fast_coreset"}
        for row in rows:
            assert row.values["slowdown_vs_smallest_k"] > 0


class TestTable2:
    def test_ratio_rows(self, tiny_scale):
        rows = table2_distortion_ratios(scale=tiny_scale, datasets=("adult", "star"), repetitions=1)
        assert len(rows) == 4  # 2 datasets x 2 methods
        for row in rows:
            assert row.values["ratio"] > 0
            assert np.isfinite(row.values["sensitivity_distortion"])


class TestTable3:
    def test_summary_matches_documented_shapes(self, tiny_scale):
        rows = table3_dataset_summary(scale=tiny_scale, datasets=("adult", "taxi"))
        assert len(rows) == 2
        adult = rows[0]
        assert adult.values["paper_points"] == 48842
        assert adult.values["paper_dim"] == 14
        assert adult.values["generated_dim"] == 14


class TestTable4:
    def test_sweep_row_count_and_tag(self, tiny_scale):
        rows = table4_sampler_sweep(
            scale=tiny_scale, datasets=("gaussian", "c_outlier"), m_scalars=(10,), repetitions=1
        )
        assert len(rows) == 2 * 1 * 4  # datasets x m_scalars x samplers
        assert all(row.experiment == "table4" for row in rows)
        assert all(row.values["distortion_mean"] >= 1.0 for row in rows)
        assert all(row.values["runtime_mean"] >= 0.0 for row in rows)


class TestTable5:
    def test_static_and_streaming_rows_paired(self, tiny_scale):
        rows = table5_streaming_comparison(
            scale=tiny_scale, datasets=("gaussian",), repetitions=1, n_blocks=4
        )
        assert len(rows) == 4 * 2  # samplers x {static, streaming}
        settings = {row.method.split("[")[1].rstrip("]") for row in rows}
        assert settings == {"static", "streaming"}


class TestTable6:
    def test_bico_rows(self, tiny_scale):
        rows = table6_bico_distortion(
            scale=tiny_scale,
            datasets=("gaussian",),
            streaming_datasets=("gaussian",),
            m_scalars=(10,),
            repetitions=1,
            n_blocks=4,
        )
        methods = {row.method for row in rows}
        assert "bico[static,m=10k]" in methods
        assert "bico[streaming]" in methods


class TestTable7:
    def test_gamma_j_grid(self, tiny_scale):
        rows = table7_imbalance_sweep(
            scale=tiny_scale, gamma_values=(0.0, 3.0), repetitions=1, k=8, n_clusters=6, coreset_size=160
        )
        assert len(rows) == 2 * 5  # gammas x methods
        gammas = {row.parameters["gamma"] for row in rows}
        assert gammas == {0.0, 3.0}


class TestTable8:
    def test_downstream_costs_positive(self, tiny_scale):
        rows = table8_downstream_cost(scale=tiny_scale, datasets=("adult",), k=6)
        assert len(rows) == 4
        assert all(row.values["cost_on_full"] > 0 for row in rows)


class TestTable9:
    def test_streamkm_rows(self, tiny_scale):
        rows = table9_streamkm_distortion(scale=tiny_scale, datasets=("gaussian", "c_outlier"), repetitions=1)
        assert len(rows) == 2
        assert all(row.method == "streamkm++" for row in rows)


class TestFigure3:
    def test_capture_statistics(self, tiny_scale):
        rows = figure3_cluster_capture(scale=tiny_scale, repetitions=3, coreset_size=80)
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row.values["capture_rate"] <= 1.0


class TestFigure4:
    def test_kmedian_tag(self, tiny_scale):
        rows = figure4_kmedian_sweep(
            scale=tiny_scale, datasets=("gaussian",), m_scalars=(10,), repetitions=1
        )
        assert all(row.experiment == "figure4" for row in rows)
        assert all(row.parameters["z"] == 1.0 for row in rows)


class TestAblations:
    def test_weight_correction_rows(self, tiny_scale):
        rows = ablation_weight_correction(scale=tiny_scale, datasets=("gaussian",), repetitions=1)
        assert len(rows) == 2

    def test_spread_reduction_rows(self, tiny_scale):
        rows = ablation_spread_reduction(scale=tiny_scale, r_values=(5,), k=6, repetitions=1)
        assert {row.method for row in rows} == {
            "fast_coreset[with_reduction]",
            "fast_coreset[without_reduction]",
        }

    def test_seeding_rows(self, tiny_scale):
        rows = ablation_seeding(scale=tiny_scale, datasets=("gaussian",), repetitions=1)
        assert {row.method for row in rows} == {"quadtree_seeding", "kmeans++_seeding"}


class TestFormatting:
    def test_harness_rows_render(self, tiny_scale):
        rows = table9_streamkm_distortion(scale=tiny_scale, datasets=("gaussian",), repetitions=1)
        text = format_table(rows, value_names=["distortion_mean"])
        assert "streamkm++" in text
