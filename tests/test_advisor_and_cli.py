"""Unit tests for the sampler advisor (Section 5.5) and the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.synthetic import c_outlier_dataset, gaussian_mixture
from repro.evaluation.advisor import diagnose_dataset, recommend_sampler


class TestDiagnoseDataset:
    def test_balanced_data_low_imbalance(self, blobs):
        diagnosis = diagnose_dataset(blobs, 6, seed=0)
        assert diagnosis.cluster_imbalance < 10.0
        assert 0.0 <= diagnosis.top_cost_share <= 1.0
        assert diagnosis.sample_size == blobs.shape[0]

    def test_outlier_data_flagged_by_tiny_cluster(self, outlier_data):
        # The probe solution places a center on the outlier cluster (its D²
        # mass is enormous), so the danger shows up as a vanishingly small
        # cluster rather than as residual cost share.
        diagnosis = diagnose_dataset(outlier_data, 4, seed=0)
        assert diagnosis.smallest_cluster_fraction < 0.05
        assert diagnosis.cluster_imbalance > 10.0

    def test_probe_subsample_for_large_inputs(self):
        data = gaussian_mixture(n=5000, d=5, n_clusters=5, seed=0).points
        diagnosis = diagnose_dataset(data, 5, probe_size=1000, seed=0)
        assert diagnosis.sample_size == 1000

    def test_imbalanced_mixture_detected(self, imbalanced_blobs):
        diagnosis = diagnose_dataset(imbalanced_blobs, 6, seed=0)
        assert diagnosis.cluster_imbalance > diagnose_dataset(
            gaussian_mixture(n=1500, d=8, n_clusters=6, gamma=0.0, seed=1).points, 6, seed=0
        ).cluster_imbalance * 0.5


class TestRecommendSampler:
    def test_balanced_data_allows_cheap_sampling(self):
        data = gaussian_mixture(n=4000, d=8, n_clusters=5, gamma=0.0, seed=0).points
        assert recommend_sampler(data, 5, seed=0) in ("uniform", "lightweight")

    def test_outlier_data_requires_fast_coreset(self):
        data = c_outlier_dataset(n=4000, d=8, n_outliers=4, seed=0).points
        assert recommend_sampler(data, 5, seed=0) == "fast_coreset"

    def test_tiny_cluster_relative_to_budget_requires_fast_coreset(self):
        # A cluster holding 0.05% of the points with a small coreset budget.
        data = np.concatenate(
            [np.random.default_rng(0).normal(size=(9995, 4)), 500.0 + np.zeros((5, 4))]
        )
        assert recommend_sampler(data, 4, coreset_size=100, seed=0) == "fast_coreset"

    def test_recommendation_is_deterministic_given_seed(self, blobs):
        assert recommend_sampler(blobs, 6, seed=3) == recommend_sampler(blobs, 6, seed=3)


class TestCli:
    @pytest.fixture
    def data_file(self, tmp_path, blobs):
        path = tmp_path / "data.npy"
        np.save(path, blobs)
        return str(path)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_creates_archive(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "coreset.npz")
        code = main(["compress", data_file, "--k", "6", "--m", "120", "--output", output, "--seed", "1"])
        assert code == 0
        archive = np.load(output)
        assert archive["points"].shape[0] == 120
        assert archive["weights"].shape == (120,)
        summary = json.loads(capsys.readouterr().out)
        assert summary["coreset_points"] == 120

    def test_compress_all_methods(self, data_file, tmp_path):
        for method in ("uniform", "lightweight", "welterweight", "sensitivity", "fast_coreset"):
            output = str(tmp_path / f"{method}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "80", "--method", method, "--output", output]
            )
            assert code == 0

    def test_evaluate_good_coreset_exits_zero(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "coreset.npz")
        main(["compress", data_file, "--k", "6", "--m", "200", "--output", output])
        capsys.readouterr()
        code = main(["evaluate", data_file, output, "--k", "6"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["distortion"] < 5.0

    def test_recommend_outputs_json(self, data_file, capsys):
        code = main(["recommend", data_file, "--k", "6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recommendation"] in ("uniform", "lightweight", "fast_coreset")

    def test_csv_input_supported(self, tmp_path, blobs, capsys):
        path = tmp_path / "data.csv"
        np.savetxt(path, blobs[:200], delimiter=",")
        output = str(tmp_path / "coreset.npz")
        code = main(["compress", str(path), "--k", "4", "--m", "50", "--output", output])
        assert code == 0

    def test_kmedian_flag(self, data_file, tmp_path):
        output = str(tmp_path / "coreset.npz")
        code = main(["compress", data_file, "--k", "5", "--m", "80", "--z", "1", "--output", output])
        assert code == 0


class TestCliParallel:
    @pytest.fixture
    def data_file(self, tmp_path, blobs):
        path = tmp_path / "data.npy"
        np.save(path, blobs)
        return str(path)

    def test_sharded_compress_reports_execution(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "coreset.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
             "--shards", "4", "--seed", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 4
        assert summary["backend"] == "serial"
        assert summary["coreset_points"] == 100
        assert summary["communication_floats"] > 0
        assert np.load(output)["points"].shape == (100, 8)

    def test_backend_changes_nothing_but_wallclock(self, data_file, tmp_path, capsys):
        # Fixed --shards + --seed must give byte-identical archives no
        # matter the backend or worker count.
        archives = []
        for backend, workers in (("serial", 1), ("thread", 3)):
            output = str(tmp_path / f"{backend}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
                 "--shards", "4", "--seed", "2", "--backend", backend,
                 "--workers", str(workers)]
            )
            assert code == 0
            capsys.readouterr()
            archives.append(np.load(output))
        assert np.array_equal(archives[0]["points"], archives[1]["points"])
        assert np.array_equal(archives[0]["weights"], archives[1]["weights"])

    @pytest.mark.parallel
    def test_process_backend_matches_serial(self, data_file, tmp_path, capsys):
        outputs = []
        for backend, workers in (("serial", 1), ("process", 2)):
            output = str(tmp_path / f"{backend}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
                 "--shards", "4", "--seed", "2", "--backend", backend,
                 "--workers", str(workers)]
            )
            assert code == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["backend"] == backend
            outputs.append(np.load(output))
        assert np.array_equal(outputs[0]["points"], outputs[1]["points"])
        assert np.array_equal(outputs[0]["weights"], outputs[1]["weights"])

    def test_workers_default_shard_count(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "coreset.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
             "--backend", "thread", "--workers", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 2  # defaults to --workers
        assert summary["backend"] == "thread"

    def test_backend_alone_keeps_the_plain_path(self, data_file, tmp_path, capsys):
        # shards defaults to 1 here, so only --shards/--seed may key the
        # result: a lone --backend flag must not change the bytes.
        archives = []
        for extra in ([], ["--backend", "thread"]):
            output = str(tmp_path / f"plain{len(extra)}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
                 "--seed", "2", *extra]
            )
            assert code == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["shards"] == 1
            assert summary["backend"] == "serial"
            archives.append(np.load(output))
        assert np.array_equal(archives[0]["points"], archives[1]["points"])
        assert np.array_equal(archives[0]["weights"], archives[1]["weights"])

    @pytest.mark.parallel
    def test_workers_alone_default_to_process_backend(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "coreset.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
             "--workers", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "process"
        assert summary["workers"] == 2
        assert summary["shards"] == 2

    def test_unknown_backend_rejected(self, data_file):
        with pytest.raises(SystemExit):
            main(["compress", data_file, "--k", "5", "--backend", "gpu"])

    def test_sharded_build_offloads_the_final_reduce(self, data_file, tmp_path, capsys):
        # The union of the shard messages is re-compressed as one more
        # pool task, never on the host.
        output = str(tmp_path / "coreset.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
             "--shards", "4", "--seed", "2", "--backend", "thread", "--workers", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "thread"
        assert summary["reduces_offloaded"] == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0", "--backend", "thread", "--shards", "2"], "--workers"),
            (["--workers", "-1"], "--workers"),
            (["--shards", "-3", "--workers", "2", "--backend", "thread"], "--shards"),
            (["--shards", "0"], "--shards"),
            (["--k", "0"], "--k"),
            (["--m", "0"], "--m"),
        ],
    )
    def test_non_positive_workers_and_shards_rejected(self, data_file, capsys, flags, message):
        # ``--k 5`` comes first, so a parametrized ``--k`` overrides it.
        code = main(["compress", data_file, "--k", "5", *flags])
        assert code == 2
        assert f"{message} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            # The check runs before any file is read.
            ("evaluate", ["coreset.npz", "--k", "0"], "--k"),
            ("recommend", ["--k", "0"], "--k"),
            ("recommend", ["--k", "5", "--m", "0"], "--m"),
        ],
    )
    def test_evaluate_and_recommend_reject_non_positive_counts(
        self, data_file, capsys, command, flags, message
    ):
        code = main([command, data_file, *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message} must be at least 1\n"

    def test_prefetch_rejects_conflicting_shards(self, data_file, capsys):
        code = main(
            ["compress", data_file, "--k", "5", "--prefetch-batches", "2",
             "--shards", "4"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_prefetch_rejects_non_positive_depth(self, data_file, capsys):
        code = main(["compress", data_file, "--k", "5", "--prefetch-batches", "0"])
        assert code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_prefetch_streaming_invariant_to_depth_and_backend(
        self, data_file, tmp_path, capsys
    ):
        # The overlapped streaming path is keyed by --seed and the block
        # structure; prefetch depth and backend change wall-clock only.
        archives = []
        for label, extra in (
            ("a", ["--prefetch-batches", "1", "--backend", "serial"]),
            ("b", ["--prefetch-batches", "4", "--backend", "thread", "--workers", "2"]),
        ):
            output = str(tmp_path / f"prefetch_{label}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "100", "--output", output,
                 "--seed", "2", *extra]
            )
            assert code == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["mode"] == "streaming"
            assert summary["blocks"] == 16
            assert summary["backend"] == extra[3]
            # Reduce diagnostics ride the summary; the offload split is
            # mode-dependent but reduces always run on the pool here.
            assert summary["reductions"] == 15
            assert summary["spread_refreshes"] >= 1
            assert summary["cost_bound_refreshes"] >= 0
            assert summary["reduces_offloaded"] == 15
            assert summary["pending_high_water"] > 0
            archives.append(np.load(output))
        assert np.array_equal(archives[0]["points"], archives[1]["points"])
        assert np.array_equal(archives[0]["weights"], archives[1]["weights"])

    def test_windowed_compress_reports_window_execution(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "windowed.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--window", "4",
             "--blocks", "10", "--output", output, "--seed", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "windowed_streaming[sliding]"
        assert summary["method"].startswith("windowed_merge_reduce[sliding]")
        assert summary["window"] == 4
        assert summary["decay_half_life"] is None
        assert summary["blocks"] == 10
        # 10 blocks through a 4-block window retire the first 6.
        assert summary["blocks_expired"] == 6
        assert summary["drift_events"] == 0
        assert summary["backend"] == "serial"
        assert summary["shards"] == 1

    def test_decay_compress_with_prefetch_overlap(self, data_file, tmp_path, capsys):
        output = str(tmp_path / "decayed.npz")
        code = main(
            ["compress", data_file, "--k", "5", "--m", "100", "--decay", "3.0",
             "--prefetch-batches", "2", "--output", output, "--seed", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "windowed_streaming[decay]"
        assert summary["decay_half_life"] == 3.0
        assert summary["blocks_expired"] == 0
        assert summary["backend"] == "serial"
        # Decay fades old blocks: total weight well below the input size.
        assert summary["total_weight"] < summary["input_points"]

    @pytest.mark.parametrize(
        "policy",
        [["--window", "4", "--blocks", "10"], ["--decay", "3.0"]],
        ids=["window", "decay"],
    )
    def test_windowed_compress_same_coreset_with_or_without_prefetch(
        self, data_file, tmp_path, capsys, policy
    ):
        # One seed mode: the host path and the prefetching pool pipeline
        # derive every seed alike, so they write the same archive.
        archives = []
        for label, extra in (
            ("host", []),
            ("prefetch", ["--prefetch-batches", "2", "--backend", "thread", "--workers", "2"]),
        ):
            output = str(tmp_path / f"{label}.npz")
            code = main(
                ["compress", data_file, "--k", "5", "--m", "60", "--output", output,
                 "--seed", "2", *policy, *extra]
            )
            assert code == 0
            capsys.readouterr()
            archives.append(np.load(output))
        assert np.array_equal(archives[0]["points"], archives[1]["points"])
        assert np.array_equal(archives[0]["weights"], archives[1]["weights"])

    def test_window_and_decay_mutually_exclusive(self, data_file, capsys):
        code = main(
            ["compress", data_file, "--k", "5", "--window", "4", "--decay", "2.0"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_window_rejects_conflicting_shards(self, data_file, capsys):
        code = main(
            ["compress", data_file, "--k", "5", "--window", "4", "--shards", "3"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_blocks_requires_a_streaming_path(self, data_file, capsys):
        code = main(["compress", data_file, "--k", "5", "--blocks", "8"])
        assert code == 2
        assert "--blocks only applies" in capsys.readouterr().err

    def test_drift_threshold_requires_a_window_policy(self, data_file, capsys):
        code = main(["compress", data_file, "--k", "5", "--drift-threshold", "0.3"])
        assert code == 2
        assert "requires a window policy" in capsys.readouterr().err

    def test_window_value_validated(self, data_file, capsys):
        assert main(["compress", data_file, "--k", "5", "--window", "0"]) == 2
        assert "at least one block" in capsys.readouterr().err
        assert main(["compress", data_file, "--k", "5", "--decay", "0"]) == 2
        assert "positive" in capsys.readouterr().err
