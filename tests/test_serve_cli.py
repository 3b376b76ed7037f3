"""End-to-end tests for the serving CLI commands (registry, serve-score)."""

import json
import tracemalloc
from unittest import mock

import pytest

from repro.baselines.erm import ERMTrainer
from repro.cli import main
from repro.data.dataset import LoanDataset
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import temporal_split
from repro.gbdt.boosting import GBDTParams
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.serve.registry import ModelRegistry
from repro.train.base import BaseTrainConfig


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_cli") / "platform.npz"
    assert main([
        "generate", "--n-samples", "4000", "--seed", "3",
        "--total-features", "40", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def registry_root(dataset_file, tmp_path_factory):
    """A registry with v0001 (champion) and v0002 (challenger)."""
    root = tmp_path_factory.mktemp("serve_cli") / "reg"
    assert main(["train", "--method", "ERM", "--data", str(dataset_file),
                 "--registry", str(root)]) == 0
    assert main(["train", "--method", "LightMIRM", "--data",
                 str(dataset_file), "--registry", str(root),
                 "--slot", "challenger"]) == 0
    return root


class TestTrainIntoRegistry:
    def test_versions_and_slots_on_disk(self, registry_root):
        index = json.loads((registry_root / "registry.json").read_text())
        assert set(index["versions"]) == {"v0001", "v0002"}
        assert index["slots"] == {"champion": "v0001",
                                  "challenger": "v0002"}


class TestRegistryCommand:
    def test_list_marks_slots(self, registry_root, capsys):
        assert main(["registry", "list", "--root", str(registry_root)]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "<- champion" in out
        assert "v0002" in out and "<- challenger" in out

    def test_show(self, registry_root, capsys):
        assert main(["registry", "show", "--root", str(registry_root),
                     "--version", "v0002"]) == 0
        out = capsys.readouterr().out
        assert "LightMIRM" in out
        assert "models/v0002.json" in out

    def test_show_requires_version(self, registry_root, capsys):
        assert main(["registry", "show",
                     "--root", str(registry_root)]) == 2

    def test_promote_and_rollback(self, dataset_file, tmp_path, capsys):
        root = tmp_path / "reg"
        main(["train", "--method", "ERM", "--data", str(dataset_file),
              "--registry", str(root)])
        main(["train", "--method", "ERM", "--data", str(dataset_file),
              "--registry", str(root)])
        assert main(["registry", "promote", "--root", str(root),
                     "--version", "v0002"]) == 0
        assert "promoted v0002 to champion" in capsys.readouterr().out
        assert main(["registry", "rollback", "--root", str(root)]) == 0
        assert "rolled back champion to v0001" in capsys.readouterr().out


class TestServeScore:
    def test_scores_through_service(self, registry_root, dataset_file,
                                    capsys):
        assert main(["serve-score", "--registry", str(registry_root),
                     "--data", str(dataset_file), "--limit", "200",
                     "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "scored 200 rows" in out
        assert "serving slot: challenger" in out
        assert "throughput" in out

    def test_batches_are_consecutive_chunks(self, registry_root,
                                            dataset_file, capsys):
        from repro.data.dataset import LoanDataset
        from repro.data.splits import temporal_split
        from repro.serve.registry import CHALLENGER, ModelRegistry

        assert main(["serve-score", "--registry", str(registry_root),
                     "--data", str(dataset_file), "--limit", "200",
                     "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        # 200 rows in chunks of 64: three full batches and the remainder.
        assert "batches         4\n" in out
        rows = temporal_split(LoanDataset.load(dataset_file)).test.features
        challenger = ModelRegistry(registry_root).load(CHALLENGER)
        scores = challenger.predict_proba(rows[:200]).tolist()
        assert f"mean p={sum(scores) / len(scores):.4f}," in out

    def test_limit_gathers_only_the_rows_it_scores(self, tmp_path):
        """A split half is a row selection: ``--limit 100`` gathers 100
        rows, not the whole test half (6.7 MB at 20k x 210) first."""
        dataset = LoanDataGenerator(GeneratorConfig(
            n_samples=20_000, total_features=210, seed=3)).generate()
        split = temporal_split(dataset)
        ModelRegistry(tmp_path / "reg").save(LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=1)),
            gbdt_params=GBDTParams(n_trees=2)).fit(split.train))
        test_bytes = split.test.n_samples * dataset.n_features * 8
        args = ["serve-score", "--registry", str(tmp_path / "reg"),
                "--data", str(tmp_path / "platform.npz"), "--limit", "100"]
        # The platform is in memory already, so only serve-score's own
        # allocations are traced; the untraced first run warms caches.
        with mock.patch.object(LoanDataset, "load", return_value=dataset):
            assert main(args) == 0
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < test_bytes / 2, (peak, test_bytes)

    def test_drift_guard_flag(self, registry_root, dataset_file, capsys):
        assert main(["serve-score", "--registry", str(registry_root),
                     "--data", str(dataset_file), "--limit", "200",
                     "--drift-threshold", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "scored 200 rows" in out
        assert "drift guard" in out


class TestServeRun:
    def test_multi_worker_stream(self, registry_root, dataset_file, capsys):
        assert main(["serve-run", "--registry", str(registry_root),
                     "--data", str(dataset_file), "--limit", "200",
                     "--workers", "2", "--batch-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "scored 200/200 rows" in out
        assert "across 2 workers" in out
        assert "p99" in out
        assert "admitted=200 shed=0 refused=0 errors=0" in out

    def test_drift_guard_reported(self, registry_root, dataset_file,
                                  capsys):
        assert main(["serve-run", "--registry", str(registry_root),
                     "--data", str(dataset_file), "--limit", "200",
                     "--workers", "1", "--drift-threshold", "0.25"]) == 0
        assert "drift guard" in capsys.readouterr().out
