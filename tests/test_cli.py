"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.dataset import LoanDataset
from repro.experiments.runner import EXPERIMENTS


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """A small platform saved to disk once for all CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "platform.npz"
    code = main([
        "generate", "--n-samples", "5000", "--seed", "3",
        "--total-features", "40", "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_every_experiment_id_parseable(self):
        parser = build_parser()
        for key in EXPERIMENTS:
            args = parser.parse_args(["experiment", key])
            assert args.ids == [key]
        args = parser.parse_args(["experiment", *EXPERIMENTS])
        assert args.ids == list(EXPERIMENTS)
        assert args.n_samples is None and args.trainer_seeds is None

    def test_scale_bench_args(self):
        args = build_parser().parse_args([
            "scale-bench", "--smoke", "--rows", "20000", "50000",
            "--dtype", "float64", "--chunk-rows", "4096",
            "--no-isolate", "--out", "b.json", "--save-model", "m.json",
        ])
        assert args.smoke is True
        assert args.rows == [20000, 50000]
        assert args.dtype == "float64"
        assert args.chunk_rows == 4096
        assert args.no_isolate is True
        assert args.save_model == "m.json"

    def test_scale_bench_rejects_bad_dtype(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale-bench", "--dtype", "float16"])


class TestMissingOutputDirectory:
    """A bench command checks where its payload goes before it runs."""

    @pytest.mark.parametrize("argv, module, runner", [
        (["bench", "--quick", "--out", "{missing}/b.json"],
         "repro.perfbench.parallel", "run_parallel_suite"),
        (["scale-bench", "--smoke", "--out", "{missing}/b.json"],
         "repro.perfbench.scale", "run_scale_suite"),
        (["scale-bench", "--smoke", "--save-model", "{missing}/m.json"],
         "repro.perfbench.scale", "run_scale_suite"),
        (["tune-bench", "--smoke", "--out", "{missing}/b.json"],
         "repro.perfbench.tune", "run_tune_benchmark"),
    ])
    def test_exits_2_before_the_suite_runs(self, argv, module, runner,
                                           tmp_path, monkeypatch, capsys):
        import importlib

        calls = []
        monkeypatch.setattr(importlib.import_module(module), runner,
                            lambda *a, **k: calls.append(a))
        missing = tmp_path / "no_such_dir"
        argv = [arg.format(missing=missing) for arg in argv]
        assert main(argv) == 2
        assert calls == []
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "does not exist" in err


class TestGenerate:
    def test_round_trip(self, dataset_file):
        dataset = LoanDataset.load(dataset_file)
        assert dataset.n_samples == 5000
        assert dataset.n_features == 40

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for out in (a, b):
            main(["generate", "--n-samples", "1000", "--seed", "9",
                  "--total-features", "40", "--out", str(out)])
        da, db = LoanDataset.load(a), LoanDataset.load(b)
        np.testing.assert_array_equal(da.features, db.features)


class TestTrainEvaluate:
    def test_train_prints_metrics(self, dataset_file, capsys):
        code = main(["train", "--method", "ERM", "--data", str(dataset_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mKS=" in out
        assert "worst province" in out

    def test_train_save_then_evaluate(self, dataset_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main([
            "train", "--method", "LightMIRM", "--data", str(dataset_file),
            "--out", str(model_path),
        ])
        assert code == 0
        assert model_path.exists()
        code = main(["evaluate", "--model", str(model_path),
                     "--data", str(dataset_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "LightMIRM" in out
        assert "KS=" in out


    @pytest.mark.parametrize("target", ["--out", "--registry"])
    def test_fine_tuning_refuses_to_save_before_training(
            self, dataset_file, tmp_path, monkeypatch, capsys, target):
        from repro.train.base import Trainer

        fits = []
        monkeypatch.setattr(Trainer, "fit",
                            lambda *a, **k: fits.append(a))
        code = main(["train", "--method", "ERM + fine-tuning",
                     "--data", str(dataset_file),
                     target, str(tmp_path / "model")])
        assert code == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "per-environment heads" in captured.err
        assert not (tmp_path / "model").exists()


class TestExperimentAndList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "LightMIRM" in out
        for key, experiment in EXPERIMENTS.items():
            assert f"{key:7s} {experiment.platform:9s} " in out

    def test_fig10_experiment_runs(self, capsys):
        code = main([
            "experiment", "fig10", "--n-samples", "4000",
            "--trainer-seeds", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 10" in out

    def test_fig4_experiment_runs(self, capsys):
        code = main([
            "experiment", "fig4", "--n-samples", "4000",
            "--trainer-seeds", "0",
        ])
        assert code == 0
        assert "Fig 4" in capsys.readouterr().out

    def test_several_ids_print_in_order_from_one_dataset(self, capsys,
                                                         monkeypatch):
        from repro.data.generator import LoanDataGenerator

        calls = []
        generate = LoanDataGenerator.generate
        monkeypatch.setattr(
            LoanDataGenerator, "generate",
            lambda self, *a, **k: calls.append(1) or generate(self, *a, **k),
        )
        assert main(["experiment", "fig4", "fig10",
                     "--n-samples", "4000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Fig 4: ")
        assert "\n\nFig 10: " in out
        assert out.index("Fig 4") < out.index("Fig 10")
        assert len(calls) == 1

    def test_table2_runs_on_the_extended_platform(self, capsys):
        code = main([
            "experiment", "table2", "--n-samples", "3000",
            "--trainer-seeds", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines()
                if line.startswith("meta-IRM")]
        assert rows == ["meta-IRM", "meta-IRM(20)", "meta-IRM(10)",
                        "meta-IRM(5)"]


class TestTune:
    def test_tune_parser_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.trainers == ["LightMIRM"]
        assert args.trials == 9 and args.eta == 3
        assert args.min_epochs == 5 and args.max_epochs == 45
        assert args.objective == "blend"
        assert args.jobs == 1 and args.seed == 0
        assert args.out == "TUNE_leaderboard.json"

    def test_tune_parser_shares_common_flags(self):
        args = build_parser().parse_args([
            "tune", "--trainers", "ERM", "IRMv1", "--jobs", "4",
            "--seed", "5", "--trace", "t.jsonl", "--registry", "reg",
            "--resume", "old.jsonl", "--smoke",
        ])
        assert args.trainers == ["ERM", "IRMv1"]
        assert args.jobs == 4 and args.seed == 5
        assert args.trace == "t.jsonl" and args.registry == "reg"
        assert args.resume == "old.jsonl" and args.smoke is True

    def test_tune_rejects_bad_objective(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--objective", "accuracy"])

    def test_tune_end_to_end(self, tmp_path, capsys):
        import json

        from repro.tune import ranked_trials, validate_leaderboard

        out = tmp_path / "lb.json"
        trace = tmp_path / "tune.jsonl"
        argv = [
            "tune", "--trainers", "ERM", "--trials", "2", "--eta", "2",
            "--min-epochs", "3", "--max-epochs", "3",
            "--n-samples", "3000", "--seed", "1",
            "--out", str(out), "--trace", str(trace),
        ]
        assert main(argv) == 0
        payload = validate_leaderboard(json.loads(out.read_text()))
        assert len(payload["leaderboard"]) == 2
        assert payload["leaderboard"][0]["trainer"] == "ERM"
        assert "best" in capsys.readouterr().out

        # Resuming from the trace replays every trial to the identical
        # ranking (the acceptance criterion for interrupted searches).
        out2 = tmp_path / "lb2.json"
        code = main(argv[:-4] + ["--out", str(out2),
                                 "--resume", str(trace)])
        assert code == 0
        resumed = json.loads(out2.read_text())
        assert ranked_trials(resumed) == ranked_trials(payload)
        # ... by replaying, not retraining: the fit times are the logged
        # ones (the encoded environments fingerprint alike across runs).
        assert [e["train_seconds"] for e in resumed["leaderboard"]] == \
            [e["train_seconds"] for e in payload["leaderboard"]]

    def test_resume_reports_replayed_evaluations(self, tmp_path, capsys):
        trace = tmp_path / "tune.jsonl"
        argv = [
            "tune", "--trainers", "ERM", "--trials", "2", "--eta", "2",
            "--min-epochs", "2", "--max-epochs", "4",
            "--n-samples", "3000", "--seed", "1",
            "--out", str(tmp_path / "lb.json"),
        ]
        assert main(argv + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        # Two trials at rung 0, the promoted one at rung 1: 3 evaluations.
        assert main(argv + ["--resume", str(trace)]) == 0
        assert f"replayed 3 of 3 evaluations from {trace}" in \
            capsys.readouterr().out
        # The log's scores were computed on a 0.25 validation split, so
        # none of them describe a 0.5 split: everything retrains.
        assert main(argv + ["--validation-fraction", "0.5",
                            "--resume", str(trace)]) == 0
        assert f"replayed 0 of 3 evaluations from {trace}" in \
            capsys.readouterr().out
