"""End-to-end tests for `--trace` and the `repro obs` subcommand.

The acceptance path of the observability layer: a traced ``repro train``
leaves a JSONL run log from which ``repro obs report`` reconstructs the
Table III step timings and the per-epoch convergence curves without
re-running anything.
"""

import pytest

from repro.cli import main
from repro.obs.report import timing_tables
from repro.obs.runlog import RunLogReader
from repro.serve.registry import ModelRegistry
from repro.timing import STEP_NAMES
from repro.train.registry import make_trainer


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-cli") / "platform.npz"
    code = main([
        "generate", "--n-samples", "2500", "--seed", "3",
        "--total-features", "40", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory, dataset_file):
    """One traced LightMIRM training run, shared by the read-side tests.

    The fitted model is saved beside the log as ``model.json``.
    """
    trace = tmp_path_factory.mktemp("obs-cli-run") / "run.jsonl"
    code = main([
        "train", "--method", "lightmirm", "--data", str(dataset_file),
        "--epochs", "6", "--seed", "1", "--trace", str(trace),
        "--out", str(trace.with_name("model.json")),
    ])
    assert code == 0
    return trace


class TestTracedTrain:
    def test_log_validates_against_schema(self, traced_run):
        run = RunLogReader.read(traced_run)  # validates every line
        assert len(run) > 0

    def test_manifest_identity_fields(self, traced_run, dataset_file):
        manifest = RunLogReader.read(traced_run).manifest
        assert manifest is not None
        fields = manifest["fields"]
        assert fields["command"] == "train"
        assert fields["method"] == "lightmirm"
        assert fields["seed"] == 1
        assert fields["data"] == str(dataset_file)
        assert fields["config"] == {"method": "lightmirm", "n_epochs": 6}
        assert set(fields["dataset"]) == {
            "n_samples", "n_features", "sha256"
        }

    def test_table_iii_reconstructable_offline(self, traced_run):
        run = RunLogReader.read(traced_run)
        by_label = {t.label: t for t in timing_tables(run)}
        assert "LightMIRM" in by_label
        table = by_label["LightMIRM"]
        assert table.n_epochs == 6
        assert set(table.mean_step_seconds) == set(STEP_NAMES)
        assert table.mean_step_seconds["inner_optimization"] > 0
        assert table.mean_step_seconds["calculating_meta_losses"] > 0
        assert table.mean_step_seconds["backward_propagation"] > 0
        assert table.mean_epoch_seconds > 0

    def test_convergence_curves_in_log(self, traced_run):
        run = RunLogReader.read(traced_run)
        for field in ("objective", "penalty", "meta_loss_total", "grad_norm"):
            curve = run.curve("epoch", field)
            assert [epoch for epoch, _ in curve] == list(range(6)), field

    def test_gbdt_layer_spans_present(self, traced_run):
        run = RunLogReader.read(traced_run)
        (fit,) = run.spans("pipeline.fit")
        assert fit["fields"]["trainer"] == "LightMIRM"
        (boosting,) = run.spans("gbdt.boosting.fit")
        (encode,) = run.spans("pipeline.encode_environments")
        assert boosting["parent"] == encode["parent"] == fit["id"]
        model = ModelRegistry.load_file(traced_run.with_name("model.json"))
        assert boosting["fields"]["trees"] == model.encoder.n_trees
        assert boosting["fields"]["rows"] > 0
        assert encode["fields"]["rows"] > 0
        # The GBDT stage is spans only: the events are the trainer's.
        assert {e["name"] for e in run.events()} == {"epoch", "epoch_time"}

    def test_untraced_train_writes_no_log(self, dataset_file, capsys):
        code = main([
            "train", "--method", "ERM", "--data", str(dataset_file),
            "--epochs", "2",
        ])
        assert code == 0
        assert "wrote run log" not in capsys.readouterr().out


class TestTraceClosedOnFailure:
    def test_train_raising_mid_fit_leaves_closed_log(
            self, dataset_file, tmp_path, monkeypatch, capsys):
        import repro.cli
        from repro.obs import load_run

        def failing_trainer(*args, **kwargs):
            trainer = make_trainer(*args, **kwargs)

            def step(*_):
                raise RuntimeError("trainer failed mid-fit")

            trainer._step = step
            return trainer

        monkeypatch.setattr(repro.cli, "make_trainer", failing_trainer)
        trace = tmp_path / "failed.jsonl"
        # The live traceback keeps the command's frames (and any tracer
        # they hold) alive, so only an explicit close flushes the log.
        with pytest.raises(RuntimeError, match="mid-fit") as failure:
            main(["train", "--method", "ERM", "--data", str(dataset_file),
                  "--epochs", "2", "--trace", str(trace)])
        assert failure.traceback
        run = load_run(trace)
        assert run.manifest["fields"]["command"] == "train"
        (fit,) = run.spans("pipeline.fit")
        assert fit["fields"]["trainer"] == "ERM"
        assert "wrote run log" not in capsys.readouterr().out


class TestObsReport:
    def test_report_renders_table_and_curves(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        for step in STEP_NAMES:
            assert step in out
        assert "the whole epoch" in out
        assert "Convergence of LightMIRM" in out
        assert "meta_loss_total" in out
        assert "Layers" in out
        assert "gbdt.boosting.fit" in out

    def test_summary_renders_headline(self, traced_run, capsys):
        assert main(["obs", "summary", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "LightMIRM: 6 epochs" in out
        assert "dominant step" in out
        assert "objective" in out

    def test_max_curve_rows_limits_output(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run),
                     "--max-curve-rows", "3"]) == 0
        out = capsys.readouterr().out
        assert "6 epochs, 3 shown" in out

    def test_diff_of_run_against_itself(self, traced_run, capsys):
        code = main(["obs", "diff", str(traced_run), str(traced_run)])
        assert code == 0
        out = capsys.readouterr().out
        assert "LightMIRM" in out
        assert "B/A" in out

    def test_diff_requires_two_paths(self, traced_run, capsys):
        assert main(["obs", "diff", str(traced_run)]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_report_requires_one_path(self, traced_run, capsys):
        code = main(["obs", "report", str(traced_run), str(traced_run)])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_report_rejects_malformed_log(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"mystery"}\n')
        from repro.obs.runlog import SchemaError

        with pytest.raises(SchemaError):
            main(["obs", "report", str(bad)])


class TestTracedVerify:
    def test_verify_smoke_trace_has_fit_per_trainer(self, tmp_path, capsys):
        trace = tmp_path / "verify.jsonl"
        main([
            "verify", "--smoke", "--epochs", "3",
            "--out", str(tmp_path / "VERIFY.json"), "--trace", str(trace),
        ])
        run = RunLogReader.read(trace)
        assert run.manifest["fields"]["command"] == "verify"
        fit_trainers = {
            s["fields"]["trainer"] for s in run.spans("fit")
        }
        from repro.train.registry import available_trainers

        assert set(available_trainers()) <= fit_trainers
        # Penalty sweeps re-fit penalised trainers: more fits than trainers.
        assert len(run.spans("fit")) > len(available_trainers())
