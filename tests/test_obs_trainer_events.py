"""Every registered trainer must leave a schema-conforming trace.

The observability contract: fitting any trainer from the registry with a
tracer attached produces (a) a ``fit`` span labelled with the trainer
name, (b) one ``epoch`` event per epoch carrying the convergence fields,
and (c) ``step:<name>`` spans that let the report layer reconstruct the
Table III per-step timings.  Tracing must never perturb the training
itself.
"""

import collections

import numpy as np
import pytest

from repro.eval.tracking import KSTrackingCallback
from repro.gbdt.boosting import GBDTParams
from repro.models.logistic import LogisticModel
from repro.obs.report import TimingTable, load_run, timing_tables
from repro.obs.runlog import RunLog, RunLogWriter, validate_record
from repro.obs.tracer import Tracer
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.timing import STEP_NAMES, StepTimer
from repro.train.registry import (
    available_trainers,
    make_trainer,
    penalty_parameter,
)

N_EPOCHS = 3


def _traced_fit(name, tiny_envs, n_epochs=N_EPOCHS, **overrides):
    trainer = make_trainer(name, n_epochs=n_epochs, seed=0, **overrides)
    tracer = Tracer()
    result = trainer.fit(tiny_envs, tracer=tracer)
    return result, tracer


class TestEventSchemaAllTrainers:
    @pytest.mark.parametrize("name", available_trainers())
    def test_fit_span_and_epoch_events(self, name, tiny_envs):
        _, tracer = _traced_fit(name, tiny_envs)
        records = tracer.records
        for record in records:
            validate_record(record)

        fit_spans = [
            r for r in records if r["kind"] == "span" and r["name"] == "fit"
        ]
        assert len(fit_spans) == 1
        assert fit_spans[0]["fields"]["trainer"] == name
        assert fit_spans[0]["fields"]["n_environments"] == len(tiny_envs)

        epoch_events = [
            r for r in records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        assert len(epoch_events) == N_EPOCHS
        env_names = {env.name for env in tiny_envs}
        for i, event in enumerate(epoch_events):
            fields = event["fields"]
            assert fields["trainer"] == name
            assert fields["epoch"] == i
            assert np.isfinite(fields["objective"])
            assert set(fields["env_losses"]) == env_names
            assert all(np.isfinite(v) for v in fields["env_losses"].values())
            assert np.isfinite(fields["grad_norm"])

    @pytest.mark.parametrize("name", available_trainers())
    def test_penalty_field_present_for_penalised_trainers(
        self, name, tiny_envs
    ):
        _, tracer = _traced_fit(name, tiny_envs)
        epoch_fields = [
            r["fields"] for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        if penalty_parameter(name) is not None:
            assert all("penalty" in f for f in epoch_fields)
            assert all(f["penalty"] >= 0 for f in epoch_fields)
        else:
            assert all("penalty" not in f for f in epoch_fields)

    @pytest.mark.parametrize("name", available_trainers())
    def test_epoch_events_mirror_history(self, name, tiny_envs):
        result, tracer = _traced_fit(name, tiny_envs)
        epoch_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        for event, objective in zip(epoch_events, result.history.objective):
            assert event["fields"]["objective"] == pytest.approx(objective)


class TestTimingReconstruction:
    def test_lightmirm_table_iii_from_log_alone(self, tiny_envs):
        _, tracer = _traced_fit("LightMIRM", tiny_envs, n_epochs=4)
        tables = timing_tables(RunLog(tracer.records))
        by_label = {t.label: t for t in tables}
        assert "LightMIRM" in by_label
        table = by_label["LightMIRM"]
        assert table.n_epochs == 4
        assert set(table.mean_step_seconds) == set(STEP_NAMES)
        # The three substantive Algorithm 2 steps must have measured time.
        for step in ("inner_optimization", "calculating_meta_losses",
                     "backward_propagation"):
            assert table.mean_step_seconds[step] > 0
        assert table.mean_epoch_seconds > 0

    def test_epoch_time_events_emitted(self, tiny_envs):
        _, tracer = _traced_fit("LightMIRM", tiny_envs, n_epochs=4)
        epoch_times = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch_time"
        ]
        assert len(epoch_times) == 4
        assert all(r["fields"]["seconds"] > 0 for r in epoch_times)


class TestTimerAndLogAgree:
    """The step timer and the run log of one fit give one Table III.

    Both sides add the same floats in the same order (the log's step spans
    carry the timer's own measurements), so the columns are equal with
    ``==``, not approximately.
    """

    @pytest.mark.parametrize("name", available_trainers())
    def test_trainer_fit(self, name, tiny_envs):
        timer, tracer = StepTimer(), Tracer()
        make_trainer(name, n_epochs=4, seed=0).fit(
            tiny_envs, timer=timer, tracer=tracer
        )
        (logged,) = timing_tables(RunLog(tracer.records))
        assert logged == TimingTable.from_timer(name, timer, 4)

    def test_pipeline_fit(self, small_split, tmp_path):
        timer, tracer = StepTimer(), Tracer()
        pipeline = LoanDefaultPipeline(
            make_trainer("LightMIRM", n_epochs=3, seed=0),
            gbdt_params=GBDTParams(n_trees=3),
        )
        pipeline.fit(small_split.train, timer=timer, tracer=tracer)
        expected = TimingTable.from_timer("LightMIRM", timer, 3)
        # The one-off encode is in the trainer's column: no "(run)" column.
        assert timing_tables(RunLog(tracer.records)) == [expected]
        assert expected.step("transforming_format") > 0

        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            for record in tracer.records:
                writer.write(record)
        assert timing_tables(load_run(path)) == [expected]


class TestLightMIRMExtras:
    def test_meta_fields_present(self, tiny_envs):
        _, tracer = _traced_fit("LightMIRM", tiny_envs)
        env_names = {env.name for env in tiny_envs}
        epoch_fields = [
            r["fields"] for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        assert len(epoch_fields) == N_EPOCHS
        for fields in epoch_fields:
            assert np.isfinite(fields["meta_loss_total"])
            assert set(fields["meta_losses"]) == env_names
            assert len(fields["sampled_envs"]) == len(tiny_envs)
            assert 0 < fields["mrq_occupancy"] <= 1
            assert fields["mrq_decay_mass"] > 0

    def test_mrq_diagnostics_monotone_while_filling(self, tiny_envs):
        """Occupancy and decay mass grow until the queues saturate."""
        _, tracer = _traced_fit("LightMIRM", tiny_envs, n_epochs=8,
                                queue_length=5)
        epoch_fields = [
            r["fields"] for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        occupancy = [f["mrq_occupancy"] for f in epoch_fields]
        mass = [f["mrq_decay_mass"] for f in epoch_fields]
        assert occupancy == sorted(occupancy)
        assert mass == sorted(mass)
        # 8 epochs with queue length 5: every queue is full at the end.
        assert occupancy[-1] == pytest.approx(1.0)
        assert occupancy[4] == pytest.approx(1.0)

    def test_sampled_env_never_self(self, tiny_envs):
        _, tracer = _traced_fit("LightMIRM", tiny_envs, n_epochs=20)
        names = [env.name for env in tiny_envs]
        for record in tracer.records:
            if record["kind"] == "event" and record["name"] == "epoch":
                sampled = record["fields"]["sampled_envs"]
                for own, other in zip(names, sampled):
                    assert other != own
                    assert other in names

    def test_sampling_is_uniform_over_other_environments(self, tiny_envs):
        """Algorithm 2 line 8: s_m is uniform over the other environments.

        With 3 environments and E epochs, each (m, other) pair is a
        Binomial(E, 1/2): E=240 keeps a +-25% band at more than 5 sigma,
        so this is a deterministic regression test, not a flaky one.
        """
        n_epochs = 240
        _, tracer = _traced_fit("LightMIRM", tiny_envs, n_epochs=n_epochs)
        names = [env.name for env in tiny_envs]
        pair_counts: collections.Counter = collections.Counter()
        for record in tracer.records:
            if record["kind"] == "event" and record["name"] == "epoch":
                for own, other in zip(names, record["fields"]["sampled_envs"]):
                    pair_counts[(own, other)] += 1
        assert sum(pair_counts.values()) == n_epochs * len(names)
        for own in names:
            for other in names:
                if other == own:
                    assert (own, other) not in pair_counts
                    continue
                count = pair_counts[(own, other)]
                assert 0.75 * n_epochs / 2 <= count <= 1.25 * n_epochs / 2, (
                    f"sampling of {other} from {own} not uniform: "
                    f"{count}/{n_epochs}"
                )


class TestFineTuneTrace:
    def test_finetune_span_and_env_events(self, tiny_envs):
        _, tracer = _traced_fit("ERM + fine-tuning", tiny_envs)
        spans = [r for r in tracer.records if r["kind"] == "span"]
        assert any(
            s["name"] == "finetune"
            and s["fields"]["trainer"] == "ERM + fine-tuning"
            for s in spans
        )
        env_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "finetune_env"
        ]
        assert [e["fields"]["environment"] for e in env_events] == [
            env.name for env in tiny_envs
        ]
        assert all(
            np.isfinite(e["fields"]["final_loss"]) for e in env_events
        )

    def test_base_phase_attributed_to_finetune_name(self, tiny_envs):
        _, tracer = _traced_fit("ERM + fine-tuning", tiny_envs)
        epoch_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        assert epoch_events
        assert all(
            e["fields"]["trainer"] == "ERM + fine-tuning"
            for e in epoch_events
        )


class TestTracingDoesNotPerturbTraining:
    @pytest.mark.parametrize(
        "name", ["ERM", "Group DRO", "meta-IRM", "LightMIRM"]
    )
    def test_theta_identical_with_and_without_tracer(self, name, tiny_envs):
        plain = make_trainer(name, n_epochs=5, seed=0).fit(tiny_envs)
        traced, _ = _traced_fit(name, tiny_envs, n_epochs=5)
        np.testing.assert_array_equal(plain.theta, traced.theta)


class TestKSTrackingEvents:
    def test_tracked_epochs_emit_events(self, tiny_envs):
        model = LogisticModel(tiny_envs[0].features.shape[1])
        tracer = Tracer()
        callback = KSTrackingCallback(model, tiny_envs, every=2,
                                      tracer=tracer)
        theta = model.init_params(0)
        for epoch in range(5):
            callback(epoch, theta)
        events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "ks_tracking"
        ]
        assert [e["fields"]["epoch"] for e in events] == [0, 2, 4]
        assert all(e["fields"]["statistic"] == "mean" for e in events)
        assert [e["fields"]["ks"] for e in events] == [
            value for _, value in callback.curve
        ]

    def test_default_callback_stays_silent(self, tiny_envs):
        model = LogisticModel(tiny_envs[0].features.shape[1])
        callback = KSTrackingCallback(model, tiny_envs)
        assert callback.tracer.enabled is False
        assert callback(0, model.init_params(0)) is not None

    def test_through_trainer_fit(self, tiny_envs):
        tracer = Tracer()
        trainer = make_trainer("ERM", n_epochs=4, seed=0)
        model = LogisticModel(tiny_envs[0].features.shape[1])
        callback = KSTrackingCallback(model, tiny_envs, tracer=tracer)
        trainer.fit(tiny_envs, callback=callback, tracer=tracer)
        ks_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "ks_tracking"
        ]
        assert len(ks_events) == 4
        # Tracked values also land in the epoch events' "tracked" field.
        epoch_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch"
        ]
        assert all("tracked" in e["fields"] for e in epoch_events)
