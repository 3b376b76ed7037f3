"""Unit tests for the run tracer and the JSONL run-log layer."""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.obs.report import Layer, format_report, layers
from repro.obs.runlog import (
    RunLog,
    RunLogReader,
    RunLogWriter,
    SCHEMA_VERSION,
    SchemaError,
    dataset_fingerprint,
    git_describe,
    new_run_id,
    run_manifest_fields,
    validate_record,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing import StepTimer


class TestTracerBuffer:
    def test_manifest_event_span_metrics_roundtrip(self):
        tracer = Tracer()
        tracer.write_manifest(command="test", seed=1)
        with tracer.span("outer", trainer="ERM"):
            tracer.event("tick", value=1.5)
        tracer.event("done", n=3)
        kinds = [r["kind"] for r in tracer.records]
        assert kinds == ["manifest", "event", "span", "event"]
        manifest, event, span, done = tracer.records
        assert manifest["schema"] == SCHEMA_VERSION
        assert manifest["run_id"] == tracer.run_id
        assert manifest["fields"] == {"command": "test", "seed": 1}
        assert event["fields"] == {"value": 1.5}
        assert span["fields"] == {"trainer": "ERM"}
        assert span["dur_s"] >= 0
        assert done["fields"] == {"n": 3}

    def test_span_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("deep")
            tracer.event("shallow")
        tracer.event("outside")
        spans = {r["name"]: r for r in tracer.records if r["kind"] == "span"}
        events = {r["name"]: r for r in tracer.records if r["kind"] == "event"}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert events["deep"]["span"] == spans["inner"]["id"]
        assert events["shallow"]["span"] == spans["outer"]["id"]
        assert events["outside"]["span"] is None

    def test_span_ids_unique(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("s"):
                pass
        tracer.record_span("r", 0.001)
        ids = [r["id"] for r in tracer.records]
        assert len(ids) == len(set(ids))

    def test_record_span_ends_now(self):
        tracer = Tracer()
        tracer.record_span("step:inner_optimization", 0.25, extra=1)
        (span,) = tracer.records
        assert span["kind"] == "span"
        assert span["dur_s"] == 0.25
        # The span ends "now": start_s + dur_s is the current tracer clock.
        assert span["start_s"] + span["dur_s"] >= 0
        assert span["fields"] == {"extra": 1}

    def test_span_record_written_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [r["name"] for r in tracer.records] == ["boom"]

    def test_every_buffered_record_validates(self):
        tracer = Tracer()
        tracer.write_manifest(command="t")
        with tracer.span("s"):
            tracer.event("e")
        tracer.event("after")
        for record in tracer.records:
            validate_record(record)


class TestTracerDisabled:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.run_id == ""

    def test_disabled_calls_are_noops(self):
        tracer = Tracer(enabled=False)
        tracer.write_manifest(command="t")
        tracer.event("e")
        tracer.record_span("s", 0.1)
        with tracer.span("region") as span_id:
            assert span_id is None

    def test_disabled_span_reuses_shared_context(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_disabled_attach_timer_leaves_hooks_unset(self):
        timer = StepTimer(enabled=False)
        NULL_TRACER.attach_timer(timer)
        assert timer.on_step is None
        assert timer.on_epoch is None


class TestTracerFile:
    def test_path_log_reads_back_validated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Tracer(path=path) as tracer:
            tracer.write_manifest(command="test")
            with tracer.span("fit", trainer="ERM"):
                tracer.event("epoch", epoch=0, objective=1.0)
        run = RunLogReader.read(path)
        assert len(run) == 3
        assert run.manifest["fields"]["command"] == "test"
        assert run.events("epoch")[0]["fields"]["objective"] == 1.0
        assert run.spans("fit")[0]["fields"]["trainer"] == "ERM"

    def test_path_and_sink_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Tracer(path=tmp_path / "x.jsonl", sink=object())

    def test_records_unavailable_with_path(self, tmp_path):
        tracer = Tracer(path=tmp_path / "run.jsonl")
        with pytest.raises(AttributeError, match="only buffered"):
            tracer.records
        tracer.close()

    def test_close_is_idempotent_and_disables(self, tmp_path):
        tracer = Tracer(path=tmp_path / "run.jsonl")
        tracer.event("e")
        tracer.close()
        assert tracer.enabled is False
        tracer.close()  # second close is a no-op
        tracer.event("late")  # disabled: dropped, not an error
        assert len(RunLogReader.read(tmp_path / "run.jsonl")) == 1

    def test_numpy_fields_serialize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Tracer(path=path) as tracer:
            tracer.event(
                "e",
                f=np.float64(1.5),
                i=np.int64(2),
                a=np.array([1.0, 2.0]),
            )
        fields = RunLogReader.read(path).events("e")[0]["fields"]
        assert fields == {"f": 1.5, "i": 2, "a": [1.0, 2.0]}


class TestAttachTimer:
    def test_steps_become_spans_and_epochs_events(self):
        tracer = Tracer()
        timer = StepTimer(enabled=True)
        tracer.attach_timer(timer)
        with tracer.span("fit", trainer="ERM"):
            with timer.epoch():
                with timer.step("inner_optimization"):
                    time.sleep(0.001)
        step_spans = [
            r for r in tracer.records
            if r["kind"] == "span" and r["name"].startswith("step:")
        ]
        assert [s["name"] for s in step_spans] == ["step:inner_optimization"]
        assert step_spans[0]["dur_s"] == pytest.approx(
            timer.stats["inner_optimization"].total_seconds
        )
        fit_span = next(
            r for r in tracer.records
            if r["kind"] == "span" and r["name"] == "fit"
        )
        assert step_spans[0]["parent"] == fit_span["id"]
        epoch_events = [
            r for r in tracer.records
            if r["kind"] == "event" and r["name"] == "epoch_time"
        ]
        assert len(epoch_events) == 1
        assert epoch_events[0]["fields"]["seconds"] == pytest.approx(
            timer.epoch_seconds[0]
        )


class TestValidateRecord:
    def test_rejects_non_object(self):
        with pytest.raises(SchemaError, match="not a JSON object"):
            validate_record([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown record kind"):
            validate_record({"kind": "trace", "fields": {}})

    def test_rejects_metrics_record(self):
        # Schema v3 has no metrics kind: a v2 metrics line names it.
        with pytest.raises(SchemaError,
                           match="unknown record kind 'metrics'"):
            validate_record({"kind": "metrics", "t_s": 0.0, "fields": {}})

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError, match="missing keys"):
            validate_record({"kind": "event", "name": "e", "fields": {}})

    def test_rejects_non_object_fields(self):
        with pytest.raises(SchemaError, match="'fields' is not an object"):
            validate_record({
                "kind": "event", "name": "e", "t_s": 0.0, "span": None,
                "fields": [],
            })

    def test_error_carries_line_number(self):
        with pytest.raises(SchemaError, match="line 7"):
            validate_record("nope", line=7)


class TestRunLogReaderWriter:
    def test_writer_counts_and_rejects_after_close(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = RunLogWriter(path)
        writer.write({"kind": "event", "name": "e", "t_s": 0.0,
                      "span": None, "fields": {}})
        assert writer.n_written == 1
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.write({"kind": "event"})

    def test_reader_flags_invalid_json_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"event","name":"e","t_s":0,"span":null,"fields":{}}\n'
                        'not json\n')
        with pytest.raises(SchemaError, match="line 2: invalid JSON"):
            RunLogReader.read(path)

    def test_reader_flags_schema_violation_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"span","fields":{}}\n')
        with pytest.raises(SchemaError, match="line 1"):
            RunLogReader.read(path)

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('\n{"kind":"event","name":"e","t_s":0,"span":null,"fields":{}}\n\n')
        assert len(RunLogReader.read(path)) == 1


class TestRunLogQueries:
    def _log(self):
        records = [
            {"kind": "manifest", "schema": 1, "run_id": "r",
             "created_unix": 0.0, "fields": {"command": "t"}},
            {"kind": "event", "name": "epoch", "t_s": 0.1, "span": None,
             "fields": {"epoch": 0, "objective": 2.0}},
            {"kind": "event", "name": "epoch", "t_s": 0.2, "span": None,
             "fields": {"epoch": 1, "objective": 1.0}},
            {"kind": "event", "name": "other", "t_s": 0.3, "span": None,
             "fields": {}},
            {"kind": "span", "name": "fit", "id": 0, "parent": None,
             "start_s": 0.0, "dur_s": 0.5, "fields": {}},
        ]
        return RunLog(records)

    def test_filters(self):
        run = self._log()
        assert run.manifest["run_id"] == "r"
        assert len(run.events()) == 3
        assert len(run.events("epoch")) == 2
        assert len(run.spans("fit")) == 1
        assert run.spans("missing") == []

    def test_curve_skips_incomplete_events(self):
        run = self._log()
        assert run.curve("epoch", "objective") == [(0, 2.0), (1, 1.0)]
        assert run.curve("epoch", "missing_field") == []
        assert run.curve("other", "objective") == []

    def test_manifest_less_log(self):
        assert RunLog([]).manifest is None


def _span(span_id, name, start, dur, parent=None):
    return {"kind": "span", "name": name, "id": span_id, "parent": parent,
            "start_s": start, "dur_s": dur, "fields": {}}


class TestLayers:
    def test_self_time_subtracts_direct_children(self):
        run = RunLog([
            _span(1, "child", 0.1, 0.3, parent=0),
            _span(2, "child", 0.5, 0.2, parent=0),
            _span(0, "parent", 0.0, 1.0),
        ])
        by_name = {layer.name: layer for layer in layers(run)}
        assert by_name["parent"].self_seconds == pytest.approx(0.5)
        assert by_name["child"] == Layer("child", 2, pytest.approx(0.5),
                                         pytest.approx(0.5))

    def test_overlapping_children_counted_once(self):
        run = RunLog([
            _span(1, "worker", 0.1, 0.4, parent=0),  # [0.1, 0.5]
            _span(2, "worker", 0.3, 0.3, parent=0),  # [0.3, 0.6]
            _span(0, "parent", 0.0, 1.0),
        ])
        (parent,) = [l for l in layers(run) if l.name == "parent"]
        assert parent.self_seconds == pytest.approx(0.5)

    def test_children_outside_the_parent_are_clipped(self):
        run = RunLog([
            _span(1, "late", 0.5, 1.0, parent=0),   # [0.5, 1.5]
            _span(2, "whole", -1.0, 3.0, parent=3),
            _span(0, "parent", 0.0, 1.0),
            _span(3, "covered", 0.0, 1.0),
        ])
        by_name = {layer.name: layer for layer in layers(run)}
        assert by_name["parent"].self_seconds == pytest.approx(0.5)
        assert by_name["covered"].self_seconds == 0.0

    def test_steps_are_children_not_layers(self):
        run = RunLog([
            _span(2, "step:inner_optimization", 0.2, 0.2, parent=1),
            _span(1, "fit", 0.1, 0.5, parent=0),
            _span(0, "pipeline.fit", 0.0, 1.0),
        ])
        rows = layers(run)
        assert [layer.name for layer in rows] == ["pipeline.fit", "fit"]
        # Only direct children count: the step leaves pipeline.fit alone.
        assert rows[0].self_seconds == pytest.approx(0.5)
        assert rows[1].self_seconds == pytest.approx(0.3)
        assert "Layers" in format_report(run)


class TestManifestHelpers:
    def test_run_manifest_fields_payload(self):
        @dataclasses.dataclass
        class Cfg:
            n_epochs: int = 3

        fields = run_manifest_fields(
            "train", config=Cfg(), seed=5, method="ERM"
        )
        assert fields["command"] == "train"
        assert fields["config"] == {"n_epochs": 3}
        assert fields["seed"] == 5
        assert fields["method"] == "ERM"
        assert "python" in fields and "git" in fields

    def test_git_describe_in_this_repo(self):
        described = git_describe()
        assert described is None or isinstance(described, str)

    def test_dataset_fingerprint_stable(self, small_dataset):
        a = dataset_fingerprint(small_dataset)
        b = dataset_fingerprint(small_dataset)
        assert a == b
        assert a["n_samples"] == small_dataset.n_samples
        assert a["n_features"] == small_dataset.n_features
        assert len(a["sha256"]) == 16

    def test_new_run_ids_unique(self):
        ids = {new_run_id() for _ in range(20)}
        assert len(ids) == 20


class TestJsonCompatibility:
    def test_buffered_records_are_json_serializable(self):
        tracer = Tracer()
        tracer.write_manifest(command="t", seed=0)
        with tracer.span("fit", trainer="ERM"):
            tracer.event("epoch", epoch=0, objective=1.0)
        tracer.event("done")
        for record in tracer.records:
            json.dumps(record)
