"""Tests for the versioned model registry (repro.serve.registry)."""

import json

import numpy as np
import pytest

from repro.persist import pipeline_to_payload
from repro.serve.registry import CHALLENGER, CHAMPION, ModelRegistry


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "reg")


class TestSaveLoad:
    def test_first_save_auto_promotes_champion(self, registry,
                                               fitted_pipeline):
        version = registry.save(fitted_pipeline)
        assert version == "v0001"
        assert registry.slots() == {CHAMPION: "v0001"}

    def test_versions_are_sequential(self, registry, fitted_pipeline):
        assert registry.save(fitted_pipeline) == "v0001"
        assert registry.save(fitted_pipeline) == "v0002"
        assert [v.version for v in registry.versions()] == ["v0001", "v0002"]

    def test_round_trip_scores_bit_identical(self, registry, fitted_pipeline,
                                             small_split):
        registry.save(fitted_pipeline)
        model = registry.load(CHAMPION)
        restored = model.predict_proba(small_split.test.features)
        original = fitted_pipeline.predict_proba(small_split.test)
        np.testing.assert_array_equal(restored, original)

    def test_load_by_version_id(self, registry, fitted_pipeline, small_split):
        version = registry.save(fitted_pipeline)
        by_slot = registry.load(CHAMPION)
        by_version = registry.load(version)
        np.testing.assert_array_equal(
            by_slot.predict_proba(small_split.test.features),
            by_version.predict_proba(small_split.test.features),
        )

    def test_save_into_challenger_slot(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        registry.save(fitted_pipeline, slot=CHALLENGER)
        assert registry.slots() == {CHAMPION: "v0001", CHALLENGER: "v0002"}

    def test_metadata_round_trips(self, registry, fitted_pipeline):
        version = registry.save(fitted_pipeline, metadata={"run": "weekly"})
        assert registry.describe(version).metadata == {"run": "weekly"}
        assert registry.load(version).metadata == {"run": "weekly"}

    def test_unknown_ref_raises(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        with pytest.raises(KeyError):
            registry.load("v0099")

    def test_empty_slot_raises(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        with pytest.raises(KeyError):
            registry.load(CHALLENGER)

    def test_bad_slot_name_rejected(self, registry, fitted_pipeline):
        with pytest.raises(ValueError):
            registry.save(fitted_pipeline, slot="production")


class TestLifecycle:
    def test_promote_then_rollback(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)  # v0001, auto champion
        v2 = registry.save(fitted_pipeline)
        registry.promote(v2)
        assert registry.slots()[CHAMPION] == "v0002"
        assert registry.rollback() == "v0001"
        assert registry.slots()[CHAMPION] == "v0001"

    def test_rollback_without_history_raises(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        with pytest.raises(KeyError):
            registry.rollback()

    def test_rollback_walks_history_backwards(self, registry,
                                              fitted_pipeline):
        for _ in range(3):
            registry.save(fitted_pipeline)
        registry.promote("v0002")
        registry.promote("v0003")
        assert registry.rollback() == "v0002"
        assert registry.rollback() == "v0001"

    def test_promote_unknown_version_raises(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        with pytest.raises(KeyError):
            registry.promote("v0042")

    def test_repeated_promote_same_version_no_history(self, registry,
                                                      fitted_pipeline):
        registry.save(fitted_pipeline)
        registry.promote("v0001")
        with pytest.raises(KeyError):
            registry.rollback()


class TestOnDisk:
    def test_layout_and_no_temp_leftovers(self, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        registry.save(fitted_pipeline, slot=CHALLENGER)
        assert (registry.root / "registry.json").exists()
        assert (registry.root / "models" / "v0001.json").exists()
        assert not list(registry.root.rglob("*.tmp"))

    def test_unsupported_index_format_rejected(self, registry,
                                               fitted_pipeline):
        registry.save(fitted_pipeline)
        index = json.loads(registry.index_path.read_text())
        index["format"] = 99
        registry.index_path.write_text(json.dumps(index))
        with pytest.raises(ValueError):
            registry.slots()


class TestSingleFileSurface:
    def test_save_file_load_file_round_trip(self, tmp_path, fitted_pipeline,
                                            small_split):
        path = tmp_path / "model.json"
        ModelRegistry.save_file(fitted_pipeline, path, metadata={"a": 1})
        model = ModelRegistry.load_file(path)
        assert model.metadata == {"a": 1}
        np.testing.assert_array_equal(
            model.predict_proba(small_split.test.features),
            fitted_pipeline.predict_proba(small_split.test),
        )

    def test_file_and_registry_artifacts_interchange(self, tmp_path, registry,
                                                     fitted_pipeline):
        version = registry.save(fitted_pipeline)
        entry = registry.describe(version)
        model = ModelRegistry.load_file(registry.root / entry.path)
        assert model.trainer_name == entry.trainer_name

    def test_old_artifact_loads_on_new_surface(self, tmp_path,
                                               fitted_pipeline, small_split):
        """Files written pre-registry (a bare JSON payload) still load."""
        old_path = tmp_path / "legacy.json"
        old_path.write_text(json.dumps(pipeline_to_payload(fitted_pipeline)))
        model = ModelRegistry.load_file(old_path)
        np.testing.assert_array_equal(
            model.predict_proba(small_split.test.features),
            fitted_pipeline.predict_proba(small_split.test),
        )


class TestImportFile:
    def test_import_registers_and_promotes(self, tmp_path, registry,
                                           fitted_pipeline, small_split):
        path = tmp_path / "external.json"
        ModelRegistry.save_file(fitted_pipeline, path, metadata={"a": 1})
        version = registry.import_file(path, metadata={"bench": "scale"})
        assert version == "v0001"
        assert registry.slots() == {CHAMPION: "v0001"}
        model = registry.load(CHAMPION)
        assert model.metadata == {"a": 1, "bench": "scale"}
        np.testing.assert_array_equal(
            model.predict_proba(small_split.test.features),
            fitted_pipeline.predict_proba(small_split.test),
        )

    def test_import_into_slot(self, tmp_path, registry, fitted_pipeline):
        registry.save(fitted_pipeline)
        path = tmp_path / "external.json"
        ModelRegistry.save_file(fitted_pipeline, path)
        registry.import_file(path, slot=CHALLENGER)
        assert registry.slots() == {CHAMPION: "v0001", CHALLENGER: "v0002"}

    def test_import_rejects_invalid_payload(self, tmp_path, registry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a model"}))
        with pytest.raises((KeyError, ValueError)):
            registry.import_file(path)
        assert registry.versions() == []


# ------------------------- multiprocess contention (module-level workers)


def _contend_worker(root, artifact_path, n_rounds, worker_idx, errors):
    """Import/promote/rollback in a tight loop from one competing process.

    Each round promotes two fresh versions before rolling back once, so
    under any interleaving the shared slot history holds at least one
    entry whenever a rollback pops it — every failure the queue reports
    is therefore a real registry race, not test scheduling.
    """
    registry = ModelRegistry(root)
    try:
        for round_idx in range(n_rounds):
            for step in range(2):
                version = registry.import_file(
                    artifact_path,
                    metadata={"worker": worker_idx, "round": round_idx,
                              "step": step},
                )
                registry.promote(version)
            registry.rollback()
    except Exception as exc:  # noqa: BLE001 - surfaced to the test
        errors.put(f"worker {worker_idx}: {exc!r}")


def _torn_read_detector(root, stop, errors):
    """Hammer the index with reads; any torn/inconsistent view is a bug."""
    import pathlib

    index_path = pathlib.Path(root) / "registry.json"
    while not stop.is_set():
        if not index_path.exists():
            continue
        try:
            index = json.loads(index_path.read_text())
        except json.JSONDecodeError as exc:
            errors.put(f"torn index read: {exc!r}")
            return
        versions = index.get("versions", {})
        for slot, version in index.get("slots", {}).items():
            if version not in versions:
                errors.put(f"slot {slot!r} dangles at {version!r}")
                return


class TestMultiprocessContention:
    def test_concurrent_import_promote_rollback_never_tears(
            self, tmp_path, fitted_pipeline):
        """N processes import/promote/rollback at once; the ``os.replace``
        index must never expose a torn or inconsistent read, and no
        version id may be lost or duplicated (the race the registry lock
        exists to prevent)."""
        import multiprocessing

        context = multiprocessing.get_context()
        root = tmp_path / "contended"
        artifact = tmp_path / "artifact.json"
        ModelRegistry.save_file(fitted_pipeline, artifact)

        n_workers, n_rounds = 3, 4
        errors = context.Queue()
        stop = context.Event()
        reader = context.Process(
            target=_torn_read_detector, args=(root, stop, errors)
        )
        reader.start()
        writers = [
            context.Process(
                target=_contend_worker,
                args=(root, artifact, n_rounds, idx, errors),
            )
            for idx in range(n_workers)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
        stop.set()
        reader.join(timeout=30)

        problems = []
        while not errors.empty():
            problems.append(errors.get())
        assert problems == []

        registry = ModelRegistry(root)
        versions = [entry.version for entry in registry.versions()]
        expected = n_workers * n_rounds * 2  # two imports per round
        assert len(versions) == expected
        assert versions == [f"v{i:04d}" for i in range(1, expected + 1)]
        # Every artifact is intact and loadable, and the slots resolve.
        for version in versions:
            registry.load(version)
        slots = registry.slots()
        assert slots[CHAMPION] in versions
