"""Unit tests of the process-pool engine and shared-memory packs."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data.dataset import EnvironmentData
from repro.gbdt.leaf_encoder import LeafDesign
from repro.parallel import (
    ParallelEngine,
    SharedArrayPack,
    WorkerTaskError,
    environments_from_arrays,
    environments_to_arrays,
    spawn_task_seeds,
)

# Worker functions must be module-level to cross process boundaries.


def _square(x: int) -> int:
    return x * x


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError(f"boom {x}")
    return x


_INIT_CALLS: list[str] = []


def _record_init(tag: str) -> None:
    _INIT_CALLS.append(tag)


class TestParallelEngine:
    def test_results_in_submission_order(self):
        results = ParallelEngine(n_jobs=2).map(_square, range(7))
        assert results == [x * x for x in range(7)]

    def test_serial_is_the_same_map(self):
        serial = ParallelEngine(n_jobs=1).map(_square, range(7))
        pooled = ParallelEngine(n_jobs=3).map(_square, range(7))
        assert serial == pooled

    def test_more_payloads_than_workers(self):
        results = ParallelEngine(n_jobs=2).map(_square, range(20))
        assert results == [x * x for x in range(20)]

    def test_worker_exception_surfaces_with_index(self):
        with pytest.raises(WorkerTaskError) as excinfo:
            ParallelEngine(n_jobs=2).map(_fail_on_two, [0, 2, 1, 2])
        assert excinfo.value.index == 1
        assert "boom 2" in str(excinfo.value)
        assert "ValueError" in excinfo.value.worker_traceback

    def test_inline_exception_is_raw(self):
        # n_jobs=1 never crosses a process boundary, so the original
        # exception (with its real traceback) propagates unwrapped.
        with pytest.raises(ValueError, match="boom 2"):
            ParallelEngine(n_jobs=1).map(_fail_on_two, [0, 2])

    def test_inline_initializer_runs_once_first(self):
        _INIT_CALLS.clear()
        ParallelEngine(n_jobs=1).map(
            _square, range(3), initializer=_record_init, initargs=("x",)
        )
        assert _INIT_CALLS == ["x"]

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            ParallelEngine(n_jobs=0)

    def test_empty_payloads(self):
        assert ParallelEngine(n_jobs=1).map(_square, []) == []


class TestSpawnTaskSeeds:
    def test_deterministic(self):
        assert spawn_task_seeds(7, 5) == spawn_task_seeds(7, 5)

    def test_pairwise_distinct(self):
        seeds = spawn_task_seeds(7, 64)
        assert len(set(seeds)) == len(seeds)

    def test_entropy_changes_streams(self):
        assert spawn_task_seeds(7, 4) != spawn_task_seeds(8, 4)

    def test_sequence_entropy(self):
        seeds = spawn_task_seeds((7, 0, 1), 3)
        assert len(seeds) == 3
        assert all(isinstance(s, int) and s >= 0 for s in seeds)


class TestSharedArrayPack:
    def test_round_trip_through_pickled_spec(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1, 2, 3], dtype=np.int32),
            "c": np.array([[True, False]]),
        }
        pack = SharedArrayPack.pack(arrays, meta={"tag": "t"})
        try:
            spec = pickle.loads(pickle.dumps(pack.spec))
            attached = SharedArrayPack.attach(spec)
            views = attached.arrays()
            for key, array in arrays.items():
                np.testing.assert_array_equal(views[key], array)
                assert views[key].dtype == array.dtype
            assert spec.metadata() == {"tag": "t"}
            attached.close()
        finally:
            pack.dispose()

    def test_views_are_read_only(self):
        pack = SharedArrayPack.pack({"a": np.zeros(4)})
        try:
            view = SharedArrayPack.attach(pack.spec).arrays()["a"]
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 1.0
        finally:
            pack.dispose()

    def test_offsets_are_aligned(self):
        pack = SharedArrayPack.pack({
            "odd": np.zeros(3, dtype=np.int8),
            "next": np.zeros(5, dtype=np.float64),
        })
        try:
            for entry in pack.spec.entries:
                assert entry.offset % 64 == 0
        finally:
            pack.dispose()

    def test_dispose_is_idempotent(self):
        pack = SharedArrayPack.pack({"a": np.zeros(2)})
        pack.dispose()
        pack.dispose()


class TestEnvironmentRoundTrip:
    def _environments(self) -> list[EnvironmentData]:
        rng = np.random.default_rng(0)
        dense = EnvironmentData(
            "DenseProv", rng.standard_normal((6, 3)),
            rng.integers(0, 2, 6).astype(float),
        )
        design = LeafDesign(rng.integers(0, 5, size=(3, 8)), 5)
        design_env = EnvironmentData(
            "DesignProv", design, rng.integers(0, 2, 8).astype(float)
        )
        return [dense, design_env]

    def test_round_trip(self):
        environments = self._environments()
        arrays, meta = environments_to_arrays(environments, "train")
        pack = SharedArrayPack.pack(arrays, meta)
        try:
            attached = SharedArrayPack.attach(pack.spec)
            rebuilt = environments_from_arrays(
                attached.arrays(), attached.spec.metadata(), "train"
            )
            assert [e.name for e in rebuilt] == [e.name for e in environments]
            for original, copy in zip(environments, rebuilt):
                np.testing.assert_array_equal(original.labels, copy.labels)
                if isinstance(original.features, LeafDesign):
                    assert isinstance(copy.features, LeafDesign)
                    assert copy.features.shape == original.features.shape
                    # Still a read-only view into the block, not a copy.
                    assert not copy.features.columns.flags.writeable
                    np.testing.assert_array_equal(
                        original.features.columns, copy.features.columns
                    )
                else:
                    np.testing.assert_array_equal(
                        original.features, copy.features
                    )
        finally:
            pack.dispose()

    def test_prefixes_do_not_collide(self):
        environments = self._environments()
        train_arrays, train_meta = environments_to_arrays(
            environments, "train"
        )
        test_arrays, test_meta = environments_to_arrays(
            environments[:1], "test"
        )
        train_arrays.update(test_arrays)
        train_meta.update(test_meta)
        pack = SharedArrayPack.pack(train_arrays, train_meta)
        try:
            attached = SharedArrayPack.attach(pack.spec)
            meta = attached.spec.metadata()
            train = environments_from_arrays(attached.arrays(), meta, "train")
            test = environments_from_arrays(attached.arrays(), meta, "test")
            assert len(train) == 2 and len(test) == 1
        finally:
            pack.dispose()
