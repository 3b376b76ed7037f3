"""Golden suite: cached-attach encodings vs fresh fit + leaf-encode.

The extractor-encoding cache is only admissible if attaching a published
pack reproduces, **byte for byte**, what a trial would have computed by
fitting the GBDT and leaf-encoding inline.  These tests pin that
contract directly at the array level (leaf column ids and labels,
float64 and float32 inputs) and end-to-end at the leaderboard
level; and no published pack outlives the search that published it.
"""

import numpy as np
import pytest

from repro.data.dataset import EnvironmentData
from repro.gbdt import fit_extractor_encode
from repro.parallel.shared import (
    SharedArrayPack,
    environments_from_arrays,
    pack_train_test,
)
from repro.pipeline.extractor import default_gbdt_params
from repro.tune import (
    asha,
    extractor_cache,
    ASHAConfig,
    HPSpace,
    default_space,
    ranked_trials,
    run_joint_asha,
    split_environments,
)
from repro.tune.space import EXTRACTOR_COMPONENT, Choice


def synthetic_environments(dtype, n_per_env=120, n_features=12, seed=5):
    rng = np.random.default_rng(seed)
    environments = []
    for name in ("zhejiang", "shandong", "gansu"):
        features = rng.normal(size=(n_per_env, n_features)).astype(dtype)
        logits = features[:, 0] - 0.5 * features[:, 1]
        labels = (logits + rng.normal(size=n_per_env) > 0).astype(np.int64)
        labels[:3] = [0, 1, 1]  # both classes in every environment
        environments.append(EnvironmentData(name, features, labels))
    return environments


def encode_split(environments, holdout_seed=0):
    """The pure pipeline both cache modes run: fit + encode, then split."""
    params = default_gbdt_params().replace_flat({"n_trees": 8})
    _, encoded, _ = fit_extractor_encode(
        params, environments, holdout_seed=holdout_seed
    )
    return split_environments(encoded, 0.25, seed=holdout_seed)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestByteIdentity:
    def test_attached_encoding_is_byte_identical(self, dtype):
        environments = synthetic_environments(dtype)
        fit_envs, valid_envs = encode_split(environments)
        pack = pack_train_test(fit_envs, valid_envs)
        try:
            attached = SharedArrayPack.attach(pack.spec)
            try:
                meta = pack.spec.metadata()
                arrays = attached.arrays()
                for fresh_list, prefix in ((fit_envs, "train"),
                                           (valid_envs, "test")):
                    cached_list = environments_from_arrays(
                        arrays, meta, prefix
                    )
                    assert len(cached_list) == len(fresh_list)
                    for fresh, cached in zip(fresh_list, cached_list):
                        assert cached.name == fresh.name
                        fresh_arr = fresh.features.columns
                        cached_arr = cached.features.columns
                        assert cached_arr.dtype == fresh_arr.dtype
                        assert cached_arr.shape == fresh_arr.shape
                        assert cached_arr.tobytes() == fresh_arr.tobytes()
                        assert (cached.features.n_columns
                                == fresh.features.n_columns)
                        assert (cached.labels.tobytes()
                                == fresh.labels.tobytes())
            finally:
                attached.close()
        finally:
            pack.dispose()

    def test_fresh_encode_is_deterministic(self, dtype):
        """Sanity anchor: two inline encodes agree with themselves —
        otherwise byte-identity of the cache would be untestable."""
        environments = synthetic_environments(dtype)
        first_fit, _ = encode_split(environments)
        second_fit, _ = encode_split(environments)
        for a, b in zip(first_fit, second_fit):
            assert (a.features.columns.tobytes()
                    == b.features.columns.tobytes())


def joint_space():
    # A discrete extractor axis so distinct configurations repeat.
    extractor = HPSpace(EXTRACTOR_COMPONENT, {"n_trees": Choice((6, 10))})
    return HPSpace.joint(extractor, default_space("ERM"))


# Two rungs (budgets 4 and 8): rung 1 looks the encodings up again.
SMALL = ASHAConfig(n_trials=4, eta=2, min_epochs=4, max_epochs=8, seed=3)


@pytest.fixture
def published_specs(monkeypatch):
    """Specs of every pack the encoding cache publishes."""
    specs = []

    def spy(fit_environments, valid_environments):
        pack = pack_train_test(fit_environments, valid_environments)
        specs.append(pack.spec)
        return pack

    monkeypatch.setattr(extractor_cache, "pack_train_test", spy)
    return specs


def assert_unlinked(specs):
    assert specs
    for spec in specs:
        with pytest.raises(FileNotFoundError):
            SharedArrayPack.attach(spec)


class TestCachedSearch:
    def test_uncached_matches_cached(self):
        environments = synthetic_environments(np.float64)
        cached, stats = run_joint_asha(
            joint_space(), environments, SMALL, n_extractors=2,
        )
        uncached, no_stats = run_joint_asha(
            joint_space(), environments, SMALL, n_extractors=2,
            use_cache=False,
        )
        assert no_stats is None
        assert stats.hits > 0
        assert ranked_trials([cached]) == ranked_trials([uncached])

    def test_no_pack_outlives_the_search(self, published_specs):
        _, stats = run_joint_asha(
            joint_space(), synthetic_environments(np.float64), SMALL,
            n_extractors=2,
        )
        assert len(published_specs) == stats.misses
        assert_unlinked(published_specs)

    def test_no_pack_outlives_a_failed_search(self, published_specs,
                                              monkeypatch):
        run_trial_task = asha.run_trial_task

        def fail_on_rung_1(task):
            if task.rung == 1:
                raise RuntimeError("trial failed")
            return run_trial_task(task)

        monkeypatch.setattr(asha, "run_trial_task", fail_on_rung_1)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_joint_asha(
                joint_space(), synthetic_environments(np.float64), SMALL,
                n_extractors=2,
            )
        assert_unlinked(published_specs)
