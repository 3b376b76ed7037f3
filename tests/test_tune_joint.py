"""Joint GBDT×head search: spaces, sampling and the scheduler."""

import numpy as np
import pytest

from repro.data.dataset import EnvironmentData
from repro.gbdt.leaf_encoder import LeafDesign
from repro.tune import (
    ASHAConfig,
    HPSpace,
    IntRange,
    JointHPSpace,
    SpaceError,
    default_extractor_space,
    default_space,
    environments_fingerprint,
    extractor_fingerprint,
    ranked_trials,
    run_joint_asha,
    sample_joint_trials,
)
from repro.tune.space import EXTRACTOR_COMPONENT, Choice


@pytest.fixture
def tiny_envs():
    rng = np.random.default_rng(11)
    environments = []
    for name in ("zhejiang", "shandong", "gansu"):
        features = rng.normal(size=(100, 10))
        logits = features[:, 0] + 0.5 * features[:, 1]
        labels = (logits + rng.normal(size=100) > 0).astype(np.int64)
        labels[:3] = [0, 1, 1]
        environments.append(EnvironmentData(name, features, labels))
    return environments


def small_joint_space():
    extractor = HPSpace(EXTRACTOR_COMPONENT, {"n_trees": Choice((6, 10))})
    return HPSpace.joint(extractor, default_space("ERM"))


SMALL = ASHAConfig(n_trials=4, eta=2, min_epochs=4, max_epochs=8, seed=3)


class TestJointSpaceValidation:
    def test_joint_construction(self):
        space = HPSpace.joint(default_extractor_space(),
                              default_space("LightMIRM"))
        assert isinstance(space, JointHPSpace)

    def test_extractor_half_validated_with_suggestion(self):
        with pytest.raises(SpaceError, match="did you mean 'n_trees'"):
            HPSpace(EXTRACTOR_COMPONENT, {"n_tree": IntRange(5, 9)})

    def test_extractor_field_rejected_on_head_space(self):
        # The original bug: extractor fields are not head-config fields,
        # and the error must say which component rejected them.
        with pytest.raises(SpaceError, match="'ERM'"):
            HPSpace("ERM", {"max_bins": Choice((32, 64))})

    def test_head_half_validated(self):
        with pytest.raises(SpaceError, match="did you mean 'learning_rate'"):
            HPSpace("ERM", {"learning_rte": Choice((0.1,))})


class TestJointSampling:
    def test_round_robin_extractor_sharing(self):
        trials = sample_joint_trials(
            small_joint_space(), 6, 2, seed=0, trainer="ERM"
        )
        extractors = [tuple(sorted(t.params["extractor"].items()))
                      for t in trials]
        assert extractors[0::2] == [extractors[0]] * 3
        assert extractors[1::2] == [extractors[1]] * 3

    def test_sampling_is_deterministic(self):
        first = sample_joint_trials(
            small_joint_space(), 5, 2, seed=9, trainer="ERM"
        )
        second = sample_joint_trials(
            small_joint_space(), 5, 2, seed=9, trainer="ERM"
        )
        assert [(t.trial_id, t.params, t.seed) for t in first] == \
               [(t.trial_id, t.params, t.seed) for t in second]

    def test_head_half_matches_plain_sampling(self):
        from repro.tune import sample_trials

        joint = sample_joint_trials(
            small_joint_space(), 4, 2, seed=5, trainer="ERM"
        )
        plain = sample_trials(default_space("ERM"), 4, seed=5, trainer="ERM")
        for j, p in zip(joint, plain):
            head = {k: v for k, v in j.params.items() if k != "extractor"}
            assert head == dict(p.params)
            assert j.seed == p.seed

    def test_bad_extractor_count_rejected(self):
        with pytest.raises(ValueError, match="n_extractors"):
            sample_joint_trials(small_joint_space(), 4, 0, seed=0,
                                trainer="ERM")


class TestFingerprints:
    def test_fingerprint_ignores_key_order(self):
        a = extractor_fingerprint({"n_trees": 8, "max_bins": 32},
                                  "deadbeef", 0, 0.25)
        b = extractor_fingerprint({"max_bins": 32, "n_trees": 8},
                                  "deadbeef", 0, 0.25)
        assert a == b

    def test_fingerprint_separates_configs_and_data(self):
        base = extractor_fingerprint({"n_trees": 8}, "deadbeef", 0, 0.25)
        assert extractor_fingerprint({"n_trees": 9}, "deadbeef", 0, 0.25) \
            != base
        assert extractor_fingerprint({"n_trees": 8}, "cafebabe", 0, 0.25) \
            != base
        assert extractor_fingerprint({"n_trees": 8}, "deadbeef", 1, 0.25) \
            != base

    def test_equal_leaf_designs_share_a_fingerprint(self):
        columns = np.array([[0, 1, 0], [2, 3, 3]])
        labels = np.array([0, 1, 1])

        def fingerprint(design):
            return environments_fingerprint(
                [EnvironmentData("zhejiang", design, labels)])

        base = fingerprint(LeafDesign(columns, 4))
        assert fingerprint(LeafDesign(columns.copy(), 4)) == base
        assert fingerprint(LeafDesign(columns, 5)) != base
        assert fingerprint(LeafDesign(columns[::-1], 4)) != base


class TestRunJointASHA:
    def test_bit_identical_across_jobs(self, tiny_envs):
        serial, serial_stats = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2,
        )
        fanned, fanned_stats = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2, n_jobs=4,
        )
        assert ranked_trials([serial]) == ranked_trials([fanned])
        assert serial_stats.hits == fanned_stats.hits
        assert serial_stats.misses == fanned_stats.misses

    def test_cache_accounting(self, tiny_envs):
        result, stats = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2,
        )
        evaluations = sum(len(r.evaluated) for r in result.rungs)
        sampled = sample_joint_trials(
            small_joint_space(), SMALL.n_trials, 2,
            seed=SMALL.seed, trainer="ERM",
        )
        distinct = len({tuple(sorted(t.params["extractor"].items()))
                        for t in sampled})
        assert stats.misses == distinct  # one encode per distinct config
        assert stats.hits == evaluations - stats.misses
        assert stats.encode_seconds_saved > 0
        assert stats.published_bytes > 0
        for trial in result.trials:
            assert trial.encode_cached is True
            assert trial.encode_seconds == 0.0

    def test_uncached_trials_record_inline_encodes(self, tiny_envs):
        result, stats = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2,
            use_cache=False,
        )
        assert stats is None
        for trial in result.trials:
            assert trial.encode_cached is False
            assert trial.encode_seconds > 0

    def test_joint_resume_from_log(self, tiny_envs, tmp_path):
        from repro.obs.tracer import Tracer
        from repro.tune import load_trial_records

        log = tmp_path / "joint.jsonl"
        first, _ = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2,
            tracer=Tracer(path=log),
        )
        records = load_trial_records(log)
        assert records
        resumed, stats = run_joint_asha(
            small_joint_space(), tiny_envs, SMALL, n_extractors=2,
            resume=records,
        )
        # Every trial replays from the log: nothing is re-encoded.
        assert stats.lookups == 0
        assert ranked_trials([resumed]) == ranked_trials([first])

    def test_rejects_plain_space(self, tiny_envs):
        with pytest.raises(TypeError, match="JointHPSpace"):
            run_joint_asha(default_space("ERM"), tiny_envs, SMALL)
