"""Golden searches: rankings pinned by digest across code changes.

Every other search test compares two runs of the same code (serial vs
fanned, cached vs uncached, fresh vs resumed).  These pin the ranked
projection of four small searches to sha256 digests recorded once, so a
refactor of the scheduler, the seed streams or the ranking that changes
which trials are sampled, how they are scored or how they are ordered
fails here even when it stays self-consistent.  A digest may only change
together with a deliberate, documented change to what a search computes.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.tune import (
    HPSpace,
    default_space,
    load_trial_records,
    ranked_trials,
    run_asha,
    run_grid,
    run_joint_asha,
)
from tests.test_tune_cache_golden import (
    SMALL,
    joint_space,
    synthetic_environments,
)

GOLDEN = {
    "asha_lightmirm":
        "aee487d990bfe8b2dcf9a0e7adcfbf2162f42f65876517aa993a70e568d84e57",
    "grid_erm":
        "83e6c48fed55a03c9c08f3cd2395c79c138ab42eecb6d13c5ebe6f9f3120b420",
    "joint_cached":
        "77d267a371f2e0c0765819a4a75feda4d877cefe864eff9388649ebe6c998394",
    "joint_uncached":
        "77d267a371f2e0c0765819a4a75feda4d877cefe864eff9388649ebe6c998394",
}

#: A ``tune_trial`` event as an earlier version of the search wrote it
#: (``run_asha(default_space("LightMIRM"))`` on the fixture below): no
#: ``data`` field.  Resume must still read it.
LEGACY_TRIAL_LINE = (
    '{"kind":"event","name":"tune_trial","t_s":0.05795889900036855,'
    '"span":0,"fields":{"trainer":"LightMIRM","trial":"t003","rung":1,'
    '"budget":8,"params":{"gamma":0.6787251259796478,'
    '"inner_lr":0.14017240744544196,"l2":0.00026246161301769934,'
    '"lambda_penalty":1.3958456057282924,'
    '"learning_rate":0.14401271745384503,"queue_length":9},'
    '"seed":3322951166,"train_seconds":0.0057625529952929355,'
    '"encode_seconds":0.0,"encode_cached":null,"per_environment":'
    '{"gansu":{"ks":0.6000000000000001,"auc":0.8444444444444444,'
    '"n_samples":30,"n_positive":15},"shandong":'
    '{"ks":0.5882352941176471,"auc":0.8597285067873304,"n_samples":30,'
    '"n_positive":13},"zhejiang":{"ks":0.46666666666666673,"auc":0.72,'
    '"n_samples":30,"n_positive":15}},"skipped":[]}}'
)


def digest(result):
    blob = json.dumps(ranked_trials([result]), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def environments():
    return synthetic_environments(np.float64)


class TestGoldenDigests:
    def test_asha(self, environments):
        result = run_asha(default_space("LightMIRM"), environments, SMALL)
        assert digest(result) == GOLDEN["asha_lightmirm"]

    def test_grid(self, environments):
        space = HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0],
                                     "l2": [1e-4, 1e-2]})
        result = run_grid(space, environments, n_epochs=4, seed=SMALL.seed)
        assert digest(result) == GOLDEN["grid_erm"]

    def test_joint_cached(self, environments):
        result, _ = run_joint_asha(joint_space(), environments, SMALL,
                                   n_extractors=2)
        assert digest(result) == GOLDEN["joint_cached"]

    def test_joint_uncached(self, environments):
        result, _ = run_joint_asha(joint_space(), environments, SMALL,
                                   n_extractors=2, use_cache=False)
        assert digest(result) == GOLDEN["joint_uncached"]


class TestLegacyTrialEvent:
    def test_earlier_event_line_still_loads(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(LEGACY_TRIAL_LINE + "\n", encoding="utf-8")
        records = load_trial_records(path)
        assert list(records) == [("LightMIRM", "t003", 1)]
        written = json.loads(LEGACY_TRIAL_LINE)["fields"]
        fields = records[("LightMIRM", "t003", 1)].to_fields()
        assert {k: fields[k] for k in written} == written
