"""Shared-memory multi-worker scoring is bit-identical to single-process.

The front-end's whole contract is that fan-out changes *where* a score is
computed, never its value: every worker count must reproduce
``ScoringService.predict_proba`` exactly, including across an atomic
model swap mid-stream (pre-swap tickets score on the old generation).
"""

import numpy as np
import pytest

from repro.serve.frontend import FrontendConfig, ScoringFrontend
from repro.serve.shm_publish import (
    ModelPublisher,
    attach_model,
    publish_model,
    scoring_model_from_arrays,
    scoring_model_to_arrays,
)


class TestCodecRoundTrip:
    def test_arrays_round_trip_is_bit_identical(self, scoring_model,
                                                request_rows):
        arrays, meta = scoring_model_to_arrays(scoring_model)
        rebuilt = scoring_model_from_arrays(arrays, meta)
        np.testing.assert_array_equal(
            scoring_model.predict_proba(request_rows),
            rebuilt.predict_proba(request_rows),
        )

    def test_publish_attach_is_bit_identical_and_zero_copy(
            self, scoring_model, request_rows):
        pack = publish_model(scoring_model, generation=0, version="v0001")
        try:
            attached, worker_pack = attach_model(pack.spec)
            np.testing.assert_array_equal(
                scoring_model.predict_proba(request_rows),
                attached.predict_proba(request_rows),
            )
            # The attached model's arrays are read-only views into the
            # shared block, not copies.
            theta = attached.theta
            assert not theta.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                theta[0] = 0.0
            worker_pack.close()
        finally:
            pack.dispose()

    def test_unfitted_model_is_rejected(self):
        from repro.gbdt.boosting import GBDTClassifier, GBDTParams
        from repro.persist.codec import gbdt_to_arrays

        # A ScoringModel holds a fitted model's arrays, never an unfitted
        # GBDT; the codec that extracts those arrays refuses one.
        with pytest.raises(ValueError, match="unfitted"):
            gbdt_to_arrays(GBDTClassifier(GBDTParams()))

    def test_attach_validates_the_forest(self, scoring_model):
        arrays, meta = scoring_model_to_arrays(scoring_model)
        arrays["forest/leaf"] = arrays["forest/leaf"][:-1]
        with pytest.raises(ValueError, match="leaf ids"):
            scoring_model_from_arrays(arrays, meta)


class TestPublisherGenerations:
    def test_generations_are_monotonic_and_retirable(self, scoring_model):
        with ModelPublisher() as publisher:
            first = publisher.publish(scoring_model)
            second = publisher.publish(scoring_model)
            assert (first.generation, second.generation) == (0, 1)
            assert publisher.latest.generation == 1
            assert publisher.generations == [0, 1]
            publisher.retire(0)
            assert publisher.generations == [1]
            # Retiring twice is a no-op, and the counter never reuses ids.
            publisher.retire(0)
            assert publisher.publish(scoring_model).generation == 2


class TestMultiWorkerEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_scores_match_single_process_exactly(self, n_workers,
                                                 scoring_model,
                                                 request_rows):
        from repro.serve.service import ScoringService

        reference = ScoringService(scoring_model).score_batch(request_rows)

        frontend = ScoringFrontend(
            scoring_model,
            FrontendConfig(n_workers=n_workers, max_batch_size=32),
        )
        frontend.start()
        try:
            results = frontend.score_stream(request_rows)
        finally:
            frontend.stop()
        assert all(r.ok for r in results)
        assert {r.generation for r in results} == {0}
        np.testing.assert_array_equal(
            np.array([r.score for r in results]), reference
        )

    def test_swap_mid_stream_scores_each_ticket_on_its_generation(
            self, scoring_model, scoring_model_alt, request_rows):
        old_ref = scoring_model.predict_proba(request_rows)
        new_ref = scoring_model_alt.predict_proba(request_rows)
        # The two heads genuinely disagree, otherwise the test is vacuous.
        assert not np.array_equal(old_ref, new_ref)

        frontend = ScoringFrontend(
            scoring_model, FrontendConfig(n_workers=2, max_batch_size=16)
        )
        frontend.start()
        try:
            # Freeze the workers so pre-swap tickets are provably admitted
            # (and generation-stamped) before the new model exists.
            frontend.pause_workers()
            pre = [frontend.submit(row) for row in request_rows[:120]]
            generation = frontend.publish(scoring_model_alt)
            assert generation == 1
            post = [frontend.submit(row) for row in request_rows[120:]]
            frontend.resume_workers()
            pre_results = [t.result(timeout=60) for t in pre]
            post_results = [t.result(timeout=60) for t in post]
        finally:
            frontend.stop()

        assert {r.generation for r in pre_results} == {0}
        assert {r.generation for r in post_results} == {1}
        np.testing.assert_array_equal(
            np.array([r.score for r in pre_results]), old_ref[:120]
        )
        np.testing.assert_array_equal(
            np.array([r.score for r in post_results]), new_ref[120:]
        )
