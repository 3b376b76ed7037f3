"""Publish scoring models into shared memory for zero-copy worker fan-out.

The multi-worker front-end (:mod:`repro.serve.frontend`) runs N scoring
processes against the *same* model.  Shipping the JSON artifact to every
worker would decode the model N times; instead the parent copies the
model's numeric state — the GBDT's forest arrays and bin edges (the arrays
the artifact codec stores) and the LR-head weights — into one
:class:`~repro.parallel.shared.SharedArrayPack` and ships only the tiny
:class:`~repro.parallel.shared.PackSpec`.  Workers
attach read-only views and rebuild a :class:`~repro.persist.artifacts.ScoringModel`
whose ``predict_proba`` is **bit-identical** to the original: the arrays
are copied verbatim into the block once and never transformed, and the
worker compiles its scorer from them without importing training code.

Model *versioning* is handled by :class:`ModelPublisher`: each ``publish``
allocates a fresh pack under a monotonically increasing generation
counter.  Generations are immutable once published — a swap is therefore
atomic by construction (workers attach the new generation while in-flight
batches keep scoring on their admission-time generation) and old
generations stay attachable until :meth:`~ModelPublisher.retire`-d, which
the front-end does once no admitted request holds them.
"""

from __future__ import annotations

from multiprocessing.util import register_after_fork

import numpy as np

from repro.parallel.shared import PackSpec, SharedArrayPack
from repro.persist.artifacts import ScoringModel

__all__ = [
    "scoring_model_to_arrays",
    "scoring_model_from_arrays",
    "publish_model",
    "attach_model",
    "ModelPublisher",
    "PublishedModel",
]

#: Version of the shared-memory model layout (stored in the pack meta).
SHM_MODEL_FORMAT = 2


def scoring_model_to_arrays(
    model: ScoringModel,
) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a scoring model into (arrays, meta) for a shared pack.

    Args:
        model: A restored (or freshly trained) GBDT+LR scorer.

    Returns:
        ``(arrays, meta)``: the GBDT's arrays (the ones the artifact
        codec stores) plus ``theta``, and the small JSON-like table
        :func:`scoring_model_from_arrays` needs to reassemble them.
    """
    arrays = dict(model.gbdt_arrays)
    arrays["theta"] = np.asarray(model.theta)
    meta = {
        "shm_model_format": SHM_MODEL_FORMAT,
        "trainer_name": model.trainer_name,
        "metadata": dict(model.metadata),
        "l2": model.l2,
        "gbdt": dict(model.gbdt_meta),
    }
    return arrays, meta


def scoring_model_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict
) -> ScoringModel:
    """Rebuild a bit-identical :class:`ScoringModel` from pack views.

    The stored state (forest arrays, bin edges, theta) stays zero-copy:
    the returned model holds views into the shared block, so N attached
    workers share one physical copy.  Each worker's compiled scorer adds
    its own few node-sized arrays.

    Args:
        arrays: Views from :meth:`SharedArrayPack.arrays` (or the raw
            dict :func:`scoring_model_to_arrays` produced).
        meta: The meta table produced alongside the arrays.
    """
    if meta.get("shm_model_format") != SHM_MODEL_FORMAT:
        raise ValueError(
            f"unsupported shared-model format "
            f"{meta.get('shm_model_format')!r}"
        )
    gbdt_arrays = {key: array for key, array in arrays.items()
                   if key != "theta"}
    return ScoringModel(
        gbdt_arrays=gbdt_arrays,
        gbdt_meta=meta["gbdt"],
        theta=arrays["theta"],
        l2=meta["l2"],
        trainer_name=meta["trainer_name"],
        metadata=dict(meta["metadata"]),
    )


def publish_model(model: ScoringModel, generation: int = 0,
                  version: str | None = None) -> SharedArrayPack:
    """Copy one model into a new owning shared pack (once).

    Args:
        model: The scorer to publish.
        generation: Generation counter stamped into the pack meta.
        version: Optional registry version id for observability.
    """
    arrays, meta = scoring_model_to_arrays(model)
    meta["generation"] = int(generation)
    if version is not None:
        meta["version"] = version
    return SharedArrayPack.pack(arrays, meta=meta)


def attach_model(spec: PackSpec) -> tuple[ScoringModel, SharedArrayPack]:
    """Worker-side attach: rebuild the model over zero-copy views.

    Returns:
        ``(model, pack)`` — the caller must keep ``pack`` referenced (and
        eventually ``close()`` it) for as long as the model is used; the
        model's arrays are views into the pack's mapping.
    """
    pack = SharedArrayPack.attach(spec)
    model = scoring_model_from_arrays(pack.arrays(), spec.metadata())
    return model, pack


class PublishedModel:
    """One live generation: the owning pack plus its identity."""

    def __init__(self, generation: int, pack: SharedArrayPack,
                 version: str | None):
        self.generation = generation
        self.pack = pack
        self.version = version

    @property
    def spec(self) -> PackSpec:
        return self.pack.spec


class ModelPublisher:
    """Generation-counted shared-memory model store for the front-end.

    Usage::

        publisher = ModelPublisher()
        live = publisher.publish(model)            # generation 0
        ... workers attach live.spec ...
        swapped = publisher.publish(new_model)     # generation 1 — atomic:
        ... old generation stays attachable until retire() ...
        publisher.retire(live.generation)
        publisher.close()

    Publishing never mutates an existing block, so a swap can never tear:
    a worker either scores a batch entirely on the generation it resolved
    at admission time, or entirely on a newer one it was told to load.
    """

    def __init__(self) -> None:
        self._next_generation = 0
        self._live: dict[int, PublishedModel] = {}
        # A forked worker inherits a mapping of every block published
        # before it started.  It attaches the ones it serves itself, so it
        # drops these copies: a retirement could never reach them.
        register_after_fork(self, ModelPublisher._forget)

    def _forget(self) -> None:
        for published in self._live.values():
            published.pack.close()
        self._live.clear()

    def publish(self, model: ScoringModel,
                version: str | None = None) -> PublishedModel:
        """Publish one model under the next generation number."""
        generation = self._next_generation
        self._next_generation += 1
        pack = publish_model(model, generation=generation, version=version)
        published = PublishedModel(generation, pack, version)
        self._live[generation] = published
        return published

    @property
    def generations(self) -> list[int]:
        """Live (unretired) generation numbers, oldest first."""
        return sorted(self._live)

    @property
    def latest(self) -> PublishedModel:
        """The most recently published generation."""
        if not self._live:
            raise RuntimeError("nothing published yet")
        return self._live[max(self._live)]

    def get(self, generation: int) -> PublishedModel:
        """The live generation with this number."""
        return self._live[generation]

    def retire(self, generation: int) -> None:
        """Dispose one generation's block (no-op if already retired).

        New attaches of this generation become impossible; a mapping a
        worker still holds stays valid, and the kernel reclaims the pages
        once the last one closes.  The front-end retires a generation only
        when no request needs it and tells every worker to close its
        mapping at the same time, so the pages go at once.
        """
        published = self._live.pop(generation, None)
        if published is not None:
            published.pack.dispose()

    def close(self) -> None:
        """Retire every live generation."""
        for generation in list(self._live):
            self.retire(generation)

    def __enter__(self) -> "ModelPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
