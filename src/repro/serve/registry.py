"""Versioned model registry with champion/challenger slots.

Production scoring never points at "a JSON file" — it points at a *slot*
(champion, challenger) inside a registry of immutable, metadata-rich model
versions, so a bad model can be rolled back atomically and a candidate can
shadow-score live traffic before promotion.  The on-disk layout is::

    <root>/
        registry.json          # index: versions, slots, slot history
        models/
            v0001.json         # immutable artifact payloads
            v0002.json         #   (same format as save_file writes)

Every index mutation is written to a temp file and ``os.replace``-d into
place, so a crashed promote/rollback never leaves a torn index; artifact
files are never rewritten after creation.  Mutations additionally take an
inter-process ``flock`` on ``<root>/registry.lock`` so concurrent
import/promote/rollback from several processes serialise into a
read-modify-write critical section — without it two processes can read
the same ``next_version`` and one import silently overwrites the other.
Reads stay lock-free: ``os.replace`` guarantees a reader always sees a
complete index, just possibly one mutation old.

This module is also the single-file persistence surface:
:meth:`ModelRegistry.save_file` / :meth:`ModelRegistry.load_file` read and
write one bare artifact in the same format.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

try:  # flock is POSIX-only; degrade to in-process atomicity elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.persist.artifacts import (
    ScoringModel,
    pipeline_to_payload,
    scoring_model_from_payload,
)

if TYPE_CHECKING:
    from repro.pipeline.pipeline import LoanDefaultPipeline

__all__ = ["ModelRegistry", "ModelVersion", "CHAMPION", "CHALLENGER"]

#: Registry index format version.
REGISTRY_FORMAT = 1

#: The slot live traffic scores against.
CHAMPION = "champion"
#: The slot for a candidate model shadowing live traffic.
CHALLENGER = "challenger"

_SLOTS = (CHAMPION, CHALLENGER)


@dataclass(frozen=True)
class ModelVersion:
    """Index entry of one immutable registry version."""

    version: str
    trainer_name: str
    created_at: float
    metadata: dict
    path: str

    def as_dict(self) -> dict:
        """JSON-compatible index entry."""
        return {
            "version": self.version,
            "trainer_name": self.trainer_name,
            "created_at": self.created_at,
            "metadata": self.metadata,
            "path": self.path,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelVersion":
        """Restore an index entry."""
        return cls(
            version=payload["version"],
            trainer_name=payload["trainer_name"],
            created_at=payload["created_at"],
            metadata=payload["metadata"],
            path=payload["path"],
        )


class ModelRegistry:
    """Versioned, slot-addressed storage of GBDT+LR scoring artifacts.

    Usage::

        registry = ModelRegistry(root)
        v1 = registry.save(pipeline, metadata={"run": "weekly"})
        registry.promote(v1)                 # v1 becomes champion
        v2 = registry.save(candidate, slot="challenger")
        model = registry.load("champion")    # slot name or version id
        registry.promote(v2)                 # v2 champion, v1 remembered
        registry.rollback()                  # back to v1

    The first saved version is auto-promoted to champion so a fresh
    registry is immediately servable.
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)
        self.models_dir = self.root / "models"
        self.index_path = self.root / "registry.json"

    # ------------------------------------------------------------- index io

    @contextlib.contextmanager
    def _locked(self):
        """Serialise one index read-modify-write across processes.

        ``flock`` is tied to the open file description, so the lock file
        is opened fresh per critical section and must never be acquired
        re-entrantly — internal helpers therefore mutate a passed-in
        index instead of calling the locking public methods.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.root / "registry.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_index(self) -> dict:
        if not self.index_path.exists():
            return {
                "format": REGISTRY_FORMAT,
                "next_version": 1,
                "versions": {},
                "slots": {},
                "slot_history": {slot: [] for slot in _SLOTS},
            }
        index = json.loads(self.index_path.read_text())
        if index.get("format") != REGISTRY_FORMAT:
            raise ValueError(
                f"unsupported registry format {index.get('format')!r}"
            )
        return index

    def _write_index(self, index: dict) -> None:
        """Atomically replace the index (temp file + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(index, indent=2) + "\n")
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------- save/load

    def save(
        self,
        pipeline: LoanDefaultPipeline,
        metadata: dict | None = None,
        slot: str | None = None,
    ) -> str:
        """Store a fitted pipeline as a new immutable version.

        Args:
            pipeline: A fitted :class:`LoanDefaultPipeline`.
            metadata: Free-form JSON-compatible run metadata.
            slot: Optionally promote the new version into a slot right
                away ("champion" or "challenger").

        Returns:
            The new version id (``"v<N>"``).
        """
        payload = pipeline_to_payload(pipeline, metadata=metadata)
        return self._store_payload(payload, slot=slot)

    def import_file(
        self,
        path: str | pathlib.Path,
        metadata: dict | None = None,
        slot: str | None = None,
    ) -> str:
        """Store an existing bare artifact file as a new version.

        Lets artifacts produced elsewhere (another registry, a
        ``save_file`` call, the scale benchmark's trained model) enter a
        registry without reconstructing the pipeline object in memory.
        The payload is validated by restoring it once before storage.

        Args:
            path: Path of a ``save_file``-format artifact.
            metadata: Extra metadata merged over the artifact's own.
            slot: Optionally promote the new version right away.

        Returns:
            The new version id (``"v<N>"``).
        """
        payload = json.loads(pathlib.Path(path).read_text())
        scoring_model_from_payload(payload)  # raises on a bad artifact
        if metadata:
            payload["metadata"] = {**payload.get("metadata", {}), **metadata}
        return self._store_payload(payload, slot=slot)

    def _store_payload(self, payload: dict, slot: str | None = None) -> str:
        """Write one artifact payload as a new immutable version."""
        if slot is not None and slot not in _SLOTS:
            raise ValueError(f"unknown slot {slot!r}; choose from {_SLOTS}")
        with self._locked():
            index = self._read_index()
            version = f"v{index['next_version']:04d}"
            relative = f"models/{version}.json"

            self.models_dir.mkdir(parents=True, exist_ok=True)
            artifact_path = self.root / relative
            tmp = artifact_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, artifact_path)

            entry = ModelVersion(
                version=version,
                trainer_name=payload["trainer_name"],
                created_at=time.time(),
                metadata=payload["metadata"],
                path=relative,
            )
            index["next_version"] += 1
            index["versions"][version] = entry.as_dict()
            if slot is not None:
                self._promote_in(index, version, slot)
            elif CHAMPION not in index["slots"]:
                self._promote_in(index, version, CHAMPION)
            self._write_index(index)
        return version

    def load(self, ref: str = CHAMPION) -> ScoringModel:
        """Restore a :class:`ScoringModel` by slot name or version id.

        Args:
            ref: ``"champion"``, ``"challenger"``, or a version id like
                ``"v0003"``.

        Raises:
            KeyError: Unknown slot/version, or an empty slot.
        """
        index = self._read_index()
        entry = index["versions"][self._resolve(index, ref)]
        return self.load_file(self.root / entry["path"])

    @staticmethod
    def _resolve(index: dict, ref: str) -> str:
        """Version id a slot name or version id refers to in ``index``."""
        if ref in _SLOTS:
            if ref not in index["slots"]:
                raise KeyError(f"slot {ref!r} is empty")
            return index["slots"][ref]
        if ref in index["versions"]:
            return ref
        raise KeyError(
            f"unknown version or slot {ref!r}; "
            f"known versions: {sorted(index['versions'])}, slots: {_SLOTS}"
        )

    # ------------------------------------------------------------ lifecycle

    @staticmethod
    def _promote_in(index: dict, version: str, slot: str) -> None:
        """Point a slot at a version inside an already-locked index."""
        previous = index["slots"].get(slot)
        if previous is not None and previous != version:
            index["slot_history"].setdefault(slot, []).append(previous)
        index["slots"][slot] = version

    def promote(self, version: str, slot: str = CHAMPION) -> None:
        """Atomically point a slot at a version, remembering the previous.

        Args:
            version: An existing version id.
            slot: Target slot (champion by default).
        """
        if slot not in _SLOTS:
            raise ValueError(f"unknown slot {slot!r}; choose from {_SLOTS}")
        with self._locked():
            index = self._read_index()
            if version not in index["versions"]:
                raise KeyError(f"unknown version {version!r}")
            self._promote_in(index, version, slot)
            self._write_index(index)

    def rollback(self, slot: str = CHAMPION) -> str:
        """Restore a slot's previous occupant (undo the last promote).

        Returns:
            The version id the slot now points at.

        Raises:
            KeyError: If the slot has no recorded previous occupant.
        """
        if slot not in _SLOTS:
            raise ValueError(f"unknown slot {slot!r}; choose from {_SLOTS}")
        with self._locked():
            index = self._read_index()
            history = index["slot_history"].get(slot, [])
            if not history:
                raise KeyError(
                    f"no previous version recorded for slot {slot!r}"
                )
            version = history.pop()
            index["slots"][slot] = version
            self._write_index(index)
        return version

    # ------------------------------------------------------------ inspection

    def versions(self) -> list[ModelVersion]:
        """All stored versions, oldest first."""
        index = self._read_index()
        return [ModelVersion.from_dict(index["versions"][key])
                for key in sorted(index["versions"])]

    def slots(self) -> dict[str, str]:
        """Current slot assignments (slot -> version id)."""
        return dict(self._read_index()["slots"])

    def describe(self, version: str) -> ModelVersion:
        """Index entry of one version."""
        index = self._read_index()
        if version not in index["versions"]:
            raise KeyError(f"unknown version {version!r}")
        return ModelVersion.from_dict(index["versions"][version])

    # ------------------------------------------------- single-file surface

    @staticmethod
    def save_file(
        pipeline: LoanDefaultPipeline,
        path: str | pathlib.Path,
        metadata: dict | None = None,
    ) -> None:
        """Persist a fitted pipeline as one bare artifact file.

        The format is the one a registry version file holds.
        """
        payload = pipeline_to_payload(pipeline, metadata=metadata)
        pathlib.Path(path).write_text(json.dumps(payload))

    @staticmethod
    def load_file(path: str | pathlib.Path) -> ScoringModel:
        """Restore a :class:`ScoringModel` from one bare artifact file.

        Pre-registry artifacts of the current format load unchanged.

        Raises:
            ValueError: On another format version or a malformed model.
        """
        payload = json.loads(pathlib.Path(path).read_text())
        return scoring_model_from_payload(payload)
