"""Run-log serialization: the JSONL schema, writer, reader and manifest.

A *run log* is a JSON-Lines file: one JSON object per line, each with a
``kind`` discriminator.  The schema (version :data:`SCHEMA_VERSION`) has
three record kinds:

``manifest``
    First record of every log.  ``schema`` (int), ``run_id`` (str),
    ``created_unix`` (float) and ``fields`` — the run's identity: command,
    trainer/config, seed, ``git`` describe, dataset fingerprint.
``span``
    One closed span.  ``name``, ``id`` (int, unique per log), ``parent``
    (int or null), ``start_s``/``dur_s`` (seconds; ``start_s`` relative to
    tracer start) and free-form ``fields``.
``event``
    One point event.  ``name``, ``t_s`` (seconds since tracer start),
    ``span`` (enclosing span id or null) and ``fields``.

``docs/observability.md`` documents the schema with examples;
:func:`validate_record` is the single source of truth for required keys
and is applied to every record read by :class:`RunLogReader`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import subprocess
import time
import uuid
from dataclasses import is_dataclass, asdict

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "LIFECYCLE_SPAN",
    "LIFECYCLE_STAGE_EVENT",
    "ALERT_EVENT",
    "HEALTH_TRANSITION_EVENT",
    "TUNE_SPAN",
    "TUNE_TRIAL_EVENT",
    "TUNE_RUNG_EVENT",
    "TUNE_ENCODE_SPAN",
    "TUNE_CACHE_EVENT",
    "RunLogWriter",
    "RunLog",
    "RunLogReader",
    "SchemaError",
    "validate_record",
    "run_manifest_fields",
    "dataset_fingerprint",
    "git_describe",
]

#: Version of the run-log record schema written by this module.
#: v2 (additive over v1): well-known ``alert`` / ``health_transition``
#: event names gain required-field validation (see
#: :data:`_REQUIRED_EVENT_FIELDS`); every v1 log remains valid under v2.
#: v3: the ``metrics`` record kind is gone (it only ever held an empty
#: registry snapshot); a log holding one fails as an unknown kind.
SCHEMA_VERSION = 3

#: Well-known serving-lifecycle names: a drift recovery runs inside one
#: ``LIFECYCLE_SPAN`` span and emits one ``LIFECYCLE_STAGE_EVENT`` per
#: state transition (``stage`` field: drift_detected, retraining,
#: evaluating, promoting, promoted, rolled_back, aborted) — so
#: ``repro obs report`` replays the drift→retrain→promote loop verbatim.
LIFECYCLE_SPAN = "serve_lifecycle"
LIFECYCLE_STAGE_EVENT = "lifecycle_stage"

#: Well-known hyper-parameter-search names: one ``TUNE_SPAN`` span wraps
#: each trainer's search; every completed (trial, rung) evaluation emits
#: one ``TUNE_TRIAL_EVENT`` (params, seed, budget, per-environment
#: scores — the resumable state of the search) and every rung close one
#: ``TUNE_RUNG_EVENT`` (evaluated + promoted trial ids).
TUNE_SPAN = "tune_search"
TUNE_TRIAL_EVENT = "tune_trial"
TUNE_RUNG_EVENT = "tune_rung"

#: Well-known joint-search names (additive under schema v2): each batch
#: of distinct-extractor encodes runs inside one ``TUNE_ENCODE_SPAN``
#: span, and the extractor-encoding cache emits one ``TUNE_CACHE_EVENT``
#: per lookup or publish (``action`` field: hit, miss, publish) keyed by
#: the encoding's content ``fingerprint`` — so the run log alone
#: reconstructs the cache's hit-rate, byte footprint and the encode
#: seconds the search saved.
TUNE_ENCODE_SPAN = "tune_encode"
TUNE_CACHE_EVENT = "tune_cache"

#: Legal values of a ``tune_cache`` event's ``action`` field.
_CACHE_ACTIONS = ("hit", "miss", "publish")

#: Well-known live-health names (schema v2): the serving
#: :class:`~repro.obs.live.health.HealthMonitor` emits one
#: ``ALERT_EVENT`` per threshold breach (``monitor``, ``severity``,
#: ``value``, ``threshold``, ``unix`` + free detail such as
#: ``province``) and one ``HEALTH_TRANSITION_EVENT`` per state change
#: (``from_state``, ``to_state``, ``reasons``, ``unix``) — so an
#: operator can replay drift → alert → critical → recovery from the
#: log alone.
ALERT_EVENT = "alert"
HEALTH_TRANSITION_EVENT = "health_transition"

#: Required keys per record kind (beyond the ``kind`` discriminator).
_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "manifest": ("schema", "run_id", "created_unix", "fields"),
    "span": ("name", "id", "parent", "start_s", "dur_s", "fields"),
    "event": ("name", "t_s", "span", "fields"),
}

#: Schema v2: required ``fields`` keys for well-known event names.
#: Additive — events with other names carry free-form fields as in v1.
_REQUIRED_EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    ALERT_EVENT: ("monitor", "severity", "value", "threshold", "unix"),
    HEALTH_TRANSITION_EVENT: ("from_state", "to_state", "reasons", "unix"),
    TUNE_CACHE_EVENT: ("fingerprint", "action"),
}

#: Legal values for the constrained alert/health fields.
_ALERT_SEVERITIES = ("warning", "critical")
_HEALTH_STATES = ("healthy", "degraded", "critical")


class SchemaError(ValueError):
    """A run-log record violates the documented schema."""


def validate_record(record: object, line: int | None = None) -> dict:
    """Check one decoded record against the schema; returns it on success.

    Args:
        record: The decoded JSON value of one line.
        line: Optional 1-based line number for error messages.

    Raises:
        SchemaError: On a non-object record, unknown kind or missing key.
    """
    where = f"line {line}: " if line is not None else ""
    if not isinstance(record, dict):
        raise SchemaError(f"{where}record is not a JSON object")
    kind = record.get("kind")
    if kind not in _REQUIRED_KEYS:
        raise SchemaError(
            f"{where}unknown record kind {kind!r} "
            f"(known: {sorted(_REQUIRED_KEYS)})"
        )
    missing = [k for k in _REQUIRED_KEYS[kind] if k not in record]
    if missing:
        raise SchemaError(f"{where}{kind} record is missing keys {missing}")
    if not isinstance(record["fields"], dict):
        raise SchemaError(f"{where}{kind} record 'fields' is not an object")
    if kind == "event" and record["name"] in _REQUIRED_EVENT_FIELDS:
        fields = record["fields"]
        name = record["name"]
        missing = [k for k in _REQUIRED_EVENT_FIELDS[name]
                   if k not in fields]
        if missing:
            raise SchemaError(
                f"{where}{name} event fields are missing keys {missing}"
            )
        if (name == ALERT_EVENT
                and fields["severity"] not in _ALERT_SEVERITIES):
            raise SchemaError(
                f"{where}alert severity {fields['severity']!r} not in "
                f"{_ALERT_SEVERITIES}"
            )
        if (name == TUNE_CACHE_EVENT
                and fields["action"] not in _CACHE_ACTIONS):
            raise SchemaError(
                f"{where}tune_cache action {fields['action']!r} not in "
                f"{_CACHE_ACTIONS}"
            )
        if name == HEALTH_TRANSITION_EVENT:
            for key in ("from_state", "to_state"):
                if fields[key] not in _HEALTH_STATES:
                    raise SchemaError(
                        f"{where}health_transition {key} "
                        f"{fields[key]!r} not in {_HEALTH_STATES}"
                    )
    return record


def _json_default(value):
    """Serialize numpy scalars/arrays and dataclasses; last resort str()."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    return str(value)


class RunLogWriter:
    """Appends schema-conforming records to a JSONL file.

    Usage (normally owned by a :class:`~repro.obs.tracer.Tracer`)::

        with RunLogWriter(path) as log:
            log.write({"kind": "event", ...})
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self._n_written = 0

    @property
    def n_written(self) -> int:
        return self._n_written

    def write(self, record: dict) -> None:
        """Serialize one record as a compact JSON line."""
        if self._handle is None:
            raise RuntimeError(f"run log {self.path} is closed")
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=_json_default)
        )
        self._handle.write("\n")
        self._n_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunLog:
    """Decoded, validated run log with query helpers.

    Attributes:
        path: Source file (None for in-memory logs).
        records: Every record, in file order.
    """

    def __init__(self, records: list[dict],
                 path: pathlib.Path | None = None):
        self.records = records
        self.path = path

    @property
    def manifest(self) -> dict | None:
        """The manifest record, or None for manifest-less logs."""
        for record in self.records:
            if record["kind"] == "manifest":
                return record
        return None

    def events(self, name: str | None = None) -> list[dict]:
        """Event records, optionally filtered by name."""
        return [
            r for r in self.records
            if r["kind"] == "event" and (name is None or r["name"] == name)
        ]

    def spans(self, name: str | None = None) -> list[dict]:
        """Span records, optionally filtered by name."""
        return [
            r for r in self.records
            if r["kind"] == "span" and (name is None or r["name"] == name)
        ]

    def curve(self, event_name: str, field: str) -> list[tuple[int, float]]:
        """(epoch, value) pairs of one numeric field over epoch-like events.

        Events without the field (or without an ``epoch`` field) are
        skipped, so partially-instrumented logs still render.
        """
        points = []
        for record in self.events(event_name):
            fields = record["fields"]
            if "epoch" in fields and field in fields:
                points.append((int(fields["epoch"]), float(fields[field])))
        return points

    def __len__(self) -> int:
        return len(self.records)


class RunLogReader:
    """Reads + validates a JSONL run log into a :class:`RunLog`."""

    @staticmethod
    def read(path: str | pathlib.Path) -> RunLog:
        """Decode every line, validating each record against the schema.

        Raises:
            SchemaError: On malformed JSON or schema violations (with the
                offending 1-based line number).
        """
        path = pathlib.Path(path)
        records: list[dict] = []
        with path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    decoded = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(
                        f"line {line_no}: invalid JSON ({exc})"
                    ) from exc
                records.append(validate_record(decoded, line=line_no))
        return RunLog(records, path=path)


# ---------------------------------------------------------------- manifest


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the working tree, if available."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else None


def dataset_fingerprint(dataset) -> dict:
    """Stable content fingerprint of a :class:`~repro.data.dataset.LoanDataset`.

    Hashes the shapes and raw bytes of every array column, so two runs on
    byte-identical data share a fingerprint regardless of file path.

    Returns:
        ``{"n_samples", "n_features", "sha256"}`` (hash truncated to 16
        hex chars — collision resistance is not a goal, change detection is).
    """
    digest = hashlib.sha256()
    for column in ("features", "labels", "provinces", "years", "halves"):
        array = np.ascontiguousarray(getattr(dataset, column))
        digest.update(column.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return {
        "n_samples": int(dataset.n_samples),
        "n_features": int(dataset.n_features),
        "sha256": digest.hexdigest()[:16],
    }


def run_manifest_fields(
    command: str,
    config: object = None,
    seed: int | None = None,
    dataset=None,
    **extra,
) -> dict:
    """Standard manifest ``fields`` payload for one traced run.

    Args:
        command: What produced the log (e.g. ``"train"``, ``"verify"``).
        config: Optional config dataclass/dict recorded verbatim.
        seed: Optional seed of the run.
        dataset: Optional :class:`LoanDataset` to fingerprint.
        **extra: Additional identity fields (data path, method name, ...).

    Returns:
        JSON-compatible dict with ``command``, ``python``, ``git`` plus
        whichever optional fields were supplied.
    """
    fields: dict = {
        "command": command,
        "python": platform.python_version(),
        "git": git_describe(),
    }
    if config is not None:
        if is_dataclass(config) and not isinstance(config, type):
            config = asdict(config)
        fields["config"] = config
    if seed is not None:
        fields["seed"] = int(seed)
    if dataset is not None:
        fields["dataset"] = dataset_fingerprint(dataset)
    fields.update(extra)
    return fields


def new_run_id() -> str:
    """Unique id of one traced run (time-prefixed for sortable file names)."""
    return f"{int(time.time())}-{uuid.uuid4().hex[:8]}"
