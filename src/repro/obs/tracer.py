"""Hierarchical run tracing: spans and point events.

:class:`Tracer` is the write side of the observability layer.  Code under
instrumentation opens *spans* (timed, nestable regions) and emits *events*
(point records with structured fields); the tracer serializes both —
via a :class:`~repro.obs.runlog.RunLogWriter` or an in-memory buffer —
in the documented run-log schema.

The disabled tracer follows the same null-object pattern as
``StepTimer(enabled=False)``: every method is a guarded no-op and
``span()`` returns a shared reusable null context, so instrumentation is
threaded through hot loops unconditionally at near-zero cost.  Use the
module-level :data:`NULL_TRACER` as the default collaborator.
"""

from __future__ import annotations

import pathlib
import time
from contextlib import contextmanager

from repro.obs.runlog import (
    SCHEMA_VERSION,
    RunLogWriter,
    new_run_id,
    validate_record,
)

__all__ = ["Tracer", "NULL_TRACER"]


class _NullContext:
    """Reusable no-op context manager (cheaper than a fresh generator)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class _BufferSink:
    """In-memory sink used when no path/writer is supplied."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class Tracer:
    """Produces a structured run log of spans and events.

    Usage::

        tracer = Tracer(path="run.jsonl")
        tracer.write_manifest(command="train", seed=0)
        with tracer.span("fit", trainer="LightMIRM"):
            tracer.event("epoch", epoch=0, objective=1.23)
        tracer.close()

    Args:
        path: Destination JSONL file; mutually exclusive with ``sink``.
        sink: Pre-built writer (anything with ``write(dict)``/``close()``).
            When neither is given, records buffer in memory and are
            retrievable via :attr:`records`.
        enabled: A disabled tracer is a pure null object: no sink is
            opened, nothing is recorded, every call is a cheap no-op.
    """

    def __init__(
        self,
        path: str | pathlib.Path | None = None,
        sink=None,
        enabled: bool = True,
    ):
        if path is not None and sink is not None:
            raise ValueError("pass either path or sink, not both")
        self.enabled = bool(enabled)
        self.run_id = new_run_id() if self.enabled else ""
        self._sink = None
        self._buffer: list[dict] | None = None
        self._next_span_id = 0
        self._span_stack: list[int] = []
        self._start = 0.0
        self.start_unix = 0.0
        if not self.enabled:
            return
        if sink is None:
            if path is not None:
                sink = RunLogWriter(path)
            else:
                sink = _BufferSink()
                self._buffer = sink.records
        self._sink = sink
        self._start = time.perf_counter()
        self.start_unix = time.time()

    # ------------------------------------------------------------ plumbing

    @property
    def records(self) -> list[dict]:
        """Buffered records (only for in-memory tracers)."""
        if self._buffer is None:
            raise AttributeError(
                "records are only buffered when the tracer has no path/sink"
            )
        return self._buffer

    def _now(self) -> float:
        return time.perf_counter() - self._start

    def _write(self, record: dict) -> None:
        self._sink.write(validate_record(record))

    # ------------------------------------------------------------- records

    def write_manifest(self, **fields) -> None:
        """Emit the run-identity record (normally first in the log).

        Accepts the payload of
        :func:`~repro.obs.runlog.run_manifest_fields` or any JSON-
        compatible identity fields.
        """
        if not self.enabled:
            return
        self._write({
            "kind": "manifest",
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "created_unix": time.time(),
            "fields": fields,
        })

    def event(self, name: str, **fields) -> None:
        """Emit one point event inside the current span (if any)."""
        if not self.enabled:
            return
        self._write({
            "kind": "event",
            "name": name,
            "t_s": self._now(),
            "span": self._span_stack[-1] if self._span_stack else None,
            "fields": fields,
        })

    def span(self, name: str, **fields):
        """Context manager timing one nested region.

        The span record is written when the region closes (so records
        appear in close order; readers sort by ``start_s`` if needed).
        A disabled tracer returns a shared null context.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return self._span(name, fields)

    @contextmanager
    def _span(self, name: str, fields: dict):
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(span_id)
        start = self._now()
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            self._write({
                "kind": "span",
                "name": name,
                "id": span_id,
                "parent": parent,
                "start_s": start,
                "dur_s": self._now() - start,
                "fields": fields,
            })

    def record_span(self, name: str, dur_s: float, **fields) -> None:
        """Emit a span for a region timed externally (ends now).

        Used by the :class:`~repro.timing.StepTimer` bridge: the timer
        already measured the step, the tracer only serializes it.
        """
        if not self.enabled:
            return
        now = self._now()
        span_id = self._next_span_id
        self._next_span_id += 1
        self._write({
            "kind": "span",
            "name": name,
            "id": span_id,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "start_s": now - dur_s,
            "dur_s": dur_s,
            "fields": fields,
        })

    def merge_child_records(
        self,
        records: list[dict],
        child_start_unix: float | None = None,
        **extra_fields,
    ) -> None:
        """Fold another tracer's buffered records into this run log.

        This is how parallel experiment workers report back: each worker
        traces into an in-memory buffer, returns ``tracer.records`` (plus
        its ``start_unix``), and the parent merges them so a traced
        ``--jobs N`` run still yields *one* schema-valid log that
        reconstructs Table III step timings.

        Span ids are renumbered into this tracer's id space, child root
        spans are re-parented under the currently open span, timestamps
        are shifted onto this tracer's clock via the wall-clock offset,
        and ``extra_fields`` (e.g. ``worker=3``) are stamped onto every
        merged record's fields.  Child manifests are dropped — a log has
        one manifest.

        Args:
            records: The child tracer's records, in child write order.
            child_start_unix: The child tracer's :attr:`start_unix`; when
                omitted, child times are kept relative to *this* tracer's
                start (offset 0).
            **extra_fields: Identity fields added to every merged record.
        """
        if not self.enabled:
            return
        offset = 0.0
        if child_start_unix is not None and self.start_unix:
            offset = child_start_unix - self.start_unix
        # Spans are written at close, so a child's events can reference
        # span ids that appear later in the buffer — renumber every span
        # id first, then rewrite.
        id_map: dict[int, int] = {}
        for record in records:
            if record["kind"] == "span":
                id_map[record["id"]] = self._next_span_id
                self._next_span_id += 1
        current = self._span_stack[-1] if self._span_stack else None
        for record in records:
            kind = record["kind"]
            if kind == "manifest":
                continue
            merged = dict(record)
            fields = dict(merged.get("fields", {}))
            fields.update(extra_fields)
            merged["fields"] = fields
            if kind == "span":
                merged["id"] = id_map[record["id"]]
                parent = record["parent"]
                merged["parent"] = (
                    id_map.get(parent, current) if parent is not None
                    else current
                )
                merged["start_s"] = float(record["start_s"]) + offset
            elif kind == "event":
                merged["t_s"] = float(record["t_s"]) + offset
                span = record["span"]
                merged["span"] = (
                    id_map.get(span, current) if span is not None else current
                )
            self._write(merged)

    # ------------------------------------------------------------- bridges

    def attach_timer(self, timer) -> None:
        """Mirror a :class:`~repro.timing.StepTimer` into the run log.

        Every ``timer.step(...)`` occurrence becomes a ``step:<name>``
        span and every epoch an ``epoch_time`` event, so Table III per-
        step timings are reconstructable from the log alone.
        """
        if not self.enabled:
            return
        timer.on_step = lambda name, seconds: self.record_span(
            f"step:{name}", seconds
        )
        timer.on_epoch = lambda seconds: self.event(
            "epoch_time", seconds=seconds
        )

    def close(self) -> None:
        """Flush and close the underlying sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
            self.enabled = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled tracer — the default collaborator everywhere.
NULL_TRACER = Tracer(enabled=False)
