"""Metric exposition: Prometheus text + JSON snapshot over stdlib HTTP.

:class:`MetricsExporter` owns a :class:`http.server.ThreadingHTTPServer`
on a background thread and serves whatever one ``snapshot_fn()`` returns
— the *live snapshot* dict the front-end assembles (aggregated worker
counters, front-end telemetry, monitors, health; the exact shape is
documented in ``docs/observability.md``).  Three routes:

* ``GET /metrics`` — Prometheus text exposition (version 0.0.4), the
  canonical scrape target;
* ``GET /snapshot`` — the snapshot dict as JSON, for tooling and
  ``repro obs top``;
* ``GET /healthz`` — 200 while the health state is healthy/degraded,
  503 once critical, so a plain load-balancer check pages correctly.

For headless CI (no scraper), :class:`SnapshotFileWriter` appends the
same JSON snapshot to a file on a fixed cadence — the soak smoke
schema-validates those lines after the run.

Everything here is stdlib-only (``http.server``, ``json``,
``threading``) and serve-agnostic: the exporter knows a callable and a
port, not the serving stack.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsExporter", "SnapshotFileWriter", "render_prometheus"]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric-name fragment."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _line(out: list[str], name: str, value, labels: dict | None = None) -> None:
    if labels:
        rendered = ",".join(
            f'{key}="{str(val)}"' for key, val in sorted(labels.items())
        )
        out.append(f"{name}{{{rendered}}} {value}")
    else:
        out.append(f"{name} {value}")


def _render_histogram(out: list[str], name: str, snap: dict) -> None:
    """One :class:`Histogram` snapshot as a Prometheus histogram triplet."""
    buckets = snap.get("buckets", {})
    cumulative = 0
    for key, count in buckets.items():
        if key == "overflow":
            continue
        cumulative += int(count)
        _line(out, f"{name}_bucket", cumulative,
              {"le": key.removeprefix("le_")})
    cumulative += int(buckets.get("overflow", 0))
    _line(out, f"{name}_bucket", cumulative, {"le": "+Inf"})
    _line(out, f"{name}_count", int(snap.get("count", cumulative)))
    _line(out, f"{name}_sum", float(snap.get("sum", 0.0)))


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render one live snapshot dict as Prometheus text exposition.

    Tolerant of partial snapshots: every section (``workers``,
    ``frontend``, ``monitors``, ``health``, ``liveness``) is optional,
    so the same renderer serves a bare aggregator or the full plane.
    """
    out: list[str] = []
    workers = snapshot.get("workers", {})
    for name, value in sorted(workers.get("counters", {}).items()):
        _line(out, f"{prefix}_worker_{_sanitize(name)}_total", int(value))
    for name, value in sorted(workers.get("gauges", {}).items()):
        _line(out, f"{prefix}_worker_{_sanitize(name)}", float(value))
    for name, hist in sorted(workers.get("histograms", {}).items()):
        _render_histogram(out, f"{prefix}_worker_{_sanitize(name)}", hist)
    if "workers_reporting" in workers:
        _line(out, f"{prefix}_workers_reporting",
              int(workers["workers_reporting"]))

    frontend = snapshot.get("frontend", {})
    for name, value in sorted(frontend.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _line(out, f"{prefix}_frontend_{_sanitize(name)}_total",
                  value)
    if isinstance(frontend.get("request_latency"), dict):
        _render_histogram(out, f"{prefix}_frontend_request_latency",
                          frontend["request_latency"])

    liveness = snapshot.get("liveness", {})
    if liveness:
        stale = sum(1 for entry in liveness.values() if entry.get("stale"))
        _line(out, f"{prefix}_workers_stale", stale)
        for worker_id, entry in sorted(liveness.items()):
            if entry.get("age_s") is not None:
                _line(out, f"{prefix}_worker_heartbeat_age_seconds",
                      float(entry["age_s"]), {"worker": worker_id})

    monitors = snapshot.get("monitors", {})
    drift = monitors.get("score_drift", {})
    if drift:
        _line(out, f"{prefix}_score_psi", float(drift.get("global_psi", 0.0)))
        _line(out, f"{prefix}_score_psi_worst",
              float(drift.get("worst_psi", 0.0)))
        for province, entry in sorted(drift.get("provinces", {}).items()):
            _line(out, f"{prefix}_score_psi_province",
                  float(entry["psi"]), {"province": province})
    calibration = monitors.get("calibration", {})
    if calibration:
        _line(out, f"{prefix}_score_mean",
              float(calibration.get("score_mean", 0.0)))
        _line(out, f"{prefix}_score_mean_shift",
              float(calibration.get("mean_shift", 0.0)))
    for objective, entry in sorted(monitors.get("slo", {}).items()):
        for window, burn in sorted(entry.get("burn_rates", {}).items()):
            _line(out, f"{prefix}_slo_burn_rate", float(burn),
                  {"objective": objective, "window": window})

    health = snapshot.get("health", {})
    if health:
        state = health.get("state", "healthy")
        for candidate in ("healthy", "degraded", "critical"):
            _line(out, f"{prefix}_health_state",
                  1 if state == candidate else 0, {"state": candidate})
        _line(out, f"{prefix}_alerts_total",
              int(health.get("n_alerts", 0)))

    if "unix" in snapshot:
        _line(out, f"{prefix}_snapshot_unix", float(snapshot["unix"]))
    return "\n".join(out) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /snapshot and /healthz; everything else is 404."""

    # Set per-server via the factory in MetricsExporter.start().
    snapshot_fn = staticmethod(lambda: {})

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            snapshot = self.snapshot_fn()
        except Exception as exc:  # pragma: no cover - defensive
            self._respond(500, "text/plain; charset=utf-8",
                          f"snapshot failed: {exc}\n")
            return
        if path == "/metrics":
            self._respond(200, _PROM_CONTENT_TYPE,
                          render_prometheus(snapshot))
        elif path in ("/snapshot", "/snapshot.json"):
            self._respond(200, "application/json",
                          json.dumps(snapshot, default=str) + "\n")
        elif path == "/healthz":
            state = snapshot.get("health", {}).get("state", "healthy")
            status = 503 if state == "critical" else 200
            self._respond(status, "application/json",
                          json.dumps({"state": state}) + "\n")
        else:
            self._respond(404, "text/plain; charset=utf-8",
                          "routes: /metrics /snapshot /healthz\n")

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args) -> None:
        """Silence per-request stderr logging (scrapes are frequent)."""


class MetricsExporter:
    """Background HTTP server exposing one snapshot callable.

    Usage::

        exporter = MetricsExporter(frontend.live_snapshot, port=9100)
        port = exporter.start()      # actual port (0 → ephemeral)
        ...
        exporter.stop()

    Args:
        snapshot_fn: Zero-arg callable returning the JSON-compatible
            live snapshot; called once per request, so it must be cheap
            and thread-safe (the front-end's is).
        port: TCP port; 0 binds an ephemeral port (tests).
        host: Bind address (loopback by default — metrics are internal).
    """

    def __init__(self, snapshot_fn, port: int = 0, host: str = "127.0.0.1"):
        self._snapshot_fn = snapshot_fn
        self._requested_port = port
        self._host = host
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("exporter already started")
        snapshot_fn = self._snapshot_fn
        handler = type("BoundHandler", (_Handler,),
                       {"snapshot_fn": staticmethod(snapshot_fn)})
        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join the thread (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class SnapshotFileWriter:
    """Appends the live snapshot as JSON lines on a fixed cadence.

    The headless-CI stand-in for a scraper: the soak smoke points this
    at a file, lets it tick through the run, then schema-validates every
    line.  ``flush()`` writes one line immediately (used for the final
    state before shutdown).

    Args:
        snapshot_fn: Same contract as :class:`MetricsExporter`.
        path: Destination file (appended; one JSON object per line).
        interval_s: Seconds between automatic writes.
    """

    def __init__(self, snapshot_fn, path, interval_s: float = 5.0):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._snapshot_fn = snapshot_fn
        self.path = pathlib.Path(path)
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.n_written = 0

    def flush(self) -> None:
        """Write one snapshot line right now."""
        line = json.dumps(self._snapshot_fn(), default=str)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.write("\n")
        self.n_written += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.flush()
            except Exception:  # pragma: no cover - keep the writer alive
                if self._stop.is_set():
                    break

    def start(self) -> "SnapshotFileWriter":
        """Begin periodic writes on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("snapshot writer already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="snapshot-writer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_flush: bool = True) -> None:
        """Stop the thread; by default write one last snapshot line."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_flush:
            self.flush()
