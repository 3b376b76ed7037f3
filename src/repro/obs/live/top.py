"""``repro obs top``: a refreshing terminal view of the live plane.

One screen, redrawn every interval, answering the operator's first five
questions: how fast (rows/s, p50/p99), how loaded (pending, shed,
refused), who's alive (per-worker heartbeat ages), how drifted
(per-province score PSI, DriftGuard feature PSI) and how healthy (state
+ active breaches + burn rates).

The data comes from either exposition surface:

* ``--url http://host:port`` — fetches ``/snapshot`` from a running
  :class:`~repro.obs.live.export.MetricsExporter`;
* ``--file path`` — tails the last line of a
  :class:`~repro.obs.live.export.SnapshotFileWriter` file (headless CI,
  or post-mortem replay of a soak).

Rendering is a pure function of the snapshot dict (tested directly);
the loop around it is ANSI home-and-clear, stdlib only.
"""

from __future__ import annotations

import json
import pathlib
import time
import urllib.request

__all__ = ["render_top", "fetch_snapshot", "read_snapshot_file", "run_top"]


def fetch_snapshot(url: str, timeout_s: float = 2.0) -> dict:
    """GET the JSON snapshot from a running exporter.

    Args:
        url: Exporter base URL or full ``/snapshot`` URL.
        timeout_s: Socket timeout.
    """
    if not url.rstrip("/").endswith("/snapshot"):
        url = url.rstrip("/") + "/snapshot"
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))


def read_snapshot_file(path) -> dict:
    """The last complete JSON line of a snapshot file."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").strip().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line:
            continue
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final line mid-write; take the previous one
    raise ValueError(f"no complete snapshot line in {path}")


def _ms(seconds) -> str:
    if seconds is None:
        return "--"
    return f"{float(seconds) * 1e3:.2f}ms"


def render_top(snapshot: dict, width: int = 72) -> str:
    """Render one snapshot dict as the fixed-layout top screen."""
    lines: list[str] = []
    rule = "─" * width
    health = snapshot.get("health", {})
    state = health.get("state", "unknown")
    unix = snapshot.get("unix")
    stamp = (time.strftime("%H:%M:%S", time.localtime(unix))
             if unix else "--:--:--")
    lines.append(f"repro serve · {stamp} · health: {state.upper()}")
    breaches = health.get("active_breaches", {})
    if breaches:
        rendered = ", ".join(f"{k}:{v}" for k, v in sorted(breaches.items()))
        lines.append(f"  breaches: {rendered}")
    lines.append(rule)

    workers = snapshot.get("workers", {})
    counters = workers.get("counters", {})
    frontend = snapshot.get("frontend", {})
    latency = frontend.get("request_latency", {})
    batch = workers.get("histograms", {}).get("batch_latency", {})
    rows = counters.get("rows_scored", 0)
    busy = workers.get("gauges", {}).get("busy_seconds", 0.0)
    throughput = rows / busy if busy else 0.0
    lines.append(
        f"throughput {throughput:10.0f} rows/s    "
        f"rows {rows:>10}    batches {counters.get('batches', 0):>8}"
    )
    lines.append(
        f"request p50 {_ms(latency.get('p50')):>9}    "
        f"p99 {_ms(latency.get('p99')):>9}    "
        f"batch p99 {_ms(batch.get('p99')):>9}"
    )
    lines.append(
        f"admitted {frontend.get('admitted', 0):>10}    "
        f"shed {frontend.get('shed', 0):>8}    "
        f"refused {frontend.get('refused', 0):>6}    "
        f"errors {frontend.get('errors', 0):>5}"
    )
    lines.append(f"pending {snapshot.get('pending', 0):>6}")
    lines.append(rule)

    liveness = snapshot.get("liveness", {})
    if liveness:
        cells = []
        for worker_id, entry in sorted(liveness.items(),
                                       key=lambda kv: int(kv[0])):
            if not entry.get("reporting"):
                cells.append(f"w{worker_id}:down")
            elif entry.get("stale"):
                cells.append(f"w{worker_id}:stale({entry['age_s']:.0f}s)")
            else:
                cells.append(f"w{worker_id}:ok")
        lines.append("workers  " + "  ".join(cells))
        lines.append(rule)

    monitors = snapshot.get("monitors", {})
    drift = monitors.get("score_drift", {})
    guard = snapshot.get("drift_guard", {})
    lines.append(
        f"score PSI {drift.get('global_psi', 0.0):7.4f}    "
        f"worst {drift.get('worst_province') or '--'} "
        f"{drift.get('worst_psi', 0.0):7.4f}    "
        f"feature PSI {guard.get('max_psi', 0.0):7.4f}"
    )
    calibration = monitors.get("calibration", {})
    if calibration:
        gap = calibration.get("calibration_gap")
        lines.append(
            f"score mean {calibration.get('score_mean', 0.0):7.4f}    "
            f"shift {calibration.get('mean_shift', 0.0):7.4f}    "
            f"calib gap {gap if gap is None else format(gap, '7.4f')}"
        )
    slo = monitors.get("slo", {})
    for objective, entry in sorted(slo.items()):
        burns = "  ".join(
            f"{window}={burn:6.2f}x"
            for window, burn in sorted(entry.get("burn_rates", {}).items())
        )
        lines.append(f"burn {objective:<14} {burns}")
    return "\n".join(lines)


def run_top(
    url: str | None = None,
    file: str | None = None,
    interval_s: float = 2.0,
    iterations: int | None = None,
    out=None,
) -> int:
    """The refresh loop behind ``repro obs top``.

    Args:
        url: Exporter base URL (mutually exclusive with ``file``).
        file: Snapshot file to tail instead.
        interval_s: Redraw period.
        iterations: Stop after this many redraws (None = until ^C).
        out: Writable stream (defaults to stdout).

    Returns:
        Process exit code (0 on clean exit / ^C).
    """
    import sys

    out = out or sys.stdout
    if (url is None) == (file is None):
        raise ValueError("pass exactly one of url/file")
    n = 0
    try:
        while iterations is None or n < iterations:
            try:
                snapshot = (fetch_snapshot(url) if url is not None
                            else read_snapshot_file(file))
                screen = render_top(snapshot)
            except (OSError, ValueError) as exc:
                screen = f"(no snapshot yet: {exc})"
            out.write("\x1b[H\x1b[2J" + screen + "\n")
            out.flush()
            n += 1
            if iterations is not None and n >= iterations:
                break
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0
