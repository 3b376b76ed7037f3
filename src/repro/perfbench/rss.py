"""Cross-platform peak-memory probe for the scale benchmarks.

The scale suite's acceptance question is "does peak RSS stay bounded
below naive full materialisation?" — which must be *measured*, not
estimated.  Three sources, in preference order:

* ``VmHWM`` from ``/proc/self/status`` after a reset (Linux).  Writing
  ``5`` to ``/proc/self/clear_refs`` sets the resident high-water mark
  back to the current RSS, so the value read at exit is the peak of the
  probed block alone.  This matters because Linux carries the parent's
  RSS high water across ``execve``: a spawned child's ``ru_maxrss``
  starts at its parent's peak, so per-point subprocesses alone do not
  give per-point peaks.
* ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — the lifetime
  high-water mark, which cannot be reset (macOS, or Linux without a
  writable ``clear_refs``).  Linux reports kilobytes, macOS bytes.
* ``tracemalloc`` — a Python-heap-only fallback for platforms without
  ``resource`` (e.g. Windows).  It undercounts (no interpreter/C-library
  overhead) but still captures the NumPy buffers that dominate this
  workload.

The ``source`` field records which probe produced a number so payloads
are never silently mixed.
"""

from __future__ import annotations

import sys
import tracemalloc

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

__all__ = ["PeakMemoryProbe", "read_peak_rss_bytes"]

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def _ru_maxrss_bytes() -> int:
    """Lifetime peak RSS of this process in bytes (POSIX only)."""
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def _reset_vmhwm() -> bool:
    """Reset this process's RSS high-water mark; False where unsupported."""
    try:
        with open(_CLEAR_REFS, "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _vmhwm_bytes() -> int:
    """``VmHWM`` of this process in bytes (Linux ``/proc`` only)."""
    with open(_STATUS) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no VmHWM line in {_STATUS}")


def read_peak_rss_bytes() -> int | None:
    """Peak RSS so far, in bytes; ``None`` where ``resource`` is missing."""
    if resource is None:
        return None
    return _ru_maxrss_bytes()


class PeakMemoryProbe:
    """Context manager capturing peak memory over its ``with`` block.

    Usage::

        with PeakMemoryProbe() as probe:
            run_workload()
        print(probe.peak_bytes, probe.source)

    On Linux the high-water mark is reset on entry, so the number is the
    block's own RSS peak (``source == "vmhwm"``).  Elsewhere it is the
    process-lifetime high-water mark at exit (``"getrusage"``: wrap the
    whole workload of a fresh process, not a late stage of a long-lived
    one) or the traced Python-heap peak over the block
    (``"tracemalloc"``).
    """

    def __init__(self) -> None:
        self.peak_bytes: int | None = None
        #: "vmhwm", "getrusage" or "tracemalloc", set at exit.
        self.source: str | None = None
        self._vmhwm = False
        self._own_tracemalloc = False

    def __enter__(self) -> "PeakMemoryProbe":
        self._vmhwm = _reset_vmhwm()
        if (not self._vmhwm and resource is None
                and not tracemalloc.is_tracing()):
            tracemalloc.start()
            tracemalloc.reset_peak()
            self._own_tracemalloc = True
        return self

    def __exit__(self, *exc) -> None:
        if self._vmhwm:
            self.peak_bytes = _vmhwm_bytes()
            self.source = "vmhwm"
            return
        if resource is not None:
            self.peak_bytes = _ru_maxrss_bytes()
            self.source = "getrusage"
            return
        _, peak = tracemalloc.get_traced_memory()
        if self._own_tracemalloc:
            tracemalloc.stop()
        self.peak_bytes = int(peak)
        self.source = "tracemalloc"
