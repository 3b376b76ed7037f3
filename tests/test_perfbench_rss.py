"""Unit tests for the cross-platform peak-memory probe."""

import numpy as np
import pytest

from repro.perfbench import rss
from repro.perfbench.rss import PeakMemoryProbe, read_peak_rss_bytes


class TestReadPeakRss:
    def test_positive_and_monotonic(self):
        first = read_peak_rss_bytes()
        if first is None:  # platform without `resource`
            return
        assert first > 0
        hold = np.ones(4 * 1024 * 1024)  # 32 MB
        second = read_peak_rss_bytes()
        assert second >= first
        del hold

    def test_reflects_a_large_allocation(self):
        before = read_peak_rss_bytes()
        if before is None:
            return
        hold = np.ones(8 * 1024 * 1024)  # 64 MB, touched on write
        after = read_peak_rss_bytes()
        assert after - before >= hold.nbytes // 2
        del hold


class TestPeakMemoryProbe:
    def test_captures_block_peak(self):
        with PeakMemoryProbe() as probe:
            hold = np.ones(2 * 1024 * 1024)  # 16 MB
            hold[0] = 2.0
        del hold
        assert probe.peak_bytes is not None
        assert probe.peak_bytes > 0
        assert probe.source in ("vmhwm", "getrusage", "tracemalloc")

    def test_peak_excludes_memory_freed_before_entry(self):
        """The high-water mark is reset on entry, so a block allocated and
        freed before the probe does not count towards its peak."""
        if not rss._reset_vmhwm():
            pytest.skip("/proc/self/clear_refs is not writable")
        block = np.ones(8 * 1024 * 1024)  # 64 MB, touched on write
        hwm_with_block = rss._vmhwm_bytes()
        del block
        with PeakMemoryProbe() as probe:
            entry_rss = rss._vmhwm_bytes()
            hold = np.ones(4 * 1024 * 1024)  # 32 MB inside the block
        del hold
        assert probe.source == "vmhwm"
        assert probe.peak_bytes <= hwm_with_block - 16 * 1024 * 1024
        assert probe.peak_bytes >= entry_rss + 24 * 1024 * 1024

    def test_getrusage_fallback(self, monkeypatch, tmp_path):
        """Without a writable clear_refs, the lifetime peak is reported."""
        monkeypatch.setattr(rss, "_CLEAR_REFS", str(tmp_path / "no" / "x"))
        if rss.resource is None:
            pytest.skip("platform without `resource`")
        with PeakMemoryProbe() as probe:
            pass
        assert probe.source == "getrusage"
        assert probe.peak_bytes == rss.read_peak_rss_bytes()

    def test_tracemalloc_fallback(self, monkeypatch, tmp_path):
        """Without clear_refs or `resource`, the probe falls back to
        tracemalloc."""
        monkeypatch.setattr(rss, "_CLEAR_REFS", str(tmp_path / "no" / "x"))
        monkeypatch.setattr(rss, "resource", None)
        with PeakMemoryProbe() as probe:
            hold = np.ones(2 * 1024 * 1024)  # 16 MB
        assert probe.source == "tracemalloc"
        assert probe.peak_bytes >= hold.nbytes
        del hold

    def test_fields_none_before_exit(self):
        probe = PeakMemoryProbe()
        assert probe.peak_bytes is None
        assert probe.source is None
