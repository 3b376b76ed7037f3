"""Tracked performance benchmarks the repository benchmark cannot run.

``bench/run.py`` times the training and serving workloads from outside,
with exact quantiles and per-window peak memory.  This package keeps only
the measurements it has no workload for, each written to one tracked
file and each carrying its correctness gate:

* :mod:`repro.perfbench.parallel` — the experiment trainer×seed
  fan-out, serial vs worker pools (bit-identity asserted per count) →
  ``BENCH_parallel.json``;
* :mod:`repro.perfbench.scale` — the end-to-end streaming pipeline
  (wall-clock + peak RSS via :mod:`repro.perfbench.rss`) at paper-scale
  row counts, with the float32-vs-float64 tolerance gate →
  ``BENCH_scale.json``;
* :mod:`repro.perfbench.tune` — the joint GBDT×head search with the
  extractor-encoding cache on and off → ``BENCH_tune.json``.

Every file goes through one payload path, :mod:`repro.perfbench.payload`:
each suite declares a :class:`BenchPayload` schema (``PARALLEL_PAYLOAD``,
``SCALE_PAYLOAD``, ``TUNE_PAYLOAD``) whose ``write``/``validate``/
``summarize`` are shared.

Run via ``python -m repro bench``, ``scale-bench`` and ``tune-bench``;
each exits non-zero when its payload fails validation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "parallel": (
        "PARALLEL_PAYLOAD", "ParallelBenchConfig", "run_parallel_suite",
    ),
    "scale": (
        "SCALE_PAYLOAD", "ScaleBenchConfig", "dtype_tolerance_check",
        "run_scale_point", "run_scale_suite",
    ),
    "tune": ("TUNE_PAYLOAD", "TuneBenchConfig", "run_tune_benchmark"),
    "payload": ("BenchPayload", "effective_cpu_count", "machine_info"),
    "rss": ("PeakMemoryProbe", "read_peak_rss_bytes"),
})
