"""Tracked performance benchmarks.

This package keeps the repo's perf story honest in two ways:

* :mod:`repro.perfbench.reference` preserves the pre-vectorisation *seed*
  kernels (per-feature histogram loops, per-node mask routing, COO leaf
  encoding, per-round matrix copies) verbatim.  They are the baseline the
  golden-equivalence tests compare against bit-for-bit, and the
  denominator of every reported speedup.
* Five suites time the live code, each written to one tracked file:

  * :mod:`repro.perfbench.suites` — the GBDT kernels against those seed
    kernels (median-of-k, see :func:`repro.timing.measure`) →
    ``BENCH_gbdt.json``;
  * :mod:`repro.perfbench.parallel` — the experiment trainer×seed
    fan-out, serial vs worker pools (bit-identity asserted per count) →
    ``BENCH_parallel.json``;
  * :mod:`repro.perfbench.scale` — the end-to-end streaming pipeline
    (wall-clock + peak RSS via :mod:`repro.perfbench.rss`) at paper-scale
    row counts → ``BENCH_scale.json``;
  * :mod:`repro.perfbench.serving` — the request path: micro-batching,
    registry load, multi-worker front-end, live-plane overhead →
    ``BENCH_serving.json``;
  * :mod:`repro.perfbench.tune` — the joint GBDT×head search with the
    extractor-encoding cache on and off → ``BENCH_tune.json``.

Every file goes through one payload path, :mod:`repro.perfbench.payload`:
each suite declares a :class:`BenchPayload` schema (``GBDT_PAYLOAD`` …
``TUNE_PAYLOAD``) whose ``write``/``validate``/``summarize`` are shared.

Run via ``python -m repro bench`` (``--jobs`` for the parallel suite),
``serve-bench``, ``scale-bench`` and ``tune-bench``; each exits non-zero
when its payload fails validation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "suites": ("GBDT_PAYLOAD", "BenchConfig", "run_suite"),
    "parallel": (
        "PARALLEL_PAYLOAD", "ParallelBenchConfig", "run_parallel_suite",
    ),
    "scale": (
        "SCALE_PAYLOAD", "ScaleBenchConfig", "dtype_tolerance_check",
        "run_scale_point", "run_scale_suite",
    ),
    "serving": ("SERVING_PAYLOAD", "ServingBenchConfig", "run_serving_suite"),
    "tune": ("TUNE_PAYLOAD", "TuneBenchConfig", "run_tune_benchmark"),
    "payload": ("BenchPayload", "effective_cpu_count", "machine_info"),
    "rss": ("PeakMemoryProbe", "read_peak_rss_bytes"),
})
