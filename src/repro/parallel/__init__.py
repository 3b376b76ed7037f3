"""Process-pool execution with zero-copy shared-memory data handoff.

Public surface:

* :class:`~repro.parallel.engine.ParallelEngine` — ordered, exception-
  surfacing ``map`` over worker processes (inline at ``n_jobs=1``).
* :func:`~repro.parallel.engine.spawn_task_seeds` — per-task RNG streams
  via ``np.random.SeedSequence.spawn``.
* :class:`~repro.parallel.shared.SharedArrayPack` — one shared-memory
  block carrying numpy data to workers without per-task pickling.

:mod:`repro.parallel.worker` (the experiment worker entry points) is
imported on demand by the experiment runner, not re-exported here — it
pulls in the training stack, which this package must not depend on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": (
        "ParallelEngine", "WorkerTaskError", "default_start_method",
        "spawn_task_seeds",
    ),
    "shared": (
        "ArrayEntry", "PackSpec", "SharedArrayPack",
        "environments_from_arrays", "environments_to_arrays",
        "ragged_from_arrays", "ragged_to_arrays",
    ),
})
