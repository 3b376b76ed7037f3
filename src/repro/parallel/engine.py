"""Process-pool execution engine with deterministic seeding and ordering.

:class:`ParallelEngine` is the one place the repo talks to
``multiprocessing``: experiment fan-outs, the parallel benchmark and any
future sharded workload all submit picklable payloads to a module-level
worker function and get results back **in submission order**, with child
exceptions re-raised in the parent carrying the full worker traceback.

Design rules the rest of the codebase relies on:

* ``n_jobs=1`` never touches a pool — tasks run inline in the calling
  process (same function, same payloads), so the serial path is trivially
  bit-identical and always available as a fallback.
* Determinism belongs to *tasks*, not workers: which process picks up
  which task is scheduling noise, so per-task RNG streams are derived up
  front via :func:`spawn_task_seeds` (``np.random.SeedSequence.spawn``)
  and shipped inside the payload.  No two tasks ever share correlated
  state, and the serial run sees the exact same seeds.
* Large inputs travel through :mod:`repro.parallel.shared` packs attached
  by the pool initializer, never through the task pipe.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ParallelEngine",
    "WorkerTaskError",
    "default_start_method",
    "spawn_task_seeds",
]


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, inherits imports),
    ``spawn`` otherwise.  Worker functions and payloads are required to
    be picklable module-level objects either way, so the two differ only
    in startup cost."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def spawn_task_seeds(entropy: int | Sequence[int], n_tasks: int) -> list[int]:
    """``n_tasks`` independent integer seeds via ``SeedSequence.spawn``.

    Each task gets its own spawned child stream, so seeds are pairwise
    uncorrelated no matter how tasks land on workers — and identical
    between serial and parallel execution, because derivation depends
    only on ``entropy`` and the task index.

    Args:
        entropy: Root entropy (an int or a sequence of ints).
        n_tasks: Number of independent streams to derive.

    Returns:
        One ``uint32``-ranged Python int per task.
    """
    root = np.random.SeedSequence(entropy)
    return [int(child.generate_state(1)[0]) for child in root.spawn(n_tasks)]


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker process.

    Attributes:
        index: Submission-order index of the failing task.
        worker_traceback: Formatted traceback captured in the worker.
    """

    def __init__(self, index: int, message: str, worker_traceback: str):
        super().__init__(
            f"task {index} failed in worker: {message}\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )
        self.index = index
        self.worker_traceback = worker_traceback


def _guarded_call(fn: Callable, payload) -> tuple[str, object]:
    """Run one task, catching everything so tracebacks survive pickling."""
    try:
        return ("ok", fn(payload))
    except BaseException as exc:  # noqa: BLE001 - surfaced to the parent
        return ("error", (repr(exc), traceback.format_exc()))


def _pool_task(args: tuple) -> tuple[str, object]:
    fn, payload = args
    return _guarded_call(fn, payload)


@dataclass(frozen=True)
class ParallelEngine:
    """Maps a worker function over payloads, serially or via a pool.

    Pools start with :func:`default_start_method`.  ``fork`` and
    ``spawn`` both work because nothing relies on inherited state —
    workers receive everything via initializer args and payloads.

    Attributes:
        n_jobs: Worker process count; ``1`` (default) runs inline.
    """

    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")

    def map(
        self,
        fn: Callable,
        payloads: Iterable,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> list:
        """Run ``fn(payload)`` for every payload; results in input order.

        Args:
            fn: Module-level (picklable) worker function of one argument.
            payloads: Picklable task payloads.
            initializer: Optional per-worker setup (e.g. attaching a
                :class:`~repro.parallel.shared.SharedArrayPack`); with
                ``n_jobs=1`` it runs once, inline, before the tasks.
            initargs: Arguments for ``initializer``.

        Returns:
            ``[fn(p) for p in payloads]`` — exactly that list, whatever
            the execution mode.

        Raises:
            WorkerTaskError: If any task raised; the earliest failing
                task (in submission order) wins, with its worker
                traceback attached.
        """
        payloads = list(payloads)
        if self.n_jobs == 1:
            if initializer is not None:
                initializer(*initargs)
            return [fn(payload) for payload in payloads]

        context = multiprocessing.get_context(default_start_method())
        outcomes: list[tuple[str, object]] = []
        with ProcessPoolExecutor(
            max_workers=min(self.n_jobs, max(len(payloads), 1)),
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [
                pool.submit(_pool_task, (fn, payload)) for payload in payloads
            ]
            outcomes = [future.result() for future in futures]
        results = []
        for index, (status, value) in enumerate(outcomes):
            if status == "error":
                message, worker_tb = value
                raise WorkerTaskError(index, message, worker_tb)
            results.append(value)
        return results
