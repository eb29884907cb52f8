"""Process-pool execution for GSO runs: escape the GIL without losing bits.

The thread-pooled :class:`~repro.api.middleware.Execute` stage overlaps runs
only as far as NumPy releases the GIL; on a many-core host the pure-Python
parts of the swarm loop serialise.  :class:`ProcessExecute` swaps the thread
pool for a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`:

* the fitted finder — compiled surrogate SoA tables included — is pickled
  **once per worker per model generation** through the pool initializer, not
  per task; each task ships only the tiny ``(query, max_proposals)`` pair
  (plus a fresh profile hook when observability is on) and receives the
  pickled :class:`~repro.core.finder.RegionSearchResult` back;
* a hot swap (generation bump) is detected on the next batch and the pool is
  rebuilt against the new finder — in-flight tasks on the old pool finish on
  the generation they started with, exactly like the thread path;
* results are **bit-identical** to in-process execution: every run derives
  its RNG stream from the finder's configured seed, and the finder pickle
  round-trip is exact (asserted by ``tests/unit/test_fault_injection.py``);
* a finder that cannot be pickled (e.g. carrying a live caller-owned
  ``Generator``, or a test double with unpicklable state) silently falls back
  to the inherited thread launch for that batch, so the stage is always safe
  to install.

Worker exceptions surface per-request as status ``"error"`` and deadline
expiries as ``"timeout"`` — the inherited fault/deadline handling of
:class:`Execute` applies unchanged, because this class only overrides *where*
runs execute, not how their outcomes are classified.

Install it via ``ServiceKernel(finder, executor="process")`` or explicitly::

    from repro.api.admission import production_chain
    from repro.api.execution import ProcessExecute

    kernel = ServiceKernel(finder, middleware=production_chain(
        execute=ProcessExecute(max_workers=4),
    ))

Call :meth:`ProcessExecute.close` (or ``kernel.close()`` / the kernel's
context manager) to shut the worker pool down deterministically.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.api.middleware import BatchContext, Execute, _obs_of, run_query
from repro.exceptions import ValidationError

# Worker-process global: the finder installed by the pool initializer.  Each
# worker unpickles it exactly once per pool generation.
_WORKER_FINDER = None


def _install_worker_finder(payload: bytes) -> None:
    global _WORKER_FINDER
    _WORKER_FINDER = pickle.loads(payload)


def _run_worker_query(query, max_proposals, hook):
    """One :func:`~repro.api.middleware.run_query` against the worker's finder.

    ``hook`` is the parent's fresh per-run profile (pickled along with the
    task) or ``None``; its summary rides back in the outcome, and the parent
    counts the run from the returned result exactly as for a thread run.
    """
    return run_query(_WORKER_FINDER, query, max_proposals, hook)


class ProcessExecute(Execute):
    """Run distinct pending queries on a persistent process pool.

    Parameters
    ----------
    max_workers:
        Worker process count (``None`` = ``os.cpu_count()``, at least 1).
    mp_context:
        A :mod:`multiprocessing` start-method name (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``) or a pre-built context; ``None``
        uses the platform default.
    """

    name = "execute-process"

    #: Process execution always goes through the pool (that is the point).
    _inline_allowed = False

    def __init__(self, max_workers: Optional[int] = None, mp_context=None):
        if max_workers is not None and max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key = None  # (kernel id, generation) the pool was built for
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ pool lifecycle
    def _pool_workers(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        return max(1, os.cpu_count() or 1)

    def _launch(self, ctx: BatchContext, runnable):
        """Submit to the shared process pool (rebuilt on generation change).

        Submission happens under the pool lock so a concurrent hot swap can
        never retire a pool between this batch acquiring it and finishing its
        submissions; once submitted, futures run to completion even if the
        pool is replaced a moment later (``shutdown(wait=False)`` retires it
        only after its queue drains).
        """
        if ctx.kernel._uses_shared_generator(ctx.finder):
            # A caller-owned live Generator cannot meaningfully be shared
            # with worker processes (each would advance a private copy);
            # preserve the single-worker in-process semantics instead.
            return super()._launch(ctx, runnable)
        key = (id(ctx.kernel), ctx.generation)
        with self._pool_lock:
            if self._pool is None or self._pool_key != key:
                try:
                    payload = pickle.dumps(ctx.finder)
                except Exception:  # noqa: BLE001 - unpicklable test doubles etc.
                    return super()._launch(ctx, runnable)
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_workers(),
                    mp_context=self._mp_context,
                    initializer=_install_worker_finder,
                    initargs=(payload,),
                )
                self._pool_key = key
            obs, _recorder = _obs_of(ctx)
            futures = [
                self._pool.submit(
                    _run_worker_query,
                    key_[0],
                    key_[1],
                    obs.run_profiler() if obs is not None else None,
                )
                for key_, _indices in runnable
            ]

        def finish(stalled: bool) -> None:
            # The pool is persistent: nothing to tear down per batch.  A
            # stalled worker keeps its slot busy until its run returns; the
            # batch has already stopped waiting on it.
            del stalled

        return futures, finish

    def _note_failure(self, exc: BaseException) -> None:
        # A worker that died (segfault, OOM kill) leaves the whole pool
        # broken; drop it so the next batch rebuilds instead of failing
        # forever.  Ordinary exceptions raised *inside* a run leave the pool
        # healthy and are ignored here.
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc, BrokenProcessPool):
            with self._pool_lock:
                pool, self._pool, self._pool_key = self._pool, None, None
            if pool is not None:
                pool.shutdown(wait=False)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later batch rebuilds it)."""
        with self._pool_lock:
            pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


__all__ = ["ProcessExecute"]
