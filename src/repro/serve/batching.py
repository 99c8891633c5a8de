"""The compute lane: admitted cold computes, one at a time, off the loop.

A request that misses the frontier cache needs one full sweep (or one
schedule replay).  The service runs each such compute as one call on a
single-worker thread executor, so the event loop keeps answering cache
hits (and shedding) while NumPy works, and computes never overlap.
Concurrent misses on one digest reach the lane once: the cache's
single-flight guard (:meth:`repro.serve.cache.FrontierCache.get_or_compute`)
has already collapsed them.

Three guards ride every call:

* **Deadline.** Each submission carries an absolute deadline (its
  timeout).  A compute whose deadline passed before its turn came fails
  with :class:`BatchTimeout` (HTTP 504) and never runs — a request
  nobody is waiting for must not consume a sweep.
* **Depth.** :attr:`MicroBatcher.depth` counts admitted computes that
  have not started: the queue the admission controller's M/D/1 model
  describes (:mod:`repro.serve.admission`).
* **Trace.** The submitting request's context gets ``batch.queue``
  (submit to compute start) and ``batch.compute`` stages.

The class name and the ``batching`` counter names of :meth:`stats` are
the ones the benchmark's layer tracer (``bench/layers.py``) and serve
workloads read; every compute counts once in both counters.
"""

from __future__ import annotations

import asyncio
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError

__all__ = ["BatchTimeout", "MicroBatcher"]

_SHUT_DOWN = "service shut down before the query was computed"


class BatchTimeout(ReproError):
    """A query's deadline passed (or the service shut down) before its
    compute finished."""


class MicroBatcher:
    """The single compute lane in front of the cold path.

    ``await submit(fn)`` runs ``fn()`` on the lane's one worker thread and
    returns its result (or raises its exception, to that caller alone).
    ``observe``, when given, receives each finished compute's wall time
    on the loop thread — the admission controller's service-time sample.
    """

    def __init__(self, observe: Optional[Callable[[float], None]] = None) -> None:
        self._observe = observe
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )
        self._lock = threading.Lock()
        self._waiting = 0
        self._closed = False
        self.computes = 0
        self.expired = 0

    @property
    def depth(self) -> int:
        """Admitted computes that have not started (the admission input)."""
        return self._waiting

    async def submit(
        self,
        fn: Callable[[], Any],
        *,
        timeout_s: Optional[float] = None,
        ctx: Optional[Any] = None,
    ) -> Any:
        """Run ``fn()`` on the lane once every earlier submission has run.

        Raises :class:`BatchTimeout` when ``timeout_s`` elapses first
        (still waiting or mid-compute) or the lane closes before the
        compute starts.  ``ctx`` (a
        :class:`repro.obs.request.RequestContext`) receives the
        ``batch.queue`` and ``batch.compute`` stages.
        """
        if self._closed:
            raise BatchTimeout(_SHUT_DOWN)
        queued = perf_counter()
        deadline = math.inf if timeout_s is None else queued + timeout_s
        with self._lock:
            self._waiting += 1
        job = self._executor.submit(self._run, fn, deadline)
        future = asyncio.wrap_future(job)
        try:
            done, _ = await asyncio.wait((future,), timeout=timeout_s)
        finally:
            future.cancel()  # no-op once done; else a late result is dropped
            if job.cancel():  # it never started, so _run never counted it out
                with self._lock:
                    self._waiting -= 1
        if not done:
            raise BatchTimeout(
                f"query timed out after {timeout_s:g}s awaiting its compute"
            )
        if future.cancelled():  # only close() cancels a job behind our back
            raise BatchTimeout(_SHUT_DOWN)
        started, result, finished = future.result()
        if ctx is not None:
            ctx.add_stage("batch.queue", start_s=queued, wall_s=started - queued)
            ctx.add_stage("batch.compute", start_s=started, wall_s=finished - started)
        if self._observe is not None:
            self._observe(finished - started)
        return result

    def _run(self, fn: Callable[[], Any], deadline: float) -> Tuple[float, Any, float]:
        """The worker thread, when this compute's turn has come."""
        started = perf_counter()
        with self._lock:
            self._waiting -= 1
            if started > deadline:
                self.expired += 1
                raise BatchTimeout("query deadline expired before compute")
            self.computes += 1
        return started, fn(), perf_counter()

    def close(self) -> None:
        """Fail every compute that has not started, without waiting for
        the one that is running (it finishes on its thread)."""
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> Dict[str, float]:
        """Lane counters for ``/stats``."""
        return {
            "batches": float(self.computes),
            "batched_queries": float(self.computes),
            "expired": float(self.expired),
            "mean_batch_size": 1.0 if self.computes else 0.0,
            "depth": float(self.depth),
        }
