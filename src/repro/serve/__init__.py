"""repro.serve — the always-on recommendation service.

Every ``recommend``/``schedule``/``frontier`` answer used to re-run a
sweep from scratch inside a fresh process.  This package turns the
reproduction into the latency-critical scale-out workload it models
(the Subramaniam & Feng framing in PAPERS.md): a long-lived asyncio
service that precomputes and caches Pareto frontiers and deadline
staircases per configuration digest, computes each cold digest once on
a single compute lane, and sheds load at an occupancy threshold derived
from our own M/D/1 p95 model — the scheduler schedules itself.

Layers (each its own module, composable and separately tested):

* :mod:`repro.serve.cache` — the digest-keyed LRU frontier cache with
  single-flight computation;
* :mod:`repro.serve.admission` — M/D/1-derived admission control;
* :mod:`repro.serve.batching` — the compute lane: one cold compute at
  a time on a worker thread, with per-request deadline tracking;
* :mod:`repro.serve.service` — the asyncio HTTP server and endpoint
  handlers (stdlib only, no new runtime deps);
* :mod:`repro.serve.loadgen` — the open/closed-loop load generator and
  the ``repro-serve/1`` result envelope.

Serving contract: a cache-hit ``recommend`` answer is bit-identical to
an offline ``repro recommend --strategy exhaustive`` for the same
configuration digest (pinned by ``tests/serve/test_service.py`` and the
``serving-slo`` claim monitor).
"""

from repro.serve.admission import AdmissionController, derive_occupancy_limit
from repro.serve.batching import BatchTimeout, MicroBatcher
from repro.serve.cache import FrontierCache, FrontierEntry, request_digest
from repro.serve.service import ServeConfig, ServeStats, ReproService
from repro.serve.loadgen import (
    LOADGEN_SCHEMA,
    LoadgenResult,
    loadgen_envelope,
    loadgen_scalars,
    run_loadgen,
    selfhosted_loadgen,
)

__all__ = [
    "AdmissionController",
    "derive_occupancy_limit",
    "BatchTimeout",
    "MicroBatcher",
    "FrontierCache",
    "FrontierEntry",
    "request_digest",
    "ServeConfig",
    "ServeStats",
    "ReproService",
    "LOADGEN_SCHEMA",
    "LoadgenResult",
    "loadgen_envelope",
    "loadgen_scalars",
    "run_loadgen",
    "selfhosted_loadgen",
]
