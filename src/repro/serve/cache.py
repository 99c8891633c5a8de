"""Digest-keyed frontier cache: LRU-bounded, single-flight, invalidated by key.

The cache maps one *configuration digest* — the same
:func:`repro.obs.ledger.config_digest` the run ledger stamps on every
record — to the precomputed answers for that configuration: the deadline
staircase's steps, one rendered answer per step, and the Pareto frontier
(the evaluated space arrays they are built from are not kept).
Because the key is a digest of the *configuration* parameters only,
invalidation is free: mutate any workload/budget parameter and the digest
changes, so the next request misses and recomputes; stale entries age out
under the LRU bound.

Placement-only knobs are excluded before digesting.
:func:`request_digest` strips :data:`repro.cli._NON_CONFIG_KEYS` — the
exact frozenset the CLI's ledger records use — so a ``workers`` (or
``trace_out``/``ledger_dir``...) field in a request body can never
fragment the cache into per-placement copies of the same frontier
(regression-pinned in ``tests/serve/test_cache.py``).

Single-flight: concurrent requests for the same cold key compute the
entry ONCE.  The first asks the factory to compute; followers await the
same in-flight future.  A failed compute propagates to every waiter and
leaves no entry behind, so the next request retries cleanly.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs.ledger import config_digest
from repro.obs.metrics import get_registry

__all__ = ["FrontierCache", "FrontierEntry", "request_digest"]

#: Default LRU bound: entries are a few KB each (staircase steps, rendered
#: answers, frontier), so a few dozen keeps the working set of every paper
#: workload x space shape resident without unbounded growth.
DEFAULT_CAPACITY = 32


def request_digest(params: Mapping[str, object]) -> str:
    """The configuration digest of one request's parameters.

    Reuses the CLI's ledger conventions end to end: placement-only keys
    (:data:`repro.cli._NON_CONFIG_KEYS` — ``workers``, output paths,
    ledger plumbing) are stripped first, then the rest is digested with
    :func:`repro.obs.ledger.config_digest`.  Two requests that differ
    only in where/how they execute therefore share one cache entry, and
    a serve-side digest equals the ledger digest of the equivalent
    offline CLI run.
    """
    from repro.cli import _NON_CONFIG_KEYS

    cleaned: Dict[str, object] = {}
    for key, value in params.items():
        if key in _NON_CONFIG_KEYS:
            continue
        if isinstance(value, Mapping):
            cleaned[key] = {str(k): v for k, v in sorted(value.items())}
        else:
            cleaned[key] = value
    try:
        return _digest_of_items(tuple(sorted(cleaned.items())))
    except TypeError:  # an unhashable value (nested mapping) — full path
        return config_digest(cleaned)


@lru_cache(maxsize=4096)
def _digest_of_items(items: Tuple[Tuple[str, object], ...]) -> str:
    """Memoized digest over hashable param items (the per-request hot path:
    hot digests repeat for every request against a warm cache entry)."""
    return config_digest(dict(items))


@dataclass(frozen=True)
class FrontierEntry:
    """One cached configuration's answer machinery.

    ``payload`` is endpoint-specific (the service stores evaluated space
    arrays + staircase + frontier for ``recommend``/``frontier`` keys and
    a result document for ``schedule`` keys); the cache itself only needs
    the digest and the params that produced it (kept for introspection
    and the ``/stats`` endpoint).
    """

    digest: str
    params: Mapping[str, object]
    payload: Any


class FrontierCache:
    """An LRU-bounded, single-flight cache of :class:`FrontierEntry`.

    Synchronous ``get``/``put`` serve tests and warm paths;
    :meth:`get_or_compute` is the async single-flight entry the service
    uses.  All bookkeeping is event-loop-confined (the service is a
    single-loop asyncio program), so no locking is needed beyond the
    in-flight future map.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, FrontierEntry]" = OrderedDict()
        self._inflight: Dict[str, "asyncio.Future[FrontierEntry]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.computes = 0

    # -- sync surface ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def keys(self) -> List[str]:
        """Cached digests, least- to most-recently used."""
        return list(self._entries)

    def get(self, digest: str) -> Optional[FrontierEntry]:
        """The cached entry (refreshing its recency), or None on a miss.

        Counts a hit or miss — call only on real request paths.
        """
        entry = self._entries.get(digest)
        registry = get_registry()
        if entry is None:
            self.misses += 1
            if registry.enabled:
                registry.counter(
                    "repro_serve_cache_misses_total",
                    help="Frontier-cache lookups that required a compute",
                ).inc()
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        if registry.enabled:
            registry.counter(
                "repro_serve_cache_hits_total",
                help="Frontier-cache lookups answered from memory",
            ).inc()
        return entry

    def put(self, entry: FrontierEntry) -> None:
        """Insert (or refresh) one entry, evicting the LRU tail if full."""
        self._entries[entry.digest] = entry
        self._entries.move_to_end(entry.digest)
        registry = get_registry()
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            if registry.enabled:
                registry.counter(
                    "repro_serve_cache_evictions_total",
                    help="Frontier-cache entries evicted under the LRU bound",
                ).inc()
        if registry.enabled:
            registry.gauge(
                "repro_serve_cache_entries",
                help="Frontier-cache entries currently resident",
            ).set(len(self._entries))

    def invalidate(self, digest: str) -> bool:
        """Drop one entry; returns whether it was present."""
        return self._entries.pop(digest, None) is not None

    def clear(self) -> None:
        """Drop every entry (counters keep their totals)."""
        self._entries.clear()

    # -- async single-flight ----------------------------------------------
    async def get_or_compute(
        self,
        digest: str,
        params: Mapping[str, object],
        factory: Callable[[], Any],
        ctx: Optional[Any] = None,
    ) -> Tuple[FrontierEntry, bool]:
        """The entry for ``digest``, computing it at most once.

        Returns ``(entry, was_hit)``.  ``factory`` runs in the calling
        task (the service wraps it in its compute executor); concurrent
        callers for the same cold digest await the first caller's
        in-flight future instead of recomputing (single-flight, pinned in
        ``tests/serve/test_cache.py``).  A factory failure propagates to
        every waiter and caches nothing.

        ``ctx`` (a :class:`repro.obs.request.RequestContext`) attributes
        the coalesced wait to the request's span tree, so a flight dump
        distinguishes "waited on another request's compute" from
        "computed it myself".
        """
        entry = self.get(digest)
        if entry is not None:
            return entry, True
        pending = self._inflight.get(digest)
        if pending is not None:
            # Coalesced onto the in-flight compute: not a hit (the answer
            # was not resident), but not a second compute either.
            if ctx is not None:
                with ctx.stage("cache.wait", coalesced=True):
                    return await asyncio.shield(pending), False
            return await asyncio.shield(pending), False
        future: "asyncio.Future[FrontierEntry]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[digest] = future
        try:
            payload = factory()
            if asyncio.iscoroutine(payload):
                payload = await payload
            entry = FrontierEntry(digest=digest, params=dict(params), payload=payload)
            self.computes += 1
            self.put(entry)
            future.set_result(entry)
            return entry, False
        except BaseException as exc:
            future.set_exception(exc)
            # The failure is delivered through the future to any waiter;
            # if nobody else awaited it, mark it retrieved so the loop
            # does not log a never-consumed exception.
            if not future.cancelled():
                future.exception()
            raise
        finally:
            self._inflight.pop(digest, None)

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters plus occupancy (for ``/stats``)."""
        total = self.hits + self.misses
        return {
            "entries": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "computes": float(self.computes),
            "hit_fraction": (self.hits / total) if total else 0.0,
        }
