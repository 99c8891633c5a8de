"""The layer tracer: wrapping where callers look functions up, self time,
per-task nesting under asyncio, and clean removal."""

import asyncio

import pytest

from layers import LAYER_NAMES, LAYERS, LayerTracer


def _space():
    import repro

    return repro.workload("EP"), [
        repro.TypeSpace(repro.get_node_spec("A9"), n_max=4),
        repro.TypeSpace(repro.get_node_spec("K10"), n_max=2),
    ]


def test_uninstall_restores_every_function():
    import importlib

    def lookup(module_name, path):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attr

    before = {}
    for _, module_name, path in LAYERS:
        owner, attr = lookup(module_name, path)
        before[(module_name, path)] = (attr in vars(owner), getattr(owner, attr))
    tracer = LayerTracer()
    tracer.install()
    try:
        owner, attr = lookup("repro.cluster.search", "recommend_exhaustive")
        assert getattr(owner, attr) is not before[("repro.cluster.search", "recommend_exhaustive")][1]
    finally:
        tracer.uninstall()
    for (module_name, path), (own, fn) in before.items():
        owner, attr = lookup(module_name, path)
        assert (attr in vars(owner)) == own
        assert getattr(owner, attr) is fn


def test_self_time_excludes_nested_wrapped_calls():
    from repro.cluster import search

    workload, spaces = _space()
    tracer = LayerTracer()
    tracer.install()
    try:
        rec = search.recommend_exhaustive(workload, spaces, deadline_s=1e9)
    finally:
        tracer.uninstall()
    assert rec is not None
    totals = tracer.totals()
    assert set(totals) == set(LAYER_NAMES)
    outer = totals["cluster.recommend_exhaustive"]
    inner = totals["model.evaluate_space_arrays"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["ms"] >= inner["ms"] > 0
    assert outer["self_ms"] == pytest.approx(outer["ms"] - inner["ms"])
    assert tracer.offthread_ms == 0.0


def test_async_calls_nest_per_task_across_awaits():
    from repro.cluster import search
    from repro.serve import cache as cache_mod

    workload, spaces = _space()
    tracer = LayerTracer()
    tracer.install()
    try:
        async def main():
            cache = cache_mod.FrontierCache(4)

            async def factory():
                await asyncio.sleep(0.05)
                return search.recommend_exhaustive(workload, spaces, deadline_s=1e9)

            # Two interleaved tasks: each one's compute must nest under its
            # own get_or_compute, never under the other's.
            await asyncio.gather(cache.get_or_compute("a", {}, factory),
                                 cache.get_or_compute("b", {}, factory))

        asyncio.run(main())
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    outer = totals["serve.cache.get_or_compute"]
    inner = totals["cluster.recommend_exhaustive"]
    assert outer["calls"] == inner["calls"] == 2
    assert outer["self_ms"] == pytest.approx(outer["ms"] - inner["ms"])
    # Timed across the await: each call spent its 50 ms sleeping.
    assert outer["self_ms"] >= 2 * 45
