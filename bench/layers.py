"""Timing wrappers around the public functions of each layer.

A :class:`LayerTracer` replaces a function where its caller looks it up
(a module attribute or a class attribute) with a wrapper that records the
call count, the wall time inside the call and the *self* time -- the wall
time minus the part spent in nested wrapped calls.  Nesting is tracked in
a :class:`contextvars.ContextVar`, so interleaved asyncio tasks keep
separate stacks, and async functions are timed across their awaits (which
records the time they wait in queues).  Calls on another thread (the
service's compute executor) start a stack of their own.

The wrappers live in the benchmark, never in the program, so the
untraced run measures the program exactly as shipped.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute path) for every wrapped function.  A
#: function imported by name into several modules is patched in each.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # serve: the per-request path and the cold path behind admission
    ("serve.request_digest", "repro.serve.service", "request_digest"),
    ("serve.cache.get_or_compute", "repro.serve.cache", "FrontierCache.get_or_compute"),
    ("serve.batcher.submit", "repro.serve.batching", "MicroBatcher.submit"),
    ("serve.admission.decide", "repro.serve.admission", "AdmissionController.decide"),
    ("model.best_index", "repro.model.batched", "DeadlineStaircase.best_index"),
    ("model.evaluate_space_arrays", "repro.model.batched", "evaluate_space_arrays"),
    ("model.evaluate_space_arrays", "repro.cluster.search", "evaluate_space_arrays"),
    ("model.evaluate_space_arrays", "repro.cluster.pareto", "evaluate_space_arrays"),
    ("model.deadline_staircase", "repro.model.batched", "deadline_staircase"),
    ("cluster.pareto_indices", "repro.cluster.pareto", "pareto_indices"),
    ("cluster.fits_mask", "repro.cluster.budget", "PowerBudget.fits_mask"),
    # offline reproduction: tables, figures, DVFS study, exhaustive search
    ("cluster.recommend_exhaustive", "repro.cluster.search", "recommend_exhaustive"),
    ("cluster.evaluate_space", "repro.cluster.pareto", "evaluate_space"),
    ("cluster.evaluate_space", "repro.experiments.dvfs", "evaluate_space"),
    ("model.operating_point_constants", "repro.model.batched", "operating_point_constants"),
    ("model.operating_point_constants", "repro.model.vectorized", "operating_point_constants"),
    ("model.operating_point_constants", "repro.scheduler.engine", "operating_point_constants"),
    ("experiments.tables", "repro.experiments.report", "report_table4"),
    ("experiments.tables", "repro.experiments.report", "report_table5"),
    ("experiments.tables", "repro.experiments.report", "report_table6"),
    ("experiments.tables", "repro.experiments.report", "report_table7"),
    ("experiments.tables", "repro.experiments.report", "report_table8"),
    ("experiments.figures", "repro.experiments.report", "report_figure"),
    ("experiments.dvfs", "repro.experiments.dvfs", "dvfs_frontier_study"),
    # Monte-Carlo validation
    ("queueing.MonteCarloQueue.run", "repro.queueing.mc", "MonteCarloQueue.run"),
    ("queueing.percentile_ci", "repro.queueing.mc", "ReplicatedResult.percentile_ci"),
    ("queueing.MD1Queue.p95_response_s", "repro.queueing.md1", "MD1Queue.p95_response_s"),
    ("queueing.MM1Queue.response_percentile", "repro.queueing.mg1",
     "MM1Queue.response_percentile"),
    # scheduler replay
    ("scheduler.run", "repro.scheduler.engine", "ClusterScheduler.run"),
    ("scheduler.select.round-robin", "repro.scheduler.policies", "RoundRobin.select"),
    ("scheduler.select.jsq", "repro.scheduler.policies", "JoinShortestQueue.select"),
    ("scheduler.select.po2", "repro.scheduler.policies", "PowerOfTwoChoices.select"),
    ("scheduler.select.ppr-greedy", "repro.scheduler.policies", "PPRGreedy.select"),
    ("scheduler.sample_interval", "repro.queueing.processes",
     "PoissonIntervalArrivals.sample_interval"),
    ("scheduler.decide", "repro.scheduler.autoscaler", "PredictiveAutoscaler.decide"),
    ("scheduler.build_ladder", "repro.experiments.scheduling", "build_ladder"),
    ("extensions.simulate_adaptation", "repro.experiments.scheduling", "simulate_adaptation"),
)

#: Distinct layer names, in table order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

_FRAME: "contextvars.ContextVar[Optional[List[float]]]" = contextvars.ContextVar(
    "bench_layer_frame", default=None
)


class LayerTracer:
    """Installs and removes the wrappers; accumulates per-layer totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``[calls, ms, self_ms]`` per layer.
        self._totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self._offthread_ms = 0.0
        self._patched: List[Tuple[object, str, object, bool]] = []

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "ms", "self_ms"}}`` accumulated so far."""
        with self._lock:
            return {
                name: {"calls": float(c), "ms": ms, "self_ms": self_ms}
                for name, (c, ms, self_ms) in self._totals.items()
            }

    @property
    def offthread_ms(self) -> float:
        """Wall time of outermost wrapped calls made off the main thread.

        In the service those run on the compute executor while a request
        awaits :meth:`MicroBatcher.submit`, so this is the part of the
        submit time that other layers already account for.
        """
        with self._lock:
            return self._offthread_ms

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` where it is looked up."""
        if self._patched:
            return
        for name, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _record(self, name: str, wall_s: float, child_s: float, outermost: bool) -> None:
        offthread = outermost and threading.current_thread() is not threading.main_thread()
        with self._lock:
            row = self._totals[name]
            row[0] += 1
            row[1] += wall_s * 1e3
            row[2] += (wall_s - child_s) * 1e3
            if offthread:
                self._offthread_ms += wall_s * 1e3

    def _wrap(self, name: str, fn: Callable) -> Callable:
        record = self._record
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _FRAME.get()
                frame = [0.0]
                token = _FRAME.set(frame)
                t0 = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    wall = perf_counter() - t0
                    _FRAME.reset(token)
                    if parent is not None:
                        parent[0] += wall
                    record(name, wall, frame[0], parent is None)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _FRAME.get()
            frame = [0.0]
            token = _FRAME.set(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter() - t0
                _FRAME.reset(token)
                if parent is not None:
                    parent[0] += wall
                record(name, wall, frame[0], parent is None)

        return wrapper
