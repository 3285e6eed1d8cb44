"""Per-layer timing for the traced run, from outside the program.

The traced run wraps the program's public callables at each layer
boundary and keeps its own clock: every wrapped call pushes a frame,
and on return its *self* time (elapsed minus the time of wrapped calls
nested inside it) is added to its layer.  The self times of all layers
plus the root frame around the traced window (``unassigned``) add up
to the traced wall time of this process; :func:`coverage` is the share
of it that named layers take, and the traced run fails when that share
is below :data:`COVERAGE_FLOOR`.

Nothing is changed inside ``repro``; the wrappers are installed into
the module attributes and class attributes that callers look up.  Work
done in sweep worker processes is not seen here: it is read from the
spans the program ships home when its own tracer is installed
(:func:`worker_layers`).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional

#: Named layers must cover at least this share of the time a process
#: spends in the traced window (the round process), or in cells (a
#: sweep's pool workers).
COVERAGE_FLOOR = 0.95

#: Worker-side layers: the spans nested in a worker's ``cell_exec``.
WORKER_LAYERS = ("workloads.trace_gen_s", "models.build_s", "kernels.simulate_s",
                 "fallback.simulate_s", "batch.simulate_s")


class _Frame:
    __slots__ = ("layer", "start", "inner", "inner_built")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.start = time.perf_counter()
        self.inner = 0.0
        self.inner_built = 0


class LayerClock:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: List[_Frame] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def push(self, layer: str) -> _Frame:
        frame = _Frame(layer)
        self.stack.append(frame)
        return frame

    def pop(self) -> float:
        frame = self.stack.pop()
        elapsed = time.perf_counter() - frame.start
        self.seconds[frame.layer] += elapsed - frame.inner
        if self.stack:
            self.stack[-1].inner += elapsed
        return elapsed

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``layer``; ``after(frame, args, result)`` counts.

        Calls from another process (a forked pool worker inherits the
        wrappers) go straight through: their numbers come from spans.
        """
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if os.getpid() != clock.pid:
                return fn(*args, **kwargs)
            frame = clock.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                clock.pop()
            if after is not None:
                after(frame, args, result)
            return result

        timed.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return timed

    def wrap_generator(self, layer: str, gen: Iterable) -> Iterable:
        """Time only the steps spent inside ``gen``, not its consumer."""
        iterator = iter(gen)
        while True:
            self.push(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.pop()
            yield item


def replace_everywhere(original: object, replacement: object) -> int:
    """Rebind every ``repro`` module attribute that is ``original``.

    Modules import callables by name (``from .trace_cache import
    as_trace``), so wrapping one binding is not enough.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _bump(clock: LayerClock, **counts: float) -> None:
    for name, amount in counts.items():
        clock.counts[name] += amount


def install(clock: LayerClock, factories: Iterable[object], evaluators: Iterable[object]) -> None:
    """Wrap every layer boundary the benchmark reports on.

    ``factories`` and ``evaluators`` are the model factories and cell
    evaluators the workload will run; their classes' ``__call__`` are
    wrapped (every instance of the class is then timed).
    """
    from repro.experiments import spec as spec_mod
    from repro.obs import metrics as obs_metrics
    from repro.perf import engine, kernels, parallel, trace_cache
    from repro.perf.cells import CellIdentity
    from repro.store import ResultStore

    registry = obs_metrics.current_registry()

    # repro.workloads, reached through the trace memo.
    def trace_miss_count() -> float:
        return registry.value("trace.cache.miss") or 0.0

    original_as_trace = trace_cache.as_trace

    def as_trace(trace):
        if os.getpid() != clock.pid:
            return original_as_trace(trace)
        before = trace_miss_count()
        frame = clock.push("workloads.trace_gen")
        try:
            result = original_as_trace(trace)
        finally:
            clock.pop()
        built = int(trace_miss_count() - before) - frame.inner_built
        parent = clock.stack[-1] if clock.stack else None
        if parent is not None:
            parent.inner_built += built + frame.inner_built
        if built > 0:
            _bump(clock, **{"workloads.traces_built": built, "workloads.refs_built": len(result)})
        return result

    replace_everywhere(original_as_trace, functools.wraps(original_as_trace)(as_trace))

    # repro.perf.kernels: any kernel entered marks its simulate() call
    # as a kernel call.
    for name in dir(kernels):
        value = getattr(kernels, name)
        if name.startswith("simulate_") and callable(value):
            wrapped = _kernel_wrapper(clock, value)
            replace_everywhere(value, wrapped)

    # perf.engine.simulate: a fallback unless a kernel ran inside it.
    def count_path(frame, args, result):
        path = "kernels" if frame.layer == "kernels.simulate" else "fallback"
        _bump(clock, **{f"{path}.calls": 1, f"{path}.refs": len(args[1])})

    replace_everywhere(engine.simulate, clock.wrap("fallback.simulate", engine.simulate, count_path))

    # repro.perf.batch, through its engine entry point.
    replace_everywhere(
        engine.simulate_batch_specs,
        clock.wrap("batch.simulate", engine.simulate_batch_specs,
                   lambda frame, args, result: _bump(clock, **{"batch.cells": len(args[1])})),
    )

    # Model build: the factories' __call__, counted at the outermost call.
    for cls in {type(factory) for factory in factories}:
        _wrap_method(clock, cls, "__call__", "models.build", "models.built")
    for cls in {type(evaluator) for evaluator in evaluators}:
        _wrap_method(clock, cls, "__call__", "evaluators", "evaluators.calls")

    # repro.experiments executor: rendering.
    replace_everywhere(
        spec_mod.render_spec,
        clock.wrap("experiments.render", spec_mod.render_spec,
                   lambda frame, args, result: _bump(clock, **{"experiments.specs": 1})),
    )

    # repro.store: open, content keys, writes, reads.
    _wrap_method(clock, ResultStore, "__init__", "store.open")
    _wrap_method(clock, CellIdentity, "key", "store.key")
    original_record_many = ResultStore.record_many
    ResultStore.record_many = clock.wrap(  # type: ignore[method-assign]
        "store.record", original_record_many,
        lambda frame, args, result: _bump(clock, **{"store.records": len(args[1])}),
    )
    original_get = ResultStore.get
    ResultStore.get = clock.wrap(  # type: ignore[method-assign]
        "store.lookup", original_get,
        lambda frame, args, result: _bump(
            clock, **{"store.lookups": 1, "store.hits": int(result is not None)}
        ),
    )

    # repro.perf.backends: parent-side time inside whichever backend
    # the sweep picks (dispatch, waiting on workers, teardown).
    original_create = parallel.create_backend

    def create_backend(name):
        backend = original_create(name)
        submit, close = backend.submit_cells, backend.close
        backend.submit_cells = lambda pending, ctx: clock.wrap_generator(  # type: ignore[method-assign]
            "backends.dispatch", submit(pending, ctx)
        )
        backend.close = clock.wrap("backends.dispatch", close)  # type: ignore[method-assign]
        return backend

    replace_everywhere(original_create, create_backend)


def _kernel_wrapper(clock: LayerClock, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if os.getpid() != clock.pid:
            return fn(*args, **kwargs)
        if clock.stack and clock.stack[-1].layer == "fallback.simulate":
            clock.stack[-1].layer = "kernels.simulate"
        clock.push("kernels.simulate")
        try:
            return fn(*args, **kwargs)
        finally:
            clock.pop()

    return timed


def _wrap_method(clock: LayerClock, cls: type, name: str, layer: str,
                 counter: Optional[str] = None) -> None:
    """Time ``cls.name`` as ``layer``; count outermost calls in ``counter``."""
    original = cls.__dict__.get(name) or getattr(cls, name)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return

    def count_outermost(frame, args, result):
        if not any(other.layer == layer for other in clock.stack):
            _bump(clock, **{counter: 1})

    setattr(cls, name, clock.wrap(layer, original, count_outermost if counter else None))


def worker_layers(spans: Iterable[object], parent_pid: int) -> Dict[str, float]:
    """Layer totals from the spans sweep workers shipped home.

    Spans merged from a worker carry its ``pid``; the cell body is the
    ``cell_exec`` span, with ``trace_gen``, ``build_model`` and
    ``simulate`` (``path`` = ``kernel`` or ``reference``) inside it.
    """
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        attrs = span.attrs  # type: ignore[attr-defined]
        pid = attrs.get("pid")
        if pid is None or int(pid) == parent_pid:
            continue
        seconds = float(span.duration)  # type: ignore[attr-defined]
        name = span.name  # type: ignore[attr-defined]
        if name == "cell_exec":
            totals["backends.worker_busy_s"] += seconds
            totals["backends.cells_dispatched"] += 1
        elif name == "trace_gen":
            totals["backends.worker_trace_gen_s"] += seconds
            totals["workloads.trace_gen_s"] += seconds
            totals["workloads.traces_built"] += 1
            totals["workloads.refs_built"] += float(attrs.get("refs", 0))
        elif name == "build_model":
            totals["models.build_s"] += seconds
            totals["models.built"] += 1
        elif name == "simulate":
            path = "kernels" if attrs.get("path") == "kernel" else "fallback"
            totals[f"{path}.simulate_s"] += seconds
            totals[f"{path}.calls"] += 1
            totals[f"{path}.refs"] += float(attrs.get("refs", 0))
        elif name == "simulate_batch":
            totals["batch.simulate_s"] += seconds
            totals["batch.cells"] += float(attrs.get("cells", 0))
    return dict(totals)


def coverage(unassigned_s: float, traced_wall_s: float,
             workers: Optional[Mapping[str, float]] = None) -> float:
    """The smallest share of a process's time that named layers cover.

    For the round process that is its traced wall minus the time in no
    layer; for a sweep's pool workers (``workers``, from
    :func:`worker_layers`) the named spans over their busy time.
    """
    shares = [1.0 - unassigned_s / traced_wall_s]
    if workers:
        named = sum(workers.get(name, 0.0) for name in WORKER_LAYERS)
        shares.append(named / workers["backends.worker_busy_s"])
    return min(shares)
