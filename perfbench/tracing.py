"""Benchmark-side spans around the layers' public functions.

A :class:`Tracer` replaces each traced function with a wrapper that
records one span per call: ``(id, name, start, end, parent, request)``.
Spans are kept in memory and written out when the run ends.  The
program itself carries no tracing code; every span here is recorded
around a call into a layer.

``from module import name`` copies a function into the importing
module, so :meth:`Tracer.install` imports every ``repro`` module and
replaces each binding that still refers to the original — the call
sites in ``repro.core.engine``, ``repro.core.sweep`` and the others
see the wrapper too.

The current span travels in a :class:`contextvars.ContextVar`: each
asyncio task of the server and each thread has its own, so concurrent
requests do not adopt each other's spans.  Work that hops onto the
service's engine thread is parented explicitly by the
``service.engine`` wrapper.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

#: (current span id, request id) of the running task or thread.
_CURRENT = contextvars.ContextVar("perfbench_span", default=(None, None))

#: Functions traced in every workload: (module, attribute, span name).
FUNCTIONS = (
    ("repro.bpel.compile", "compile_process", "bpel.compile"),
    ("repro.afsa.view", "project_view", "afsa.view.project"),
    ("repro.core.classify", "classify_against_partner", "core.engine.classify"),
    ("repro.core.propagate", "propagate_additive", "core.engine.propagate"),
    ("repro.core.propagate", "propagate_subtractive", "core.engine.propagate"),
    ("repro.core.suggestions", "derive_suggestions", "core.engine.suggest"),
    ("repro.core.sweep", "check_kernel_pair", "core.sweep.check_pair"),
    ("repro.core.sweep", "sweep_pairs", "core.sweep.sweep"),
    ("repro.core.sweep", "sweep_choreography", "core.sweep.sweep"),
    ("repro.afsa.lazy", "pair_verdict", "afsa.lazy.verdict"),
    ("repro.afsa.witness", "lazy_pair_witness", "afsa.witness.witness"),
    ("repro.instances.migrate", "classify_fleet", "instances.classify"),
)

#: Methods traced in every workload: (module, class, method, span name).
METHODS = (
    ("repro.core.engine", "EvolutionEngine", "apply_private_change",
     "core.engine.evolve"),
    ("repro.core.runtime", "EvolutionRuntime", "map_streaming",
     "core.runtime.dispatch"),
    ("repro.core.runtime", "EvolutionRuntime", "map_chunked",
     "core.runtime.dispatch"),
)

#: Service methods, traced inside the server process only.
SERVICE_METHODS = (
    ("repro.service.app", "ChoreoService", "dispatch", "service.dispatch"),
    ("repro.service.app", "ChoreoService", "_run_engine", "service.engine"),
)


def _import_all(package: str = "repro") -> list:
    """Import every module of *package* so all bindings exist."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Records spans in memory; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list = []
        #: Counts read off traced results (e.g. migration classes).
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def _open(self):
        parent, request = _CURRENT.get()
        return next(self._ids), parent, request

    def _close(self, span_id, name, start, parent, request) -> None:
        self.spans.append(
            (span_id, name, start, time.perf_counter(), parent, request)
        )

    def wrap(self, fn, name: str, on_result=None):
        """A wrapper that records a *name* span around each call of
        *fn*; a generator function's span lasts until it is exhausted
        or closed."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                span_id, parent, request = self._open()
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(span_id, name, start, parent, request)

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span_id, parent, request = self._open()
            token = _CURRENT.set((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self._close(span_id, name, start, parent, request)
            if on_result is not None:
                on_result(self, result)
            return result

        return call

    def wrap_dispatch(self, fn):
        """``ChoreoService.dispatch``: the root span of one request,
        tagged with the client's ``X-Request-Id``."""

        @functools.wraps(fn)
        async def dispatch(service, request, *args, **kwargs):
            span_id = next(self._ids)
            request_id = request.headers.get("x-request-id")
            token = _CURRENT.set((span_id, request_id))
            start = time.perf_counter()
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self._close(
                    span_id, "service.dispatch", start, None, request_id
                )

        return dispatch

    def wrap_engine(self, fn):
        """``ChoreoService._run_engine``: a ``service.engine`` span from
        submit to result, with a ``service.engine_wait`` child for the
        time the work queued before the engine thread started it.  The
        engine thread runs the work under the ``service.engine`` span,
        so the layers it calls become that span's children."""

        @functools.wraps(fn)
        async def run_engine(service, work):
            span_id, parent, request = self._open()
            submitted = time.perf_counter()

            def traced_work():
                started = time.perf_counter()
                self.spans.append(
                    (next(self._ids), "service.engine_wait", submitted,
                     started, span_id, request)
                )
                token = _CURRENT.set((span_id, request))
                try:
                    return work()
                finally:
                    _CURRENT.reset(token)

            try:
                return await fn(service, traced_work)
            finally:
                self._close(span_id, "service.engine", submitted, parent,
                            request)

        return run_engine

    # -- installation -----------------------------------------------------

    def _replace_bindings(self, modules, original, wrapper) -> None:
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._undo.append((module, attribute, original))

    def install(self, service: bool = False) -> None:
        """Wrap every traced function, method and call-site binding."""
        modules = _import_all()
        for module_name, attribute, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            on_result = _count_classes if name == "instances.classify" else None
            self._replace_bindings(
                modules, original, self.wrap(original, name, on_result)
            )
        methods = METHODS + (SERVICE_METHODS if service else ())
        for module_name, class_name, method, name in methods:
            owner = getattr(sys.modules[module_name], class_name)
            original = vars(owner)[method]
            if name == "service.dispatch":
                wrapper = self.wrap_dispatch(original)
            elif name == "service.engine":
                wrapper = self.wrap_engine(original)
            else:
                wrapper = self.wrap(original, name)
            setattr(owner, method, wrapper)
            self._undo.append((owner, method, original))
        global _ACTIVE
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        global _ACTIVE
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def drain(self) -> tuple[list, dict]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, self.spans = self.spans, []
        counts, self.counts = dict(self.counts), defaultdict(int)
        return spans, counts


def _count_classes(tracer: Tracer, report) -> None:
    tracer.counts["instances.classes"] += report.classes
    tracer.counts["instances.instances"] += sum(report.counts.values())


#: The tracer installed in this process (inherited by forked shards).
_ACTIVE: Tracer | None = None


def write_spans(path: str, spans) -> None:
    """Write *spans* as one JSON list per line."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    """Read spans written by :func:`write_spans`."""
    with open(path) as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


def shard_snapshot(_payload=None) -> dict:
    """Runs inside a runtime shard: hand over the shard's spans and
    counters.  Dispatched to every shard through the runtime's public
    ``map`` before and after the measured window."""
    from repro.afsa.lazy import VERDICTS, warm_stats

    from perfbench.measure import vm_hwm_mb

    spans, counts = _ACTIVE.drain() if _ACTIVE is not None else ([], {})
    return {
        "pid": os.getpid(),
        "spans": spans,
        "counts": counts,
        "verdicts": VERDICTS.stats(),
        "warm": warm_stats(),
        "peak_rss_mb": vm_hwm_mb(),
    }


def within(spans, intervals) -> list:
    """The spans that start inside one of the sorted, disjoint
    ``(start, end)`` *intervals* (``perf_counter`` is one clock for
    every process of the machine, so shard spans filter the same way)."""
    starts = [start for start, _ in intervals]
    kept = []
    for span in spans:
        index = bisect.bisect_right(starts, span[2]) - 1
        if index >= 0 and span[2] <= intervals[index][1]:
            kept.append(span)
    return kept


def self_times(spans) -> dict:
    """Self time of each span, keyed by span id.

    Self time is the span's duration minus the part of its interval
    that the union of its children's intervals covers.  *spans* must
    come from one process (span ids are per process).
    """
    children: dict = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def summarize(spans) -> dict:
    """Per span name: ``{"calls", "total_s", "self_s"}`` for spans of
    one process."""
    selfs = self_times(spans)
    summary: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, _, _ in spans:
        entry = summary[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[span_id]
    return dict(summary)


def merge_summaries(summaries) -> dict:
    """Add per-name summaries of several processes."""
    merged: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for summary in summaries:
        for name, entry in summary.items():
            for key, value in entry.items():
                merged[name][key] += value
    return dict(merged)
