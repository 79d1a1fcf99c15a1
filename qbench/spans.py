"""Span tracing for the benchmark's traced run, installed from outside the program.

:meth:`SpanTracer.install` wraps the public entry point of each layer (graph expansion,
k-best Steiner, query generation, execution, pushdown, learning, registration,
matching, profiling, persistence) with a function that records a span: name,
start, end, parent and thread.  The parent comes from a per-thread stack, so
a span's self time is its duration minus the part its direct children cover.
Spans stay in memory; :meth:`SpanTracer.layer_times` turns them into the
per-layer totals when the run ends.  :meth:`SpanTracer.uninstall` restores
every original attribute.

Nothing here touches the program's own sources: the wrappers replace class
attributes at run time and only in the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    child_s: float = 0.0
    base_solves: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


#: (span name, module, class or None for a module function, attribute, hook).
#: One layer may own several entry points; its metrics sum over them.  The
#: hook names a :class:`SpanTracer` method that reads counters off the call.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, Optional[str]], ...] = (
    ("graph.expand", "repro.graph.query_graph", "QueryGraphBuilder", "expand", None),
    ("steiner.solve", "repro.steiner.topk", "KBestSteiner", "solve", "_after_solve"),
    ("steiner.base_solve", "repro.steiner.network", "SteinerNetwork", "default_tree", "_after_base_solve"),
    ("core.generate", "repro.core.query_generation", "QueryGenerator", "generate_all", None),
    ("engine.execute", "repro.engine.executor", "PlanExecutor", "execute", "_after_execute"),
    ("engine.execute", "repro.core.view", None, "ranked_union", None),
    ("storage.pushdown", "repro.engine.context", "ExecutionContext", "try_pushdown_union_raw", None),
    ("storage.pushdown", "repro.engine.context", "ExecutionContext", "try_pushdown_union_ranked", None),
    ("learning.mira", "repro.learning.mira", "OnlineLearner", "process", "_after_mira"),
    ("alignment.register", "repro.alignment.registration", "SourceRegistrar", "register", None),
    ("alignment.align", "repro.alignment.base", "BaseAligner", "align", None),
    ("matching.match", "repro.matching.ensemble", "MatcherEnsemble", "match_tables", None),
    ("profiling.index", "repro.profiling.index", "CatalogProfileIndex", "index_source", None),
    ("persist.save", "repro.api.service", "QService", "save", None),
    ("persist.open", "repro.api.service", "QService", "open", None),
)


class SpanTracer:
    """Collects spans from the wrapped entry points (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own oracle work)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.duration
                if on_exit is not None:
                    on_exit(span, args, result)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> "SpanTracer":
        for name, module_name, class_name, attr, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch(owner, attr, name, getattr(self, hook) if hook else None)
        # Base matchers score the pairs registration hands them; wrap every
        # concrete ``match_relations`` so matcher time is attributed.
        base = importlib.import_module("repro.matching").BaseMatcher
        for cls in _subclasses(base):
            if "match_relations" in vars(cls):
                self._patch(cls, "match_relations", "matching.match", None)
        return self

    def _patch(self, owner, attr: str, name: str, on_exit) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, on_exit))
        else:
            replacement = self.wrap(name, original, on_exit)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # Counters observed at the same boundaries --------------------------
    def _after_base_solve(self, span: Span, args, result) -> None:
        self.count("steiner.base_solves")
        index = span.parent
        while index is not None:
            parent = self.spans[index]
            if parent.name == "steiner.solve":
                parent.base_solves += 1
                return
            index = parent.parent

    def _after_solve(self, span: Span, args, result) -> None:
        self.count("steiner.solves")
        self.count("steiner.trees", len(result or ()))
        solver = args[0]
        cap = getattr(solver, "max_expansions", None)
        if cap is not None and span.base_solves >= 1 + cap:
            self.count("steiner.cap_hits")

    def _after_execute(self, span: Span, args, result) -> None:
        self.count("engine.queries_executed")

    def _after_mira(self, span: Span, args, result) -> None:
        if result is not None:
            self.count("learning.constraints", result.constraints)

    # ------------------------------------------------------------------
    def layer_times(self) -> Dict[str, Tuple[float, float, int]]:
        """Per layer: (total ms of outermost spans, self ms, span count).

        A span nested inside another span of the *same* layer (a matcher
        called by the ensemble) adds to the layer's self time but not again
        to its total.
        """
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, [0.0, 0.0, 0])
            entry[1] += span.duration - span.child_s
            entry[2] += 1
            if not self._inside_same_layer(span):
                entry[0] += span.duration
        return {name: (t * 1000.0, s * 1000.0, int(n)) for name, (t, s, n) in out.items()}

    def _inside_same_layer(self, span: Span) -> bool:
        index = span.parent
        while index is not None:
            parent = self.spans[index]
            if parent.name == span.name:
                return True
            index = parent.parent
        return False


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
