"""In-memory span tracing for the loop benchmark.

:func:`installed` wraps the public entry points of each layer at class
level for the duration of a ``with`` block and puts the original
function objects back in ``finally``.  Every wrapped call records a
:class:`Span` (name, start, end, parent, thread, trace id = campaign
index).  A span opened on a thread with no open span of its own (an SPMD
rank thread) takes the innermost open span of the tracing thread as its
parent, so rank work nests under the ``disar.execute`` call that spawned
it.

:func:`exclusive_seconds` turns spans into per-name self time with a
timeline sweep: every instant is charged to the deepest open span(s).
Overlapping spans of one name on several rank threads are charged once,
so the self times of all names add up to the wall time the root spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "installed", "exclusive_seconds", "write_chrome_trace"]

#: ``value(args, kwargs, result)`` — a count recorded on the span.
ValueFn = Callable[[tuple, dict, Any], float]

#: Learner spans are leaves: a learner called inside another learner's
#: span (a ``RandomTree`` fitted by ``RandomForest.fit``) counts toward
#: the outer one.
LEAF_LAYER = "ml."


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "trace", "depth", "value")

    def __init__(self, id, parent, name, start, thread, trace, depth):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.trace = trace
        self.depth = depth
        self.value = 0.0


class Tracer:
    """Collects spans; :meth:`drain` hands them over and clears the buffer."""

    def __init__(self) -> None:
        self.trace: object = None
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: list[Span], name: str) -> Span:
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            time.perf_counter(),
            threading.get_ident(),
            self.trace,
            parent.depth + 1 if parent is not None else 0,
        )
        stack.append(span)
        return span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self._spans.append(span)

    def wrap(self, original: Callable, name: str, value: ValueFn | None) -> Callable:
        """``original`` recording a span per call (see :data:`LEAF_LAYER`)."""
        leaf = name.startswith(LEAF_LAYER)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if leaf and stack and stack[-1].name.startswith(LEAF_LAYER):
                return original(*args, **kwargs)
            span = self._open(stack, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(stack, span)
            if value is not None:
                span.value = float(value(args, kwargs, result))
            return result

        return functools.update_wrapper(wrapper, original)

    def drain(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


def _rows(args: tuple, kwargs: dict, result: Any) -> float:
    return len(result)


def _states(args: tuple, kwargs: dict, result: Any) -> float:
    return result.n_states


def _demoted(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result.escalated)


def _blocks(args: tuple, kwargs: dict, result: Any) -> float:
    return len(result.alm_results) + len(result.actuarial_results)


def _inner_paths(method: Callable) -> ValueFn:
    signature = inspect.signature(method)

    def value(args: tuple, kwargs: dict, result: Any) -> float:
        if result is None:  # non-root rank of a distributed run
            return 0.0
        bound = signature.bind(*args, **kwargs).arguments
        return bound["n_outer_cal"] * bound["n_inner_cal"]

    return value


def targets() -> list[tuple[type, str, str, ValueFn | None]]:
    """``(class, attribute, span name, value)`` for every traced entry point."""
    from repro.cloud.cluster import StarClusterManager
    from repro.core.deploy import TransparentDeploySystem
    from repro.core.knowledge_base import KnowledgeBase
    from repro.core.selection import ConfigurationSelector
    from repro.disar.master import DisarMasterService
    from repro.ml import ALGORITHMS
    from repro.montecarlo.lsmc import LSMCEngine
    from repro.runtime.runner import DeadlineGuardedRunner
    from repro.spot.mdp import DeadlineMdp
    from repro.spot.verify import SpotPlanVerifier

    found: list[tuple[type, str, str, ValueFn | None]] = [
        (TransparentDeploySystem, "run_simulation", "core.run_simulation", None),
        (TransparentDeploySystem, "retrain", "core.retrain", None),
        (KnowledgeBase, "add", "core.kb.add", None),
        (KnowledgeBase, "training_matrices", "core.kb.training_matrices", None),
        (ConfigurationSelector, "select", "core.select", None),
        (ConfigurationSelector, "evaluate_all", "core.evaluate_all", None),
        (DeadlineGuardedRunner, "run", "runtime.run", None),
        (SpotPlanVerifier, "verify", "spot.verify", _demoted),
        (DeadlineMdp, "solve", "spot.mdp.solve", _states),
        (StarClusterManager, "run_campaign", "cloud.run_campaign", None),
        (DisarMasterService, "execute", "disar.execute", _blocks),
        (LSMCEngine, "run", "montecarlo.lsmc", _inner_paths(LSMCEngine.run)),
        (
            LSMCEngine,
            "run_distributed",
            "montecarlo.lsmc",
            _inner_paths(LSMCEngine.run_distributed),
        ),
    ]
    for name, cls in ALGORITHMS.items():
        found.append((cls, "fit", f"ml.fit.{name}", None))
        found.append((cls, "predict", f"ml.predict.{name}", _rows))
    return found


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Trace every entry point of :func:`targets` inside the block."""
    saved: list[tuple[type, str, Callable]] = []
    try:
        for cls, attr, name, value in targets():
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(original, name, value))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def exclusive_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span name, charging each instant to the deepest
    open span(s); names tied at that depth share the instant."""
    spans = [span for span in spans if span.end > span.start]
    events = sorted(
        itertools.chain(
            ((span.start, 1, span) for span in spans),
            ((span.end, 0, span) for span in spans),
        ),
        key=lambda event: (event[0], event[1]),
    )
    seconds: dict[str, float] = defaultdict(float)
    active: dict[int, Span] = {}
    previous = 0.0
    for moment, opening, span in events:
        if active and moment > previous:
            deepest = max(open_span.depth for open_span in active.values())
            names = {s.name for s in active.values() if s.depth == deepest}
            share = (moment - previous) / len(names)
            for name in names:
                seconds[name] += share
        if opening:
            active[span.id] = span
        else:
            del active[span.id]
        previous = moment
    return dict(seconds)


def write_chrome_trace(path: str, spans: list[Span]) -> None:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
    origin = min((span.start for span in spans), default=0.0)
    threads: dict[int, int] = {}
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 1,
            "tid": threads.setdefault(span.thread, len(threads)),
            "args": {"trace": span.trace, "id": span.id, "parent": span.parent},
        }
        for span in sorted(spans, key=lambda s: (s.start, -s.end))
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
