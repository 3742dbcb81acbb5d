"""Span recording around the program's public entry points.

The traced benchmark run replaces a fixed set of methods, at class level,
with wrappers that record one :class:`Span` per call.  Nothing inside the
program changes: the wrappers call the original method and time it from
outside.  Spans are kept in memory; :meth:`SpanRecorder.dump` writes them
out when the run ends.

A span's *self time* is its duration minus the durations of its child
spans.  Children run on the parent's thread and are nested, so their
durations do not overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import pathlib
import threading
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    frame: int
    thread: int
    end: float = 0.0
    children_s: float = 0.0
    #: A ``core.plan.get`` that found no plan, or the
    #: ``core.pipeline.run`` that made it (a generic run).
    missed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


#: Root spans that end a frame on their thread.
FRAME_ROOTS = frozenset({"core.pipeline.run", "resilience.run", "cpu.run"})


@dataclass
class SpanRecorder:
    """Thread-safe in-memory span log with class-level method patching."""

    spans: list[Span] = field(default_factory=list)
    #: Distinct workspaces handed out by ``BufferPool.checkout``.
    workspaces: "weakref.WeakSet[Any]" = field(
        default_factory=weakref.WeakSet)
    workspaces_created: int = 0
    workspace_bytes: int = 0
    #: Simulated frame time (s) by frame shape, from ``GPUResult``.
    sim_by_shape: dict[tuple[int, int], set[float]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_frame = 0
        self._patches: list[tuple[type, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.carry = None
        parent = stack[-1] if stack else None
        if parent is not None:
            frame = parent.frame
        elif local.carry is not None:
            frame, local.carry = local.carry, None
        else:
            with self._lock:
                frame = self._next_frame
                self._next_frame += 1
        span = Span(name, time.perf_counter(), parent, frame,
                    threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration
        elif span.name not in FRAME_ROOTS:
            # A root that is not a pipeline call (image conversion ahead
            # of the pipeline) belongs to the frame that follows it.
            self._local.carry = span.frame
        self.spans.append(span)

    def traced(self, fn: Callable, name: str,
               after: Callable[[Span, Any], None] | None = None
               ) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, result)
            return result

        return wrapper

    # -- class-level patching ----------------------------------------------

    def patch(self, owner: type, attr: str, name: str,
              after: Callable[[Span, Any], None] | None = None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.traced(original.__func__, name, after))
        else:
            replacement = self.traced(original, name, after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced entry point of the program."""
        from repro.cl.queue import CommandQueue
        from repro.core.bufferpool import BufferPool
        from repro.core.pipeline import GPUPipeline
        from repro.core.plan import ExecutionPlan, PlanCache
        from repro.cpu.pipeline import CPUPipeline
        from repro.lifecycle.health import HealthReporter
        from repro.lifecycle.job import EngineHooks
        from repro.lifecycle.journal import JobJournal
        from repro.obs.runctx import RunContext
        from repro.resilience.fallback import FallbackPipeline
        from repro.types import Image

        self.patch(GPUPipeline, "run", "core.pipeline.run",
                   self._after_gpu_run)
        self.patch(ExecutionPlan, "execute", "core.plan.execute")
        self.patch(ExecutionPlan, "replay_observability", "obs.replay")
        self.patch(PlanCache, "get", "core.plan.get", self._after_plan_get)
        self.patch(BufferPool, "checkout", "core.bufferpool.checkout",
                   self._after_checkout)
        self.patch(CommandQueue, "enqueue_nd_range", "cl.enqueue")
        self.patch(FallbackPipeline, "run", "resilience.run")
        self.patch(CPUPipeline, "run", "cpu.run")
        self.patch(Image, "from_array", "types.from_array")
        self.patch(EngineHooks, "on_frame", "lifecycle.on_frame")
        self.patch(JobJournal, "append", "lifecycle.journal_append")
        self.patch(HealthReporter, "maybe_write", "lifecycle.health_write")
        self.patch(RunContext, "observe_stages", "obs.record")
        self.patch(RunContext, "record_run", "obs.record")

    # -- result hooks ------------------------------------------------------

    def _after_gpu_run(self, span: Span, result: Any) -> None:
        with self._lock:
            self.sim_by_shape.setdefault(result.final.shape, set()).add(
                result.total_time)

    @staticmethod
    def _after_plan_get(span: Span, plan: Any) -> None:
        if plan is None:
            span.missed = True
            if span.parent is not None \
                    and span.parent.name == "core.pipeline.run":
                span.parent.missed = True

    def _after_checkout(self, span: Span, ws: Any) -> None:
        with self._lock:
            if ws not in self.workspaces:
                self.workspaces.add(ws)
                self.workspaces_created += 1
                self.workspace_bytes += ws.nbytes

    # -- output ------------------------------------------------------------

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as ``[name, start, end, parent, frame, thread]``
        (``parent`` is the parent's position in the list, or -1)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.start, s.end,
                 index[id(s.parent)] if s.parent is not None else -1,
                 s.frame, s.thread] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")


#: Per-frame self-time metrics (ms) and the span each one sums.
SELF_MS = {
    "core.plan.execute_ms": "core.plan.execute",
    "core.bufferpool.checkout_ms": "core.bufferpool.checkout",
    "cl.enqueue_ms": "cl.enqueue",
    "core.pipeline.run_ms": "core.pipeline.run",
    "types.from_array_ms": "types.from_array",
    "obs.replay_ms": "obs.replay",
    "obs.record_ms": "obs.record",
    "lifecycle.on_frame_ms": "lifecycle.on_frame",
    "lifecycle.journal_append_ms": "lifecycle.journal_append",
    "lifecycle.health_write_ms": "lifecycle.health_write",
    "util.io.read_ms": "util.io.read",
    "util.io.write_ms": "util.io.write",
    "resilience.run_ms": "resilience.run",
    "cpu.run_ms": "cpu.run",
}

#: Root spans that are one worker's call into the pipeline.
_WORKER_CALLS = ("core.pipeline.run", "resilience.run")


def summarize(rec: SpanRecorder, frames: int,
              windows: list[tuple[float, float]],
              workers: int) -> dict[str, float]:
    """Span-derived per-layer metrics.

    ``frames`` is the number of frames completed while tracing; self
    times are divided by it.  ``windows`` are the traced timed calls
    (``perf_counter`` start and end), during which ``workers`` threads
    could have been busy; they set ``core.batch.idle_frac``.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    gpu_tries: Counter[int] = Counter()
    generic: list[float] = []
    misses = busy = 0.0
    for s in rec.spans:
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        if s.name == "core.plan.get":
            misses += s.missed
        elif s.name == "core.pipeline.run":
            if s.missed:
                generic.append(s.duration)
            if s.parent is not None and s.parent.name == "resilience.run":
                gpu_tries[id(s.parent)] += 1
        if s.parent is None and s.name in _WORKER_CALLS:
            busy += sum(max(0.0, min(s.end, hi) - max(s.start, lo))
                        for lo, hi in windows)
    out = {metric: 1e3 * self_s[name] / frames
           for metric, name in SELF_MS.items()}
    lookups = calls["core.plan.get"]
    checkouts = calls["core.bufferpool.checkout"]
    created = rec.workspaces_created
    out.update({
        "core.plan.hits": lookups - misses,
        "core.plan.misses": misses,
        "core.plan.hit_ratio": ((lookups - misses) / lookups
                                if lookups else 0.0),
        "core.pipeline.generic_runs": len(generic),
        "core.pipeline.generic_ms": (1e3 * sum(generic) / len(generic)
                                     if generic else 0.0),
        "cl.launches": calls["cl.enqueue"],
        "core.bufferpool.created": created,
        "core.bufferpool.workspace_mb": rec.workspace_bytes / 2**20,
        "core.bufferpool.reuse_ratio": (1.0 - created / checkouts
                                        if checkouts else 0.0),
        "core.batch.idle_frac":
            1.0 - busy / (workers * sum(hi - lo for lo, hi in windows)),
        "lifecycle.journal_appends": calls["lifecycle.journal_append"],
        "resilience.retries": sum(n - 1 for n in gpu_tries.values()),
        "resilience.fallback_frames": calls["cpu.run"],
    })
    return out
