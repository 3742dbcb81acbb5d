"""Execution plans: amortize per-frame pipeline setup across a stream.

``GPUPipeline.run`` derives the same facts from scratch on every frame of a
stream: which kernels the flag set implies, where the border and reduction
stage 2 run, every NDRange geometry, the reduction level chain, and — in the
simulation — the entire event timeline, which is a pure function of
``(shape, flags, device, cpu, mode)`` and never of pixel values (the dry-run
mode relies on exactly this property).

An :class:`ExecutionPlan` captures all of that once, from the first (fully
generic) run of a given :class:`PlanKey`, and replays it for every later
frame:

* the *decisions* (kernel set, placements, reduction levels) are recorded
  from the launches of that run and reused instead of re-derived;
* the *timeline* and per-stage times are shared as an immutable template —
  simulated costs are content-independent, so frame N's timeline is
  bit-identical to frame 1's;
* the *pixels* are produced by calling the stage functions of
  :mod:`repro.algo.stages` — the same functions the generic kernels run —
  on pooled scratch (see :mod:`repro.core.bufferpool`), and by summing the
  edge map over the reduction level chain the capture launched.  Cached
  and uncached runs therefore produce **bit-identical** images and edge
  means by construction — the test suite asserts ``np.array_equal``.

:class:`PlanCache` is a thread-safe LRU keyed on :class:`PlanKey`; its
hit/miss counters surface through the metrics registry as
``repro_plan_cache_requests_total{outcome=...}``.  Capture is
single-flight: of the workers that ask for a cold key at once, one gets the
miss and runs the generic path, the others wait for its plan.

The executor runs each sweep's row strips on the calling thread plus one
helper lane per core no frame is using (:data:`LANES`, :data:`LOAD`).
"""

from __future__ import annotations

import os
import threading
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from ..algo import stages as algo
from ..kernels.reduction import group_sums
from ..simgpu.device import CPUSpec, DeviceSpec
from ..simgpu.profiling import Timeline
from ..types import FLOAT, SharpnessParams, StageTimes
from .config import OptimizationFlags

#: Pixel budget of one row strip of :meth:`ExecutionPlan.execute`: a
#: float64 strip plane is 512 KB, so a strip's working planes stay in one
#: core's L2.
STRIP_PIXELS = 1 << 16


def strip_rows(h: int, w: int) -> int:
    """Rows per strip of an ``h x w`` frame: a multiple of 4 (whole
    downscale blocks) near ``STRIP_PIXELS / w``, at least 4, at most ``h``.
    """
    return min(max(4, 4 * (STRIP_PIXELS // w // 4)), h)


def strip_bounds(h: int, strip: int, shift: int) -> list[tuple[int, int]]:
    """``(y0, y1)`` row ranges of one sweep: cuts every ``strip`` rows,
    offset by ``shift`` (the first strip is ``strip + shift`` rows), with
    the last cut at least ``shift + 1`` rows from the bottom."""
    cuts = [0, *range(strip + shift, h - shift, strip), h]
    return list(zip(cuts, cuts[1:]))


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the OS
    reports one (so ``taskset`` and cpuset limits count), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Lanes of a sweep: the calling thread plus at most ``LANES - 1`` helpers.
LANES = usable_cores()


class FrameLoad:
    """Process-wide count of frames inside
    :meth:`~repro.core.pipeline.GPUPipeline.run` (a context manager).

    The whole run counts, not only :meth:`ExecutionPlan.execute`: a batch
    worker between two executor calls still holds its core, so lending
    that core to another frame's strips slows both.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.in_flight = 0

    def __enter__(self) -> None:
        with self._lock:
            self.in_flight += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self.in_flight -= 1


LOAD = FrameLoad()

_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The strip helper threads, ``LANES - 1`` of them, made on first use
    (never on a 1-core host: a 1-lane sweep submits nothing)."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(max_workers=LANES - 1,
                                          thread_name_prefix="repro-strip")
        return _helpers


class _Sweep:
    """The strips of one sweep and the lock-guarded cursor its lanes
    claim them from, one at a time; records the first lane error."""

    def __init__(self, bounds: list[tuple[int, int]], lanes) -> None:
        self.bounds = bounds
        #: One scratch set per lane; ``lanes[0]`` is the calling thread's.
        self.lanes = lanes
        self.next = 0
        self.error: BaseException | None = None
        self._lock = threading.Lock()

    def _claim(self, helper: bool) -> tuple[int, int] | None:
        with self._lock:
            if (self.error is not None or self.next == len(self.bounds)
                    or (helper and LOAD.in_flight >= len(self.lanes))):
                return None
            self.next += 1
            return self.bounds[self.next - 1]

    def drain(self, body, scratch, helper: bool = False) -> None:
        """Run ``body(y0, y1, scratch)`` on claimed strips until none is
        left, a lane has failed, or (for a helper) every core has a frame.
        """
        try:
            while (rows := self._claim(helper)) is not None:
                body(*rows, scratch)
        except BaseException as exc:  # repro: ignore[PL-BROAD-EXCEPT] re-raised by run()
            with self._lock:
                if self.error is None:
                    self.error = exc

    def run(self, body) -> None:
        """Drain the sweep on the calling thread plus one helper per idle
        core, each lane with its own scratch; return only after every
        helper has stopped, re-raising the first lane error.
        """
        n_help = min(len(self.lanes) - LOAD.in_flight, len(self.bounds) - 1)
        futures = [_helper_pool().submit(self.drain, body, self.lanes[k],
                                         True)
                   for k in range(1, n_help + 1)]
        self.drain(body, self.lanes[0])
        for future in futures:
            future.cancel()  # a helper that never started has nothing to do
        wait(futures)
        if self.error is not None:
            raise self.error


@dataclass(frozen=True)
class PlanKey:
    """Identity of an execution plan.

    Params *values* are deliberately absent: the plan depends only on the
    params structure (they feed kernel arguments, not kernel selection or
    geometry), so one plan serves every tuning of the same shape/flags.
    """

    height: int
    width: int
    flags: OptimizationFlags
    device: DeviceSpec
    cpu: CPUSpec
    mode: str
    params_structure: str = SharpnessParams.__name__


@dataclass
class ExecutionPlan:
    """Everything frame-invariant about one pipeline configuration."""

    key: PlanKey
    border_gpu: bool
    stage2_gpu: bool
    #: Device-side reduction levels as the ``(count, n_groups)`` pairs the
    #: capture launched; empty when the reduction ran on the CPU.
    reduction_levels: tuple[tuple[int, int], ...]
    #: Kernel names of the flag set (introspection / logs).
    kernels: tuple[str, ...]
    #: Immutable per-frame timeline template (content-independent costs).
    timeline: Timeline
    times: StageTimes
    kernel_launches: int
    #: Observability replay: command counts by kind, simulated kernel
    #: durations by kernel name, transfer bytes by direction.
    cmd_counts: dict[str, int] = field(default_factory=dict)
    kernel_durations: dict[str, tuple[float, ...]] = field(
        default_factory=dict)
    transfer_bytes: dict[str, int] = field(default_factory=dict)

    # -- capture --------------------------------------------------------------

    @classmethod
    def capture(cls, key: PlanKey, *, timeline: Timeline, times: StageTimes,
                border_gpu: bool, stage2_gpu: bool,
                reduction_levels: tuple[tuple[int, int], ...],
                kernels: tuple[str, ...],
                transfer_bytes: dict[str, int]) -> "ExecutionPlan":
        """Build a plan from the artifacts of one generic reference run."""
        cmd_counts = dict(Counter(ev.kind for ev in timeline.events))
        durations: dict[str, list[float]] = {}
        for ev in timeline.events:
            if ev.kind == "kernel":
                name = ev.name.removeprefix("kernel:")
                durations.setdefault(name, []).append(ev.duration)
        return cls(
            key=key,
            border_gpu=border_gpu,
            stage2_gpu=stage2_gpu,
            reduction_levels=reduction_levels,
            kernels=kernels,
            timeline=timeline,
            times=times,
            kernel_launches=len(timeline.of_kind("kernel")),
            cmd_counts=cmd_counts,
            kernel_durations={k: tuple(v) for k, v in durations.items()},
            transfer_bytes=dict(transfer_bytes),
        )

    # -- observability replay -------------------------------------------------

    def replay_observability(self, obs) -> None:
        """Re-emit the reference run's queue-level metrics for one frame.

        Cached frames never touch a :class:`~repro.cl.queue.CommandQueue`,
        so the per-command counters/histograms the queue would have recorded
        are replayed from the capture instead; counts and values match the
        uncached run exactly (per-command debug *log lines* are not
        replayed).
        """
        if not obs.enabled:
            return
        commands = obs.metrics.counter(
            "repro_cl_commands_total", "Enqueued commands by kind",
            ("kind",),
        )
        for kind, count in self.cmd_counts.items():
            commands.labels(kind=kind).inc(count)
        transfers = obs.metrics.counter(
            "repro_cl_transfer_bytes_total",
            "Host<->device bytes moved over the simulated PCI-E link",
            ("direction",),
        )
        for direction, nbytes in self.transfer_bytes.items():
            if nbytes:
                transfers.labels(direction=direction).inc(nbytes)
        kernel_hist = obs.metrics.histogram(
            "repro_cl_kernel_seconds",
            "Simulated kernel duration per dispatched kernel (seconds)",
            ("kernel",),
        )
        for kernel, durations in self.kernel_durations.items():
            child = kernel_hist.labels(kernel=kernel)
            for duration in durations:
                child.observe(duration)

    # -- frame executor -------------------------------------------------------

    def execute(self, plane: np.ndarray, params: SharpnessParams,
                ws) -> tuple[np.ndarray, float]:
        """Sharpen one frame through pooled scratch; allocation-free steady
        state apart from the returned output plane (which the caller owns)
        and the sparse overshoot blend's index arrays.

        ``ws`` is a :class:`~repro.core.bufferpool.Workspace` of matching
        shape.  The frame runs in two sweeps over row strips of
        ``ws.strip`` rows, so each strip's planes stay in cache:

        * sweep A downscales into ``ws.down`` and runs Sobel (1-row halo)
          into ``ws.edge``; the edge mean then sums the whole pEdge plane
          over the captured reduction chain, exactly as the generic run;
        * sweep B runs upscale to overshoot on strips whose boundaries sit
          at rows 2 mod 4, so each strip's upscale body comes from whole
          downscaled rows, and writes them into the returned plane.

        Each sweep's strips run on up to ``len(ws.lanes)`` lanes, one
        scratch set each (see :class:`_Sweep`).  A strip writes only its
        own rows of ``down``, ``edge`` and the output, so the lane count
        and claim order cannot change a bit; the reduction and the border
        lines run on the calling thread between the sweeps.

        The border lines are built on the host whatever their placement:
        both placements produce identical values, and the placement only
        shapes the (already captured) timeline.
        """
        h, w = plane.shape
        down, edge, lanes = ws.down, ws.edge, ws.lanes

        def sweep_a(y0: int, y1: int, s) -> None:
            algo.downscale(plane[y0:y1], out=down[y0 // 4 : y1 // 4],
                           colsum=s.colsum)
            algo.sobel_rows(plane, y0, y1, out=edge[y0:y1], tcol=s.tcol,
                            urow=s.urow, gy=s.gy)

        _Sweep(strip_bounds(h, ws.strip, 0), lanes).run(sweep_a)
        partials = edge.ravel()
        for count, n_groups in self.reduction_levels:
            partials = group_sums(partials, count, n_groups)
        edge_mean = algo.reduce_sum(partials) / edge.size

        lines = algo.upscale_border_lines(down)
        final = np.empty((h, w), dtype=FLOAT)

        def sweep_b(y0: int, y1: int, s) -> None:
            n = y1 - y0
            q0, q1 = (max(y0, 2) - 2) // 4, (min(y1, h - 2) - 2) // 4
            top = 2 if y0 == 0 else 0
            up = s.up[:n]
            algo.upscale_body(down[q0 : q1 + 1],
                              out=up[top : top + 4 * (q1 - q0), 2 : w - 2],
                              rows=s.rows)
            algo.upscale_border_rows(up, y0, lines)
            err = algo.perror(plane[y0:y1], up, out=s.err[:n])
            strength = algo.strength_map(edge[y0:y1], edge_mean, params,
                                         out=s.strength[:n])
            # Elementwise, so the preliminary matrix can overwrite pError.
            prelim = algo.preliminary_sharpen(up, err, strength, out=err)
            b0, b1 = max(y0, 1), min(y1, h - 1)
            minmax = algo.neighborhood_minmax(
                plane[b0 - 1 : b1 + 1],
                out=(s.mn[: b1 - b0], s.mx[: b1 - b0]), cols=s.cols)
            algo.overshoot_rows(prelim, y0, params, out=final[y0:y1],
                                bounds=minmax, mask=s.mask)

        _Sweep(strip_bounds(h, ws.strip, 2), lanes).run(sweep_b)
        return final, edge_mean


class PlanCache:
    """Thread-safe LRU cache of :class:`ExecutionPlan` by :class:`PlanKey`.

    A miss makes the caller the key's *capturer*: until it calls
    :meth:`put` (or :meth:`release`, when its capture failed), every other
    :meth:`get` of that key waits for the plan instead of capturing a
    duplicate.
    """

    def __init__(self, maxsize: int = 32) -> None:
        from ..errors import ConfigError

        if maxsize < 1:
            raise ConfigError(f"plan cache maxsize must be >= 1, "
                              f"got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        #: One event per key whose capture is in flight.
        self._capturing: dict[PlanKey, threading.Event] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, key: PlanKey) -> ExecutionPlan | None:
        """Look up a plan; counts a hit or a miss.

        ``None`` (a miss) means the caller must capture the plan and then
        :meth:`put` or :meth:`release` the key.  While another caller
        captures, this waits outside the lock for its plan.
        """
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self.hits += 1
                    return plan
                capture = self._capturing.get(key)
                if capture is None:
                    self._capturing[key] = threading.Event()
                    self.misses += 1
                    return None
            capture.wait()

    def put(self, key: PlanKey, plan: ExecutionPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
            self.release(key)

    def release(self, key: PlanKey) -> None:
        """End ``key``'s capture, waking its waiters; a no-op when none is
        in flight.  After a failed capture one waiter takes it over."""
        with self._lock:
            capture = self._capturing.pop(key, None)
        if capture is not None:
            capture.set()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._plans)}
