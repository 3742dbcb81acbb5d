"""Buffer pool: reusable per-shape scratch for cached runs.

A :class:`Workspace` bundles every array a plan's executor
(:meth:`~repro.core.plan.ExecutionPlan.execute`) writes into for one frame
shape: the two planes that outlive a row strip (downscaled and pEdge) and
one set of strip-sized scratch for everything else per lane of a sweep
(:class:`LaneScratch`).  Checking one out, running a frame, and checking
it back in allocates nothing.  A workspace is recycled dirty: every strip
writes each scratch cell of its lane before it reads it, and reads halo
rows only from the input plane, ``down`` or ``edge``, never from a
previous strip's scratch (Sobel re-zeros its own border ring), so neither
a frame nor a strip can leak into the next, whichever lane ran it.  The
executor returns only after every lane has stopped, so no helper writes
into a workspace that has been checked back in.

:class:`BufferPool` keeps at most ``max_entries`` idle workspaces per
shape.  Checkouts beyond the bound still succeed (a fresh workspace is
built) but the surplus is dropped at check-in, so a burst never grows the
steady-state footprint.  All operations are thread-safe: the batch
engine's workers share one pool.

Memory note: a workspace holds two full float64 planes (``edge`` at
``8 * H * W`` bytes, ``down`` at 1/16 of that) plus one strip scratch set
per lane (``plan.LANES``, the usable cores): 4.9 MiB a lane at 512x512,
5.2 MiB at 2048x2048 and 5.5 MiB at 4096x4096.  With two lanes that is
11.9, 44.3 and 147.0 MiB in all.  Size ``max_entries`` (and the batch
worker count) to the frame resolution.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConfigError
from ..types import FLOAT
from . import plan


def _array_bytes(obj) -> int:
    return sum(a.nbytes for a in vars(obj).values()
               if isinstance(a, np.ndarray))


class LaneScratch:
    """Strip-sized scratch for one lane of
    :meth:`~repro.core.plan.ExecutionPlan.execute`, named after the
    parameters of the stages it feeds."""

    def __init__(self, h: int, w: int, strip: int) -> None:
        # Sweep A (downscale, Sobel).
        self.colsum = np.empty((strip, w // 4), dtype=FLOAT)
        self.tcol = np.empty((strip, w), dtype=FLOAT)
        self.urow = np.empty((strip + 2, w - 2), dtype=FLOAT)
        self.gy = np.empty((strip, w - 2), dtype=FLOAT)
        # Sweep B (upscale to overshoot).  Its strips are shifted by the
        # body's 2-row offset and the first and last carry the frame's
        # 2-row border, so one strip holds up to ``strip + 4`` rows (when
        # it is the whole frame).
        n = min(strip + 4, h)
        self.up = np.empty((n, w), dtype=FLOAT)
        self.err = np.empty((n, w), dtype=FLOAT)
        self.strength = np.empty((n, w), dtype=FLOAT)
        self.rows = np.empty((n - 4, w // 4), dtype=FLOAT)
        self.cols = np.empty((n, w - 2), dtype=FLOAT)
        self.mn = np.empty((n - 2, w - 2), dtype=FLOAT)
        self.mx = np.empty((n - 2, w - 2), dtype=FLOAT)
        self.mask = np.empty((n - 2, w - 2), dtype=bool)


class Workspace:
    """Preallocated per-shape scratch for one in-flight frame."""

    def __init__(self, h: int, w: int) -> None:
        if h % 4 or w % 4 or h < 16 or w < 16:
            raise ConfigError(
                f"workspace sides must be multiples of 4 and >= 16, "
                f"got {h}x{w}"
            )
        self.h, self.w = h, w
        #: Rows per strip of :meth:`~repro.core.plan.ExecutionPlan.execute`.
        self.strip = strip = plan.strip_rows(h, w)
        # The two planes that outlive a strip: the downscaled plane, which
        # the upscale of every strip reads, and pEdge, whose mean is a
        # barrier between the sweeps.  Zero-initialized like the device
        # buffers of the generic path.
        self.down = np.zeros((h // 4, w // 4), dtype=FLOAT)
        self.edge = np.zeros((h, w), dtype=FLOAT)
        #: One strip scratch set per lane of a sweep.
        self.lanes = tuple(LaneScratch(h, w, strip)
                           for _ in range(plan.LANES))

    @property
    def nbytes(self) -> int:
        """Total scratch footprint in bytes, every lane included."""
        return _array_bytes(self) + sum(_array_bytes(s) for s in self.lanes)


class BufferPool:
    """Bounded, thread-safe pool of :class:`Workspace` objects per shape."""

    def __init__(self, max_entries: int = 4, *, obs=None) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"buffer pool max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        #: Optional RunContext; its fault plan's ``oom`` site makes
        #: checkouts simulate CL_MEM_OBJECT_ALLOCATION_FAILURE.
        self.obs = obs
        self._idle: dict[tuple[int, int], list[Workspace]] = {}
        self._lock = threading.Lock()
        self.in_use = 0
        self.created = 0
        self.reused = 0
        self.discarded = 0

    def checkout(self, h: int, w: int) -> Workspace:
        """Borrow a workspace for an ``h x w`` frame."""
        obs = self.obs
        if obs is not None and obs.faults is not None:
            # Simulated device OOM fires before any pool state changes, so
            # a retried checkout starts from a clean slate.
            obs.faults.check("oom", obs, detail=f"checkout:{h}x{w}")
        with self._lock:
            stack = self._idle.get((h, w))
            ws = stack.pop() if stack else None
            self.in_use += 1
            if ws is not None:
                self.reused += 1
            else:
                self.created += 1
        return ws if ws is not None else Workspace(h, w)

    def checkin(self, ws: Workspace) -> None:
        """Return a workspace; surplus beyond the bound is dropped."""
        with self._lock:
            self.in_use -= 1
            stack = self._idle.setdefault((ws.h, ws.w), [])
            if len(stack) < self.max_entries:
                stack.append(ws)
            else:
                self.discarded += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            idle = sum(len(s) for s in self._idle.values())
            return {
                "in_use": self.in_use,
                "idle": idle,
                "created": self.created,
                "reused": self.reused,
                "discarded": self.discarded,
            }
