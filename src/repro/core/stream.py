"""Per-frame statistics of a frame stream: the paper's TV/camera use case.

:class:`FrameStats` decomposes one pipeline result into its PCI-E,
device and host shares (the Fig. 13(c) breakdown) and models the natural
next optimization the paper's pipeline enables but does not implement:
**copy/compute overlap** (double buffering).  With two sets of device
buffers and an out-of-order queue, frame N's PCI-E transfers can hide under
frame N-1's kernels, so the steady-state frame time is
``max(transfer_time, device_time) + host_time`` instead of their sum.

A stream is a :class:`~repro.core.batch.BatchEngine` run; the exact
pipelined schedule of its frames is
:func:`repro.core.dag.overlap_stream` over their timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .pipeline import GPUResult


def default_frame_id(index: int) -> str:
    """Stable fallback frame id when the caller has no natural key.

    Zero-padded so lexicographic order matches submission order; callers
    with durable identities (file names, content hashes) should pass their
    own ids — positional ids do not survive reordered inputs.
    """
    return f"{index:06d}"


@dataclass
class FrameStats:
    """Per-frame record of one stream run.

    ``backend`` says who produced the frame (``"gpu"``, ``"cpu-fallback"``
    when the resilience layer degraded, ``"failed"`` for an isolated
    per-frame failure); ``error``/``attempts`` carry the failure message
    and the number of times the frame was dispatched.  ``frame_id`` is
    the frame's *stable* identity (input file name, content hash, or the
    positional :func:`default_frame_id`) — checkpoints and journals key on
    it so a resumed job survives reordered or renamed inputs.
    """

    index: int
    serial_time: float
    overlapped_time: float
    transfer_time: float
    device_time: float
    host_time: float
    backend: str = "gpu"
    error: str | None = None
    attempts: int = 1
    frame_id: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_frame_id(frame_ids, index: int, frame) -> str:
    """Resolve one frame's stable id from a ``frame_ids`` argument.

    ``frame_ids`` is either ``None`` (positional fallback), a sequence
    aligned with the frame stream, or a ``callable(index, frame) -> str``.
    """
    if frame_ids is None:
        return default_frame_id(index)
    if callable(frame_ids):
        return str(frame_ids(index, frame))
    if index >= len(frame_ids):
        raise ValidationError(
            f"frame {index} has no id: frame_ids holds {len(frame_ids)}"
        )
    return str(frame_ids[index])


def frame_stats(index: int, result: GPUResult,
                attempts: int = 1, frame_id: str = "") -> FrameStats:
    """Decompose one pipeline result into per-frame stream statistics."""
    by_kind = result.timeline.by_kind()
    transfer = by_kind.get("transfer", 0.0)
    host = by_kind.get("host", 0.0)
    device = result.total_time - transfer - host
    return FrameStats(
        index=index,
        serial_time=result.total_time,
        overlapped_time=max(transfer, device) + host,
        transfer_time=transfer,
        device_time=device,
        host_time=host,
        backend=getattr(result, "backend", "gpu"),
        attempts=attempts,
        frame_id=frame_id or default_frame_id(index),
    )
