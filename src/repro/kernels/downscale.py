"""Downscale kernel: one work-item per output pixel (Fig. 2).

Each item averages its 4x4 source block.  The ``padded`` variant reads the
same pixels out of the padded original buffer (offset by one) — the change
section V.A makes so only the padded matrix needs transferring.
"""

from __future__ import annotations


from .. import algo
from ..cl.kernel import KernelSpec
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from ..types import SCALE
from .base import F32, U8, pixel_kernel_cost

#: Per-item work: 16 loads + 15 adds + 1 multiply (1/16 scale).
_FLOPS_PER_ITEM = 17.0
_READS_PER_ITEM = 16.0 * U8
_WRITES_PER_ITEM = 1.0 * F32


def make_downscale_spec(*, padded: bool = False,
                        builtins: bool = False) -> KernelSpec:
    """Build the downscale kernel spec.

    Arguments at launch: ``(src, dst, h, w)`` where ``src`` is the original
    (or padded original) buffer, ``dst`` the ``(h/4, w/4)`` output, and
    ``h, w`` the *original* image dimensions.
    """
    off = 1 if padded else 0

    def functional(global_size, local_size, src, dst, h, w):
        view = src[off : off + h, off : off + w]
        algo.downscale(view, out=dst)

    def emulator(ctx, src, dst, h, w):
        gx = ctx.get_global_id(0)
        gy = ctx.get_global_id(1)
        if gx >= w // SCALE or gy >= h // SCALE:
            return
        acc = 0.0
        for di in range(SCALE):
            for dj in range(SCALE):
                acc += src[off + SCALE * gy + di, off + SCALE * gx + dj]
        dst[gy, gx] = acc / (SCALE * SCALE)

    def cost(device: DeviceSpec, global_size, local_size, args) -> KernelCost:
        return pixel_kernel_cost(
            device, global_size, local_size,
            label="downscale",
            flops_per_item=_FLOPS_PER_ITEM,
            read_bytes_per_item=_READS_PER_ITEM,
            write_bytes_per_item=_WRITES_PER_ITEM,
            int_ops_per_item=6.0,
            divergent=False,
            uses_builtins=builtins,
        )

    return KernelSpec(
        name="downscale",
        functional=functional,
        emulator=emulator,
        cost=cost,
        arg_names=("src", "dst", "h", "w"),
    )
