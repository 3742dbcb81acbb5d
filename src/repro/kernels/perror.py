"""pError kernel: the elementwise difference matrix (base pipeline only).

After kernel fusion (section V.B) this kernel disappears — the difference is
computed inside the fused sharpness kernel and lives in registers.
"""

from __future__ import annotations

from .. import algo
from ..cl.kernel import KernelSpec
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from .base import F32, U8, pixel_kernel_cost


def make_perror_spec(*, padded: bool = False,
                     builtins: bool = False) -> KernelSpec:
    """Build the pError spec; args are ``(src, up, dst, h, w)``."""
    off = 1 if padded else 0

    def functional(global_size, local_size, src, up, dst, h, w):
        view = src[off : off + h, off : off + w]
        algo.perror(view, up, out=dst)

    def emulator(ctx, src, up, dst, h, w):
        gx = ctx.get_global_id(0)
        gy = ctx.get_global_id(1)
        if gx >= w or gy >= h:
            return
        dst[gy, gx] = src[gy + off, gx + off] - up[gy, gx]

    def cost(device: DeviceSpec, global_size, local_size,
             args) -> KernelCost:
        return pixel_kernel_cost(
            device, global_size, local_size,
            label="perror",
            flops_per_item=1.0,
            read_bytes_per_item=1.0 * U8 + 1.0 * F32,
            write_bytes_per_item=1.0 * F32,
            int_ops_per_item=4.0,
            divergent=False,
            uses_builtins=builtins,
        )

    return KernelSpec(
        name="perror",
        functional=functional,
        emulator=emulator,
        cost=cost,
        arg_names=("src", "up", "dst", "h", "w"),
    )
