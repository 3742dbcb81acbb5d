"""Upscale-center kernel: the body interpolation of Fig. 4/5.

Two variants, matching section V.D:

* **scalar** (base): one work-item per *output pixel*; each item fetches its
  2x2 downscaled neighbourhood and computes one weighted sum — adjacent
  items re-fetch the same four values, so the kernel reads ~4 floats per
  output.
* **vector** (optimized): one work-item per 4x4 *output block*; the item
  fetches the 2x2 block once and produces all 16 outputs
  (``P @ D @ P.T``, stored with ``vstore4``) — a 16x reduction in global
  reads, the "data sharing" the paper vectorizes for.

Launch geometry: scalar uses global size ``(w-4, h-4)`` (one per body
pixel); vector uses ``((w-4)/4, (h-4)/4)`` (one per block).
"""

from __future__ import annotations

from .. import algo
from ..algo.stages import UPSCALE_P
from ..cl.kernel import KernelSpec
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from ..types import SCALE
from .base import F32, pixel_kernel_cost


def _functional(global_size, local_size, down, up, h, w):
    algo.upscale_body(down, out=up[2 : h - 2, 2 : w - 2])


def _emulator_scalar(ctx, down, up, h, w):
    """One output body pixel per item: gx in [0, w-4), gy in [0, h-4)."""
    gx = ctx.get_global_id(0)
    gy = ctx.get_global_id(1)
    if gx >= w - 4 or gy >= h - 4:
        return
    r, ky = gy // SCALE, gy % SCALE
    c, kx = gx // SCALE, gx % SCALE
    wy0, wy1 = UPSCALE_P[ky]
    wx0, wx1 = UPSCALE_P[kx]
    value = (
        wy0 * (wx0 * down[r, c] + wx1 * down[r, c + 1])
        + wy1 * (wx0 * down[r + 1, c] + wx1 * down[r + 1, c + 1])
    )
    up[gy + 2, gx + 2] = value


# One item expands a whole 4x4 output block (16 writes per item), so the
# item id necessarily strides by SCALE in the output row.
def _emulator_vector(ctx, down, up, h, w):  # repro: ignore[KA-COALESCE]
    """One 4x4 output block per item: gx in [0, (w-4)/4), gy similarly."""
    gx = ctx.get_global_id(0)
    gy = ctx.get_global_id(1)
    if gx >= (w - 4) // SCALE or gy >= (h - 4) // SCALE:
        return
    d00 = down[gy, gx]
    d01 = down[gy, gx + 1]
    d10 = down[gy + 1, gx]
    d11 = down[gy + 1, gx + 1]
    for ky in range(SCALE):
        wy0, wy1 = UPSCALE_P[ky]
        left = wy0 * d00 + wy1 * d10
        right = wy0 * d01 + wy1 * d11
        for kx in range(SCALE):
            wx0, wx1 = UPSCALE_P[kx]
            up[SCALE * gy + ky + 2, SCALE * gx + kx + 2] = (
                wx0 * left + wx1 * right
            )


def make_upscale_center_spec(*, vector: bool = False,
                             builtins: bool = False) -> KernelSpec:
    """Build the upscale-center spec; args are ``(down, up, h, w)``."""

    if vector:

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            # Per block: 4 float reads, 16 float writes; separable
            # interpolation costs 8 row blends + 32 column blends ~ 72 flops.
            return pixel_kernel_cost(
                device, global_size, local_size,
                label="upscale_center_vec",
                flops_per_item=72.0,
                read_bytes_per_item=4.0 * F32,
                write_bytes_per_item=16.0 * F32,
                int_ops_per_item=6.0,
                divergent=False,
                uses_builtins=builtins,
            )

        emulator = _emulator_vector
        name = "upscale_center_vec"
    else:

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            # Per pixel: 2x2 fetch (4 float reads), ~8 flops, 1 float write,
            # plus the phase/index arithmetic (div/mod by 4).
            return pixel_kernel_cost(
                device, global_size, local_size,
                label="upscale_center",
                flops_per_item=8.0,
                read_bytes_per_item=4.0 * F32,
                write_bytes_per_item=1.0 * F32,
                int_ops_per_item=8.0,
                divergent=False,
                uses_builtins=builtins,
            )

        emulator = _emulator_scalar
        name = "upscale_center"

    return KernelSpec(
        name=name,
        functional=_functional,
        emulator=emulator,
        cost=cost,
        arg_names=("down", "up", "h", "w"),
    )
