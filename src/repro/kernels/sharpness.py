"""Sharpness kernels: preliminary sharpen, overshoot control, and the fused
kernel of section V.B.

In the base pipeline the sub-sharpness tail is three kernels — ``perror``
(see :mod:`~repro.kernels.perror`), ``prelim`` (brightness strength +
preliminary sharpened matrix) and ``overshoot`` — each communicating through
global memory.  Kernel fusion collapses them into one ``sharpness`` kernel:
the difference and preliminary values live in registers, removing two kernel
launches and the global-memory round-trips of the ``pError`` and
``preliminary`` matrices.

The vector (x4) fused variant additionally shares the 3x6 original-image
neighbourhood across four adjacent outputs, like the vectorized Sobel.
"""

from __future__ import annotations

from .. import algo
from ..cl.kernel import KernelSpec
from ..errors import ConfigError
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from ..types import SharpnessParams
from .base import F32, U8, U8_SCATTERED, pixel_kernel_cost

#: Strength evaluation: one divide + one pow (charged as heavy ops) plus
#: clamp/multiply/add bookkeeping.
_STRENGTH_HEAVY = 1.5
_STRENGTH_FLOPS = 6.0
#: Overshoot decision: 8 max + 8 min for the 3x3 extrema, the comparisons
#: and the blend.
_OVERSHOOT_FLOPS = 30.0


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _strength(edge: float, mean: float, params: SharpnessParams) -> float:
    if mean <= 0.0:
        return 0.0
    return _clamp(
        params.gain * (edge / mean) ** params.gamma, 0.0, params.strength_max
    )


def _overshoot_pixel(src, y, x, off, h, w, prelim_v, osc) -> float:
    """Final value of one body pixel given its preliminary value."""
    mx = -1.0
    mn = 256.0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            v = src[y + di + off, x + dj + off]
            if v > mx:
                mx = v
            if v < mn:
                mn = v
    if prelim_v > mx:
        return min(mx + osc * (prelim_v - mx), 255.0)
    if prelim_v < mn:
        return max(mn - osc * (mn - prelim_v), 0.0)
    return _clamp(prelim_v, 0.0, 255.0)


# ---------------------------------------------------------------------------
# Base kernel 1: prelim (strength + preliminary sharpened matrix)
# ---------------------------------------------------------------------------


def make_prelim_spec(*, builtins: bool = False) -> KernelSpec:
    """Preliminary-sharpen spec; args
    ``(up, p_edge, p_error, dst, mean, params, h, w)``."""

    def functional(global_size, local_size, up, p_edge, p_error, dst,
                   mean, params, h, w):
        strength = algo.strength_map(p_edge, mean, params)
        algo.preliminary_sharpen(up, p_error, strength, out=dst)

    def emulator(ctx, up, p_edge, p_error, dst, mean, params, h, w):
        gx = ctx.get_global_id(0)
        gy = ctx.get_global_id(1)
        if gx >= w or gy >= h:
            return
        s = _strength(p_edge[gy, gx], mean, params)
        dst[gy, gx] = up[gy, gx] + s * p_error[gy, gx]

    def cost(device: DeviceSpec, global_size, local_size,
             args) -> KernelCost:
        return pixel_kernel_cost(
            device, global_size, local_size,
            label="prelim",
            flops_per_item=_STRENGTH_FLOPS + 2.0,
            heavy_per_item=_STRENGTH_HEAVY,
            read_bytes_per_item=3.0 * F32,
            write_bytes_per_item=1.0 * F32,
            int_ops_per_item=4.0,
            divergent=False,
            uses_builtins=builtins,
        )

    return KernelSpec(
        name="prelim",
        functional=functional,
        emulator=emulator,
        cost=cost,
        arg_names=("up", "p_edge", "p_error", "dst", "mean", "params",
                   "h", "w"),
    )


# ---------------------------------------------------------------------------
# Base kernel 2: overshoot control
# ---------------------------------------------------------------------------


def make_overshoot_spec(*, padded: bool = False,
                        builtins: bool = False) -> KernelSpec:
    """Overshoot-control spec; args ``(prelim, src, dst, params, h, w)``.

    ``dst`` is the final image buffer (8-bit transfer size).  Without
    built-in ``select``/``clamp`` the data-dependent branches of Fig. 8 make
    the kernel divergent.
    """
    off = 1 if padded else 0

    def functional(global_size, local_size, prelim, src, dst, params, h, w):
        view = src[off : off + h, off : off + w]
        algo.overshoot_control(prelim, view, params, out=dst)

    def emulator(ctx, prelim, src, dst, params, h, w):
        gx = ctx.get_global_id(0)
        gy = ctx.get_global_id(1)
        if gx >= w or gy >= h:
            return
        p = prelim[gy, gx]
        if gx == 0 or gx == w - 1 or gy == 0 or gy == h - 1:
            dst[gy, gx] = _clamp(p, 0.0, 255.0)
            return
        dst[gy, gx] = _overshoot_pixel(src, gy, gx, off, h, w, p,
                                       params.overshoot)

    def cost(device: DeviceSpec, global_size, local_size,
             args) -> KernelCost:
        return pixel_kernel_cost(
            device, global_size, local_size,
            label="overshoot",
            flops_per_item=_OVERSHOOT_FLOPS,
            read_bytes_per_item=9.0 * U8_SCATTERED + 1.0 * F32,
            write_bytes_per_item=1.0 * U8,
            int_ops_per_item=6.0,
            divergent=not builtins,
            uses_builtins=builtins,
        )

    return KernelSpec(
        name="overshoot",
        functional=functional,
        emulator=emulator,
        cost=cost,
        arg_names=("prelim", "src", "dst", "params", "h", "w"),
    )


# ---------------------------------------------------------------------------
# Fused kernel (section V.B): pError + strength + preliminary + overshoot
# ---------------------------------------------------------------------------


def _fused_pixel(up, p_edge, src, mean, params, off, h, w, gy, gx) -> float:
    """One output pixel of the fused kernel: everything in registers."""
    u = up[gy, gx]
    err = src[gy + off, gx + off] - u  # pError, in a register
    s = _strength(p_edge[gy, gx], mean, params)
    p = u + s * err  # preliminary, in a register
    if gx == 0 or gx == w - 1 or gy == 0 or gy == h - 1:
        return _clamp(p, 0.0, 255.0)
    return _overshoot_pixel(src, gy, gx, off, h, w, p, params.overshoot)


def make_sharpness_fused_spec(*, padded: bool = False, vector: bool = False,
                              builtins: bool = False) -> KernelSpec:
    """Fused sharpness spec; args ``(up, p_edge, src, dst, mean, params,
    h, w)``.

    The functional face composes the same canonical stage functions the
    unfused kernels use, so fused and unfused pipelines produce identical
    images; the cost face omits the pError/preliminary global-memory
    round-trips, which is the fusion payoff.
    """
    if vector and not padded:
        raise ConfigError("the vectorized sharpness kernel requires padding")
    off = 1 if padded else 0

    def functional(global_size, local_size, up, p_edge, src, dst,
                   mean, params, h, w):
        view = src[off : off + h, off : off + w]
        err = algo.perror(view, up)
        strength = algo.strength_map(p_edge, mean, params)
        prelim = algo.preliminary_sharpen(up, err, strength)
        algo.overshoot_control(prelim, view, params, out=dst)

    if vector:

        # Vectorized by 4-wide pixel groups: the stride-4 item id is the
        # float4 layout, not an accident (same trade as the Sobel vector
        # kernel).
        def emulator(ctx, up, p_edge, src, dst, mean, params, h, w):  # repro: ignore[KA-COALESCE]
            gx4 = ctx.get_global_id(0)
            gy = ctx.get_global_id(1)
            if 4 * gx4 >= w or gy >= h:
                return
            # vload the 3x6 original-image tile once; the four lanes share
            # it for both the pError term (centre row) and the overshoot
            # window — the same data-sharing as the vectorized Sobel.
            tile = [[0.0] * 6 for _ in range(3)]
            for r in range(3):
                for c in range(6):
                    y = gy - 1 + r + off
                    x = 4 * gx4 - 1 + c + off
                    if 0 <= y < h + 2 * off and 0 <= x < w + 2 * off:
                        tile[r][c] = src[y, x]
            osc = params.overshoot
            for lane in range(4):
                gx = 4 * gx4 + lane
                if gx >= w:
                    return
                u = up[gy, gx]
                centre = tile[1][lane + 1]
                err = centre - u  # pError, in a register
                s = _strength(p_edge[gy, gx], mean, params)
                p = u + s * err  # preliminary, in a register
                if gx == 0 or gx == w - 1 or gy == 0 or gy == h - 1:
                    dst[gy, gx] = _clamp(p, 0.0, 255.0)
                    continue
                mx = -1.0
                mn = 256.0
                for r in range(3):
                    for c in range(lane, lane + 3):
                        v = tile[r][c]
                        if v > mx:
                            mx = v
                        if v < mn:
                            mn = v
                if p > mx:
                    dst[gy, gx] = min(mx + osc * (p - mx), 255.0)
                elif p < mn:
                    dst[gy, gx] = max(mn - osc * (mn - p), 0.0)
                else:
                    dst[gy, gx] = _clamp(p, 0.0, 255.0)

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            # Per item (4 outputs): 3x6 original tile (18 u8) shared across
            # the four overshoot windows + 4 up + 4 pEdge floats.
            return pixel_kernel_cost(
                device, global_size, local_size,
                label="sharpness_vec",
                flops_per_item=4.0 * (_STRENGTH_FLOPS + 2.0
                                      + _OVERSHOOT_FLOPS),
                heavy_per_item=4.0 * _STRENGTH_HEAVY,
                read_bytes_per_item=18.0 * U8 + 8.0 * F32,
                write_bytes_per_item=4.0 * U8,
                int_ops_per_item=8.0,
                divergent=not builtins,
                uses_builtins=builtins,
            )

        name = "sharpness_vec"
    else:

        def emulator(ctx, up, p_edge, src, dst, mean, params, h, w):
            gx = ctx.get_global_id(0)
            gy = ctx.get_global_id(1)
            if gx >= w or gy >= h:
                return
            dst[gy, gx] = _fused_pixel(
                up, p_edge, src, mean, params, off, h, w, gy, gx
            )

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            return pixel_kernel_cost(
                device, global_size, local_size,
                label="sharpness",
                flops_per_item=_STRENGTH_FLOPS + 2.0 + _OVERSHOOT_FLOPS,
                heavy_per_item=_STRENGTH_HEAVY,
                read_bytes_per_item=10.0 * U8_SCATTERED + 2.0 * F32,
                write_bytes_per_item=1.0 * U8,
                int_ops_per_item=6.0,
                divergent=not builtins,
                uses_builtins=builtins,
            )

        name = "sharpness"

    return KernelSpec(
        name=name,
        functional=functional,
        emulator=emulator,
        cost=cost,
        arg_names=("up", "p_edge", "src", "dst", "mean", "params", "h", "w"),
    )
