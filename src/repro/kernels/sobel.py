"""Sobel kernel (Fig. 6/7) with the optimizations of sections V.A/V.D.

Variants:

* **scalar, unpadded** (base): one item per pixel; border items write 0,
  body items convolve — the bounds checks make the kernel branch-divergent.
* **scalar, padded**: identical output, but the kernel reads the padded
  original so the bounds checks vanish (the Brown et al. trick the paper
  adopts); not divergent.
* **vector (x4), padded**: one item per four horizontally-adjacent outputs;
  the item ``vload``s the 3x6 neighbourhood (18 values) once and shares it
  across the four convolutions — halving global reads from 4x9 to 18, the
  exact saving of Fig. 11.
* **tiled (LDS), padded**: the Brown et al. shared-memory approach the
  paper cites in related work: each workgroup cooperatively loads its
  (tile+2)^2 halo tile into local memory, barriers, then convolves from the
  LDS.  Global reads drop to ~1.3 bytes/pixel, but the kernel pays local
  traffic and a barrier per group — the trade-off behind Zhang et al.'s
  observation (also cited) that cache-based vectorization beats shared
  memory on modern GPUs.  Kept as an ablation variant
  (see ``repro.experiments.ablations``); the pipeline uses the paper's
  vectorized kernel.
"""

from __future__ import annotations

from .. import algo
from ..cl.kernel import KernelSpec
from ..errors import ConfigError
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from ..simgpu.emulator import BARRIER
from .base import F32, U8, U8_SCATTERED, pixel_kernel_cost

#: One 3x3 Sobel pair: 8 neighbour loads, ~14 multiply/adds, 2 abs, 1 add.
_FLOPS_PER_PIXEL = 17.0


def _make_functional(off: int):
    def functional(global_size, local_size, src, dst, h, w):
        view = src[off : off + h, off : off + w]
        algo.sobel(view, out=dst)

    return functional


def _make_emulator_scalar(off: int):
    def emulator(ctx, src, dst, h, w):
        gx = ctx.get_global_id(0)
        gy = ctx.get_global_id(1)
        if gx >= w or gy >= h:
            return
        if gx == 0 or gx == w - 1 or gy == 0 or gy == h - 1:
            dst[gy, gx] = 0.0
            return
        y, x = gy + off, gx + off
        nw = src[y - 1, x - 1]
        n = src[y - 1, x]
        ne = src[y - 1, x + 1]
        wv = src[y, x - 1]
        ev = src[y, x + 1]
        sw = src[y + 1, x - 1]
        s = src[y + 1, x]
        se = src[y + 1, x + 1]
        gxv = (ne + 2.0 * ev + se) - (nw + 2.0 * wv + sw)
        gyv = (sw + 2.0 * s + se) - (nw + 2.0 * n + ne)
        dst[gy, gx] = abs(gxv) + abs(gyv)

    return emulator


def _make_emulator_vector(off: int):
    # Each item owns a 4-wide pixel group (float4 lanes), so the item id
    # strides by 4 through global memory by design — the shared-tile reuse
    # is the point of the vectorized variant (paper sec. 4.2).
    def emulator(ctx, src, dst, h, w):  # repro: ignore[KA-COALESCE]
        gx4 = ctx.get_global_id(0)  # covers pixels [4*gx4, 4*gx4 + 4)
        gy = ctx.get_global_id(1)
        if 4 * gx4 >= w or gy >= h:
            return
        # vload the 3x6 neighbourhood once (clamped at the image edge;
        # padded source guarantees the reads are in bounds).
        tile = [[0.0] * 6 for _ in range(3)]
        for r in range(3):
            for c in range(6):
                y = gy - 1 + r + off
                x = 4 * gx4 - 1 + c + off
                if 0 <= y < h + 2 * off and 0 <= x < w + 2 * off:
                    tile[r][c] = src[y, x]
        for lane in range(4):
            x_out = 4 * gx4 + lane
            if x_out >= w:
                return
            if x_out == 0 or x_out == w - 1 or gy == 0 or gy == h - 1:
                dst[gy, x_out] = 0.0
                continue
            t0, t1, t2 = tile[0], tile[1], tile[2]
            c0, c1, c2 = lane, lane + 1, lane + 2
            gxv = (t0[c2] + 2.0 * t1[c2] + t2[c2]) - (
                t0[c0] + 2.0 * t1[c0] + t2[c0]
            )
            gyv = (t2[c0] + 2.0 * t2[c1] + t2[c2]) - (
                t0[c0] + 2.0 * t0[c1] + t0[c2]
            )
            dst[gy, x_out] = abs(gxv) + abs(gyv)

    return emulator


def _emulator_tiled(ctx, src, dst, h, w, tile):
    """Cooperative LDS tile load + barrier + convolution from local memory.

    The tile covers the workgroup's output block plus a 1-pixel halo; it is
    loaded in up to four strided passes so every lane participates.
    """
    lx = ctx.get_local_id(0)
    ly = ctx.get_local_id(1)
    tsx = ctx.get_local_size(0)
    tsy = ctx.get_local_size(1)
    gx0 = ctx.get_group_id(0) * tsx
    gy0 = ctx.get_group_id(1) * tsy
    tw = tsx + 2
    th = tsy + 2
    # Strided cooperative load of the (tsy+2) x (tsx+2) halo tile from the
    # padded source (origin offset by +1 makes every halo read in-bounds).
    lid = lx + ly * tsx
    n_items = tsx * tsy
    idx = lid
    while idx < tw * th:
        ty, tx = idx // tw, idx % tw
        sy = gy0 + ty
        sx = gx0 + tx
        if sy < h + 2 and sx < w + 2:
            tile[idx] = src[sy, sx]
        idx += n_items
    yield BARRIER

    gx = gx0 + lx
    gy = gy0 + ly
    if gx >= w or gy >= h:
        return
    if gx == 0 or gx == w - 1 or gy == 0 or gy == h - 1:
        dst[gy, gx] = 0.0
        return
    # Convolve from local memory; tile (ly+1, lx+1) is pixel (gy, gx).
    def at(dy, dx):
        return tile[(ly + 1 + dy) * tw + (lx + 1 + dx)]

    nw = at(-1, -1)
    n = at(-1, 0)
    ne = at(-1, 1)
    wv = at(0, -1)
    ev = at(0, 1)
    sw = at(1, -1)
    sv = at(1, 0)
    se = at(1, 1)
    gxv = (ne + 2.0 * ev + se) - (nw + 2.0 * wv + sw)
    gyv = (sw + 2.0 * sv + se) - (nw + 2.0 * n + ne)
    dst[gy, gx] = abs(gxv) + abs(gyv)


def make_sobel_spec(*, padded: bool = False, vector: bool = False,
                    tiled: bool = False,
                    builtins: bool = False) -> KernelSpec:
    """Build a Sobel spec; args are ``(src, dst, h, w)``.

    The vector and tiled variants require the padded source (their halo
    reads would be out of bounds at the image edge otherwise), matching the
    paper where vectorization builds on the padded transfer.
    """
    if vector and tiled:
        raise ConfigError("vector and tiled Sobel variants are exclusive")
    if (vector or tiled) and not padded:
        raise ConfigError(
            "the vectorized/tiled Sobel kernels require padding"
        )
    off = 1 if padded else 0

    if tiled:

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            import math

            items = math.prod(global_size)
            wg = math.prod(local_size)
            n_groups = items // wg
            tile_bytes = (local_size[0] + 2) * (local_size[1] + 2) * U8
            return KernelCost(
                work_items=items,
                # Convolution + the cooperative-load index arithmetic.
                flops=items * (_FLOPS_PER_PIXEL + 8.0),
                slow_int_ops=items * 10.0,
                # Coalesced tile load: each halo byte fetched once.
                global_bytes_read=float(n_groups * tile_bytes),
                global_bytes_written=items * F32,
                # 1 tile store + 8 neighbour loads through the LDS.
                local_bytes=items * 9.0 * F32,
                barriers_per_group=1.0,
                n_groups=n_groups,
                workgroup_size=wg,
                divergent=False,
                uses_builtins=builtins,
                label="sobel_tiled",
            )

        return KernelSpec(
            name="sobel_tiled",
            functional=_make_functional(off),
            emulator=_emulator_tiled,
            cost=cost,
            local_mem=lambda local_size, args: {
                "tile": (local_size[0] + 2) * (local_size[1] + 2)
            },
            arg_names=("src", "dst", "h", "w"),
        )

    if vector:

        def cost(device: DeviceSpec, global_size, local_size,
                 args) -> KernelCost:
            # Per item (4 outputs): 18 u8 reads shared across 4 convolutions.
            return pixel_kernel_cost(
                device, global_size, local_size,
                label="sobel_vec",
                flops_per_item=4.0 * _FLOPS_PER_PIXEL,
                read_bytes_per_item=18.0 * U8,
                write_bytes_per_item=4.0 * F32,
                int_ops_per_item=8.0,
                divergent=False,
                uses_builtins=builtins,
            )

        return KernelSpec(
            name="sobel_vec",
            functional=_make_functional(off),
            emulator=_make_emulator_vector(off),
            cost=cost,
            arg_names=("src", "dst", "h", "w"),
        )

    def cost(device: DeviceSpec, global_size, local_size,
             args) -> KernelCost:
        return pixel_kernel_cost(
            device, global_size, local_size,
            label="sobel" if not padded else "sobel_padded",
            flops_per_item=_FLOPS_PER_PIXEL,
            read_bytes_per_item=8.0 * U8_SCATTERED,
            write_bytes_per_item=1.0 * F32,
            int_ops_per_item=6.0,
            divergent=not padded,
            uses_builtins=builtins,
        )

    return KernelSpec(
        name="sobel" if not padded else "sobel_padded",
        functional=_make_functional(off),
        emulator=_make_emulator_scalar(off),
        cost=cost,
        arg_names=("src", "dst", "h", "w"),
    )
