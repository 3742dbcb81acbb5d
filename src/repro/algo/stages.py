"""Canonical vectorized implementations of the sharpness stages.

The geometry and interpretation decisions are documented in DESIGN.md
section 3; the docstrings below restate the exact contracts that all other
implementations (scalar golden reference, simulated-GPU kernels) must honour.

These are the only implementations of the stages: the CPU baseline, the
functional face of every simulated-GPU kernel and the cached
:meth:`~repro.core.plan.ExecutionPlan.execute` all call them.  All
functions take and return ``float64`` arrays and none of them mutates its
inputs.  Each writes into the ``out=`` and scratch arrays it is given and
allocates the ones that are omitted.  Scratch may have more rows than a
call needs (the strip executor sizes it for its longest strip); the
leading rows are used.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ValidationError
from ..types import FLOAT, SCALE, SharpnessParams, validate_plane

# ---------------------------------------------------------------------------
# Predefined parameter matrices (DESIGN.md section 3)
# ---------------------------------------------------------------------------

#: 4x2 upscale parameter matrix: row ``k`` holds the 2-tap interpolation
#: weights for phase ``k`` of the x4 body upscale (``P @ D @ P.T`` form of
#: Fig. 5).  Rows sum to 1, so constant images are preserved.
UPSCALE_P = np.array(
    [
        [7.0 / 8.0, 1.0 / 8.0],
        [5.0 / 8.0, 3.0 / 8.0],
        [3.0 / 8.0, 5.0 / 8.0],
        [1.0 / 8.0, 7.0 / 8.0],
    ],
    dtype=FLOAT,
)

#: 1-D border interpolation weights: position ``4c + k`` of an upscaled
#: border line blends downscaled samples ``c`` and ``c + 1`` with weights
#: ``BORDER_WEIGHTS[k]``.  ``k == 0`` lands exactly on sample ``c``.
BORDER_WEIGHTS = np.array(
    [
        [1.0, 0.0],
        [3.0 / 4.0, 1.0 / 4.0],
        [1.0 / 2.0, 1.0 / 2.0],
        [1.0 / 4.0, 3.0 / 4.0],
    ],
    dtype=FLOAT,
)

#: Sobel convolution masks (Fig. 7).  Signs are irrelevant after the absolute
#: value; these are the classical kernels.
SOBEL_GX = np.array(
    [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]], dtype=FLOAT
)
SOBEL_GY = np.array(
    [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]], dtype=FLOAT
)


#: ``x ** 0.5`` and ``sqrt(x)`` agree bitwise on the IEEE-754 platforms
#: numpy targets; probe once so :func:`strength_map` only takes the sqrt
#: shortcut when the platform actually honours the identity.
_POW_PROBE = np.concatenate([
    np.array([0.0, 1.0, 2.0, 0.5, 255.0, 1e-300, 1e300], dtype=FLOAT),
    np.geomspace(1e-12, 1e12, 97, dtype=FLOAT),
])
POW_HALF_IS_SQRT = bool(
    np.array_equal(np.power(_POW_PROBE, FLOAT(0.5)), np.sqrt(_POW_PROBE))
)


def _check_plane(src: np.ndarray, name: str = "src") -> np.ndarray:
    arr = np.asarray(src, dtype=FLOAT)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    h, w = arr.shape
    if h % SCALE or w % SCALE:
        raise ValidationError(
            f"{name} sides must be divisible by {SCALE}, got {h}x{w}"
        )
    return arr


def _buffer(arr: np.ndarray | None, shape: tuple[int, ...],
            dtype: npt.DTypeLike = FLOAT) -> np.ndarray:
    """``arr`` (a caller-provided output) or a fresh empty array."""
    return np.empty(shape, dtype=dtype) if arr is None else arr


def _scratch(arr: np.ndarray | None, shape: tuple[int, ...],
             dtype: npt.DTypeLike = FLOAT) -> np.ndarray:
    """The leading ``shape[0]`` rows of caller-provided scratch ``arr``, or
    a fresh empty array."""
    return np.empty(shape, dtype=dtype) if arr is None else arr[: shape[0]]


# ---------------------------------------------------------------------------
# Stage 1: downscale
# ---------------------------------------------------------------------------


def downscale(src: np.ndarray, *, out: np.ndarray | None = None,
              colsum: np.ndarray | None = None) -> np.ndarray:
    """Mean-pool the plane with non-overlapping 4x4 blocks (Fig. 2).

    ``out[i, j] = mean(src[4i:4i+4, 4j:4j+4])``; output shape is
    ``(H/4, W/4)``.  Each block is summed across its columns first, then
    down its rows, each as ``((a0 + a1) + a2) + a3``; ``colsum`` is the
    ``(H, W/4)`` scratch of the column sums.
    """
    arr = _check_plane(src)
    h, w = arr.shape
    colsum = _scratch(colsum, (h, w // SCALE))
    np.add(arr[:, 0::SCALE], arr[:, 1::SCALE], out=colsum)
    for k in range(2, SCALE):
        np.add(colsum, arr[:, k::SCALE], out=colsum)
    out = _buffer(out, (h // SCALE, w // SCALE))
    np.add(colsum[0::SCALE], colsum[1::SCALE], out=out)
    for k in range(2, SCALE):
        np.add(out, colsum[k::SCALE], out=out)
    return np.divide(out, FLOAT(SCALE * SCALE), out=out)


# ---------------------------------------------------------------------------
# Stage 2: upscale (border + body)
# ---------------------------------------------------------------------------


def upscale_border_line(line: np.ndarray, out_len: int) -> np.ndarray:
    """Upscale one downscaled border line to length ``out_len`` (Fig. 3).

    Sample ``c`` lands at position ``4c``; the three vacancies after it are
    interpolated from samples ``c`` and ``c + 1`` with
    :data:`BORDER_WEIGHTS`; the last three positions (which have no right
    neighbour) are copied from position ``out_len - 4``.
    """
    d = np.asarray(line, dtype=FLOAT)
    if d.ndim != 1:
        raise ValidationError(f"border line must be 1-D, got ndim={d.ndim}")
    n = d.shape[0]
    if out_len != SCALE * n:
        raise ValidationError(
            f"out_len must be {SCALE}*len(line)={SCALE * n}, got {out_len}"
        )
    out = np.empty(out_len, dtype=FLOAT)
    left = d[:-1]
    right = d[1:]
    out[0::SCALE] = d
    for k in range(1, SCALE):
        wl, wr = BORDER_WEIGHTS[k]
        out[k : out_len - SCALE : SCALE][: n - 1] = wl * left + wr * right
    out[out_len - 3 :] = out[out_len - SCALE]
    return out


def upscale_body(down: np.ndarray, *, out: np.ndarray | None = None,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Upscale the body region (Fig. 4/5).

    Every 2x2 block of ``down`` (stride 1) produces the 4x4 block
    ``P @ D2x2 @ P.T`` of the output (stride 4).  The returned array has
    shape ``(H - 4, W - 4)`` and belongs at ``up[2:H-2, 2:W-2]``.

    The computation is separable: rows are interpolated first (into the
    ``(H - 4, W/4)`` scratch ``rows``), then columns, so element
    ``[i, 4q + k]`` is ``wl * rows[i, q] + wr * rows[i, q + 1]`` with
    ``(wl, wr) = UPSCALE_P[k]`` — algebraically the ``P @ D @ P.T`` form.
    """
    d = np.asarray(down, dtype=FLOAT)
    if d.ndim != 2 or d.shape[0] < 2 or d.shape[1] < 2:
        raise ValidationError(
            f"downscaled matrix must be 2-D with sides >= 2, got {d.shape}"
        )
    n, m = d.shape
    rows = _scratch(rows, (SCALE * (n - 1), m))
    for k in range(SCALE):
        wl, wr = UPSCALE_P[k]
        np.add(wl * d[:-1], wr * d[1:], out=rows[k::SCALE])
    out = _buffer(out, (SCALE * (n - 1), SCALE * (m - 1)))
    for k in range(SCALE):
        wl, wr = UPSCALE_P[k]
        np.add(wl * rows[:, :-1], wr * rows[:, 1:], out=out[:, k::SCALE])
    return out


def upscale_border_lines(
    down: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four upscaled border lines of Fig. 3, from the downscaled plane:
    first and last row (length W), first and last column (length H)."""
    d = np.asarray(down, dtype=FLOAT)
    nr, nc = d.shape
    h, w = SCALE * nr, SCALE * nc
    return (upscale_border_line(d[0], w), upscale_border_line(d[nr - 1], w),
            upscale_border_line(d[:, 0], h),
            upscale_border_line(d[:, nc - 1], h))


def upscale_border_rows(
    up: np.ndarray, y0: int,
    lines: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Write the border cells of frame rows ``[y0, y0 + len(up))`` into
    ``up`` (those rows of the upscaled plane) in place.

    ``lines`` is :func:`upscale_border_lines` of the frame.  The cells are
    written in the canonical order of :func:`upscale_border_apply`; step 5
    writes ``coll[H-3]``, the value step 4 left at ``up[H-3, W-1]``.
    """
    row0, rowl, col0, coll = lines
    h, w = col0.shape[0], row0.shape[0]
    y1 = y0 + up.shape[0]
    for y, line in ((0, row0), (1, row0), (h - 2, rowl), (h - 1, rowl)):
        if y0 <= y < y1:
            up[y - y0] = line
    up[:, 0] = col0[y0:y1]
    up[:, 1] = col0[y0:y1]
    up[:, w - 2] = coll[y0:y1]
    up[:, w - 1] = coll[y0:y1]
    if y1 > h - 2:
        up[max(h - 2 - y0, 0) :, w - 2 :] = coll[h - 3]


def upscale_border_apply(up: np.ndarray, down: np.ndarray) -> None:
    """Write the border construction of Fig. 3 into ``up`` in place.

    Assembly order is canonical (DESIGN.md section 3) so that every
    implementation produces identical corners:

    1. first border row duplicated into rows 0 and 1;
    2. last border row duplicated into rows H-2 and H-1;
    3. first border column duplicated into columns 0 and 1;
    4. last border column duplicated into columns W-2 and W-1;
    5. bottom-right 2x2 corner overwritten with ``up[H-3, W-1]``.

    Step 5 is kept for faithfulness to the paper's description, but with
    :func:`upscale_border_line`'s copy rule it is provably redundant: the
    cells it writes already hold ``down[-1, -1]`` (the test suite asserts
    this), which is what lets the GPU border kernel run the four lines in
    parallel without a cross-workgroup ordering hazard.
    """
    d = np.asarray(down, dtype=FLOAT)
    if up.shape != (SCALE * d.shape[0], SCALE * d.shape[1]):
        raise ValidationError(
            f"upscaled buffer shape {up.shape} does not match {SCALE}x "
            f"the downscaled shape {d.shape}"
        )
    upscale_border_rows(up, 0, upscale_border_lines(d))


def upscale(down: np.ndarray, *, out: np.ndarray | None = None,
            rows: np.ndarray | None = None) -> np.ndarray:
    """Full upscale: body (``up[2:H-2, 2:W-2]``) plus the Fig. 3 border."""
    d = np.asarray(down, dtype=FLOAT)
    nr, nc = d.shape
    h, w = SCALE * nr, SCALE * nc
    up = _buffer(out, (h, w))
    upscale_body(d, out=up[2 : h - 2, 2 : w - 2], rows=rows)
    upscale_border_apply(up, d)
    return up


# ---------------------------------------------------------------------------
# Stage 3: difference matrix
# ---------------------------------------------------------------------------


def perror(src: np.ndarray, upscaled: np.ndarray, *,
           out: np.ndarray | None = None) -> np.ndarray:
    """Difference matrix ``pError = original - upscaled``."""
    a = np.asarray(src, dtype=FLOAT)
    b = np.asarray(upscaled, dtype=FLOAT)
    if a.shape != b.shape:
        raise ValidationError(
            f"shape mismatch: original {a.shape} vs upscaled {b.shape}"
        )
    return np.subtract(a, b, out=_buffer(out, a.shape))


# ---------------------------------------------------------------------------
# Stage 4a: Sobel
# ---------------------------------------------------------------------------


def sobel(src: np.ndarray, *, out: np.ndarray | None = None,
          tcol: np.ndarray | None = None, urow: np.ndarray | None = None,
          gy: np.ndarray | None = None) -> np.ndarray:
    """Sobel edge magnitude ``|Gx| + |Gy|`` with a zero border (Fig. 6/7).

    Separable: ``tcol`` (``(H-2, W)``) holds the vertical ``n + 2c + s``
    sums and ``urow`` (``(H, W-2)``) the horizontal ``w + 2c + e`` sums, so
    ``Gx = (ne + 2e + se) - (nw + 2w + sw)`` keeps the association order of
    the 3x3 masks; ``gy`` is the ``(H-2, W-2)`` scratch of ``Gy``.  The
    one-pixel border ring of ``out`` is written as zero on every call.
    """
    arr = _check_plane(src)
    return sobel_rows(arr, 0, arr.shape[0], out=out, tcol=tcol, urow=urow,
                      gy=gy)


def sobel_rows(src: np.ndarray, y0: int, y1: int, *,
               out: np.ndarray | None = None,
               tcol: np.ndarray | None = None,
               urow: np.ndarray | None = None,
               gy: np.ndarray | None = None) -> np.ndarray:
    """Rows ``[y0, y1)`` of :func:`sobel` of the float64 plane ``src``,
    written into ``out`` (shape ``(y1 - y0, W)``), zero ring cells included.

    Reads ``src`` rows ``y0 - 1`` to ``y1`` (a 1-row halo, clipped to the
    frame).  With ``n`` body rows in range, the scratch needs ``n``
    (``tcol``, ``gy``) and ``n + 2`` (``urow``) rows.
    """
    h, w = src.shape
    out = _buffer(out, (y1 - y0, w))
    b0, b1 = max(y0, 1), min(y1, h - 1)
    n = b1 - b0
    body = out[b0 - y0 : b1 - y0, 1 : w - 1]
    tcol = _scratch(tcol, (n, w))
    np.multiply(src[b0:b1], 2.0, out=tcol)
    np.add(src[b0 - 1 : b1 - 1], tcol, out=tcol)
    np.add(tcol, src[b0 + 1 : b1 + 1], out=tcol)
    np.subtract(tcol[:, 2:], tcol[:, :-2], out=body)
    halo = src[b0 - 1 : b1 + 1]
    urow = _scratch(urow, (n + 2, w - 2))
    np.multiply(halo[:, 1 : w - 1], 2.0, out=urow)
    np.add(halo[:, 0 : w - 2], urow, out=urow)
    np.add(urow, halo[:, 2:w], out=urow)
    gy = np.subtract(urow[2:], urow[:-2], out=_scratch(gy, (n, w - 2)))
    np.abs(body, out=body)
    np.abs(gy, out=gy)
    np.add(body, gy, out=body)
    if y0 == 0:
        out[0] = 0.0
    if y1 == h:
        out[-1] = 0.0
    out[:, 0] = 0.0
    out[:, w - 1] = 0.0
    return out


# ---------------------------------------------------------------------------
# Stage 4b: reduction
# ---------------------------------------------------------------------------


def reduce_sum(values: np.ndarray) -> float:
    """Total of all elements (the quantity the GPU tree reduction computes)."""
    return float(np.asarray(values, dtype=FLOAT).sum())


def reduce_mean(values: np.ndarray) -> float:
    """Arithmetic mean of all elements of ``values``."""
    arr = np.asarray(values, dtype=FLOAT)
    if arr.size == 0:
        raise ValidationError("cannot reduce an empty array")
    return reduce_sum(arr) / float(arr.size)


# ---------------------------------------------------------------------------
# Stage 4c: brightness strength + preliminary sharpened matrix
# ---------------------------------------------------------------------------


def strength_map(
    p_edge: np.ndarray, edge_mean: float, params: SharpnessParams, *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pixel brightness-strength factor (DESIGN.md section 3).

    ``strength = clamp(gain * (pEdge / mean)**gamma, 0, strength_max)``.
    A non-positive mean (flat image) yields an all-zero map: no edges, no
    sharpening.  This is the exponentiation-heavy step the paper calls the
    "calculation of the strength matrix"; ``gamma == 0.5`` takes the
    bit-identical ``sqrt`` (see :data:`POW_HALF_IS_SQRT`).
    """
    edge = np.asarray(p_edge, dtype=FLOAT)
    out = _buffer(out, edge.shape)
    if edge_mean <= 0.0:
        out[...] = 0.0
        return out
    np.divide(edge, FLOAT(edge_mean), out=out)
    if params.gamma == 0.5 and POW_HALF_IS_SQRT:
        np.sqrt(out, out=out)
    else:
        np.power(out, FLOAT(params.gamma), out=out)
    np.multiply(out, FLOAT(params.gain), out=out)
    return np.clip(out, 0.0, params.strength_max, out=out)


def preliminary_sharpen(
    upscaled: np.ndarray, p_error: np.ndarray, strength: np.ndarray, *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Preliminary sharpened matrix: ``upscaled + strength * pError``."""
    u = np.asarray(upscaled, dtype=FLOAT)
    e = np.asarray(p_error, dtype=FLOAT)
    s = np.asarray(strength, dtype=FLOAT)
    if not (u.shape == e.shape == s.shape):
        raise ValidationError(
            f"shape mismatch: upscaled {u.shape}, pError {e.shape}, "
            f"strength {s.shape}"
        )
    out = np.multiply(s, e, out=_buffer(out, u.shape))
    return np.add(u, out, out=out)


# ---------------------------------------------------------------------------
# Stage 4d: overshoot control
# ---------------------------------------------------------------------------


def neighborhood_minmax(
    src: np.ndarray, *, out: tuple[np.ndarray, np.ndarray] | None = None,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """3x3 min and max over the body region (shape ``(H-2, W-2)`` each).

    Separable: the 1x3 row extremum goes into the ``(H, W-2)`` scratch
    ``cols`` (reused for the min, then the max), then the 3x1 column
    extremum into ``out = (mn, mx)``.
    """
    arr = np.asarray(src, dtype=FLOAT)
    h, w = arr.shape
    cols = _scratch(cols, (h, w - 2))
    mn, mx = out if out is not None else (
        np.empty((h - 2, w - 2), dtype=FLOAT),
        np.empty((h - 2, w - 2), dtype=FLOAT),
    )
    for op, dst in ((np.minimum, mn), (np.maximum, mx)):
        op(arr[:, 0 : w - 2], arr[:, 1 : w - 1], out=cols)
        op(cols, arr[:, 2:w], out=cols)
        op(cols[0 : h - 2], cols[1 : h - 1], out=dst)
        op(dst, cols[2:h], out=dst)
    return mn, mx


def overshoot_control(
    preliminary: np.ndarray, src: np.ndarray, params: SharpnessParams, *,
    out: np.ndarray | None = None,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Overshoot control (Fig. 8) producing the final sharpened plane.

    Body pixels are compared against the 3x3 min/max of the *original*
    image (``bounds``, from :func:`neighborhood_minmax` when omitted);
    overshoots are blended back with the ``overshoot`` tuning factor and
    the result clamped to [0, 255].  Border rows/columns are copied from
    the preliminary matrix (and clamped so the output is a valid image —
    interpretation documented in DESIGN.md).

    The blend is sparse: ``mask`` (``(H-2, W-2)`` bool scratch) marks the
    pixels above the max, then those below the min, and only those are
    gathered, blended and scattered through flat indices.
    """
    p = np.asarray(preliminary, dtype=FLOAT)
    o = np.asarray(src, dtype=FLOAT)
    if p.shape != o.shape:
        raise ValidationError(
            f"shape mismatch: preliminary {p.shape} vs original {o.shape}"
        )
    if bounds is None:
        bounds = neighborhood_minmax(o)
    return overshoot_rows(p, 0, params, out=out, bounds=bounds, mask=mask)


def overshoot_rows(
    preliminary: np.ndarray, y0: int, params: SharpnessParams, *,
    bounds: tuple[np.ndarray, np.ndarray], out: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Rows ``[y0, y0 + n)`` of :func:`overshoot_control`, written into
    ``out`` (shape ``(n, W)``).

    ``preliminary`` holds those ``n`` rows of the preliminary matrix and
    ``bounds`` the 3x3 min/max of the body rows among them: the rows other
    than the frame's first and last, which are border rows.  ``mask`` is
    bool scratch of as many rows as ``bounds``.
    """
    p = preliminary
    n, w = p.shape
    mn, mx = bounds
    top = 1 if y0 == 0 else 0
    nb = mn.shape[0]
    final = np.clip(p, 0.0, 255.0, out=_buffer(out, (n, w)))
    body = p[top : top + nb, 1 : w - 1]
    mask = _scratch(mask, (nb, w - 2), dtype=bool)
    osc = FLOAT(params.overshoot)
    for above, bound in ((True, mx), (False, mn)):
        (np.greater if above else np.less)(body, bound, out=mask)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        # body index (r, c) -> row index (r + top, c + 1), flattened
        flat = idx + 2 * (idx // (w - 2)) + top * w + 1
        bv = np.take(p, flat)
        lv = np.take(bound, idx)
        if above:
            vals = np.minimum(lv + osc * (bv - lv), 255.0)
        else:
            vals = np.maximum(lv - osc * (lv - bv), 0.0)
        np.put(final, flat, vals)
    return final


# ---------------------------------------------------------------------------
# Full reference pipeline
# ---------------------------------------------------------------------------


def sharpen(
    src: np.ndarray, params: SharpnessParams | None = None
) -> dict[str, np.ndarray | float]:
    """Run the whole sharpness pipeline; return all intermediates.

    Returns a dict with keys ``downscaled``, ``upscaled``, ``p_error``,
    ``p_edge``, ``edge_mean``, ``strength``, ``preliminary``, ``final``.
    """
    params = params or SharpnessParams()
    arr = validate_plane(src)
    down = downscale(arr)
    up = upscale(down)
    err = perror(arr, up)
    edge = sobel(arr)
    edge_mean = reduce_mean(edge)
    strength = strength_map(edge, edge_mean, params)
    prelim = preliminary_sharpen(up, err, strength)
    final = overshoot_control(prelim, arr, params)
    return {
        "downscaled": down,
        "upscaled": up,
        "p_error": err,
        "p_edge": edge,
        "edge_mean": edge_mean,
        "strength": strength,
        "preliminary": prelim,
        "final": final,
    }
