"""Synthetic workload generators.

The paper evaluates on square brightness planes whose sides are multiples of
256 (TV / camera / VCR frames).  These generators produce deterministic
synthetic planes with the statistics that matter to a sharpening pipeline:
smooth gradients (no edges), hard step edges (maximum Sobel response),
band-limited "natural" content with a 1/f spectrum, text-like high-frequency
detail, and temporally-correlated video sequences.

All generators take an explicit ``seed`` where randomness is involved and
return ``float64`` planes in [0, 255] ready for :class:`repro.types.Image`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError


def _grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    if height <= 0 or width <= 0:
        raise ValidationError(f"invalid image shape {height}x{width}")
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    return ys, xs


def gradient(height: int, width: int, *, horizontal: bool = True) -> np.ndarray:
    """A linear ramp from 0 to 255 — smooth content with no edges.

    Useful for testing: Sobel of a linear ramp is constant in the body, and
    overshoot control must pass the preliminary image through unmodified.
    """
    ys, xs = _grid(height, width)
    axis = xs if horizontal else ys
    n = (width if horizontal else height) - 1
    return np.broadcast_to(axis / max(n, 1) * 255.0, (height, width)).copy()


def checkerboard(height: int, width: int, *, cell: int = 8,
                 low: float = 32.0, high: float = 224.0) -> np.ndarray:
    """A checkerboard — dense strong edges, worst case for overshoot control."""
    if cell <= 0:
        raise ValidationError(f"cell must be > 0, got {cell}")
    ys, xs = _grid(height, width)
    mask = ((ys // cell) + (xs // cell)) % 2
    return np.where(mask > 0, high, low)


def step_edges(height: int, width: int, *, n_steps: int = 8) -> np.ndarray:
    """Vertical bands of increasing brightness — isolated hard step edges."""
    if n_steps <= 0:
        raise ValidationError(f"n_steps must be > 0, got {n_steps}")
    _, xs = _grid(height, width)
    band = np.floor(xs / width * n_steps)
    levels = band / max(n_steps - 1, 1) * 255.0
    return np.broadcast_to(levels, (height, width)).copy()


def noise(height: int, width: int, *, seed: int = 0,
          low: float = 0.0, high: float = 255.0) -> np.ndarray:
    """Uniform white noise — stresses the noise-amplification control."""
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(height, width))


def gaussian_blobs(height: int, width: int, *, n_blobs: int = 12,
                   seed: int = 0) -> np.ndarray:
    """A field of Gaussian blobs — smooth structures with soft edges."""
    if n_blobs <= 0:
        raise ValidationError(f"n_blobs must be > 0, got {n_blobs}")
    rng = np.random.default_rng(seed)
    ys, xs = _grid(height, width)
    plane = np.zeros((height, width), dtype=np.float64)
    for _ in range(n_blobs):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        sigma = rng.uniform(min(height, width) / 32, min(height, width) / 8)
        amp = rng.uniform(40.0, 255.0)
        plane += amp * np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2)
                                / (2.0 * sigma**2)))
    peak = plane.max()
    if peak > 0:
        plane *= 255.0 / peak
        # ``peak * (255 / peak)`` can round to 255 + 1 ulp.
        np.minimum(plane, 255.0, out=plane)
    return plane


def natural_like(height: int, width: int, *, seed: int = 0,
                 beta: float = 1.0) -> np.ndarray:
    """Band-limited content with a 1/f**beta power spectrum.

    Natural photographs have approximately 1/f amplitude spectra; this is the
    closest synthetic stand-in for the TV/camera frames the paper motivates
    without shipping image assets.
    """
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.sqrt(fy**2 + fx**2)
    radius[0, 0] = 1.0  # avoid division by zero at DC
    amplitude = radius ** (-beta)
    amplitude[0, 0] = 0.0  # zero-mean field; DC added back below
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(height, width))
    spectrum = amplitude * np.exp(1j * phase)
    field = np.fft.ifft2(spectrum).real
    field -= field.min()
    peak = field.max()
    if peak > 0:
        field /= peak
    return field * 255.0


def text_like(height: int, width: int, *, seed: int = 0,
              line_height: int = 12, fill: float = 0.45) -> np.ndarray:
    """High-frequency stroke pattern resembling rendered text lines.

    Sharpening text is the classic showcase workload; this produces rows of
    short dark strokes on a light background.
    """
    if line_height <= 2:
        raise ValidationError(f"line_height must be > 2, got {line_height}")
    if not 0.0 < fill < 1.0:
        raise ValidationError(f"fill must lie in (0, 1), got {fill}")
    rng = np.random.default_rng(seed)
    plane = np.full((height, width), 235.0)
    y = line_height // 2
    while y + line_height <= height:
        x = 2
        while x < width - 4:
            stroke = rng.integers(2, 9)
            if rng.random() < fill:
                plane[y:y + line_height - 3, x:x + stroke] = 25.0
            x += stroke + rng.integers(1, 5)
        y += line_height
    return plane


def video_sequence(height: int, width: int, n_frames: int, *, seed: int = 0,
                   pan_per_frame: int = 2) -> list[np.ndarray]:
    """A temporally-correlated sequence: a natural-like scene panned per frame.

    Models the paper's real-time TV use case, where consecutive frames are
    near-duplicates and throughput (frames/s) is the figure of merit.
    """
    if n_frames <= 0:
        raise ValidationError(f"n_frames must be > 0, got {n_frames}")
    margin = pan_per_frame * n_frames
    scene = natural_like(height + margin, width + margin, seed=seed)
    frames = []
    for i in range(n_frames):
        off = i * pan_per_frame
        frames.append(scene[off:off + height, off:off + width].copy())
    return frames
