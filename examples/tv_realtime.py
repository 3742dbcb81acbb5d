#!/usr/bin/env python3
"""Real-time TV sharpening: the workload the paper's introduction motivates.

Simulates sharpening a panning full-HD (1920x1080) brightness sequence with
the base and the optimized GPU pipelines and reports whether each sustains
real-time frame rates (25/30/60 fps) under the simulated device times.

Usage::

    python examples/tv_realtime.py [n_frames]   # default 6
"""

import sys

from repro import BASE, CPUPipeline, GPUPipeline, Image, OPTIMIZED
from repro.core import overlap_stream
from repro.core.stream import frame_stats
from repro.util import images

WIDTH, HEIGHT = 1920, 1080
TARGETS_FPS = (25.0, 30.0, 60.0)


def describe(name: str, frame_time: float) -> None:
    fps = 1.0 / frame_time
    verdict = "  ".join(
        f"{int(t)}fps:{'yes' if fps >= t else 'NO '}" for t in TARGETS_FPS
    )
    print(f"  {name:22s} {frame_time * 1e3:8.2f} ms/frame "
          f"({fps:6.1f} fps)   {verdict}")


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"Sharpening {n_frames} panning frames at {WIDTH}x{HEIGHT}\n")

    frames = [Image.from_array(f) for f in
              images.video_sequence(HEIGHT, WIDTH, n_frames, seed=3)]

    pipelines = {
        "CPU baseline": CPUPipeline(),
        "GPU base port": GPUPipeline(BASE),
        "GPU optimized": GPUPipeline(OPTIMIZED),
    }

    print("Per-frame simulated times (mean over the sequence):")
    runs = {}
    for name, pipe in pipelines.items():
        runs[name] = [pipe.run(frame) for frame in frames]
        describe(name, sum(r.total_time for r in runs[name]) / n_frames)

    # Going beyond the paper: double-buffered copy/compute overlap.
    optimized = runs["GPU optimized"]
    pipelined = overlap_stream([r.timeline for r in optimized])
    describe("GPU opt + overlap", pipelined.total / n_frames)
    stats = [frame_stats(i, r) for i, r in enumerate(optimized)]
    transfer_share = (sum(f.transfer_time for f in stats)
                      / sum(f.serial_time for f in stats))
    print(f"\n  (PCI-E transfers are {100 * transfer_share:.0f}% of "
          "the serial frame time — the overlap\n  headroom double "
          "buffering exploits.)")

    print(
        "\nThe optimized pipeline is what makes real-time HD sharpening "
        "feasible on the\nsimulated W8000 — the same conclusion the paper "
        "draws for its TV use case."
    )


if __name__ == "__main__":
    main()
