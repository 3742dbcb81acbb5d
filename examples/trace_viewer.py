#!/usr/bin/env python3
"""Inspect the simulated execution: ASCII Gantt + Chrome trace export.

Renders the in-order pipeline timeline for one image, then the pipelined
(copy/compute-overlapped) schedule for a short frame stream, and writes both
as Chrome trace JSON files you can open at https://ui.perfetto.dev or
chrome://tracing.

Usage::

    python examples/trace_viewer.py [outdir]   # default ./traces_out
"""

import pathlib
import sys

from repro import GPUPipeline, Image, OPTIMIZED
from repro.core import overlap_stream
from repro.util import images


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                          else "traces_out")
    outdir.mkdir(exist_ok=True)

    # --- one in-order pipeline run -------------------------------------
    pipe = GPUPipeline(OPTIMIZED)
    image = Image.from_array(images.natural_like(1024, 1024, seed=5))
    res = pipe.run(image)
    print("In-order optimized pipeline at 1024x1024:\n")
    print(res.timeline.ascii_gantt(60))
    single_path = outdir / "pipeline_1024.trace.json"
    res.timeline.write_chrome_trace(single_path)

    # --- a pipelined 3-frame stream -------------------------------------
    frames = images.video_sequence(1024, 1024, 3, seed=5)
    timelines = [pipe.run(frame).timeline for frame in frames]
    pipelined = overlap_stream(timelines)
    serial = sum(tl.total for tl in timelines)
    print("\n\nPipelined 3-frame stream (copy/compute overlap):\n")
    print(pipelined.ascii_gantt(60))
    print(f"\nserial {serial * 1e3:.2f} ms -> pipelined "
          f"{pipelined.total * 1e3:.2f} ms "
          f"({serial / pipelined.total:.2f}x)")
    stream_path = outdir / "stream_3x1024.trace.json"
    pipelined.write_chrome_trace(stream_path)

    print(f"\nwrote {single_path} and {stream_path}")
    print("open them at https://ui.perfetto.dev to see the DMA/compute/"
          "host rows.")


if __name__ == "__main__":
    main()
