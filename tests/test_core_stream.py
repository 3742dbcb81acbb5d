"""Frame streams through the batch engine, and the copy/compute-overlap
model over their timelines."""

import numpy as np
import pytest

from repro.core import BASE, OPTIMIZED, BatchEngine, GPUPipeline
from repro.core.dag import overlap_stream
from repro.core.stream import frame_stats
from repro.errors import ValidationError
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frames():
    return [Image.from_array(f)
            for f in images.video_sequence(64, 64, 4, seed=8)]


def stream(flags, frames, **kwargs):
    return BatchEngine(flags, workers=1, **kwargs).run(frames)


def pipelined_total(flags, frames) -> float:
    """Makespan of the copy/compute-overlapped schedule of ``frames``."""
    pipe = GPUPipeline(flags)
    return overlap_stream([pipe.run(f).timeline for f in frames]).total


def serial_total(result) -> float:
    return sum(f.serial_time for f in result.frames)


class TestStream:
    def test_outputs_match_single_runs(self, frames):
        result = stream(OPTIMIZED, frames, keep_outputs=True)
        pipe = GPUPipeline(OPTIMIZED)
        for frame, out in zip(frames, result.outputs):
            assert np.array_equal(out, pipe.run(frame).final)

    def test_frame_stats_match_single_runs(self, frames):
        result = stream(OPTIMIZED, frames)
        pipe = GPUPipeline(OPTIMIZED)
        assert result.frames == [frame_stats(i, pipe.run(f))
                                 for i, f in enumerate(frames)]

    def test_frame_stats_decompose_serial_time(self, frames):
        for f in stream(OPTIMIZED, frames).frames:
            assert f.serial_time == pytest.approx(
                f.transfer_time + f.device_time + f.host_time, rel=1e-9)

    def test_simulated_fps_is_serial(self, frames):
        result = stream(OPTIMIZED, frames)
        assert result.n_frames == 4
        assert result.simulated_fps == pytest.approx(
            result.n_frames / serial_total(result))

    def test_outputs_not_kept_by_default(self, frames):
        assert stream(OPTIMIZED, frames).outputs == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_frame_ids_rejected(self, frames, workers):
        engine = BatchEngine(OPTIMIZED, workers=workers)
        with pytest.raises(ValidationError,
                           match="frame 2 has no id: frame_ids holds 2"):
            engine.run(frames[:3], frame_ids=["a", "b"])

    def test_frame_ids_name_the_frames(self, frames):
        result = BatchEngine(OPTIMIZED, workers=1).run(
            frames[:2], frame_ids=["a", "b"])
        assert [f.frame_id for f in result.frames] == ["a", "b"]


class TestOverlapModel:
    def test_overlap_never_slower(self, frames):
        serial = serial_total(stream(OPTIMIZED, frames))
        assert pipelined_total(OPTIMIZED, frames) <= serial

    def test_overlap_hides_the_smaller_side(self, frames):
        for f in stream(OPTIMIZED, frames).frames:
            assert f.overlapped_time == pytest.approx(
                max(f.transfer_time, f.device_time) + f.host_time)

    def test_overlap_gain_bounded_by_transfer_share(self, frames):
        result = stream(OPTIMIZED, frames)
        gain = serial_total(result) / pipelined_total(OPTIMIZED, frames)
        bound = 1.0 / (1.0 - result.transfer_share)
        assert 1.0 <= gain <= bound + 1e-9

    def test_transfer_share_larger_for_base(self):
        """The base pipeline moves the pEdge/up matrices over PCI-E, so at
        realistic frame sizes its transfer share (and overlap headroom) is
        larger.  (At small frames the optimized pipeline's fixed rw-call
        overheads and CPU-border transfers dominate instead — the effect
        only flips once the border heuristic moves to the GPU, hence the
        1024x1024 frames here.)"""
        big = images.video_sequence(1024, 1024, 2, seed=8)
        base = stream(BASE, big)
        opt = stream(OPTIMIZED, big)
        assert 0.0 < opt.transfer_share < 1.0
        assert base.transfer_share > opt.transfer_share
