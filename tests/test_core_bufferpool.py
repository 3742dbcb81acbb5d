"""Buffer pool: reuse identity, bounds, and cross-frame hygiene."""

import numpy as np
import pytest

from repro.core import BufferPool, GPUPipeline, OPTIMIZED, Workspace, plan
from repro.core.plan import ExecutionPlan
from repro.errors import ConfigError
from repro.types import Image
from repro.util import images


class TestWorkspace:
    def test_shape_validation(self):
        for h, w in ((13, 16), (16, 13), (8, 16), (16, 8)):
            with pytest.raises(ConfigError):
                Workspace(h, w)

    def test_edge_ring_zero_on_creation(self):
        ws = Workspace(16, 20)
        assert not ws.edge.any()  # the pipeline planes start zeroed

    def test_nbytes_positive_and_scales(self):
        assert Workspace(32, 32).nbytes < Workspace(64, 64).nbytes


class TestBufferPool:
    def test_checkout_reuses_checked_in_workspace(self):
        pool = BufferPool()
        ws = pool.checkout(16, 16)
        pool.checkin(ws)
        assert pool.checkout(16, 16) is ws
        stats = pool.stats()
        assert stats == {"in_use": 1, "idle": 0, "created": 1,
                         "reused": 1, "discarded": 0}

    def test_shapes_are_segregated(self):
        pool = BufferPool()
        ws = pool.checkout(16, 16)
        pool.checkin(ws)
        other = pool.checkout(32, 32)
        assert other is not ws
        assert pool.stats()["created"] == 2

    def test_size_bound_discards_surplus(self):
        pool = BufferPool(max_entries=2)
        out = [pool.checkout(16, 16) for _ in range(4)]
        for ws in out:
            pool.checkin(ws)
        stats = pool.stats()
        assert stats["idle"] == 2
        assert stats["discarded"] == 2

    def test_max_entries_validated(self):
        with pytest.raises(ConfigError):
            BufferPool(max_entries=0)

    def test_checkout_checkin_tracks_in_use_and_idle(self):
        pool = BufferPool()
        ws = pool.checkout(16, 16)
        assert isinstance(ws, Workspace)
        assert pool.stats()["in_use"] == 1
        assert pool.stats()["idle"] == 0
        pool.checkin(ws)
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["idle"] == 1

    def test_failed_frame_checks_workspace_in(self, monkeypatch):
        pipe = GPUPipeline(OPTIMIZED)
        frame = images.video_sequence(32, 32, 1, seed=5)[0]
        pipe.run(frame)  # capture the plan

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(ExecutionPlan, "execute", boom)
        with pytest.raises(RuntimeError):
            pipe.run(frame)
        stats = pipe.buffer_pool.stats()
        assert stats["in_use"] == 0
        assert stats["idle"] == 1


class TestPoolHygiene:
    """A recycled (dirty) workspace must never leak one frame, or one
    strip, into the next: every strip writes each scratch cell of its
    lane before reading it, and Sobel re-zeros the pEdge border ring
    itself."""

    # One strip; strips of 12, 12, 12 and 4 rows; 4-row strips.
    @pytest.mark.parametrize("shape, strip_pixels, strip", [
        ((32, 32), plan.STRIP_PIXELS, 32),
        ((40, 32), 384, 12),
        ((32, 32), 1, 4),
    ], ids=["one-strip", "remainder", "4-row"])
    def test_poisoned_workspace_produces_identical_frames(
            self, monkeypatch, shape, strip_pixels, strip):
        monkeypatch.setattr(plan, "STRIP_PIXELS", strip_pixels)
        frames = [Image.from_array(f)
                  for f in images.video_sequence(*shape, 2, seed=5)]
        generic = GPUPipeline(OPTIMIZED, caching=False)
        ref = [generic.run(f).final for f in frames]

        poisoned = GPUPipeline(OPTIMIZED)
        poisoned.run(frames[0])  # capture the plan (generic path)
        poisoned.run(frames[0])  # replay it, parking a workspace
        assert poisoned.buffer_pool.stats()["idle"] == 1
        for ws_list in poisoned.buffer_pool._idle.values():
            for ws in ws_list:
                assert ws.strip == strip
                assert len(ws.lanes) == plan.LANES
                arrays = [a for part in (ws, *ws.lanes)
                          for a in vars(part).values()
                          if isinstance(a, np.ndarray)]
                assert sum(a.nbytes for a in arrays) == ws.nbytes
                for a in arrays:
                    a[...] = True if a.dtype == bool else 1e9
        for f, expected in zip(frames, ref):
            assert np.array_equal(poisoned.run(f).final, expected)

    def test_pool_steady_state_allocates_no_workspaces(self):
        frames = images.video_sequence(32, 32, 6, seed=5)
        pipe = GPUPipeline(OPTIMIZED)
        for f in frames:
            pipe.run(f)
        stats = pipe.buffer_pool.stats()
        assert stats["created"] == 1
        # First run is the plan miss (generic path, no workspace); the
        # second creates the pool's single workspace; the rest reuse it.
        assert stats["reused"] == len(frames) - 2
