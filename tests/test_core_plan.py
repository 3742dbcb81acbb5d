"""Execution-plan cache: keying, correctness, eviction, observability."""

import dataclasses
import io
import sys
import threading
import time

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.core import (
    BASE,
    LADDER,
    OPTIMIZED,
    GPUPipeline,
    PlanCache,
    PlanKey,
    plan,
)
from repro.errors import ConfigError
from repro.obs import RunContext
from repro.simgpu.device import W8000
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frames():
    return [Image.from_array(f)
            for f in images.video_sequence(64, 64, 3, seed=8)]


class TestPlanKeying:
    def test_distinct_shapes_get_distinct_plans(self):
        pipe = GPUPipeline(OPTIMIZED)
        for side in (32, 48, 64):
            pipe.run(images.video_sequence(side, side, 1, seed=1)[0])
        assert len(pipe.plan_cache) == 3
        assert pipe.plan_cache.stats()["misses"] == 3
        assert pipe.plan_cache.stats()["hits"] == 0

    def test_distinct_flags_never_share_plans(self, frames):
        cache = PlanCache()
        for _, flags in LADDER:
            GPUPipeline(flags, plan_cache=cache).run(frames[0])
        assert len(cache) == len(LADDER)
        assert cache.stats()["hits"] == 0

    def test_distinct_devices_never_share_plans(self, frames):
        other = dataclasses.replace(W8000, name="other-gpu")
        cache = PlanCache()
        GPUPipeline(OPTIMIZED, plan_cache=cache).run(frames[0])
        GPUPipeline(OPTIMIZED, device=other, plan_cache=cache).run(frames[0])
        assert len(cache) == 2

    def test_same_config_hits(self, frames):
        pipe = GPUPipeline(OPTIMIZED)
        for f in frames:
            pipe.run(f)
        stats = pipe.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(frames) - 1

    def test_key_is_hashable_and_comparable(self):
        k1 = PlanKey(64, 64, OPTIMIZED, W8000,
                     GPUPipeline().cpu, "functional")
        k2 = PlanKey(64, 64, OPTIMIZED, W8000,
                     GPUPipeline().cpu, "functional")
        assert k1 == k2 and hash(k1) == hash(k2)


class TestPlanCorrectness:
    @pytest.mark.parametrize("name,flags",
                             [(n, f) for n, f in LADDER],
                             ids=[n for n, _ in LADDER])
    def test_cached_bit_identical_across_ladder(self, frames, name, flags):
        uncached = GPUPipeline(flags, caching=False)
        cached = GPUPipeline(flags)
        for f in frames:
            ref = uncached.run(f)
            got = cached.run(f)
            assert np.array_equal(got.final, ref.final)
            assert got.edge_mean == ref.edge_mean
        assert cached.plan_cache.stats()["hits"] == len(frames) - 1

    def test_cached_preserves_simulated_results(self, frames):
        uncached = GPUPipeline(OPTIMIZED, caching=False)
        cached = GPUPipeline(OPTIMIZED)
        for f in frames:
            ref = uncached.run(f)
            got = cached.run(f)
            assert got.total_time == ref.total_time
            assert got.kernel_launches == ref.kernel_launches
            assert got.times.times == ref.times.times

    def test_plan_records_the_launched_reduction_chain(self, frames):
        two_level = dataclasses.replace(OPTIMIZED, reduction_stage2="gpu")
        big = np.full((1056, 1024), 100.0)
        cases = (
            (BASE, frames[0], ()),
            (OPTIMIZED, frames[0], ((64 * 64, 4),)),
            (two_level, Image.from_array(big),
             ((1056 * 1024, 1056), (1056, 2))),
        )
        for flags, frame, chain in cases:
            pipe = GPUPipeline(flags)
            pipe.run(frame)
            plan = pipe.plan_cache.get(pipe._plan_key(frame))
            assert plan.reduction_levels == chain
            launched = [e for e in plan.timeline.of_kind("kernel")
                        if e.name.startswith("kernel:reduction")]
            assert len(launched) == len(chain)

    def test_rectangular_frames(self):
        plane = images.video_sequence(32, 64, 2, seed=3)
        uncached = GPUPipeline(BASE, caching=False)
        cached = GPUPipeline(BASE)
        for f in plane:
            assert np.array_equal(cached.run(f).final,
                                  uncached.run(f).final)


class TestPlanBypass:
    def test_emulate_mode_bypasses_cache(self):
        pipe = GPUPipeline(OPTIMIZED, mode="emulate")
        frame = images.video_sequence(16, 16, 1, seed=1)[0]
        pipe.run(frame)
        pipe.run(frame)
        assert len(pipe.plan_cache) == 0
        assert pipe.plan_cache.stats() == {"hits": 0, "misses": 0,
                                           "size": 0}

    def test_keep_intermediates_bypasses_cache(self, frames):
        pipe = GPUPipeline(OPTIMIZED, keep_intermediates=True)
        res = pipe.run(frames[0])
        pipe.run(frames[0])
        assert len(pipe.plan_cache) == 0
        assert res.intermediates  # generic path retained buffers

    def test_caching_off_has_no_cache(self, frames):
        pipe = GPUPipeline(OPTIMIZED, caching=False)
        pipe.run(frames[0])
        assert pipe.plan_cache is None
        assert pipe.buffer_pool is None


class TestPlanCacheLRU:
    def test_eviction_respects_maxsize(self):
        cache = PlanCache(maxsize=2)
        pipe = GPUPipeline(OPTIMIZED, plan_cache=cache)
        for side in (32, 48, 64):
            pipe.run(images.video_sequence(side, side, 1, seed=1)[0])
        assert len(cache) == 2
        # 32x32 was evicted (least recently used): re-running misses again.
        misses = cache.stats()["misses"]
        pipe.run(images.video_sequence(32, 32, 1, seed=1)[0])
        assert cache.stats()["misses"] == misses + 1

    def test_maxsize_validated(self):
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)

    def test_clear(self, frames):
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frames[0])
        assert len(pipe.plan_cache) == 1
        pipe.plan_cache.clear()
        assert len(pipe.plan_cache) == 0


class TestPlanObservability:
    def test_hit_miss_counters_in_prometheus(self, frames):
        obs = RunContext.create("plan-test", log_level="warning",
                                log_stream=io.StringIO())
        pipe = GPUPipeline(OPTIMIZED, obs=obs)
        for f in frames:
            pipe.run(f)
        text = obs.metrics.to_prometheus_text()
        assert 'repro_plan_cache_requests_total{outcome="miss"} 1' in text
        assert ('repro_plan_cache_requests_total{outcome="hit"} '
                f'{len(frames) - 1}') in text

    def test_cached_runs_replay_queue_metrics(self, frames):
        def totals(n_runs):
            obs = RunContext.create("plan-test", log_level="warning",
                                    log_stream=io.StringIO())
            pipe = GPUPipeline(OPTIMIZED, obs=obs,
                               caching=(n_runs > 1))
            for _ in range(n_runs):
                pipe.run(frames[0])
            return obs.metrics.to_prometheus_text()

        once = totals(1)
        lines_once = {
            line.split()[0]: float(line.split()[1])
            for line in once.splitlines()
            if line.startswith(("repro_cl_commands_total",
                                "repro_cl_transfer_bytes_total"))
        }
        twice = totals(2)
        lines_twice = {
            line.split()[0]: float(line.split()[1])
            for line in twice.splitlines()
            if line.startswith(("repro_cl_commands_total",
                                "repro_cl_transfer_bytes_total"))
        }
        # A cached second run must double every queue-level total.
        for key, value in lines_once.items():
            assert lines_twice[key] == 2 * value, key


class TestStripLanes:
    @pytest.fixture
    def two_lanes(self, monkeypatch, frames):
        """A warm pipeline whose 64x64 frames run in 16 four-row strips
        on two lanes."""
        monkeypatch.setattr(plan, "LANES", 2)
        monkeypatch.setattr(plan, "STRIP_PIXELS", 1)
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frames[0])  # capture the plan (generic path)
        return pipe, pipe.run(frames[0]).final

    def test_failing_helper_lane_raises_after_every_lane_stops(
            self, monkeypatch, frames, two_lanes):
        pipe, expected = two_lanes
        overshoot = algo.overshoot_rows
        helper_claimed = threading.Event()
        writes = []

        def flaky(*args, **kwargs):
            if not threading.current_thread().name.startswith("repro-strip"):
                helper_claimed.wait(timeout=10)
                overshoot(*args, **kwargs)
                writes.append(time.perf_counter())
                return
            helper_claimed.set()
            time.sleep(0.2)  # the calling lane drains every other strip
            overshoot(*args, **kwargs)
            writes.append(time.perf_counter())
            raise RuntimeError("helper lane failed")

        monkeypatch.setattr(algo, "overshoot_rows", flaky)
        with pytest.raises(RuntimeError, match="helper lane failed"):
            pipe.run(frames[0])
        raised = time.perf_counter()
        time.sleep(0.3)
        assert len(writes) == 15 and max(writes) < raised
        assert pipe.buffer_pool.stats()["in_use"] == 0
        assert plan.LOAD.in_flight == 0
        # The failed frame's workspace went back dirty; the next is clean.
        monkeypatch.setattr(algo, "overshoot_rows", overshoot)
        assert np.array_equal(pipe.run(frames[0]).final, expected)

    def test_busy_cores_lend_no_helper(self, monkeypatch, frames, two_lanes):
        pipe, expected = two_lanes
        downscale = algo.downscale
        threads = set()

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread().name)
            time.sleep(0.005)  # time enough for a helper to claim a strip
            return downscale(*args, **kwargs)

        monkeypatch.setattr(algo, "downscale", recorded)
        with plan.LOAD:  # another frame holds the second core
            final = pipe.run(frames[0]).final
        assert threads == {threading.current_thread().name}
        assert np.array_equal(final, expected)

    def test_more_frame_threads_than_cores(self, frames, two_lanes):
        pipe, expected = two_lanes
        same, errors = [], []

        def caller():
            own = GPUPipeline(OPTIMIZED, plan_cache=pipe.plan_cache,
                              buffer_pool=pipe.buffer_pool)
            try:
                for _ in range(5):
                    same.append(np.array_equal(own.run(frames[0]).final,
                                               expected))
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and same == [True] * 20
        assert plan.LOAD.in_flight == 0
        assert pipe.buffer_pool.stats()["in_use"] == 0

    def test_usable_cores_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(plan.os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert plan.usable_cores() == 1
        monkeypatch.delattr(plan.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(plan.os, "cpu_count", lambda: None)
        assert plan.usable_cores() == 1
