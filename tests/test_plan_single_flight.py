"""Single-flight plan capture: a cold key is captured once, however many
workers ask for it at the same moment."""

import dataclasses
import threading
import time

import numpy as np

from repro.core import OPTIMIZED, BufferPool, GPUPipeline, PlanCache
from repro.errors import ReproError
from repro.obs import RunContext
from repro.resilience import FaultPlan
from repro.types import Image
from repro.util import images

THREADS = 4
JOIN_S = 30.0


def race(monkeypatch, obs=None):
    """Run one cold frame on ``THREADS`` pipelines sharing one plan cache,
    released together by a barrier.  The generic run is slowed so every
    thread reaches the cache before the first capture could land.

    Returns ``(cache, outputs, errors, generic_runs)``.
    """
    frame = Image.from_array(images.natural_like(32, 32, seed=4))
    cache, pool = PlanCache(), BufferPool()
    generic = GPUPipeline._run_instrumented
    generic_runs = []

    def slow_generic(self, image, run_obs):
        generic_runs.append(threading.get_ident())
        time.sleep(0.2)
        return generic(self, image, run_obs)

    monkeypatch.setattr(GPUPipeline, "_run_instrumented", slow_generic)
    barrier = threading.Barrier(THREADS)
    outputs, errors = [], []

    def worker():
        pipe = GPUPipeline(OPTIMIZED, obs=obs, plan_cache=cache,
                           buffer_pool=pool)
        barrier.wait()
        try:
            outputs.append(pipe.run(frame).final)
        except ReproError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_S)
    assert not any(t.is_alive() for t in threads), "a waiter is stuck"
    return cache, outputs, errors, generic_runs


def test_concurrent_cold_key_is_captured_once(monkeypatch):
    cache, outputs, errors, generic_runs = race(monkeypatch)
    assert errors == []
    assert cache.stats() == {"hits": THREADS - 1, "misses": 1, "size": 1}
    assert len(generic_runs) == 1
    assert all(np.array_equal(out, outputs[0]) for out in outputs)


def test_failed_capture_hands_over_to_one_waiter(monkeypatch):
    plan = FaultPlan.parse("transfer:rate=1.0,kind=transient,max=1;seed=0")
    obs = dataclasses.replace(RunContext.disabled(), faults=plan)
    cache, outputs, errors, generic_runs = race(monkeypatch, obs)
    assert plan.injected["transfer"] == 1
    assert len(errors) == 1 and len(outputs) == THREADS - 1
    # The failed capturer and the waiter that took over both missed.
    assert cache.stats() == {"hits": THREADS - 2, "misses": 2, "size": 1}
    assert len(generic_runs) == 2


def test_release_without_capture_is_a_noop():
    cache = PlanCache()
    key = GPUPipeline()._plan_key(
        Image.from_array(images.natural_like(16, 16, seed=1)))
    cache.release(key)
    assert cache.get(key) is None
    cache.release(key)
    assert cache.get(key) is None
    assert cache.stats()["misses"] == 2
