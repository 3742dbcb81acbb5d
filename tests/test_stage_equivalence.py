"""Differential properties: every path that sharpens a frame agrees.

The stage functions of ``repro.algo.stages`` are the only implementation
of each stage.  These properties pin what that buys across generated
shapes (sides multiples of 4, at least 16, non-square, plus one frame
wider than 4096):

* a stage gives the same array whether it allocates or writes into
  caller-provided (dirty) ``out=``/scratch arrays, and matches the scalar
  oracle ``repro.cpu.naive``;
* planned and generic ``GPUPipeline`` runs are bit-identical, whether
  the planned frame runs in one row strip or many, on one lane or two;
* ``BatchEngine`` with one or two workers returns what one pipeline does;
* the GPU path and ``CPUPipeline`` (the resilience fallback) agree in
  ``final_u8``.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algo import stages as algo
from repro.core import BASE, OPTIMIZED, BatchEngine, GPUPipeline, plan
from repro.cpu import CPUPipeline, naive
from repro.types import Image, SharpnessParams

from .conftest import assert_allclose

seeds = st.integers(min_value=0, max_value=2**31 - 1)
params_strategy = st.builds(
    SharpnessParams,
    gain=st.floats(min_value=0.0, max_value=4.0),
    gamma=st.sampled_from([0.5, 0.7, 1.0, 2.0]),
    strength_max=st.floats(min_value=0.5, max_value=8.0),
    overshoot=st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def shapes(draw, max_side=96):
    """Non-square ``(h, w)`` with sides multiples of 4 and >= 16."""
    h = 4 * draw(st.integers(min_value=4, max_value=max_side // 4))
    w = 4 * draw(st.integers(min_value=4, max_value=max_side // 4).filter(
        lambda q: 4 * q != h))
    return h, w


def _plane(shape, seed):
    return np.random.default_rng(seed).uniform(0, 255, shape)


def _dirty(shape, dtype=np.float64):
    return np.full(shape, True if dtype == bool else np.nan, dtype=dtype)


def _helper_claims_first(monkeypatch):
    """Hold the calling lane of every multi-strip sweep until a helper
    lane has claimed a strip, so a two-lane run really splits its strips;
    returns the thread-name prefixes of the lanes that claimed one."""
    claimers = set()
    claim = plan._Sweep._claim

    def patched(sweep, helper):
        if not helper and len(sweep.lanes) > 1 and len(sweep.bounds) > 1:
            deadline = time.monotonic() + 10
            while sweep.next == 0 and time.monotonic() < deadline:
                time.sleep(1e-4)
        rows = claim(sweep, helper)
        if rows is not None:
            claimers.add(threading.current_thread().name.split("_")[0])
        return rows

    monkeypatch.setattr(plan._Sweep, "_claim", patched)
    return claimers


def _stage_runs(plane, params, *, scratch):
    """Run every stage once; with ``scratch`` all outputs and scratch are
    caller-provided arrays pre-filled with garbage."""
    h, w = plane.shape
    hd, wd = h // 4, w // 4
    d = _dirty if scratch else (lambda shape, dtype=None: None)
    out = {}
    out["down"] = algo.downscale(plane, out=d((hd, wd)), colsum=d((h, wd)))
    out["body"] = algo.upscale_body(out["down"], out=d((h - 4, w - 4)),
                                    rows=d((h - 4, wd)))
    out["up"] = algo.upscale(out["down"], out=d((h, w)), rows=d((h - 4, wd)))
    out["err"] = algo.perror(plane, out["up"], out=d((h, w)))
    out["edge"] = algo.sobel(plane, out=d((h, w)), tcol=d((h - 2, w)),
                             urow=d((h, w - 2)), gy=d((h - 2, w - 2)))
    mean = algo.reduce_mean(out["edge"])
    out["strength"] = algo.strength_map(out["edge"], mean, params,
                                        out=d((h, w)))
    out["prelim"] = algo.preliminary_sharpen(out["up"], out["err"],
                                             out["strength"], out=d((h, w)))
    bounds = algo.neighborhood_minmax(
        plane, out=(d((h - 2, w - 2)), d((h - 2, w - 2))) if scratch else None,
        cols=d((h, w - 2)))
    out["mn"], out["mx"] = bounds
    out["final"] = algo.overshoot_control(
        out["prelim"], plane, params, out=d((h, w)),
        bounds=bounds if scratch else None,
        mask=d((h - 2, w - 2), dtype=bool))
    return out


class TestStageFunctions:
    @given(shapes(), seeds, params_strategy)
    @example((24, 4100), 7, SharpnessParams())
    @settings(max_examples=20, deadline=None)
    def test_out_and_scratch_do_not_change_results(self, shape, seed,
                                                   params):
        plane = _plane(shape, seed)
        fresh = _stage_runs(plane, params, scratch=False)
        reused = _stage_runs(plane, params, scratch=True)
        for name, value in fresh.items():
            assert np.array_equal(reused[name], value), name

    @given(shapes(max_side=32), seeds)
    @settings(max_examples=5, deadline=None)
    def test_stages_match_scalar_oracle(self, shape, seed):
        plane = _plane(shape, seed)
        got = _stage_runs(plane, SharpnessParams(), scratch=True)
        ref = naive.sharpen(plane)
        assert_allclose(got["down"], ref["downscaled"], context="downscale")
        assert_allclose(got["up"], ref["upscaled"], context="upscale")
        assert_allclose(got["edge"], ref["p_edge"], context="sobel")
        assert_allclose(got["strength"], ref["strength"], context="strength")
        assert_allclose(got["final"], ref["final"], context="final")


class TestPipelinesAgree:
    # The default strip budget, one that leaves a shorter last strip, and
    # one that gives 4-row strips, each on one lane and on two; (72, 4100)
    # is 6 strips of 12 rows at the default and (56, 48) strips of 20, 20
    # and 16 rows at 1000.
    @pytest.mark.parametrize("strip_pixels, lanes", [
        pytest.param(plan.STRIP_PIXELS, 1, id="default"),
        pytest.param(1000, 1, id="remainder"),
        pytest.param(1, 1, id="4-row"),
        pytest.param(plan.STRIP_PIXELS, 2, id="default-2-lanes"),
        pytest.param(1000, 2, id="remainder-2-lanes"),
        pytest.param(1, 2, id="4-row-2-lanes"),
    ])
    @given(shapes(), seeds, params_strategy)
    @example((24, 4100), 7, SharpnessParams())
    @example((72, 4100), 7, SharpnessParams())
    @example((56, 48), 7, SharpnessParams(gamma=0.7))
    @settings(max_examples=10, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    def test_planned_equals_generic(self, monkeypatch, strip_pixels, lanes,
                                    shape, seed, params):
        monkeypatch.setattr(plan, "STRIP_PIXELS", strip_pixels)
        monkeypatch.setattr(plan, "LANES", lanes)
        claimers = _helper_claims_first(monkeypatch)
        image = Image.from_array(_plane(shape, seed))
        for flags in (OPTIMIZED, BASE):
            generic = GPUPipeline(flags, params, caching=False).run(image)
            planned_pipe = GPUPipeline(flags, params)
            planned_pipe.run(image)
            planned = planned_pipe.run(image)
            assert planned_pipe.plan_cache.stats()["hits"] == 1
            assert np.array_equal(planned.final, generic.final)
            assert planned.edge_mean == generic.edge_mean
        strips = len(plan.strip_bounds(shape[0], plan.strip_rows(*shape), 0))
        assert ("repro-strip" in claimers) == (lanes == 2 and strips > 1)

    @given(shapes(), seeds)
    @example((24, 4100), 7)
    @settings(max_examples=5, deadline=None)
    def test_batch_workers_match_single_pipeline(self, shape, seed):
        frames = [_plane(shape, seed + i) for i in range(3)]
        pipe = GPUPipeline(OPTIMIZED)
        ref = [pipe.run(f) for f in frames]
        for workers in (1, 2):
            result = BatchEngine(OPTIMIZED, workers=workers,
                                 keep_outputs=True).run(frames)
            for out, mean, r in zip(result.outputs, result.edge_means, ref):
                assert np.array_equal(out, r.final), workers
                assert mean == r.edge_mean, workers

    @given(shapes(), seeds)
    @example((24, 4100), 7)
    @settings(max_examples=10, deadline=None)
    def test_gpu_and_cpu_fallback_agree_in_u8(self, shape, seed):
        image = Image.from_array(_plane(shape, seed))
        cpu = CPUPipeline().run(image)
        for flags in (OPTIMIZED, BASE):
            gpu = GPUPipeline(flags).run(image)
            assert np.array_equal(gpu.final_u8(), cpu.final_u8())
