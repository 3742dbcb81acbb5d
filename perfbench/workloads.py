"""The benchmark's three workloads and the loop that measures them.

Each workload makes its inputs from the seed, computes reference outputs
with the plan-free ``GPUPipeline(OPTIMIZED, caching=False)`` outside the
timed part, and then drives the program through its public API only:

* ``stream_512`` -- a panned 512x512 TV stream through one warm
  ``BatchEngine(OPTIMIZED, workers=2)``, handed over in batches of
  ``chunk`` frames (the engine returns outputs per ``run`` call);
* ``single_2048`` -- one thread calling ``GPUPipeline.run`` on one warm
  pipeline, one 2048x2048 frame per call;
* ``durable_mixed`` -- repeated fsync'd ``BatchJob`` runs over PGM files of
  six interleaved non-square shapes, with seeded transient faults at the
  ``transfer`` and ``kernel`` sites, and the periodic health snapshot off
  (see ``HEALTH_INTERVAL``).

Frame latency is what the caller can see through the API: per ``run`` call
for ``single_2048``; from the job's ``loader`` reading a frame to its
``writer`` having written it for ``durable_mixed``.  ``BatchEngine``
returns outputs only when its ``run`` call returns, so on ``stream_512``
latency is batch turnaround, from the engine pulling a frame to the call
returning its batch: in a saturated closed loop that is mostly the frames
left in the batch over ``fps``, not the time to sharpen one frame.  Each
call also starts and drains its own worker pool.

Times are scaled to a reference host speed with ``hostspeed.HostProbe``.

All workloads are closed loops on one process with at most two worker
threads.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import OPTIMIZED, BatchEngine, GPUPipeline, ReproError
from repro.lifecycle import JOURNAL_NAME, BatchJob, JobJournal, \
    LifecycleConfig
from repro.obs import RunContext
from repro.resilience import FaultPlan, SiteSpec
from repro.util import images
from repro.util.io import read_pgm, write_pgm

import hostspeed
from spantrace import SpanRecorder, summarize

#: Worker threads: the benchmark is sized for a two-core host.
WORKERS = 2

#: The metric names and units, declared once in ``BENCHMARK.json``.
SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


@dataclass
class Tally:
    """What the timed part did, and what the checks found."""

    frames: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    #: ``perf_counter`` intervals of the timed calls.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: Per timed call: frames, wall seconds and CPU seconds.
    calls: list[tuple[int, float, float]] = field(default_factory=list)
    #: Peak resident memory (MB) during each timed call.
    peaks: list[float] = field(default_factory=list)
    #: Frames produced by cold starts (outside ``frames``).
    cold_frames: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def timed(self, start: float, end: float, cpu: float, frames: int,
              latencies: list[float]) -> None:
        self.windows.append((start, end))
        self.calls.append((frames, end - start, cpu))
        self.wall += end - start
        self.frames += frames
        self.latencies.extend(latencies)

    def check(self, ok: bool, what: str) -> None:
        """Count one frame's output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def same_pixels(got, want) -> bool:
    """Bit-for-bit equality of two output planes."""
    return got is not None and np.array_equal(got, want)


def quiet_context(**kwargs) -> RunContext:
    """A metrics-enabled context that logs only errors."""
    return RunContext.create(log_level="error", **kwargs)


class Workload:
    """One seeded workload: inputs, references, cold start, timed step."""

    name = ""
    #: Standalone cold-start samples taken before the timed part.
    setups = 0
    workers = 1
    #: Timed calls that make one pass over the inputs.
    calls_per_pass = 1

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.recorder: SpanRecorder | None = None

    def prepare(self) -> None:
        """Make the inputs from the seed, and their references (untimed)."""
        raise NotImplementedError

    def cold_start(self, tally: Tally) -> None:
        """Time one cold start into ``tally.setup`` and keep the object it
        warmed for the timed steps."""
        raise NotImplementedError

    def step(self, tally: Tally) -> None:
        """One timed call into the program, then the checks of its
        outputs."""
        raise NotImplementedError

    def frame_shapes(self) -> list[tuple[int, int]]:
        """Shapes of one pass over the inputs (weights the simulated
        frame time)."""
        raise NotImplementedError

    def faults_injected(self) -> int:
        return 0

    def close(self) -> None:
        pass


class Stream512(Workload):
    """The TV stream: panned frames through one warm batch engine."""

    name = "stream_512"
    setups = 9
    workers = min(WORKERS, os.cpu_count() or 1)

    def __init__(self, seed: int, work_dir: pathlib.Path, *,
                 side: int = 512, distinct: int = 32,
                 chunk: int = 32) -> None:
        super().__init__(seed, work_dir)
        self.side, self.distinct, self.chunk = side, distinct, chunk
        self.pos = 0

    def prepare(self) -> None:
        self.frames = images.video_sequence(self.side, self.side,
                                            self.distinct, seed=self.seed)
        ref = GPUPipeline(OPTIMIZED, caching=False)
        results = [ref.run(f) for f in self.frames]
        self.ref_final = [r.final for r in results]
        self.ref_edge = [r.edge_mean for r in results]

    def _check(self, tally: Tally, result, idx: list[int]) -> None:
        for k, i in enumerate(idx):
            ok = (k < len(result.outputs)
                  and result.edge_means[k] == self.ref_edge[i]
                  and same_pixels(result.outputs[k], self.ref_final[i]))
            tally.check(ok, f"{self.name}: frame {i} differs")

    def cold_start(self, tally: Tally) -> None:
        i = len(tally.setup) % self.distinct
        start = time.perf_counter()
        engine = BatchEngine(OPTIMIZED, workers=WORKERS, keep_outputs=True,
                             obs=quiet_context())
        result = engine.run([self.frames[i]])
        tally.setup.append(time.perf_counter() - start)
        tally.cold_frames += 1
        self._check(tally, result, [i])
        self.engine = engine

    def step(self, tally: Tally) -> None:
        idx = [(self.pos + j) % self.distinct for j in range(self.chunk)]
        self.pos += self.chunk
        pulled: list[float] = []

        def source():
            for i in idx:
                pulled.append(time.perf_counter())
                yield self.frames[i]

        cpu0 = time.process_time()
        start = time.perf_counter()
        result = self.engine.run(source())
        end = time.perf_counter()
        cpu = time.process_time() - cpu0
        tally.timed(start, end, cpu, len(result.outputs),
                    [end - t for t in pulled])
        self._check(tally, result, idx)

    def frame_shapes(self) -> list[tuple[int, int]]:
        return [(self.side, self.side)]


class Single2048(Workload):
    """The library caller: one warm pipeline, one big frame per call."""

    name = "single_2048"
    setups = 5
    workers = 1
    KINDS = (images.natural_like, images.text_like, images.gaussian_blobs)
    # text_like frames take about 1.3x as long as the other two, so
    # single calls give two clusters of rates; passes give one.
    calls_per_pass = len(KINDS)

    def __init__(self, seed: int, work_dir: pathlib.Path, *,
                 side: int = 2048) -> None:
        super().__init__(seed, work_dir)
        self.side = side
        self.pos = 0

    def prepare(self) -> None:
        # The seed picks the content and which kind comes first; every
        # run cycles through all three, whose overshoot counts differ.
        first = self.seed % len(self.KINDS)
        kinds = self.KINDS[first:] + self.KINDS[:first]
        # gaussian_blobs can overshoot 255 by one ulp, which Image
        # validation rightly rejects; clipping keeps every seed valid.
        self.planes = [
            np.clip(kind(self.side, self.side, seed=self.seed * 3 + k),
                    0.0, 255.0)
            for k, kind in enumerate(kinds)]
        ref = GPUPipeline(OPTIMIZED, caching=False)
        self.refs = [ref.run(p).final for p in self.planes]

    def cold_start(self, tally: Tally) -> None:
        i = len(tally.setup) % len(self.planes)
        start = time.perf_counter()
        pipeline = GPUPipeline(OPTIMIZED)
        result = pipeline.run(self.planes[i])
        tally.setup.append(time.perf_counter() - start)
        tally.cold_frames += 1
        tally.check(same_pixels(result.final, self.refs[i]),
                    f"{self.name}: cold frame {i} differs")
        self.pipeline = pipeline

    def step(self, tally: Tally) -> None:
        i = self.pos % len(self.planes)
        self.pos += 1
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = self.pipeline.run(self.planes[i])
        end = time.perf_counter()
        tally.timed(start, end, time.process_time() - cpu0, 1,
                    [end - start])
        tally.check(same_pixels(result.final, self.refs[i]),
                    f"{self.name}: frame {i} differs")

    def frame_shapes(self) -> list[tuple[int, int]]:
        return [(self.side, self.side)]


#: Six non-square shapes with sides in 256..1024 and one pixel count
#: (288 * 1024), so that neither a job's cost nor its first frame's
#: depends on the order the seed picks.
DURABLE_SHAPES = ((288, 1024), (1024, 288), (384, 768), (768, 384),
                  (512, 576), (576, 512))

#: Transient fault rate at the ``transfer`` and ``kernel`` sites.
FAULT_RATE = 0.03

#: ``durable_mixed`` turns the periodic health snapshot off; the job still
#: writes ``health.json`` on each state change, from its own thread.  With
#: the periodic write on, the watchdog and result threads both write the
#: snapshot through one temp file name, and the loser of the race raises
#: ``FileNotFoundError`` out of ``BatchJob.run`` (or kills the watchdog).
#: ``test_perfbench.test_concurrent_health_writes`` pins that defect; when
#: it is fixed, that test fails and this can go back to the default.
HEALTH_INTERVAL = float("inf")


class DurableMixed(Workload):
    """The photo-library job: a fresh fsync'd ``BatchJob`` per step.

    Every job builds a new engine, so every step is a cold start; its
    set-up time runs from constructing the job to the first written
    output.
    """

    name = "durable_mixed"
    workers = min(WORKERS, os.cpu_count() or 1)

    def __init__(self, seed: int, work_dir: pathlib.Path, *,
                 shapes=DURABLE_SHAPES, rounds: int = 27) -> None:
        super().__init__(seed, work_dir)
        self.rounds = rounds
        rng = np.random.default_rng(seed)
        self.shapes = [shapes[i] for i in rng.permutation(len(shapes))]
        self.jobs = 0
        self.injected = 0

    def prepare(self) -> None:
        kinds = (images.natural_like, images.text_like,
                 images.gaussian_blobs)
        src = self.work_dir / "inputs"
        src.mkdir(parents=True, exist_ok=True)
        ref = GPUPipeline(OPTIMIZED, caching=False)
        self.refs = []
        payloads = []
        for s, (h, w) in enumerate(self.shapes):
            plane = kinds[(self.seed + s) % len(kinds)](
                h, w, seed=self.seed * 16 + s)
            path = src / f"content{s}.pgm"
            write_pgm(path, plane)
            self.refs.append(ref.run(read_pgm(path)).final_u8())
            payloads.append(path.read_bytes())
            path.unlink()
        # Shapes interleave: frame i has shape i mod len(shapes).
        self.inputs = []
        for i in range(self.rounds * len(self.shapes)):
            path = src / f"frame{i:04d}.pgm"
            path.write_bytes(payloads[i % len(self.shapes)])
            self.inputs.append(path)

    def _fault_plan(self) -> FaultPlan:
        # Derived from the workload seed and the job's position, so a seed
        # fixes every job's fault schedule.
        spec = SiteSpec(rate=FAULT_RATE)
        return FaultPlan({"transfer": spec, "kernel": spec},
                         seed=self.seed * 1000 + self.jobs)

    def step(self, tally: Tally) -> None:
        job_dir = self.work_dir / f"job{self.jobs}"
        out_dir = self.work_dir / f"out{self.jobs}"
        plan = self._fault_plan()
        self.jobs += 1
        read, write = read_pgm, write_pgm
        if self.recorder is not None:
            read = self.recorder.traced(read_pgm, "util.io.read")
            write = self.recorder.traced(write_pgm, "util.io.write")
        loaded: dict[str, float] = {}
        written: dict[str, float] = {}

        def loader(path):
            loaded[path.name] = time.perf_counter()
            return read(path)

        def writer(path, plane):
            write(path, plane)
            written[path.name] = time.perf_counter()

        cpu0 = time.process_time()
        start = time.perf_counter()
        job = BatchJob(inputs=self.inputs, output_dir=out_dir,
                       job_dir=job_dir, workers=WORKERS,
                       obs=quiet_context(faults=plan),
                       lifecycle=LifecycleConfig(
                           fsync=True, health_interval=HEALTH_INTERVAL),
                       loader=loader, writer=writer)
        try:
            exit_code = job.run().exit_code
        except (ReproError, OSError) as exc:
            # A crashed job is reported, never retried: its frames count
            # as failed and the next job starts fresh.
            exit_code = None
            tally.problems.append(
                f"{self.name}: job {self.jobs - 1} crashed: "
                f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        cpu = time.process_time() - cpu0
        self.injected += plan.total_injected()
        if written:
            tally.setup.append(min(written.values()) - start)
        tally.timed(start, end, cpu, len(written),
                    [written[k] - loaded[k] for k in written])

        state = JobJournal.replay(job_dir / JOURNAL_NAME)
        job_ok = (exit_code == 0 and not state.failed
                  and state.duplicates == 0)
        if not job_ok:
            tally.problems.append(
                f"{self.name}: job {self.jobs - 1} exit "
                f"{exit_code}, {len(state.failed)} failed, "
                f"{state.duplicates} duplicate records")
        for i, path in enumerate(self.inputs):
            fid = path.name
            out = out_dir / fid
            ok = (job_ok and fid in state.completed and out.exists()
                  and same_pixels(read_pgm(out).astype(np.uint8),
                                  self.refs[i % len(self.shapes)]))
            tally.check(ok, f"{self.name}: {fid} differs or is missing")
        shutil.rmtree(job_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        # Each job stands for one job process: free the previous job's
        # engine and workspaces (held in reference cycles) before the
        # next one, so the memory peak is one job's.
        gc.collect()

    def frame_shapes(self) -> list[tuple[int, int]]:
        return list(self.shapes)

    def faults_injected(self) -> int:
        return self.injected

    def close(self) -> None:
        shutil.rmtree(self.work_dir / "inputs", ignore_errors=True)


WORKLOADS = {w.name: w for w in (Stream512, Single2048, DurableMixed)}


# -- measurement -------------------------------------------------------------

def reset_peak_rss() -> bool:
    """Restart the kernel's resident-set high-water mark; ``False`` where
    that is not possible (then the peak covers the whole process)."""
    try:
        pathlib.Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    try:
        for line in pathlib.Path("/proc/self/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_for(workload: Workload, tally: Tally, seconds: float,
            probe: hostspeed.HostProbe) -> bool:
    """Timed steps until they have taken ``seconds`` of wall time, with
    host-probe samples between them.  ``False`` if the memory peak could
    not be reset before a step."""
    wall0 = tally.wall
    reset = True
    while tally.wall - wall0 < seconds:
        reset &= reset_peak_rss()
        workload.step(tally)
        tally.peaks.append(peak_rss_mb())
        probe.keep_up(tally.wall)
    return reset


@dataclass
class Report:
    workload: str
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    #: Extra lines for a reader: sample counts, failure details.
    notes: list[str] = field(default_factory=list)
    recorder: SpanRecorder | None = None

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.tally.problems


def end_to_end(tally: Tally, slowdown: float = 1.0,
               calls_per_pass: int = 1) -> dict[str, float]:
    """Medians over passes of ``calls_per_pass`` timed calls, so that a
    short stall from another process on the host moves one sample and
    not the result.  Times are divided by ``slowdown`` and rates
    multiplied by it (see ``hostspeed``).  The memory peak is that of one
    timed call, so it excludes the references made during set-up."""
    lat_ms = np.asarray(tally.latencies) * 1e3 / slowdown
    calls, step = tally.calls, calls_per_pass
    # Whole passes only, unless the run made less than one.
    passes = [[sum(v) for v in zip(*calls[i:i + step])]
              for i in range(0, max(len(calls) - step, 0) + 1, step)]
    fps = [frames / wall for frames, wall, _ in passes if frames]
    cpu = [cpu / frames for frames, _, cpu in passes if frames]
    return {
        "fps": statistics.median(fps) * slowdown,
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "setup_s": statistics.median(tally.setup) / slowdown,
        "cpu_ms_per_frame": 1e3 * statistics.median(cpu) / slowdown,
        "peak_rss_mb": statistics.median(tally.peaks),
    }


def declared(section: str, values: dict[str, float]
             ) -> dict[str, tuple[float, str]]:
    """Every metric ``BENCHMARK.json`` declares in ``section``, with its
    value and unit."""
    return {m["name"]: (float(values[m["name"]]), m["unit"])
            for m in SPEC[section]}


def measure(workload: Workload, seconds: float, trace: bool) -> Report:
    """Set up, run the timed part, check outputs.

    Untraced, the report holds the end-to-end metrics.  Traced, every
    other timed call runs with every entry point wrapped (after one
    traced cold start, where the workload has one); the report holds the
    per-layer metrics of the traced calls, and ``trace.overhead_frac``
    compares the frame rates of the traced and untraced calls.
    """
    tally = Tally()
    previous_hook = threading.excepthook

    def thread_failed(args) -> None:
        # A worker or watchdog thread that dies is a failed operation
        # even when the job carries on without it.
        tally.problems.append(
            f"{workload.name}: uncaught {args.exc_type.__name__} in "
            f"thread {args.thread.name if args.thread else '?'}: "
            f"{args.exc_value}")
        previous_hook(args)

    threading.excepthook = thread_failed
    try:
        return _measure(workload, tally, seconds, trace)
    finally:
        threading.excepthook = previous_hook


def _measure(workload: Workload, tally: Tally, seconds: float,
             trace: bool) -> Report:
    workload.prepare()
    for _ in range(workload.setups):
        workload.cold_start(tally)
    if not trace:
        probe = hostspeed.HostProbe()
        reset = run_for(workload, tally, seconds, probe)
        slowdown = probe.slowdown()
        report = Report(workload.name, declared("end_to_end", end_to_end(
            tally, slowdown, workload.calls_per_pass)), tally)
        report.notes.append(
            f"samples: {len(tally.latencies)} latencies, "
            f"{len(tally.calls)} timed calls, {len(tally.setup)} set-ups, "
            f"{tally.frames} frames in {tally.wall:.2f} s")
        report.notes.append(
            f"host probe: {len(probe.samples)} samples, median "
            f"{slowdown * hostspeed.REFERENCE_S * 1e3:.4f} ms against "
            f"{hostspeed.REFERENCE_S * 1e3:.4f} ms; times above are scaled "
            f"by 1/{slowdown:.4f}")
        report.notes.append("unscaled: " + " ".join(
            f"{name}={value:.6g}"
            for name, value in end_to_end(
                tally, calls_per_pass=workload.calls_per_pass).items()))
        if not reset:
            report.notes.append(
                "peak_rss_mb covers the whole process: the memory peak "
                "could not be reset before each timed call")
        return report

    recorder = SpanRecorder()
    cold0 = tally.cold_frames
    if workload.setups:
        with tracing(workload, recorder):
            workload.cold_start(tally)
    # Untraced and traced calls alternate, so that a change in the host's
    # speed during the run falls on both sides of trace.overhead_frac.
    frames, wall = [0, 0], [0.0, 0.0]
    windows: list[tuple[float, float]] = []
    faults = calls = 0
    while sum(wall) < seconds or calls < 2:
        traced = calls % 2
        calls += 1
        frames0, wall0 = tally.frames, tally.wall
        faults0 = workload.faults_injected()
        if traced:
            with tracing(workload, recorder):
                workload.step(tally)
            windows.append(tally.windows[-1])
            faults += workload.faults_injected() - faults0
        else:
            workload.step(tally)
        frames[traced] += tally.frames - frames0
        wall[traced] += tally.wall - wall0
    traced_frames = frames[1] + tally.cold_frames - cold0
    values = summarize(recorder, traced_frames, windows, workload.workers)
    sim, drift = simulated_frame_ms(recorder, workload.frame_shapes())
    values.update({
        "core.batch.effective_workers": workload.workers,
        "resilience.faults_injected": faults,
        "simgpu.sim_frame_ms": sim,
        "trace.overhead_frac":
            1.0 - (frames[1] / wall[1]) / (frames[0] / wall[0]),
        "trace.frames": traced_frames,
    })
    report = Report(workload.name, declared("per_layer", values), tally,
                    recorder=recorder)
    if drift:
        tally.problems.append(
            f"{workload.name}: simulated frame time varies within a "
            f"shape: {drift}")
    if workload.workers == 1:
        report.notes.append(blocking_path_note(recorder, windows))
    return report


@contextlib.contextmanager
def tracing(workload: Workload, recorder: SpanRecorder):
    """Every entry point wrapped, for the duration of the block."""
    recorder.install()
    workload.recorder = recorder
    try:
        yield
    finally:
        recorder.unpatch()
        workload.recorder = None


def simulated_frame_ms(recorder: SpanRecorder,
                       shapes: list[tuple[int, int]]
                       ) -> tuple[float, dict]:
    """Mean simulated device time per frame over one pass of the inputs,
    and the shapes whose simulated time was not one single value."""
    seen = recorder.sim_by_shape
    per_frame = [min(seen[s]) for s in shapes if s in seen]
    drift = {f"{h}x{w}": sorted(v) for (h, w), v in seen.items()
             if len(v) > 1}
    mean = 1e3 * sum(per_frame) / len(per_frame) if per_frame else 0.0
    return mean, drift


def blocking_path_note(recorder: SpanRecorder,
                       windows: list[tuple[float, float]]) -> str:
    """How much of the traced calls' wall time the named layers inside
    ``GPUPipeline.run`` account for: the summed self time of every span
    below a ``core.pipeline.run`` root, against the summed duration of
    the traced timed calls.  The root's own self time, which no named
    layer covers, is reported beside it and not counted."""
    called = sum(end - start for start, end in windows)
    layers = root = 0.0
    for s in recorder.spans:
        if not any(lo <= s.start and s.end <= hi for lo, hi in windows):
            continue
        top = s
        while top.parent is not None:
            top = top.parent
        if top.name != "core.pipeline.run":
            continue
        if s is top:
            root += s.self_s
        else:
            layers += s.self_s
    return (f"blocking path: named layers under core.pipeline.run account "
            f"for {layers / called:.1%} of {called * 1e3:.1f} ms of timed "
            f"calls; core.pipeline.run's own self time for "
            f"{root / called:.1%}")
