"""The crash story, end to end: SIGKILL a durable batch mid-run, resume,
and prove the stitched result is bit-identical with no recomputation.

These tests drive the real CLI in subprocesses (SIGKILL cannot be
simulated in-process: nothing runs after it, including ``finally``
blocks — exactly the hole the write-ahead journal covers).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.lifecycle import JobJournal
from repro.util import images as synth
from repro.util.io import write_pgm

N_FRAMES = 8
REPO_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def frames_dir(tmp_path):
    src = tmp_path / "frames"
    src.mkdir()
    for i in range(N_FRAMES):
        write_pgm(src / f"f{i:02d}.pgm", synth.text_like(48, 48, seed=i))
    return src


def cli(args, **popen):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sharpen", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **popen,
    )


def run_cli(args, timeout=120):
    proc = cli(args)
    out, err = proc.communicate(timeout=timeout)
    return proc.returncode, out, err


def journal_frames(job_dir, run=None):
    """Frame records in the journal, optionally filtered by run number."""
    path = pathlib.Path(job_dir) / "journal.jsonl"
    records = []
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("kind") != "frame":
            continue
        if run is None or record.get("run") == run:
            records.append(record)
    return records


def wait_for_completed(job_dir, count, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = [r for r in journal_frames(job_dir)
                if r["status"] == "completed"]
        if len(done) >= count:
            return done
        time.sleep(0.02)
    raise AssertionError(
        f"journal never reached {count} completed frames "
        f"(has {len(journal_frames(job_dir))})"
    )


def wait_for_stderr(proc, needle):
    """Read ``proc``'s stderr up to the first line containing ``needle``;
    return what was read."""
    lines = []
    for line in iter(proc.stderr.readline, ""):
        lines.append(line)
        if needle in line:
            return "".join(lines)
    raise AssertionError(
        f"process exited before stderr showed {needle!r}:\n"
        + "".join(lines))


def read_outputs(out_dir):
    return {p.name: p.read_bytes()
            for p in sorted(pathlib.Path(out_dir).glob("*.pgm"))}


@pytest.mark.parametrize("sig", [signal.SIGKILL])
def test_sigkill_then_resume_is_bit_identical(tmp_path, frames_dir, sig):
    # Reference: one uninterrupted durable run.
    rc, _, err = run_cli([
        str(frames_dir / "*.pgm"), str(tmp_path / "ref-out"), "--batch",
        "--job-dir", str(tmp_path / "ref-job"), "--workers", "1",
    ])
    assert rc == 0, err
    reference = read_outputs(tmp_path / "ref-out")
    assert len(reference) == N_FRAMES

    # Victim: same job, slowed down (~0.2 s/frame via an uncancelled
    # hang-site stall), killed hard after two frames hit the journal.
    job_dir = tmp_path / "job"
    proc = cli([
        str(frames_dir / "*.pgm"), str(tmp_path / "out"), "--batch",
        "--job-dir", str(job_dir), "--workers", "1",
        "--inject-faults", "hang:rate=1.0,seconds=0.2;seed=1",
    ])
    try:
        wait_for_completed(job_dir, 2)
        proc.send_signal(sig)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == -sig

    run1 = journal_frames(job_dir, run=1)
    run1_completed = [r for r in run1 if r["status"] == "completed"]
    assert 2 <= len(run1_completed) < N_FRAMES
    # SIGKILL skipped every finally block: the manifest still says running
    manifest = json.loads((job_dir / "manifest.json").read_text())
    assert manifest["state"] == "running"

    # Resume (no fault slowdown) finishes the job.
    rc, _, err = run_cli(["--resume", str(job_dir)])
    assert rc == 0, err

    # No frame ran twice: run 2 journaled exactly the leftovers.
    run2 = journal_frames(job_dir, run=2)
    assert len(run2) == N_FRAMES - len(run1_completed)
    assert {r["frame_id"] for r in run1_completed}.isdisjoint(
        {r["frame_id"] for r in run2})

    # The stitched outputs match the uninterrupted run bit for bit.
    assert read_outputs(tmp_path / "out") == reference
    manifest = json.loads((job_dir / "manifest.json").read_text())
    assert manifest["state"] == "completed"


def test_sigterm_drains_with_exit_3_then_resume(tmp_path, frames_dir):
    job_dir = tmp_path / "job"
    proc = cli([
        str(frames_dir / "*.pgm"), str(tmp_path / "out"), "--batch",
        "--job-dir", str(job_dir), "--workers", "1",
        "--inject-faults", "hang:rate=1.0,seconds=0.2;seed=1",
        "--drain-timeout", "30",
    ])
    try:
        wait_for_completed(job_dir, 1)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == 3, err
    state = JobJournal.replay(job_dir)
    assert state.completed and len(state.completed) < N_FRAMES
    manifest = json.loads((job_dir / "manifest.json").read_text())
    assert manifest["state"] == "drained"

    rc, _, err = run_cli(["--resume", str(job_dir)])
    assert rc == 0, err
    assert len(read_outputs(tmp_path / "out")) == N_FRAMES


def test_double_sigterm_aborts_with_exit_4(tmp_path, frames_dir):
    job_dir = tmp_path / "job"
    proc = cli([
        str(frames_dir / "*.pgm"), str(tmp_path / "out"), "--batch",
        "--job-dir", str(job_dir), "--workers", "1",
        "--inject-faults", "hang:rate=1.0,seconds=2;seed=1",
        "--drain-timeout", "300",
    ])
    try:
        # Signal only once frame 1 has begun its 2 s stall: the drain the
        # first SIGTERM starts must wait for that frame, so the second
        # SIGTERM lands mid-drain.  (A drain with nothing in flight
        # finishes at once and rightly exits 3, not 4.)
        head = wait_for_stderr(proc, "detail=frame:1")
        wait_for_completed(job_dir, 1)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        err = head + err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == 4, err
    manifest = json.loads((job_dir / "manifest.json").read_text())
    assert manifest["state"] == "aborted"
    # the checkpoint is still resumable
    rc, _, err = run_cli(["--resume", str(job_dir)])
    assert rc == 0, err
    assert len(read_outputs(tmp_path / "out")) == N_FRAMES
