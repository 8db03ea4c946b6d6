"""Stage processes: spawn one CLI command, time it from spawn to exit, read its peak RSS.

Each stage runs in a fresh interpreter with the BLAS/OpenMP thread pools
pinned to one thread, so the worker count is the only parallelism. The
child is reaped with wait4, whose ru_maxrss is the largest peak RSS of the
child and of every descendant it waited for, which covers the fork workers
of a parallel stage.

SpeedProbe times a fixed kernel between stage processes, so that stage
walls can be scaled to a nominal machine speed.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft as sfft

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGE_TIMEOUT_S = 150.0
MB = 1e6
# Typical SpeedProbe.speed_s() on the 2-core host the bounds were set on.
REFERENCE_NOMINAL_S = 0.17


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    pid: int
    log: Path


def stage_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_stage(root: Path, argv: list[str], cwd: Path, log: Path,
              span_prefix: Path | None = None, alloc: bool = False) -> StageRun:
    """Run ``cfmm <argv>``; through the tracer when span_prefix is set."""
    if span_prefix is None:
        cmd = [sys.executable, "-m", "cfmm.cli", *argv]
    else:
        cmd = [sys.executable, str(root / "perfbench" / "tracer.py"), str(span_prefix),
               *(["--alloc"] if alloc else []), "--", *argv]
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=stage_env(root), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(STAGE_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # A stage killed on timeout can leave fork workers behind.
    _kill_group(proc.pid)
    return StageRun(stage=argv[0], wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss * 1024 / MB,
                    returncode=proc.returncode, pid=proc.pid, log=log)


class SpeedProbe:
    """Times a fixed kernel: a zero-padded FFT over a few MB and a Python
    loop over small numpy arrays, the two kinds of work the stages do.

    On a shared host the speed of the whole machine drifts by a third over
    minutes, and the stages and this kernel slow down together. Walls
    scaled by ``scale()``, the nominal time over the run's median sample,
    vary less from run to run than the raw walls.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tones = rng.standard_normal((32, 2801)) + 1j * rng.standard_normal((32, 2801))
        self._small = np.arange(6.0)
        self.samples: list[float] = []
        self.sample()  # warm-up: FFT plan and first-touch costs
        self.samples.clear()

    def sample(self) -> None:
        start = time.perf_counter()
        float((np.abs(sfft.ifft(self._tones, n=28010, axis=-1)) ** 2).sum())
        acc = 0.0
        for i in range(20000):
            w = self._small * 1.5 + i
            acc += float(w.sum()) if i % 3 else float(np.hypot(w[0], w[1]))
        self.samples.append(time.perf_counter() - start)

    def speed_s(self) -> float:
        """Median sample of the run."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / self.speed_s()
