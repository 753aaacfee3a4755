"""Cold, isolated job processes.

Each job is a fresh interpreter with a fresh temporary working directory,
``HOME`` and ``XDG_CACHE_HOME``, all removed once the job is checked, so no
disk cache written by one job is seen by the next.  Jobs run one at a time.
Bytecode for the sources is compiled before any timing, and jobs do not
write bytecode themselves.  Wall time runs from launch to exit; peak RSS
and CPU time come from the job's own rusage.

Other tenants of the host slow a vCPU by up to ~1.6x, in phases lasting
from a fraction of a second to minutes, and CPU time slows with it.  While
a job runs, a probe thread in this process follows the job's CPU and times
a fixed loop there every ``PROBE_INTERVAL_S``; ``slowdown`` is the mean
loop time over ``PROBE_REF_S``, its time on an uncontended vCPU, and
``scaled_s`` is the wall time divided by it.  The probe takes a few percent
of the job's CPU.  It follows the job's main process only.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

JOB_TIMEOUT_S = 150
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 1.25e-3   # the probe loop on an idle vCPU of a 2-vCPU Xeon sandbox


@dataclass
class JobResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    cwd: Path
    slowdown: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s / self.slowdown


def _probe_loop() -> int:
    x = 0
    for i in range(20000):
        x += i * i % 7
    return x


def _cpu_of(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class _Probe(threading.Thread):
    """Times ``_probe_loop`` on whichever CPU process ``pid`` last ran on."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            try:
                os.sched_setaffinity(0, {_cpu_of(self.pid)})
            except (OSError, ValueError, IndexError):
                return
            start = time.thread_time()
            _probe_loop()
            self.samples.append(time.thread_time() - start)
            self.done.wait(PROBE_INTERVAL_S)

    def slowdown(self) -> float:
        self.done.set()
        self.join()
        return statistics.fmean(self.samples) / PROBE_REF_S if self.samples else 1.0


class Sandbox:
    """Owns the per-run scratch area inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        base = root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def path(self, name: str) -> Path:
        p = self.dir / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def env(self, job_dir: Path) -> dict:
        home = job_dir / ".home"
        cache = home / ".cache"
        cache.mkdir(parents=True)
        return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONPATH": str(self.root / "src"),
                "PYTHONHASHSEED": "0",
                "PYTHONDONTWRITEBYTECODE": "1",
                "HOME": str(home), "XDG_CACHE_HOME": str(cache),
                "LC_ALL": "C.UTF-8"}

    def run(self, argv: list[str]) -> JobResult:
        """Run ``python3 ARGV`` in a fresh directory; the caller checks the
        result and then calls ``discard``."""
        job_dir = Path(tempfile.mkdtemp(prefix="job-", dir=self.dir))
        env = self.env(job_dir)
        out_path, err_path = job_dir / ".stdout", job_dir / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=job_dir, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            probe = _Probe(proc.pid)
            probe.start()
            timer = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                slowdown = probe.slowdown()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return JobResult(exit_code=proc.returncode, wall_s=wall,
                         cpu_s=usage.ru_utime + usage.ru_stime,
                         peak_rss_mb=usage.ru_maxrss / 1024.0,
                         stdout=out_path.read_text(errors="replace"),
                         stderr=err_path.read_text(errors="replace"),
                         cwd=job_dir, slowdown=slowdown)

    @staticmethod
    def discard(result: JobResult) -> None:
        shutil.rmtree(result.cwd, ignore_errors=True)
