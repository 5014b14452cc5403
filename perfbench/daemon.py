"""Start, measure and always tear down a ``python -m repro.serve`` daemon.

The daemon runs in its own session, so teardown can signal the whole
process tree (daemon plus forked workers) even when the benchmark fails
half-way; it listens on an ephemeral port (``--port 0``).
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def pin_threads(env) -> None:
    """Pin BLAS/OpenMP to one thread in *env* (set before NumPy loads)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"


def program_env(root: Path) -> dict:
    """Environment for the program's processes: ``src`` on the path and
    BLAS/OpenMP pinned to one thread."""
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """High-water RSS of a set of processes over a window.

    Samples their summed RSS every ``interval`` seconds on a thread and
    reports the 90th percentile in MB.  A single-sample maximum would
    swing from run to run with garbage-collection timing (each request
    frees megabytes of simulated device memory only when the collector
    runs).
    """

    def __init__(self, pids, interval: float = 0.2):
        self.pids = list(pids)
        self.interval = interval
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(sum(_rss_kb(pid) for pid in self.pids))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def high_water_mb(self) -> float:
        ordered = sorted(self.samples)
        return ordered[(len(ordered) * 9) // 10] / 1024.0


def _group_pids(pgid: int):
    """Live (not zombie) processes in process group *pgid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            pids.append(int(entry))
    return pids


class Daemon:
    """One serve daemon; use as a context manager."""

    def __init__(self, root: Path, workers: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--workers",
             str(workers), "--port", "0"],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True, text=True)
        try:
            self.address = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("serve: "):
                    host, port = line.split()[1:3]
                    return host, int(port)
                if not line:
                    break
        raise RuntimeError("serve daemon did not report its address")

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def pids(self):
        """The daemon and its live workers."""
        return _group_pids(self.proc.pid)

    def stop(self) -> None:
        """Drain the daemon (SIGTERM), then kill whatever is left of its
        session; wait until every process of it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_pids(self.proc.pid):
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon workers outlived teardown")
            time.sleep(0.05)
