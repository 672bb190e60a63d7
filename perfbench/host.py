"""Host-side measurements: CPU count, calibration kernel, process memory.

Memory is read from ``/proc``: the Ray head processes and workers are
descendants of the benchmark process, because it starts Ray itself.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from typing import Dict, List

import numpy as np


def ray_cpus() -> int:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS and the
    affinity mask); the affinity mask when ``nproc`` is missing."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


_CALIB_DATA = np.random.default_rng(0).random(1 << 20)


def calib_ms(reps: int = 5) -> float:
    """Median time of a fixed single-core numpy kernel (sort of 1M
    doubles).  Recorded at the start and end of every run so a throttled
    host shows; never used to rescale a metric."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.sort(_CALIB_DATA)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> List[int]:
    kids = _children_map()
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemoryProbe:
    """Peak resident memory of the driver plus the Ray workers.

    ``sample()`` is called at stage boundaries; the worker part is the
    largest, over the samples, of the summed peaks (VmHWM) of the Ray
    workers alive at that sample."""

    def __init__(self):
        self.workers_kb = 0

    def sample(self) -> None:
        kb = sum(_hwm_kb(p) for p in descendants() if _is_ray_worker(p))
        self.workers_kb = max(self.workers_kb, kb)

    def driver_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def peak_mb(self) -> float:
        return self.driver_mb() + self.workers_kb / 1024.0


def kill_descendants() -> None:
    """SIGKILL every process this one started (last resort: the watchdog
    and the exit path after ray.shutdown)."""
    deadline = time.time() + 10
    while time.time() < deadline:
        pids = descendants()
        if not pids:
            return
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:  # reap our own children; orphans are reaped by init
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.1)
