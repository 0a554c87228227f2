"""Process bookkeeping from ``/proc`` (``psutil`` is not available).

Ray's processes (GCS, raylet, workers, actors) all descend from the
benchmark process, so walking the parent links finds everything a run
started: to stop it, and to read the resident memory of its actors.
"""

from __future__ import annotations

import os
import signal
import time

_HZ = os.sysconf("SC_CLK_TCK")


def _stat(pid: int | str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _scan() -> dict[int, tuple[int, float]]:
    """pid -> (parent pid, CPU seconds used so far) for every process.

    CPU time is ``utime + stime``; the kernel books time the hypervisor
    stole as steal, not to the process."""
    out = {}
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            f = _stat(name)
            out[int(name)] = (int(f[1]), (int(f[11]) + int(f[12])) / _HZ)
        except (OSError, IndexError, ValueError):
            continue
    return out


def descendants(pid: int, table: dict | None = None) -> list[int]:
    table = _scan() if table is None else table
    kids: dict[int, list[int]] = {}
    for p, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline_starts(pid: int, prefix: str) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(prefix.encode())
    except OSError:
        return False


def rss_mb(pids: list[int]) -> float:
    """Resident memory of this process and ``pids``."""
    total = 0
    for pid in [os.getpid()] + list(pids):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


def _alive(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def reap(pids: list[int], wait_s: float) -> list[int]:
    """Wait until ``pids`` have exited (reaping our own children); returns
    the ones still running after ``wait_s``."""
    deadline = time.monotonic() + wait_s
    while True:
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        left = [p for p in pids if _alive(p)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.2)


def kill_all(pids: list[int]) -> None:
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    reap(pids, 10.0)


def cpu_clock(pid: int) -> int:
    """Id of the clock that reads process ``pid``'s CPU time over all its
    threads, in nanoseconds: Linux encodes a process CPU-time clock as
    ``~pid << 3 | 2``, the value ``clock_getcpuclockid`` returns."""
    return (~pid << 3) | 2


class CpuMeter:
    """CPU seconds of this process and of every Ray worker it started (the
    processes Ray names ``ray::<task or actor>``), over a ``with`` block.

    Ray's raylet, GCS and monitors are left out: their CPU time is mostly
    polling and grows with wall time, not with work done.  Processes are
    sampled every ``period`` seconds, so one that exits inside the block
    (the build's actor pools do, and take their CPU clocks with them) still
    counts up to its last sample, and one that starts inside it counts from
    its creation.  The sampler's own CPU time is left out."""

    def __init__(self, period: float = 0.25) -> None:
        import threading

        self.period = period
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self._started = False
        self._own = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        table = _scan()
        me = os.getpid()
        for pid in [me] + descendants(me, table):
            # a new worker takes its ``ray::`` title just after it starts
            if pid == me or pid in self._last or _cmdline_starts(pid, "ray::"):
                t = table[pid][1]
                self._first.setdefault(pid, 0.0 if self._started else t)
                self._last[pid] = t
        self._started = True

    def _loop(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(self.period):
            self._sample()
        self._own = time.thread_time() - t0

    def __enter__(self) -> "CpuMeter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def seconds(self) -> float:
        return sum(self._last[p] - self._first[p] for p in self._last) - self._own
