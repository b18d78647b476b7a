"""Timing children at a fixed reference speed on a host whose speed drifts.

On a shared host two things make raw times of the same code differ between
runs by more than the changes worth measuring:

- the CPU runs slower when other work on the host competes for it: a fixed
  pure-Python loop takes up to about twice as long, in phases that last
  from a second to many minutes, and each vCPU drifts on its own;
- the host takes the vCPU away for a while (steal time).  That adds to wall
  time but not to the CPU time the kernel charges to a process.

So the benchmark pins itself, and with it every child, to one CPU.  Around
a child's run, and every ``SLICE_S`` seconds of it, the parent stops the
child, runs a fixed reference program on that CPU (an interpreter start and
a short loop, ``REFERENCE_CODE``), reads the reference's CPU time, and lets
the child go on.  Each slice of the child's run has its wall time less the
CPU's steal time over the slice, and is scaled by the speed that the
reference runs on either side of it saw:

    scaled = sum over slices of (slice_wall - slice_steal) * NOMINAL_REFERENCE_S / reference_cpu

where ``reference_cpu`` is the mean of the two reference runs around the
slice.  The result reads in seconds: the time the run would take without
steal, on a CPU that runs the reference in ``NOMINAL_REFERENCE_S`` of CPU
time.  The reference does not run solvgraph code, so a change to solvgraph
changes the scaled time and a change in host speed mostly does not.  A loop
alone swung further than solvgraph's commands as the host's speed changed,
and a bare interpreter start swung less; README.md gives the figures.  The
time the child spends stopped is not part of its wall time.  Steal time is
read from /proc/stat; where that cannot be read it is taken as 0.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import NamedTuple

SLICE_S = 1.0  # child run time between two reference runs
# The reference: an interpreter start, then a loop of the kinds of work
# solvgraph does (small-int arithmetic, dict lookups, big-int bit operations,
# short lists) that takes about a third of the reference's CPU time.
REFERENCE_CODE = """\
memo, row, acc = {}, 0, 0
for i in range(30000):
    k = (i * 40503) & 1023
    memo[k] = memo.get(k, 0) + 1
    row ^= 1 << k
    v = [i % 7, i % 11, (i * k) % 13]
    v.sort()
    acc += v[1] * (row.bit_length() & 15)
"""
# Median CPU time of one reference run on the host the benchmark was built on
# (a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7).  Any fixed value works: it
# sets the scale of the reported seconds, not their spread.
NOMINAL_REFERENCE_S = 0.08
CLK_TCK = os.sysconf("SC_CLK_TCK")


def reference_s() -> float:
    """CPU seconds the reference takes on this CPU now."""
    proc = subprocess.Popen([sys.executable, "-c", REFERENCE_CODE], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    try:
        _, _, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        proc.returncode = 0  # Popen must not try to reap it again
    return usage.ru_utime + usage.ru_stime


def pin_to_one_cpu() -> int:
    """Pin this process (and so the children it starts) to one of its CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s(cpu: int | None) -> float:
    """Steal time of ``cpu`` so far, in seconds (0 when unknown)."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / CLK_TCK
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class Slice(NamedTuple):
    wall: float  # seconds the child ran, from (re)start to stop or exit
    steal: float  # steal time of the CPU over the slice
    scale: float  # NOMINAL_REFERENCE_S / mean CPU time of the reference runs around it


class PacedRun(NamedTuple):
    status: int  # as os.wait4 gives it
    usage: object  # resource.struct_rusage of the child alone
    slices: list[Slice]
    timed_out: bool

    @property
    def wall_s(self) -> float:
        """Wall time the child ran, without stopped time and steal time."""
        return sum(s.wall - s.steal for s in self.slices)

    @property
    def scale(self) -> float:
        """The slices' scale factors, weighted by their length."""
        net = [max(s.wall - s.steal, 0.0) for s in self.slices]
        if sum(net) <= 0:
            return sum(s.scale for s in self.slices) / len(self.slices)
        return sum(n * s.scale for n, s in zip(net, self.slices)) / sum(net)

    @property
    def scaled_wall_s(self) -> float:
        return sum((s.wall - s.steal) * s.scale for s in self.slices)

    @property
    def scaled_cpu_s(self) -> float:
        """The child's user+sys CPU time, scaled like its wall time."""
        return (self.usage.ru_utime + self.usage.ru_stime) * self.scale


def run_paced(argv: list[str], *, timeout: float, **popen_kw) -> PacedRun:
    """Run ``argv`` to its end, stopping it every SLICE_S for a reference run.

    Steal time is subtracted only when this process is pinned to one CPU.
    The child is killed after ``timeout`` seconds of its own running time.
    It is killed and reaped on every way out of this function.
    """
    cpus = os.sched_getaffinity(0)
    cpu = next(iter(cpus)) if len(cpus) == 1 else None
    refs = [reference_s()]
    ends: list[tuple[float, float, float]] = []  # (wall, steal at start, steal at end)
    steal0 = steal_s(cpu)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **popen_kw)
    reaped = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = False
            while True:
                left = timeout - sum(w for w, _, _ in ends)
                exited = select.select([pidfd], [], [], max(0.0, min(SLICE_S, left)))[0]
                if exited:
                    _, status, usage = os.wait4(proc.pid, 0)
                    ends.append((time.perf_counter() - start, steal0, steal_s(cpu)))
                    break
                if left <= SLICE_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    ends.append((time.perf_counter() - start, steal0, steal_s(cpu)))
                    timed_out = True
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                ends.append((time.perf_counter() - start, steal0, steal_s(cpu)))
                if not os.WIFSTOPPED(status):
                    break  # it exited before it could be stopped, and is reaped
                refs.append(reference_s())
                os.kill(proc.pid, signal.SIGCONT)
                steal0 = steal_s(cpu)
                start = time.perf_counter()
            reaped = True
        finally:
            os.close(pidfd)
    finally:
        if not reaped:
            proc.kill()
            os.waitpid(proc.pid, 0)
        # Popen must not try to reap the child again.
        proc.returncode = 0
    refs.append(reference_s())
    slices = [Slice(wall, min(s1 - s0, wall), 2 * NOMINAL_REFERENCE_S / (refs[i] + refs[i + 1]))
              for i, (wall, s0, s1) in enumerate(ends)]
    return PacedRun(status, usage, slices, timed_out)
