"""Calibrated time: wall time rescaled by the speed of a fixed probe.

The shared VMs this benchmark runs on change speed by up to 1.8x within
seconds (neighbours load the host; CPU time tracks wall time, so it is not
steal).  A short pure-Python probe measures the current speed; on this
benchmark's polynomial work the ratio of work time to probe time stays
within about 2% while raw time moves by 30%.  Wall time between two probes
that took p_a and p_b counts as wall * REF_PROBE_S / mean(p_a, p_b):
seconds at the speed where the probe takes REF_PROBE_S, about the unloaded
speed of a 2-vCPU Xeon VM.  Wall-clock figures are reported beside the
calibrated ones.
"""

from __future__ import annotations

import os
import signal
import time
from array import array
from fractions import Fraction

REF_PROBE_S = 3.4e-4
PROBE_GAP_S = 0.05


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the probe and
    the work it calibrates see the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe_once():
    f = Fraction(0)
    acc: dict = {}
    for i in range(1, 120):
        f += Fraction(i, i + 7)
        k = (i % 13, i % 7)
        acc[k] = acc.get(k, 0) + i
    return sorted(acc.items()), f


def probe() -> float:
    """Best of three timings of the fixed probe, in wall seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(wall: float, p_a: float, p_b: float,
          user: float | None = None) -> float:
    """Calibrated length of a wall interval between probes p_a and p_b.
    For a child process pass its user CPU time: only that part follows the
    probe; kernel time (exec, page faults) stays as measured."""
    if user is None:
        user = wall
    user = min(user, wall)
    return user * REF_PROBE_S / ((p_a + p_b) / 2) + (wall - user)


class Timeline:
    """Latencies of a closed loop of ops, with probes taken every
    PROBE_GAP_S of wall time.

    With `during_ops` (in-process workloads) an interval timer takes the
    probes, also inside long ops, and the probe time is taken out of the
    op it interrupted.  Otherwise (ops that run in a child process on the
    same CPU, where a probe would compete with the child) `op_done()`
    probes once the gap has passed.  An op's calibrated latency uses the
    mean of the probes from the last one before it to the first one after
    it.
    """

    def __init__(self, during_ops: bool = False):
        self.samples: list[tuple[float, float, float]] = []  # start, end, p
        # per op, in arrays so that a long run of short ops stays small:
        # wall time, first and last probe index, user CPU time of a child
        self._wall = array("d")
        self._first = array("i")
        self._last = array("i")
        self._user: list[float] = []
        self.spent = 0.0
        self._during = during_ops
        self._sampling = False
        self._sample()
        if during_ops:
            self._old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        p = probe()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, p))
        self.spent += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a late alarm must not nest a probe
            self._sampling = True
            self._sample()
            self._sampling = False

    def start(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.samples), self.spent

    def op_done(self, token, user: float | None = None) -> None:
        t0, k0, spent0 = token
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        self._wall.append(wall)
        self._first.append(k0 - 1)
        self._last.append(len(self.samples))
        if user is not None:
            self._user.append(user)
        if (not self._during
                and time.perf_counter() - self.samples[-1][1] >= PROBE_GAP_S):
            self._sample()

    def close(self) -> None:
        if self._during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        self._sample()

    @property
    def wall_ops(self) -> list[float]:
        return self._wall.tolist()

    @property
    def cal_ops(self) -> list[float]:
        p = [s[2] for s in self.samples]
        users = self._user or [None] * len(self._wall)
        out = []
        for wall, a, b, user in zip(self._wall, self._first, self._last,
                                    users):
            mean = sum(p[a:b + 1]) / (b - a + 1)
            out.append(scale(wall, mean, mean, user))
        return out

    @property
    def wall_total(self) -> float:
        """Wall time of the phase, probes excluded."""
        s = self.samples
        return sum(s[i + 1][0] - s[i][1] for i in range(len(s) - 1))

    @property
    def cal_total(self) -> float:
        """The phase calibrated like its ops (loop overhead included)."""
        return self.wall_total * sum(self.cal_ops) / sum(self.wall_ops)
