"""Host-speed adjustment of the times the benchmark reports.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x, both from one minute to the next and within seconds: one fixed
1000-instance plan, run eight times back to back, took between 8.9 s and
17.1 s, with CPU time equal to wall time (the process is slowed while it
runs, not descheduled). No run length averages that out, and a reference
timed only before and after a 12 s plan tracks that plan poorly.

So a :class:`Sampler` probes the host *while* a phase runs: a wall-clock
timer interrupts the process every ``PROBE_PERIOD_S`` and runs one fixed
reference probe (dict updates and small dense numpy algebra, about
1.5 ms) that never touches program state. Probe time is subtracted from
the operation it interrupted. Each phase's wall seconds are then scaled
by ``REF_UNIT_S`` over the phase's mean probe time. Over eight identical
plans in a row this cut the quartile spread from 14% to 5% and the range
from 34% to 15%. A program change moves the adjusted time as it moves
the wall time, because the probe never runs program code; the wall
figures are printed beside the adjusted ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds one probe takes at the nominal host speed (about the median on
#: a 2-CPU x86-64 container). It only sets the scale.
REF_UNIT_S = 0.0015
#: Wall seconds between two probes (about 1% of the run).
PROBE_PERIOD_S = 0.2

_A = np.random.default_rng(0).standard_normal((24, 24)) / 24


def reference_unit() -> float:
    """A fixed mix of the work the program does: dict updates and small
    dense numpy algebra."""
    counts: dict[int, int] = {}
    for i in range(6000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + i
    b = _A
    for _ in range(120):
        b = np.tanh(_A @ b + 0.5)
    return len(counts) + float(b[0, 0])


class Sampler:
    """Probes of the host's speed taken through one phase of a run.

    Used as a context manager, it probes every PROBE_PERIOD_S of wall
    time; :meth:`probe` adds one by hand (between the short steps of a
    set-up). ``spent`` is the wall time all probes took, so a caller
    subtracts the part that fell inside what it timed.
    """

    def __init__(self) -> None:
        #: Seconds of each probe.
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_unit()
        took = time.perf_counter() - t0
        self.spent += took
        self.speeds.append(took)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean probe time over the nominal; 1 = nominal host speed."""
        if not self.speeds:
            self.probe()
        return sum(self.speeds) / len(self.speeds) / REF_UNIT_S

    def adjust(self, wall: float) -> float:
        """Host-adjusted seconds of ``wall`` seconds in this phase."""
        return wall / self.slowdown()
