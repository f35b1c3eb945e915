"""Host-speed sampling, to take the host's speed drift out of wall times.

On the 2-core x86_64 development VM the CPU speed changes by up to 60%
within a second (a pure-Python loop runs at one of two speeds, switching
every few hundred milliseconds), and the share of slow time drifts over
minutes. A wall time therefore measures the host as much as the
program. A calibration loop run before or after a sample does not help:
it sees a different moment.

So :class:`SpeedSampler` samples the speed *inside* the measured
process: a ``SIGALRM`` timer interrupts the process every
:data:`PERIOD_S` seconds and times a fixed calibration burst on the
thread's CPU clock (preemption does not count). Each stretch of wall or
CPU time between two bursts is then converted to reference seconds, the
seconds it would have taken on a host where the burst takes
:data:`REF_BURST_S`::

    reference seconds = sum over stretches of  length * REF_BURST_S / burst

where ``burst`` is the burst that ends the stretch. A program change that
removes work removes reference seconds in proportion; a slow host
stretch counts for less. The bursts themselves (about 0.3% of the time)
are left out of every stretch.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from typing import Callable, List, Tuple

#: Seconds between two bursts.
PERIOD_S = 0.1
#: The burst's thread-CPU time at the host's fast speed (2-core x86_64
#: VM, Python 3.11). Reference seconds are seconds at that speed.
REF_BURST_S = 330e-6

#: (wall before, CPU before, burst seconds, wall after, CPU after)
Sample = Tuple[float, float, float, float, float]


def burst() -> float:
    """Run the fixed calibration loop; its thread-CPU seconds."""
    start = time.thread_time()
    table = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) & 15
    return time.thread_time() - start


class SpeedSampler:
    """Calibration bursts on a wall-clock timer, kept in memory."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, _signum, _frame) -> None:
        wall, cpu = time.monotonic(), time.process_time()
        seconds = burst()
        self.samples.append(
            (wall, cpu, seconds, time.monotonic(), time.process_time()))

    def reference_clock(self, cpu: bool = False) -> Callable[[float], float]:
        """A clock ``F`` in reference seconds: ``F(b) - F(a)`` is the
        interval ``[a, b]`` converted.

        ``a`` and ``b`` are on the wall clock (``time.monotonic``), or on
        the process CPU clock (``time.process_time``) when ``cpu`` is
        set. Stretch ``k`` runs from the end of burst ``k - 1`` to the
        start of burst ``k`` at burst ``k``'s speed. Time before the
        first burst counts at the first burst's speed, and time after the
        last at the last's.
        """
        if not self.samples:
            raise RuntimeError("no speed samples: the run was too short")
        before, after = (1, 4) if cpu else (0, 3)
        rates = [REF_BURST_S / sample[2] for sample in self.samples]
        rates.append(rates[-1])
        ends = [sample[before] for sample in self.samples] + [math.inf]
        #: starts[k - 1] is where stretch k starts; F is 0 there for k = 1.
        starts = [sample[after] for sample in self.samples]
        totals = [0.0]
        for k in range(1, len(starts)):
            totals.append(totals[-1] + rates[k] * (ends[k] - starts[k - 1]))

        def clock(t: float) -> float:
            k = bisect.bisect_right(starts, t)
            if k == 0:
                return rates[0] * (min(t, ends[0]) - ends[0])
            return totals[k - 1] + rates[k] * (min(t, ends[k]) - starts[k - 1])

        return clock

    def median_burst(self) -> float:
        bursts = sorted(sample[2] for sample in self.samples)
        return bursts[len(bursts) // 2] if bursts else 0.0
