"""Host-speed probe, so timings from a shared host can be compared.

The benchmark runs on a few cores of a shared machine whose speed drifts
by a third or more within seconds, with every process still at 100% CPU
and no steal time: other tenants share its caches and memory.  A
:class:`Pacer` measures that speed while the program runs.  A timer
interrupts the process every :data:`PERIOD_S` seconds and, between two
bytecodes of whatever the program is doing, times a fixed piece of pure
Python work (the probe).  The mean probe time over a timed region says
how fast the host ran during it, sampled uniformly in time.

:meth:`Pacer.at_reference_speed` turns a region's wall-clock into seconds
on a host where one probe takes :data:`REFERENCE_PROBE_S`: the probe
time itself is taken out, and the rest is scaled by the reference over
the region's mean probe time.  On a 2-vCPU Intel Xeon VM, ten runs of
identical code gave medians whose quartiles lay 0.10-0.35 of the median
apart in raw wall-clock and 0.03-0.065 apart scaled.

The probe creates no object the garbage collector tracks and runs with
the collector off, so the program's heap cannot make it slower; it uses
no module that has to be imported, so it runs while the program is
being imported.
"""

from __future__ import annotations

import gc
import signal
import time

#: Seconds between two probes (about 1% of the time goes to probing).
PERIOD_S = 0.01
#: Table entries one probe visits: about 0.1 ms on a 2020s server core.
PROBE_TRIPS = 400
#: Probe duration of the reference host that scaled times refer to.
REFERENCE_PROBE_S = 1e-4

# The probe's data: a table of a few thousand entries, so that, like the
# program, it needs more than the innermost cache, the keys it walks and
# an object whose method it calls.
_TABLE = dict.fromkeys(range(1000, 1000 + 7 * 4096, 7), 0)
_WALK = tuple(_TABLE)[:PROBE_TRIPS]


class _Box:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def put(self, value: int) -> None:
        self.value = value


_BOX = _Box()


def _probe() -> None:
    """Dictionary reads and writes, integer arithmetic and a method call
    per trip: the interpreter work the program itself is made of."""
    table, box, value = _TABLE, _BOX, 0
    for key in _WALK:
        value = (value * 7 + table[key] + 1) & 127
        table[key] = value & 1
        box.put(value)


class Pacer:
    """Probes the host's speed on a timer signal while started."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        _probe()
        self.durations.append(time.perf_counter() - begin)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Probes so far: where a region starts or ends."""
        return len(self.durations)

    def at_reference_speed(self, wall_s: float, begin: int,
                           end: int) -> tuple[float, float]:
        """``(seconds at reference speed, probe seconds)`` of a region
        that took ``wall_s`` between the marks ``begin`` and ``end``.

        The probe time is the mean without the fastest and slowest tenth
        of the region's probes: a probe that the scheduler happened to
        interrupt stands for a whole period and would swing the mean.  A
        region too short to hold a probe is taken at reference speed.
        """
        probes = sorted(self.durations[begin:end])
        if not probes:
            return wall_s, REFERENCE_PROBE_S
        cut = len(probes) // 10
        kept = probes[cut:len(probes) - cut]
        mean = sum(kept) / len(kept)
        return (wall_s - sum(probes)) * REFERENCE_PROBE_S / mean, mean
