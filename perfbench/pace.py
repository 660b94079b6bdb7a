"""Host-speed reference: scale host times to a fixed reference speed.

The benchmark host is a few cores of a shared machine, and its speed
drifts: the same call can take a third longer for tens of seconds at a
time while other tenants are busy.  A run's raw wall time then says
more about the neighbours than about the program.

So every host time the benchmark reports is *paced*: a fixed
pure-Python kernel (scattered reads over a working set of small objects
and a dict, sharing no code with the program) is read between the
measured calls, and each call's wall time is multiplied by ``REF_S``
over the median of the readings around it (``WINDOW`` on each side).
One reading catches the host's fast flickers as well as its drift; the
median over a few seconds of readings follows the drift alone.  A paced
second is the time the call would take on a host where the kernel runs
in exactly ``REF_S``.  The kernel imports
nothing from the program, so no change to the program can move it; a
program that gets slower gets slower in paced seconds too.

The raw wall times are kept beside the paced ones in every result.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Paced seconds are seconds on a host where :func:`reference_s` reads
#: this.  Close to what the kernel takes on an idle 2-vCPU Xeon VM, so
#: paced times read close to real ones there.
REF_S = 0.025
#: Objects in the kernel's working set, and lookups per reading.
KERNEL_OBJECTS = 100_000
KERNEL_STEPS = 16_000
#: Readings on each side of a call whose median paces it.
WINDOW = 5


class _Item:
    __slots__ = ("key", "hits")


class _Kernel:
    """A shuffled array of small objects plus an index dict, about
    20 MB resident (counted in ``peak_rss_mb``), built once per process.

    A reading walks it in a scattered order, so it leans on the memory
    hierarchy as the simulator's event loop does; a loop that stays in
    cache reacts to a busy neighbour core about twice as strongly as the
    program does, and pacing by it would overcorrect.
    """

    def __init__(self) -> None:
        self.items = []
        for key in range(KERNEL_OBJECTS):
            item = _Item()
            item.key, item.hits = key, 0
            self.items.append(item)
        self.order = list(range(KERNEL_OBJECTS))
        random.Random(5).shuffle(self.order)
        self.index = {k: 3 * k for k in range(KERNEL_OBJECTS // 2)}

    def run(self) -> int:
        items, order, index = self.items, self.order, self.index
        half = KERNEL_OBJECTS // 2
        total = 0
        for step in range(KERNEL_STEPS):
            item = items[order[step * 7 % KERNEL_OBJECTS]]
            total += item.key + index.get(item.key % half, 0)
            item.hits += 1
        return total


_KERNEL: Optional[_Kernel] = None


def reference_s() -> float:
    """Wall seconds of one kernel reading, with the cyclic GC paused so
    the reading does not depend on how much the program left on the
    heap.  The first call in a process builds the working set."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _Kernel()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _KERNEL.run()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def settled_reference_s(readings: int = 3) -> float:
    """Median of a few readings, for a single point in time."""
    return statistics.median(reference_s() for _ in range(readings))


class Pacer:
    """Times calls, with a kernel reading before the first and after
    each; :func:`paced` turns the result into paced seconds."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def call(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn``; returns its result and its raw wall seconds."""
        if not self.readings:
            self.readings.append(reference_s())
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        self.readings.append(reference_s())
        return result, raw


def paced(raw: Dict[str, float], readings: List[float]) -> Dict[str, float]:
    """Paced seconds of calls made through one :class:`Pacer`.

    ``raw`` holds the calls' raw wall seconds in call order; call ``i``
    ran between readings ``i`` and ``i + 1``.
    """
    if len(readings) != len(raw) + 1:
        raise ValueError(f"{len(raw)} calls need {len(raw) + 1} readings, "
                         f"got {len(readings)}")
    out = {}
    for i, (label, seconds) in enumerate(raw.items()):
        window = readings[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out[label] = seconds * REF_S / statistics.median(window)
    return out
