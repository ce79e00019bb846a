"""Cell deadlines, host-speed probing and the statistics the runner prints.

One periodic ``SIGALRM`` tick (every :data:`TICK_S` of wall time) does
two jobs while a run is measured:

* it enforces the current cell's deadline: a cell still running past it
  raises :class:`CellTimeout` out of whatever Python loop it is stuck in,
  so a hung cell ends as a counted ``timeout`` failure instead of stalling
  the run;
* every tick times a short, fixed pure-Python probe.  The probe's
  duration tracks how fast this host runs interpreter code *right now*.
  On shared two-core hosts that speed moves by up to 2x within seconds,
  so dividing a cell's time by the probe speed measured *during* that
  cell (host-speed normalisation) removes most of the drift that makes
  raw medians of identical code wander.  Raw values are kept beside the
  normalised ones; the time the probe itself spends is subtracted from
  every measured interval.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: wall-clock period of the deadline/probe tick.
TICK_S = 0.025
#: median probe duration, in seconds, on the reference host (a shared
#: two-core Intel Xeon, CPython 3.11): normalised times are "seconds on
#: a host whose probe takes this long".
PROBE_REF_S = 0.00045
#: probe loop length (about 0.5 ms on the reference host).
PROBE_ITERS = 1500
#: address space a run may add to what it holds after start-up.
HEADROOM = 2 << 30
#: fewest probe samples behind a span's speed factor: a span shorter
#: than this many ticks also uses the samples just before it.
MIN_SAMPLES = 8


def probe() -> int:
    """The fixed host-speed probe: dict, list and integer work in the
    same proportions as the simulator's inner loops."""
    table: dict = {}
    ring: list = []
    acc = 0
    for i in range(PROBE_ITERS):
        k = i & 255
        table[k] = table.get(k, 0) + i
        ring.append(k)
        if len(ring) > 64:
            ring.clear()
        acc += k >> 3
    return acc


class CellTimeout(Exception):
    """Raised inside a cell that ran past its deadline."""


@dataclass
class Span:
    """One measured interval: raw seconds (probe time excluded) and the
    host-speed factor observed during it (``PROBE_REF_S / probe``,
    averaged over the ticks inside it and, for short spans, the ones
    just before it)."""

    raw: float
    speed: float
    #: elapsed wall time, probe time included
    wall: float = 0.0

    @property
    def norm(self) -> float:
        return self.raw * self.speed


@dataclass
class HostClock:
    """The tick owner.  ``start()``/``stop()`` bracket a run; ``measure``
    times one call under an optional deadline, ``mark``/``since``/
    ``between`` time anything else."""

    samples: List[float] = field(default_factory=list)
    probe_time: float = 0.0
    deadline: Optional[float] = None
    _previous: object = None
    _running: bool = False

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        if self.deadline is not None and now >= self.deadline:
            self.deadline = None
            raise CellTimeout("cell exceeded its deadline")
        probe()
        took = time.perf_counter() - now
        self.samples.append(took)
        self.probe_time += took

    def start(self) -> "HostClock":
        if not self._running:
            for _ in range(MIN_SAMPLES):
                began = time.perf_counter()
                probe()
                self.samples.append(time.perf_counter() - began)
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def mark(self) -> Tuple[float, float, int]:
        return time.perf_counter(), self.probe_time, len(self.samples)

    def since(self, mark: Tuple[float, float, int]) -> Span:
        """The span from ``mark`` to now."""
        return self.between(mark, self.mark())

    def between(self, first: Tuple[float, float, int],
                last: Tuple[float, float, int]) -> Span:
        """The span between two marks."""
        (t0, p0, n0), (t1, p1, n1) = first, last
        raw = t1 - t0 - (p1 - p0)
        inside = self.samples[min(n0, n1 - MIN_SAMPLES):n1]
        speed = (statistics.fmean(PROBE_REF_S / s for s in inside)
                 if inside else 1.0)
        return Span(raw=max(raw, 0.0), speed=speed, wall=t1 - t0)

    def measure(self, fn: Callable[[], T],
                deadline_s: Optional[float] = None
                ) -> Tuple[Optional[T], Span, bool]:
        """``(result, span, timed_out)`` for one call of ``fn``; a call
        that runs past ``deadline_s`` is interrupted and returns
        ``(None, span, True)``."""
        mark = self.mark()
        if deadline_s is not None:
            self.deadline = mark[0] + deadline_s
        try:
            return fn(), self.since(mark), False
        except CellTimeout:
            return None, self.since(mark), True
        finally:
            self.deadline = None


def cap_address_space() -> None:
    """Backstop for runaway cells: limit this process (and the workers
    it forks, which inherit the limit) to its current address space
    plus :data:`HEADROOM` bytes, so a cell that allocates without bound
    fails with ``MemoryError`` instead of exhausting a shared host.
    Deadlines normally stop such a cell long before."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[0])
    limit = pages * resource.getpagesize() + HEADROOM
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles`` with n=100,
    inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
