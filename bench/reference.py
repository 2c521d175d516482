"""A fixed unit of pure-Python work that the benchmark times while jobs run.

The unit closes two generating sets of Z2^4 under an addition table: set and
list operations on small ints, as congrex's own closures do, in under half a
millisecond.  A ``Sampler`` thread in the worker times the unit every
50 ms while the jobs run on the same CPU, so the samples taken during a job
show how fast the host ran that job.  A shared host changes its speed by up
to half within seconds, while the longest jobs run for several; a job's time
multiplied by the mean speed of its samples is its cost in units, which does
not move with the host while a change to the program moves it.
"""

from __future__ import annotations

import itertools
import threading
import time

_MODULI = (2, 2, 2, 2)
_ELEMENTS = list(itertools.product(*[range(m) for m in _MODULI]))
_INDEX = {e: i for i, e in enumerate(_ELEMENTS)}
_N = len(_ELEMENTS)
_TABLE = [
    _INDEX[tuple((a + b) % m for a, b, m in zip(x, y, _MODULI))]
    for x in _ELEMENTS for y in _ELEMENTS
]
#: a unit closes each generating set _ROUNDS times; each spans a subgroup
#: of order 8
_GENERATORS = ((1, 2, 4), (3, 5, 9))
_ROUNDS = 20


def _close(generators) -> frozenset:
    members = set(generators) | {0}
    frontier = list(members)
    while frontier:
        new = []
        for a in frontier:
            for b in list(members):
                c = _TABLE[a * _N + b]
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    return frozenset(members)


def unit() -> list:
    """The fixed work: the orders of the subgroups it closes."""
    return [len(_close(g)) for _ in range(_ROUNDS) for g in _GENERATORS]


class Sampler:
    """Times ``unit`` every ``interval`` seconds in a daemon thread.

    ``samples`` holds ``(end, seconds)`` pairs in ``time.perf_counter`` time.
    The worker runs on one CPU, so the thread samples the CPU the jobs run
    on; a unit is far shorter than the interpreter's switch interval, so a
    sample holds the GIL throughout and times the unit alone."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
