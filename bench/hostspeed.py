"""Fixed probes of how fast the host runs Python right now.

On a shared host the same computation runs at very different speeds from
one second to the next, as neighbours load the machine: the in-process
probe below took about 4.5 ms in some seconds and 6 ms in most, and a
timed sweep follows the same swings. The worker runs a probe between
queries and scales each query's time by the probe's reference time over
the median of the probes taken next to it, so a time reads as seconds on a
host running the probe in its reference time. The probes use no digitop
code, so a change to digitop moves the scaled times exactly as it moves
the raw ones.

Each probe resembles the work it scales. Library queries are in-process
Python, scaled by ``in_process``: a small backtracking map enumeration
into a set, set lookups and a dict fill. CLI commands are mostly
interpreter start-up, which speeds up and slows down less than in-process
code does, so they are scaled by ``start_python``, which starts an
interpreter that does nothing.

The reference times are each probe's usual time on the host the benchmark
was tuned on (Intel Xeon, 2 vCPUs, Python 3.11); on another host the scaled
times stay comparable between commits but not with the README's figures.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

NEAREST = 4  # probes used on each side of a timed interval

# a fixed 7-point graph (each point adjacent to the points one and three
# steps on either way round) and a 4-point path to map into it
_CLOSED = [frozenset({v, (v + 1) % 7, (v - 1) % 7, (v + 3) % 7, (v - 3) % 7}) for v in range(7)]
_PATH = 4


def _extend(maps: set, assign: list, k: int) -> None:
    if k == _PATH:
        maps.add(tuple(assign))
        return
    for c in range(7) if k == 0 else sorted(_CLOSED[assign[k - 1]]):
        assign[k] = c
        _extend(maps, assign, k + 1)


def in_process() -> int:
    """Collect path-to-graph maps in a set by backtracking, look up one-point
    changes of half of them as a homotopy class closure does, fill a dict.

    Nothing here forms a reference cycle, so each call frees its memory on
    return and the probe leaves the worker's peak memory alone.
    """
    maps: set = set()
    _extend(maps, [0] * _PATH, 0)
    hits = 0
    for m in list(maps)[::2]:
        for i in range(_PATH):
            for c in range(7):
                hits += m[:i] + (c,) + m[i + 1:] in maps
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return hits + len(table)


def start_python() -> None:
    """Start an interpreter that does nothing, and wait for it to end."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Probe:
    """Times of one probe, each with the moment it ended, on ``time.perf_counter``.

    ``every_s`` is the least time between two probes taken between queries.
    """

    def __init__(self, kernel=in_process, reference_s: float = 0.006, every_s: float = 0.1):
        self.kernel = kernel
        self.reference_s = reference_s
        self.every_s = every_s
        self.ends: list[float] = []
        self.times: list[float] = []

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
            self.ends.append(end)
            self.times.append(end - start)

    def maybe(self) -> None:
        """Take one probe if ``every_s`` has passed since the last."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.every_s:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """The reference time over the median of the probes nearest [start, end]."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        near = sorted(self.times[max(0, before - NEAREST):before] + self.times[after:after + NEAREST])
        near = near or sorted(self.times)
        # by hand: importing statistics here would load it ahead of the timed set-up
        mid = len(near) // 2
        median = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
        return self.reference_s / median


def process_probe() -> Probe:
    """The probe for CLI commands: one interpreter start every half second."""
    return Probe(start_python, reference_s=0.064, every_s=0.5)
