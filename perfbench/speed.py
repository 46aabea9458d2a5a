"""How fast the machine runs right now, measured by a fixed pure-Python kernel.

On a shared machine other tenants slow a run down for seconds to minutes at
a time: the same `check` op on the same text, with the same hash seed, took
0.20 s to 0.45 s within two minutes.  A short kernel timed right before and
right after a stretch of ops slows down with it, so the benchmark scales
each op's time by REFERENCE_S over the mean of its two flanking kernel
times.  In that two-minute test the spread of the op's time fell from a
coefficient of variation of 0.22 to 0.10.  The kernel does what `interstep`
does most (recursive calls, hashing tuples and frozensets, dict look-ups)
and uses nothing from the package, so a change to the package leaves it as
it is.  Scaled times read as seconds on a machine where the kernel takes
REFERENCE_S.
"""

from __future__ import annotations

import time

# Wall and CPU time of one kernel run on a calm 2-core x86-64 machine
# with Python 3.11.7.
REFERENCE_S = 0.008
# Ops are scaled in stretches of at least this much op time, so that short
# ops (`session`) do not each pay for two kernel runs.
SLOT_S = 0.1


def _walk(t, depth: int) -> int:
    if depth == 0:
        return hash(t) & 7
    return sum(_walk((t, i), depth - 1) for i in range(3))


def kernel() -> int:
    memo: dict = {}
    total = 0
    for j in range(40):
        key = ("q", j % 13, frozenset(("a", str(j % 5))))
        if key not in memo:
            memo[key] = _walk(key, 5)
        total += memo[key] + _walk(j, 4)
    return total


def sample() -> tuple[float, float]:
    """Wall and CPU time of one kernel run."""
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the kernel times that flank it."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Slots:
    """Scales the times of a stream of ops, a stretch of at least SLOT_S at a time.

    Create it right before the first op; `add` returns the ops whose
    stretch it closed, `flush` closes the last stretch.  Items are
    `(key, wall_s, cpu_s)`.
    """

    def __init__(self) -> None:
        self.before = sample()
        self.pending: list[tuple[str, float, float]] = []
        self.elapsed = 0.0
        self.kernel_s: list[float] = [self.before[0]]

    def add(self, key: str, wall: float, cpu: float) -> list[tuple[str, float, float]]:
        self.pending.append((key, wall, cpu))
        self.elapsed += wall
        return self.flush() if self.elapsed >= SLOT_S else []

    def flush(self) -> list[tuple[str, float, float]]:
        if not self.pending:
            return []
        after = sample()
        self.kernel_s.append(after[0])
        (bw, bc), (aw, ac) = self.before, after
        out = [(key, scale(w, bw, aw), scale(c, bc, ac)) for key, w, c in self.pending]
        self.before, self.pending, self.elapsed = after, [], 0.0
        return out
