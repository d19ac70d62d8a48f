"""Host speed reference for the timed runs.

On a shared host the CPU speed a process gets drifts by a quarter or
more within seconds, and process CPU time moves with wall time, so the
drift is not waiting that a CPU clock could leave out. The timed loops
therefore run a fixed pure-Python reference loop between batches of
operations. A batch's wall time is scaled by ``REFERENCE_S`` over the
mean of the reference times just before and just after it: the time
the batch would take on a host where the reference loop takes
``REFERENCE_S``. A change to the program moves the batch time and not
the reference, so it shows in full.

This module imports nothing but ``time``, so a fresh interpreter can
run the reference before it imports anything it is timing.
"""

from time import perf_counter

#: Nominal reference time, about its median on the baseline host
#: (Python 3.11.7, 2 CPUs); scaled times read as seconds on that host.
REFERENCE_S = 0.009
#: The reference is the fastest of this many loops, so that a single
#: preemption does not count as a slow host.
REFERENCE_REPEATS = 3


def _loop() -> None:
    """A dynamic-programming table over int lists, tuple-keyed dict
    counts, and string splitting and joining: the kinds of pure-Python
    work the program does."""
    state = 12345
    row = [0] * 140
    counts: dict = {}
    words = []
    for i in range(140):
        prev = diag = 0
        for j in range(140):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            up = row[j]
            cur = diag + 1 if state & 7 == 0 else (up if up > prev else prev)
            diag, row[j], prev = up, cur, cur
        key = (i % 13, prev % 7)
        counts[key] = counts.get(key, 0) + 1
        words.append(f"w{state % 97}")
    text = " ".join(words * 20)
    for _ in range(20):
        text = " ".join(reversed(text.split()))


def reference_seconds() -> float:
    """Wall time of the fastest of ``REFERENCE_REPEATS`` reference loops."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        started = perf_counter()
        _loop()
        best = min(best, perf_counter() - started)
    return best


class SpeedClock:
    """Scales the wall time of batches run between reference loops."""

    def __init__(self):
        self._before = reference_seconds()

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the batch that just ended, at reference speed."""
        after = reference_seconds()
        scale = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return seconds * scale


class Laps:
    """One long operation timed in laps, with the reference between laps.

    Used as a context manager around the operation. :meth:`lap` ends a
    lap, runs the reference, and starts the next lap, so a drift of host
    speed inside the operation is followed too. The reference loops are
    left out of both totals.
    """

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.wall = 0.0
        self.scaled = 0.0
        self._mark = 0.0

    def lap(self) -> None:
        seconds = perf_counter() - self._mark
        self.wall += seconds
        self.scaled += self.clock.scaled(seconds)
        self._mark = perf_counter()

    def __enter__(self) -> "Laps":
        self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.lap()
