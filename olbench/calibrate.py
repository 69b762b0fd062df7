"""The reference unit (``ru``) that the benchmark's timings are given in.

The host the benchmark was built on is a shared 2-CPU VM whose speed
moves in phases lasting seconds to minutes.  Within four minutes one
fixed ``profiles`` round read anywhere from 250 to 430 ms, with process
CPU time moving just as much (so the cause is not steal time that a CPU
clock could leave out), and ten 30 s runs of the same code spread by a
quarter to a third of their median.

So every operation is timed next to a fixed computation that never
changes: one *calibration pass* runs ``reference.profile`` on six fixed
two-variable modules, in pure Python and without ordlen.  Passes run
right before and right after each operation, for about ``SHARE`` of the
operation's time on each side (at least one pass each).  An operation's
time in ``ru`` is its wall time over the mean time of those passes.  A
slow phase stretches the operation and the passes next to it alike, and
cancels from the ratio: over twenty 30 s runs, ``profiles`` read 193-325
operations per second in wall time and 7.38-7.53 ``ru`` per operation.

One ``ru`` took about 0.5-0.7 ms on that host.  A change to ordlen moves
the operations and not the passes, so it shows in ``ru`` in full.
"""

from __future__ import annotations

from time import perf_counter

import reference

SHARE = 0.05

# (n, I generators, J generators); fixed forever, so that ``ru`` means
# the same thing on every commit.
MODULES = (
    (2, ((1, 0),), ((1, 1), (2, 0))),
    (2, ((0, 0),), ((0, 1), (2, 0))),
    (2, ((0, 0),), ((2, 0), (1, 2))),
    (2, ((0, 1), (1, 0)), ((1, 1),)),
    (2, ((0, 2),), ((0, 3), (1, 2))),
    (2, ((0, 0),), ((0, 1), (1, 0))),
)


def calibration_pass() -> None:
    for n, i_gens, j_gens in MODULES:
        reference.profile(n, i_gens, j_gens)


class Calibrator:
    """Calibration passes around the operations of one workload.

    ``expected[i]`` is operation ``i``'s last wall time, which sets how
    long the passes around its next call run.
    """

    def __init__(self, n_ops: int):
        self.expected = [0.0] * n_ops

    def sample(self, i: int) -> tuple[float, int]:
        """Run passes for about ``SHARE`` of operation ``i``'s expected
        time; return their total wall time and their number."""
        target = SHARE * self.expected[i]
        passes = 0
        t0 = perf_counter()
        while True:
            calibration_pass()
            passes += 1
            elapsed = perf_counter() - t0
            if elapsed >= target:
                return elapsed, passes

    def timed(self, i: int, call):
        """Call operation ``i`` between two samples.  Returns its wall
        time in seconds, its time in ``ru`` and what it returned or
        raised (an exception is returned, not raised)."""
        before, n_before = self.sample(i)
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        wall = perf_counter() - t0
        after, n_after = self.sample(i)
        self.expected[i] = wall
        return wall, wall * (n_before + n_after) / (before + after), out
