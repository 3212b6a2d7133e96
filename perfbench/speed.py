"""Host-speed scaling for the end-to-end times.

End-to-end times are scaled to a reference CPU speed.  On a shared host
the speed one process gets drifts by tens of percent over seconds to
minutes, which would swamp any change worth measuring.  A
:class:`SpeedMeter` times a fixed pure-Python loop between the ops of
every pass, for a tenth of each op's duration, and the pass's times are
multiplied by ``CALIBRATION_REF_S`` over the loop's mean time.  On a
steady host at the reference speed the scaled and the raw times agree.
"""

import gc
import time

#: the calibration loop's time at the reference speed
CALIBRATION_REF_S = 0.0075
#: after an op, the loop runs for this share of the op's duration ...
CALIBRATION_SHARE = 0.1
#: ... and at least this long
CALIBRATION_MIN_S = 0.01


class _Point:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def plus(self, y):
        return self.x + y


def _calibration_loop():
    table = {}
    acc = 0
    for i in range(20000):
        table[i & 255] = _Point(i).plus(i)
        acc = (acc + table.get(i & 127, 0) % 7) & 0xFFFF
    return acc


class SpeedMeter:
    """Samples the host's speed with the calibration loop; the collector is
    paused while it runs."""

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0

    def sample(self, budget_s):
        """Run the loop at least once, until ``budget_s`` has elapsed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            while True:
                _calibration_loop()
                self.loops += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= budget_s:
                    break
        finally:
            if enabled:
                gc.enable()
        self.seconds += elapsed

    def after(self, op_s):
        self.sample(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * op_s))

    def factor(self):
        """Multiply a time measured while sampling by this."""
        return CALIBRATION_REF_S * self.loops / self.seconds
