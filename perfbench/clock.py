"""A CPU-time clock calibrated against the machine's current speed.

The benchmark runs on shared virtual machines whose speed changes by up
to 2x within minutes (another guest on the same physical core), which
moves raw CPU times far more than the bounds the benchmark sets.  So every
time the benchmark reports is read from this clock: the thread's CPU time,
with each stretch of it scaled by how fast a fixed calibration kernel ran
at its two ends, relative to REFERENCE_KERNEL_S.  A CPU-time interval
timer runs the kernel every TICK_S of CPU time, also in the middle of a
long call into the program, and the benchmark runs it around each short
call it times; the kernel's own time is left out.

The readings are therefore seconds at the machine speed the reference
was taken at.  The kernel is pure Python integer arithmetic and shares no
code with the program, so no change to the program moves it.
"""

import signal
import time

# CPU time between calibrations
TICK_S = 0.01
# kernel CPU time on the reference machine: a 2-core x86-64 virtual machine
# with Python 3.11.7, at its fast state (the same median varied from 0.14
# to 0.32 ms between runs a few seconds apart)
REFERENCE_KERNEL_S = 1.4e-4


def kernel() -> int:
    """Fixed interpreter and big-integer work; 0.14 ms at the reference."""
    acc = 0
    x = 7**120
    for i in range(800):
        acc += (x * (i + 1)) >> 5
        acc ^= i * i
    return acc


class CalibratedClock:
    """Calibrated seconds since start(), for the calling (main) thread."""

    def __init__(self):
        self.calibrations = 0
        self._scaled = 0.0  # calibrated seconds up to self._last
        self._last = 0.0  # thread CPU time at the end of the last kernel
        self._factor = 1.0  # until start() calibrates
        self._calibrating = False

    def calibrate(self) -> None:
        """Measure the machine's speed now; the interval timer also calls this."""
        if self._calibrating:
            return
        self._calibrating = True
        started = time.thread_time()
        kernel()
        ended = time.thread_time()
        factor = REFERENCE_KERNEL_S / max(ended - started, 1e-9)
        # the stretch since the last kernel ran at about the mean speed of
        # the two kernels around it
        self._scaled += (started - self._last) * (self._factor + factor) / 2
        self._factor = factor
        self._last = ended
        self.calibrations += 1
        self._calibrating = False

    def _on_tick(self, signum, frame) -> None:
        self.calibrate()

    def start(self) -> "CalibratedClock":
        self._last = time.thread_time()
        self.calibrate()
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Calibrated seconds; the stretch since the last kernel is scaled by
        that kernel alone until the next one runs."""
        while True:  # retry if a calibration lands mid-read
            seen = self.calibrations
            value = self._scaled + (time.thread_time() - self._last) * self._factor
            if seen == self.calibrations:
                return value
