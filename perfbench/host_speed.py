"""CPU time of the program, scaled to a reference host speed.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, while other tenants' jobs come and go; CPU time
does not hide this, because the core itself runs slower.  So while the
program runs, a profiling timer interrupts it every
``SAMPLE_INTERVAL_S`` of CPU time and runs a fixed pure-Python kernel
in the signal handler.  The kernel's CPU time then tracks the host's
speed at that moment, in the same process and under the same
contention.  A stretch of program time is reported in *reference
seconds*::

    ref_s = program CPU s * REF_KERNEL_S / mean(kernel s sampled in the stretch)

that is, the CPU time the stretch would take on a host where the kernel
takes ``REF_KERNEL_S`` (its typical time in the handler on a 2-vCPU
Xeon at 2.0 GHz).  A paper run that holds fewer than ``MIN_SAMPLES``
samples borrows its neighbours' in the same pass.
The kernel's own time is subtracted from the program's.  The kernel is
the benchmark's, so a change to the program cannot change it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import List, NamedTuple, Optional

#: CPU seconds of program between two kernel samples.
SAMPLE_INTERVAL_S = 0.025

#: The kernel's CPU seconds in the handler on the reference host.
REF_KERNEL_S = 0.00125

#: Samples a stretch is scaled by at least: a shorter stretch borrows
#: the samples around it.  The host's speed changes within a second
#: (successive samples correlate at 0.57, samples 0.5 s apart not at
#: all), so the window stays narrow: 0.15 s of CPU time.
MIN_SAMPLES = 6

_KERNEL_DATA = [(i * 2654435761) & 0xFFFF for i in range(8192)]


def kernel(n: int = 3000) -> int:
    """Fixed interpreter work: list indexing, dict reads and writes,
    integer arithmetic, much like the program's own inner loops."""
    table = {}
    acc = 0
    for i in range(n):
        key = _KERNEL_DATA[(i * 97) & 8191]
        table[key & 1023] = (table.get(key & 1023, 0) ^ key) + 1
        acc += len(table)
    return acc


class Mark(NamedTuple):
    cpu: float
    kernel_s: float
    n_samples: int


class HostSpeed:
    """Program CPU clock with optional host-speed sampling.

    Without sampling, ``speed`` is 1.0 and reference seconds are
    plain CPU seconds of the main thread."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: List[float] = []
        self.kernel_s = 0.0  # kernel time so far, subtracted from the program's

    def _on_timer(self, signum, frame) -> None:
        t0 = time.thread_time()
        kernel()
        seconds = time.thread_time() - t0
        self.samples.append(seconds)
        self.kernel_s += seconds

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host's speed while the block runs."""
        if not self.sample:
            yield
            return
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def mark(self) -> Mark:
        return Mark(time.thread_time(), self.kernel_s, len(self.samples))

    def cpu_since(self, mark: Mark) -> float:
        """Program CPU seconds since ``mark``, kernel samples excluded."""
        return time.thread_time() - mark.cpu - (self.kernel_s - mark.kernel_s)

    def speed(
        self, first: int, last: int, lo: int = 0, hi: Optional[int] = None
    ) -> float:
        """Reference seconds per CPU second over samples ``first:last``,
        the window widened evenly within ``lo:hi`` (default: every
        sample) until it holds ``MIN_SAMPLES``."""
        if not self.sample:
            return 1.0
        if not self.samples:  # a stretch shorter than one interval, first of all
            self._on_timer(None, None)
        hi = len(self.samples) if hi is None else hi
        width = max(MIN_SAMPLES, last - first)
        first = max(lo, first - (width - (last - first) + 1) // 2)
        last = min(hi, first + width)
        first = max(lo, last - width)
        window = self.samples[first:last] or self.samples
        return REF_KERNEL_S / statistics.mean(window)
