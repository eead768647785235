"""Host-speed sampling: how fast the CPU a pass runs on is, right now.

On a shared host the CPU a pass runs on slows down and speeds up by as much
as 2x, over seconds to minutes, as other tenants come and go; the guest sees
no steal time, only slower code.  Interpreted Python and NumPy do not always
slow down together: memory contention from neighbours hits array code
alone.  The sampler times a fixed kernel with both parts -- a Python loop and
the matrix products of an SNN-layer-sized drive computation -- on a timer
signal all through the pass.  The kernel's nominal time divided by its
median measured time is the pass's *speed factor*: multiplying the pass's
times by it gives seconds at nominal host speed, which is what the
benchmark reports.  The time the sampler itself takes is kept off the
pass's clock.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

import numpy as np

#: Iterations of the kernel's Python loop (about 1 ms at nominal speed).
KERNEL_LOOPS = 10_000
#: Matrix products in the kernel's NumPy part (about 1 ms at nominal speed).
KERNEL_PRODUCTS = 4
#: The kernel's time at nominal host speed, in seconds: a fixed reference,
#: so normalized times stay comparable across runs and commits.
NOMINAL_KERNEL_S = 0.0018
#: Seconds between samples (about 2 % of the pass goes to sampling).
INTERVAL_S = 0.1


def python_kernel() -> int:
    """The kernel's interpreted part."""
    total = 0
    for value in range(KERNEL_LOOPS):
        total += value * value % 7
    return total


class SpeedSampler:
    """Times the kernel every ``INTERVAL_S`` seconds on ``SIGALRM``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        #: A 64-example spike batch into a 784x100 layer, as the SNN drive.
        self._spikes = (rng.random((64, 784)) < 0.05).astype(float)
        self._weights = rng.random((784, 100))
        self.samples: List[float] = []
        #: Seconds spent sampling; :meth:`clock` leaves them out.
        self.overhead = 0.0
        self._previous = None

    def clock(self) -> float:
        """A monotonic clock that stops while the sampler runs."""
        return time.perf_counter() - self.overhead

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        python_kernel()
        for _ in range(KERNEL_PRODUCTS):
            self._spikes @ self._weights
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.overhead += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """Nominal over measured kernel time for samples ``[first, last)``."""
        samples = self.samples[first:last] or self.samples[-1:]
        return NOMINAL_KERNEL_S / statistics.median(samples)
