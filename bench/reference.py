"""Host-speed reference: a fixed computation timed beside the program.

The CPU speed of a small shared cloud VM changes by up to 1.7x over seconds
to minutes, as co-tenants load the same cores and memory. That is far more
than any regression bound worth enforcing. So every run also times this fixed
computation, at the same moments as the program: between operations and
around each set-up. Each bounded timing is then scaled by ``REFERENCE_S``
over the reference's measured time. The scaled value reads as the time on a
host where the reference takes ``REFERENCE_S``. The reference lives in
``bench/`` and does not change with the program, so a change to the program
moves a scaled time exactly as it moves the raw one.

The computation mixes the kinds of work the program does: an interpreted
Python loop (trees and collectives), passes over 196x196 arrays (weights and
mapping), and elementwise passes and a Gram product over a 10x38416 window
(the solver).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of one :meth:`Reference.run` at the nominal host speed; a round
#: value near its median on the machine in README.md.
REFERENCE_S = 2.1e-3

#: Seconds between reference samples taken by :meth:`Reference.tick`.
PERIOD_S = 0.1


class Reference:
    """Times the reference computation and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._window = rng.random((10, 38416))
        self._scratch = np.empty_like(self._window)
        self._square = rng.random((196, 196))
        self.samples: list[float] = []
        self._next = 0.0

    def run(self) -> float:
        """One pass of the reference computation; returns a value to keep it live."""
        total = 0
        for i in range(5000):
            total += i * i
        x = self._square
        for _ in range(5):
            x = np.minimum(x, self._square.T) + 0.0
        w, s = self._window, self._scratch
        np.multiply(w, 1.0001, out=s)
        np.add(s, w, out=s)
        np.maximum(s, 0.5, out=s)
        gram = w @ w.T
        return total + float(x[0, 0] + s[0, 0] + gram[0, 0])

    def sample(self, repeats: int = 3) -> float:
        """Median seconds of *repeats* passes."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def tick(self) -> float:
        """Keep a sample in :attr:`samples` if :data:`PERIOD_S` has passed
        since the last one.

        Returns the seconds spent, so that callers can leave them out of
        the program's measured time.
        """
        now = time.perf_counter()
        if now < self._next:
            return 0.0
        self.samples.append(self.sample())
        end = time.perf_counter()
        self._next = end + PERIOD_S
        return end - now

    def scale(self) -> float:
        """``REFERENCE_S`` over the median kept sample: the factor for raw times."""
        return REFERENCE_S / statistics.median(self.samples)
