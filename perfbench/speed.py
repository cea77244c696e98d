"""Host-speed probe: fixed reference kernels timed between operations.

On a shared two-core host the speed of the benchmark's core drifts by up
to about 1.7x, over seconds and over tens of seconds, with no steal time
visible inside the machine. The benchmark therefore runs a kernel
between operations, about a tenth of the loop's time, and reports each
operation's time scaled to a host on which the kernel takes
``NOMINAL_S``, judged by the kernel runs nearest to that operation. On a
2-core Xeon VM, over five seeds of the ``compare`` workload, the spread
(interquartile range over median) of the median operation time was 44%
raw and 4% scaled. The raw times go into each run's context.

Different code slows down by different amounts, so there are two
kernels. ``interpreted`` mixes text parsing, FFTs, sorting and Python
loops, like extraction and the CLI. ``numeric`` is vectorised NumPy on
a node-sized matrix, like the split scan that dominates training: with
the ``interpreted`` kernel, ``desk-cv`` operation times tracked the
kernel's with a log-log slope of 0.6, with this one 0.95. Inputs are
fixed, so a kernel does the same work in every run, on every commit.
"""

from __future__ import annotations

import re
import statistics
import time

import numpy as np

NOMINAL_S = 0.005
START_REPS = 5  # kernel runs before the first interval, so it has runs on both sides
_TOKEN_SPLIT = re.compile(r"[,\s]+")


class SpeedProbe:
    """Times a reference kernel between the intervals it is asked to scale."""

    def __init__(self, kind: str = "interpreted") -> None:
        rng = np.random.default_rng(20031001)
        self._text = ",".join(map(repr, rng.normal(size=4096).tolist()))
        self._matrix = rng.random((64, 1024))
        self._values = rng.random((1024, 54))
        self._order = np.argsort(self._values, axis=1)
        self._grad = rng.normal(size=54)
        self._kernel = {"interpreted": self._interpreted, "numeric": self._numeric}[kind]
        self.samples: list[float] = []
        self.starts: list[float] = []
        self._total = 0.0

    def _interpreted(self) -> None:
        values = np.asarray(_TOKEN_SPLIT.split(self._text), dtype=np.float64)
        np.abs(np.fft.fft(values.reshape(2, 2048), axis=1)).mean(axis=0)
        np.argsort(self._matrix, axis=0, kind="stable")
        total = 0
        for i in range(3000):
            total += i * i

    def _numeric(self) -> None:
        for _ in range(4):
            values = np.take_along_axis(self._values, self._order, axis=1)
            left = np.cumsum(self._grad[self._order], axis=1)[:, :-1]
            cover = np.cumsum(np.abs(self._grad)[self._order], axis=1)[:, :-1]
            score = left * left / (cover + 1.0) + (left - 1.0) ** 2 / (cover + 2.0)
            score[values[:, 1:] <= values[:, :-1]] = -np.inf
            np.argmax(score, axis=1)

    def run(self, reps: int) -> None:
        for _ in range(reps):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
            self.starts.append(start)
            self._total += self.samples[-1]

    def keep_up(self, busy_s: float, share: float = 0.1) -> None:
        """Run the kernel until its total time is ``share`` of ``busy_s``."""
        while self._total < share * busy_s:
            self.run(1)

    def scaled(self, start: float, duration: float, count: int = 10) -> float:
        """``duration`` at nominal speed, judged by the ``count`` kernel runs
        nearest to the middle of the interval that began at ``start``."""
        middle = start + duration / 2
        nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - middle))
        return duration * NOMINAL_S / statistics.median(self.samples[i] for i in nearest[:count])
