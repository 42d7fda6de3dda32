"""A fixed reference computation that measures how fast the host runs.

The benchmark runs on shared hosts whose speed drifts by 20-40% within
seconds and over minutes, and that drift slows all code in the same
direction. The plain run times this computation after every set-up and every
op, for about a tenth of their time, and rescales its gated times to a host
on which the computation takes ``NOMINAL_S`` seconds. It uses the same kinds
of work as the emulator (an int64 table gather with a reduction, an
integer matmul, float elementwise math and a Python loop) on arrays of its own,
and never calls ``axvit``, so a change to the program leaves it unchanged.
"""

import time

import numpy as np

NOMINAL_S = 0.025
SHARE = 0.1  # reference time per second of measured work


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(-16384, 16384, size=(256, 256), dtype=np.int64)
        self.a = rng.integers(0, 256, size=(12, 256, 32))
        self.b = rng.integers(0, 256, size=(32, 32))
        self.x = rng.standard_normal((256, 512))
        self.expected = self._compute()

    def _compute(self) -> tuple:
        gathered = 0
        for a in self.a:
            gathered += int(self.table[a[:, :, None], self.b[None, :, :]]
                            .sum(axis=1).sum())
        product = int((self.a[0] @ self.b).sum())
        smooth = float(np.tanh(np.exp(-self.x * self.x)).sum())
        loop = 0
        for i in range(60000):
            loop += i & 7
        return gathered, product, smooth, loop

    def time(self) -> float:
        """Host seconds of one run; raises if the result ever changes."""
        start = time.perf_counter()
        result = self._compute()
        elapsed = time.perf_counter() - start
        if result != self.expected:
            raise RuntimeError("the reference computation changed its result")
        return elapsed

    def sample(self, work_s: float) -> list[tuple[float, float]]:
        """(start, host seconds) of as many runs as fit in ``SHARE * work_s``
        (at least one), so that the samples spread over the run like the
        work does."""
        samples, spent = [], 0.0
        while not samples or spent < SHARE * work_s:
            start = time.perf_counter()
            samples.append((start, self.time()))
            spent += samples[-1][1]
        return samples
