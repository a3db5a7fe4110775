"""Machine-speed gauge, so that times taken on a shared host can be compared.

On a host shared with other tenants the speed of one core drifts by 15% and
more over a few seconds, far more than the changes the benchmark must
detect.  The gauge times a fixed pure-Python kernel (big-integer XOR, tuple
and dict stores, a sort and a set: the operations that complex building and
column reduction spend their time on) every ``EVERY_S`` seconds between
queries.  A time ``dt`` measured while the median of the last ``WINDOW``
kernel times was ``k`` is reported as
``dt * NOMINAL_S / k``: the time it would take on a host where the kernel
takes ``NOMINAL_S``, about its time on an idle core of the reference
machine.  Per-layer (traced) times are not scaled.
"""

from __future__ import annotations

import collections
import random
import statistics
import time

NOMINAL_S = 0.6e-3
EVERY_S = 0.05
WINDOW = 5


_COLUMNS = [random.Random(k).getrandbits(4096) for k in range(32)]


def _kernel() -> int:
    x = 0
    d = {}
    pairs = []
    for i in range(1000):
        x ^= (i * 2654435761) << (i % 64)
        d[(i & 127, i % 7)] = x & 1023
        pairs.append((i % 13, i))
    pairs.sort()
    c = 0
    for col in _COLUMNS:
        c ^= col
        c.bit_length()
    return len({p[0] for p in pairs}) + len(d) + (c & 1)


class Gauge:
    def __init__(self):
        self.samples = collections.deque(maxlen=WINDOW)
        self.last = float("-inf")
        self.spent = 0.0        # seconds spent running the kernel

    def sample(self) -> None:
        """Time the kernel's second of two back-to-back runs: the first
        refills the caches the queries evicted, which the timing should not
        see."""
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t1)
        self.spent += self.last - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Scale from measured seconds to nominal seconds."""
        if not self.samples:
            self.sample()
        return NOMINAL_S / statistics.median(self.samples)

    def fresh_factor(self) -> float:
        """The factor from a full window of new samples."""
        for _ in range(WINDOW):
            self.sample()
        return self.factor()
