"""Wall clock calibrated against the machine's drifting speed.

On a shared machine the same call can run 1.5x slower for tens of seconds
at a time, and CPU time drifts with wall time. A fixed reference kernel
(Python-level loop of small-vector numpy work, the same mix as the package's
projection and basis code) is timed at every split. A segment's calibrated
time is its wall time times ``REFERENCE_S`` over the median kernel time
near it: the seconds the segment would take on the reference machine at
full speed. Probe time is excluded from every segment.
"""

from __future__ import annotations

import time

import numpy as np

# The reference kernel's time at full speed on the machine the bounds were
# set on (shared 2-core x86_64 VM, Python 3.11, numpy 2.4, OpenBLAS, 1 thread).
REFERENCE_S = 0.0055
# Speed stretches last 10 s or more; probes this close to a segment share
# its speed, and several of them outvote one disturbed probe.
WINDOW_S = 2.0

_rng = np.random.default_rng(0)
_W = _rng.random((32, 32))
_X = _rng.random(32)
_S = np.linspace(0.01, 1.0, 64)


def reference_kernel() -> float:
    y = _X.copy()
    acc = 0.0
    for _ in range(150):
        g = _W @ y - _X
        y = np.maximum(y - 0.01 * g, 0.0)
        y = y / y.sum()
        phi = 1.0 - (1.0 - _S[None, :] ** (1.0 + y[:, None])) ** 1.5
        acc += float(np.sort(y)[::-1].cumsum()[-1]) + float(phi.sum())
    return acc


class Clock:
    """Splits time into segments and probes the machine's speed at every
    split; a segment is calibrated against the probes near it."""

    def __init__(self):
        self.probes: list = []  # (midpoint, kernel seconds)
        self._t = None

    def _probe(self):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.probes.append((0.5 * (start + end), end - start))

    def start(self):
        self._probe()
        self._t = time.perf_counter()

    def split(self) -> tuple[float, float]:
        """The (start, end) segment since the last start or split."""
        segment = (self._t, time.perf_counter())
        self._probe()
        self._t = time.perf_counter()
        return segment

    @staticmethod
    def raw(segment) -> float:
        return segment[1] - segment[0]

    def calibrated(self, segment) -> float:
        """Wall time scaled by the median probe within WINDOW_S of the
        segment; the probes at its two ends always count."""
        t0, t1 = segment
        near = [p for t, p in self.probes if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return (t1 - t0) * REFERENCE_S / float(np.median(near))
