"""Correct measured times for the speed of a shared host.

On a host shared with other tenants the same pass can take 1.5x longer a
few minutes later, and raw pass times then spread more than any useful
bound.  A fixed snippet of interpreter work (dict, tuple and integer
operations) is timed every 10 ms of wall time from a SIGALRM handler.  Its
samples spread evenly over the measured interval, so their median tracks
how fast the host runs Python during that very interval.

A corrected time is the interval's wall time minus the time spent in
samples, times (REFERENCE_S / median sample) ** EXPONENT.  The snippet's
speed swings more than the library's (about 2x where a pass swings 1.5x),
hence the exponent below 1.  EXPONENT = 0.6 minimised the spread of
corrected operation times measured on this benchmark's workloads on a
2-CPU shared host: the coefficient of variation of each solve-copwin
operation over a 150 s window fell from 0.19 (raw) to 0.07, and that of
exhaust-policy passes over 100 s from 0.13 to 0.03.  REFERENCE_S only sets
the scale: corrected and raw times agree when the snippet takes
REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
REFERENCE_S = 150e-6
EXPONENT = 0.6


def _snippet() -> int:
    counts: dict = {}
    acc = 0
    for i in range(300):
        key = (i & 63, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc ^= i * 2654435761 >> 7
    return acc


class HostSpeed:
    """Context manager that samples the snippet while it is open."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def net(self, wall: float, since: int) -> float:
        """Wall time of an interval minus its own samples' time."""
        return wall - sum(self.samples[since:])

    def corrected(self, net: float) -> float:
        """Net seconds at the reference host speed, from every sample so far."""
        return net * (REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
