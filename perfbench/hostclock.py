"""Op timing that discounts the host's changing speed.

The benchmark runs on shared machines whose speed for the same Python
code drifts by a factor of up to two over seconds to minutes, because
other tenants load the same cores and caches.  Raw wall time then
measures the neighbours more than the engine.

While an op runs, SIGALRM fires every PROBE_PERIOD_S of wall time and a
fixed probe loop measures how long it takes right now.  The op's time
(minus the probes' own time) is rescaled to a host on which the probe
takes PROBE_NOMINAL_S:

    normalised = net * PROBE_NOMINAL_S * mean(1 / probe_i)

Each probe stands for one equal slice of wall time, and a slice in which
the host runs at speed 1/probe_i does PROBE_NOMINAL_S / probe_i
nominal seconds of work, so the mean of the reciprocals is the right
average.  One probe is taken just before the op, so ops shorter than a
period are scaled too.
"""

from __future__ import annotations

import contextlib
import signal
import time

PROBE_PERIOD_S = 0.02
PROBE_NOMINAL_S = 2e-5  # the probe's median time on an idle 2-vCPU Xeon VM


def _probe_work() -> int:
    s = 0
    for i in range(300):
        s += i * i
    return s


def normalised(net_s: float, probes: list[float]) -> float:
    """Net op seconds rescaled to the nominal host speed."""
    return net_s * PROBE_NOMINAL_S * sum(1 / p for p in probes) / len(probes)


class HostClock:
    """Times blocks of one process in raw and normalised seconds."""

    def __init__(self):
        self._probes: list[float] = []

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        _probe_work()
        self._probes.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def timing(self, into: dict, key: str, start: float | None = None):
        """Time the block, or from `start` (CLOCK_MONOTONIC seconds) to its
        end; store normalised seconds under `key` and raw seconds under
        `key + "_raw"`."""
        self._probes = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        # the first probe lies inside the interval only if it began earlier
        outside = 1 if start is None else 0
        if start is None:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - start
            signal.signal(signal.SIGALRM, previous)
            net = elapsed - sum(self._probes[outside:])
            into[key + "_raw"] = net
            into[key] = normalised(net, self._probes)
