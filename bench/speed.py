"""Speed meter: how fast this process's CPU runs right now.

On a shared virtual machine the speed of a vCPU drifts with the load of
its neighbours: a fixed loop's time has been seen to swing by up to 2x,
in phases lasting from seconds to over 40 s, while CPU time still equals
wall time.  Medians inside one run cannot remove phases that long, so
the benchmark reports its times at a fixed reference speed instead:

    reported = measured x (PROBE_NOMINAL_S / probe time while measuring)

The probe is a fixed piece of work in the program's own idiom (short
numpy calls on arrays of a few hundred elements between Python-level
arithmetic).  ``Meter`` samples it on a timer *during* each timed
operation, so the factor follows phase changes inside the operation,
and removes the time the samples themselves took.  ``probe_now`` times
it between short measurements such as the set-up probes.

A change to expdiff does not change the probe, so the reported times
move with the program exactly as wall time would at constant speed.
Every raw wall time is kept in the detail line next to its factor.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: probe time at the reference speed: about its time in the fastest phase
#: seen on a 2-vCPU Intel Xeon VM, so reported times are close to that
#: phase's wall times.  It only scales the reported times, never their ratios
PROBE_NOMINAL_S = 1.5e-4
#: sampling period of ``Meter``, wall seconds
PERIOD_S = 0.1
#: probe repetitions per sample; the fastest one is the sample, which
#: drops an interrupt that lands inside one repetition
REPEATS = 3

_A = np.linspace(0.5, 2.0, 400)
_B = np.linspace(1.0, 3.0, 400)
_OUT = np.empty_like(_A)


def _probe() -> float:
    """Time of one fixed piece of work, seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        np.multiply(_A, _B, out=_OUT)
        np.add(_OUT, 0.25, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        acc += float(_OUT[i]) * 0.5 + i
    return time.perf_counter() - t0 + 0.0 * acc


def probe_now(samples: int = 25) -> float:
    """Median probe time over ``samples`` samples, taken now."""
    return statistics.median(min(_probe() for _ in range(REPEATS))
                             for _ in range(samples))


class Meter:
    """Samples the probe every PERIOD_S while active (SIGALRM; main thread).

    ``with meter: work()`` then ``meter.scaled(wall)`` gives ``wall`` less
    the sampling time, at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(min(_probe() for _ in range(REPEATS)))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        self.spent = 0.0  # taken before the caller starts its clock
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Mean of PROBE_NOMINAL_S / sample: reference-speed seconds per
        wall second over the metered interval."""
        return statistics.fmean(PROBE_NOMINAL_S / s for s in self.samples)

    def scaled(self, wall: float) -> float:
        return (wall - self.spent) * self.factor()
