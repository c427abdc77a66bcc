"""The machine's speed, measured with a fixed reference kernel.

The benchmark shares a host whose cores run the same work up to twice as
fast at one time as at another, both from second to second and in
stretches of minutes, and CPU time moves with wall time, so the process
is slowed rather than descheduled.  No run length averages the slow
stretches out.  So while the worker measures a pass, a timer interrupts
it every ``INTERVAL_S`` to time this kernel, and the time spent in the
kernel is taken off the pass.  The run reports its times scaled by the
mean kernel time: ``scaled(t, c) = t * REFERENCE_S / c`` is ``t`` in
seconds at the speed at which the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code and calls nothing in ``cubemass``, so
a change to the package moves the scaled times exactly as it moves the
raw ones, while a change of host speed moves the times and the kernel
together.

The kernel mixes what a pass spends its time on: numpy calls on small
batches of 3-vectors and 3x3 matrices (as in ``expr``, ``metric`` and
``geom``), a few on 1024-point batches, and plain Python arithmetic (as
in the quadrature loops).
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

#: Kernel time at the reference speed: about its mean time on the
#: baseline host (2 vCPUs, Intel Xeon 2.1 GHz).
REFERENCE_S = 0.0035

#: Wall time between two kernel timings while a sampler is active.
INTERVAL_S = 0.06

_SMALL = np.sin(np.arange(64 * 9.0)).reshape(64, 3, 3) + 4.0 * np.eye(3)
_POINTS = 1.5 + 0.5 * np.sin(0.7 * np.arange(1024 * 3.0)).reshape(1024, 3)


def _kernel() -> float:
    m = _SMALL
    for _ in range(28):
        inv = np.linalg.inv(m)
        g = np.einsum("nij,njk->nik", inv, m)
        m = 0.5 * (m + np.swapaxes(m, -1, -2)) + 1e-3 * g
    r = np.sqrt(np.einsum("ni,ni->n", _POINTS, _POINTS))
    s = float(np.sum(np.sin(r) / r + np.exp(-r)))
    total = 0.0
    for k in range(1, 3500):
        total += math.sqrt(k) * 0.5 + (k % 7) / k
    return s + total + float(m[0, 0, 0])


def kernel_s() -> float:
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while active.

    The timings come from a ``SIGALRM`` handler, which Python runs in the
    main thread between bytecodes, so they sample the speed the measured
    work itself gets.  ``spent`` is the wall time the handler took.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent += time.perf_counter() - entered

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def scaled(seconds: float, kernel_seconds: float) -> float:
    return seconds * REFERENCE_S / kernel_seconds
