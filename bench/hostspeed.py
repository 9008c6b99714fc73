"""Timings in reference seconds, corrected for the host's speed phases.

The benchmark shares a host whose speed changes in phases of about a
second to a few minutes: a fixed kernel takes 1.0 to 1.9 times its best
time, and process CPU time grows exactly as fast as wall time, so neither
clock separates the program's own cost from the neighbours' load.

A Pacer runs a fixed reference kernel from a SIGALRM handler every
INTERVAL_S seconds of the run and times it.  The kernel does the kinds
of work the program does (see _Kernel).  Between two probes the host is
taken to run at the mean speed of the two, so a stretch of wall time
counts REFERENCE_S / (local probe time) reference seconds per second;
the probes' own time counts zero.  Kinds of code slow down by different
factors under contention, so the correction is close, not exact.  A duration in reference seconds
is what the interval would have taken on a host where one probe takes
REFERENCE_S.  The kernel is part of the benchmark, not of the program, so
a change to the program never changes the reference.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

INTERVAL_S = 0.025
# one probe on this host in its fast phase (2-vCPU Xeon VM, numpy 2.4,
# scipy 1.17), rounded; it only sets the unit
REFERENCE_S = 1.0e-3


class _Kernel:
    """Fixed reference work: about 70% of its time a Python loop of
    fourth-order steps on 3-vectors read from 2,048-row arrays, as in
    frame transport and the scalar Newton loop, and 30% a banded solve and
    whole-array arithmetic, as in the vector stepper.  On recorded runs
    that split corrected all three workloads about equally well; the array
    part alone suited the vector stepper best, the loop alone the gauge
    transforms."""

    ROWS = 2048
    STEPS = 24

    def __init__(self):
        rng = np.random.default_rng(20090402)
        v = rng.standard_normal((self.ROWS, 3))
        self.v = v / np.linalg.norm(v, axis=1, keepdims=True)
        self.v_rho = 0.1 * rng.standard_normal((self.ROWS, 3))
        self.e0 = np.array([1.0, 0.0, 0.0]) + 1j * np.array([0.0, 1.0, 0.0])
        self.offset = 0
        self.band = rng.standard_normal((7, 768))
        self.band[3] += 8.0
        self.rhs = rng.standard_normal(768)
        self.block = self.v[:512]

    def __call__(self) -> None:
        # successive calls walk through the arrays, as transport does
        v, v_rho, h = self.v, self.v_rho, -0.01
        lo = self.offset
        self.offset = (lo + self.STEPS) % (self.ROWS - self.STEPS - 1)
        ec = self.e0
        for k in range(lo + self.STEPS, lo, -1):
            k1 = -v[k + 1] * (v_rho[k + 1] @ ec)
            k2 = -v[k] * (v_rho[k] @ (ec + 0.5 * h * k1))
            k3 = -v[k] * (v_rho[k] @ (ec + 0.5 * h * k2))
            k4 = -v[k - 1] * (v_rho[k - 1] @ (ec + h * k3))
            ec = ec + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        solve_banded((3, 3), self.band, self.rhs)
        w = np.cross(self.block, self.block[::-1]) * np.exp(-np.abs(self.block))
        np.einsum("ij,ij->i", self.block, w)


class Pacer:
    """Times the reference kernel every INTERVAL_S while running; converts
    perf_counter readings taken meanwhile to reference seconds."""

    def __init__(self):
        self._kernel = _Kernel()
        self._kernel()  # first call pays the imports and allocations
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._saved = None
        self._times = None
        self._clock = None

    def _probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self) -> Pacer:
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._probe()
        self._build()

    def _build(self) -> None:
        """The reference clock at each probe's start and end."""
        s, e = np.array(self.starts), np.array(self.ends)
        d = e - s
        # the gap between two probes runs at the speed their mean time gives
        rate = REFERENCE_S / (0.5 * (d[:-1] + d[1:]))
        clock = np.zeros(2 * len(d))
        clock[2::2] = np.cumsum((s[1:] - e[:-1]) * rate)
        clock[3::2] = clock[2::2]
        self._times = np.column_stack((s, e)).ravel()
        self._clock = clock

    def to_reference(self, t):
        """perf_counter reading(s) taken inside the run -> reference clock."""
        return np.interp(t, self._times, self._clock)

    def duration(self, t0: float, t1: float) -> float:
        """Reference seconds between two perf_counter readings."""
        return float(self.to_reference(t1) - self.to_reference(t0))

    def summary(self) -> dict:
        d = [e - s for s, e in zip(self.starts, self.ends)]
        return {
            "probes": len(d),
            "interval_s": INTERVAL_S,
            "reference_s": REFERENCE_S,
            "probe_s_min": min(d),
            "probe_s_median": statistics.median(d),
            "probe_s_max": max(d),
            "probe_share": sum(d) / (self.ends[-1] - self.starts[0]),
        }
