"""Machine-speed probe, so that timings on a shared host compare across runs.

On a host shared with other tenants, the speed of one core drifts by tens
of percent over seconds to minutes. Raw times of identical work then
spread between runs by more than any useful regression bound. The probe
measures that drift while the benchmark runs. Every ``PERIOD_S`` seconds
of wall time, a SIGALRM handler times a fixed numpy kernel that does not
touch dglab. The handler runs on the benchmark's own thread, between
whatever bytecodes it is executing, so the kernel samples the same core
state as the measured work.

A phase's time at reference speed is its raw time (probe time removed)
times ``REFERENCE_S`` over the median kernel time during that phase. That
is the time the phase would take on a host where the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_S = 125e-6  # about the kernel's time on the 2-vCPU host the benchmark was defined on

_X = np.linspace(-1.0, 1.0, 250).reshape(25, 10)
_W = np.linspace(-1.0, 1.0, 100).reshape(10, 10)
_RNG = np.random.default_rng(0)


def kernel() -> None:
    """Interpreter-bound work on tiny arrays, in the proportions of a dglab step.

    A two-layer forward and backward pass over a 25-row batch with a node
    per layer, a percentile threshold and a permutation, then plain dict
    and string work. Of the kernels tried (tiny matmuls, a 128 x 32
    forward/backward sweep, this numpy part alone, this Python part
    alone), the combination tracked dglab's pass times best across runs.
    """
    nodes = []
    h = _X
    for _ in range(2):
        out = h @ _W + 0.1
        nodes.append((out, lambda g: g @ _W.T))
        h = np.maximum(out, 0.0)
    e = np.exp(h - h.max(axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    seen = set()
    for out, vjp in reversed(nodes):
        seen.add(id(out))
        g = vjp(g)
    scores = np.abs(g[0])
    below = np.flatnonzero(scores < np.percentile(scores, 40.0))
    _RNG.permutation(below.size)
    table = {}
    for i in range(300):
        table[i] = (i, str(i))
        len(table[i][1])


class SpeedProbe:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        # Python runs a handler again inside itself when the next SIGALRM
        # arrives before it returns (a host stall longer than PERIOD_S);
        # nested ticks would pile up frames, so they are dropped.
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            kernel()
            took = time.perf_counter() - started
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Run ``fn()``; return (result, probe seconds spent inside it, scale).

        ``scale`` turns a raw time of this call into a time at reference
        speed. A call too short to hold a sample uses all samples so far.
        """
        first, spent = len(self.samples), self.spent
        result = fn()
        window = self.samples[first:] or self.samples
        scale = REFERENCE_S / statistics.median(window) if window else 1.0
        return result, self.spent - spent, scale
