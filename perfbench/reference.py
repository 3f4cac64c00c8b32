"""Host-speed normalisation: a fixed reference computation sampled during the work.

On a shared host the speed a process gets drifts by a quarter or more
within seconds, with other tenants' load, and the process's CPU time drifts
with it (the host runs slower, it does not run less).  ``HostClock`` times
a span of work and, every ``INTERVAL_S`` of it, interrupts the work with a
timer signal to run one fixed reference chunk.  The chunks show how fast
the host ran during the span, moment by moment; the span's time is
reported both as wall seconds and as normalised seconds: seconds on a host
where one chunk takes ``CHUNK_S``.  Nothing here imports finslercheck, so a
change to the program cannot change the reference.

A chunk is two parts of about half a millisecond each on a 2-vCPU x86
cloud host, chosen like the program's own work: dict and float arithmetic
in the interpreter, and a truncated polynomial product over index triples
(the shape of a jet product).  It imports nothing, not even numpy, so the
set-up probe can time ``import finslercheck`` whole.  The time spent in
chunks is taken out of the span's wall time.
"""

from __future__ import annotations

import signal
import time

CHUNK_S = 0.001
INTERVAL_S = 0.03
_TERMS = 28
_TRIPLES = [(i, j, i + j) for i in range(_TERMS) for j in range(_TERMS) if i + j < _TERMS]


def _interpreter() -> float:
    table = dict.fromkeys(range(256), 0.0)
    acc = 0.0
    for i in range(1200):
        x = float(i) * 1.0001
        table[i & 255] = x
        acc += x * x - table[(i * 7) & 255]
        pair = [x, acc]
        acc -= pair[0] * 0.5
    return acc


def _series_product() -> float:
    a = [1.0 + 0.01 * i for i in range(_TERMS)]
    b = [0.5 - 0.003 * i for i in range(_TERMS)]
    for _ in range(13):
        c = [0.0] * _TERMS
        for i, j, k in _TRIPLES:
            c[k] += a[i] * b[j]
        a = [x * 0.999 for x in c]
    return a[0]


def chunk_seconds() -> float:
    """Wall seconds of one reference chunk."""
    t0 = time.perf_counter()
    _interpreter()
    _series_product()
    return time.perf_counter() - t0


class HostClock:
    """Times one span of work in the main thread, sampling the host's speed.

    ``wall_s`` is the span's wall time without the chunks; ``norm_s`` is
    ``wall_s`` times the mean of ``CHUNK_S`` / (chunk time) over the
    samples.  The samples are evenly spaced in wall time, so each stretch
    of the span counts at the speed the host ran during it, and a chunk
    slowed by a one-off interruption weighs little.  Python runs the signal
    handler between bytecodes, so a long call into C delays a sample.  A
    chunk runs at both ends of the span too, so even a short span has
    samples.  With ``sampling=False`` it only times the span, and
    ``norm_s`` stays None.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.chunks: list[float] = []
        self.wall_s = 0.0
        self.norm_s: float | None = None
        self._in_chunks = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.chunks.append(chunk_seconds())
        self._in_chunks += time.perf_counter() - t0

    def __enter__(self):
        self._t0 = time.perf_counter()
        if self.sampling:
            self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()
        self.wall_s = time.perf_counter() - self._t0 - self._in_chunks
        if self.sampling:
            speed = sum(CHUNK_S / c for c in self.chunks) / len(self.chunks)
            self.norm_s = self.wall_s * speed
        return False
