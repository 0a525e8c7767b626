"""Host-speed calibration for the timed metrics.

A shared host runs pure Python at speeds that drift by ±30% over tens of
seconds, in CPU time as well as in wall time, on every core at once.  A run
of half a minute sees one or two such periods, so raw times spread between
runs by more than any useful bound.  A fixed reference computation, timed
in short chunks interleaved with the program's work, slows down with it.
Each timed metric is therefore reported at the reference speed:

    speed = NOMINAL_CHUNK_NS / (measured ns per reference chunk)
    ops_per_s = raw ops_per_s / speed,   setup_s = raw setup_s * speed

The reference is the benchmark's own code, not gablab's, in gablab's
idiom: GF(2^17) multiplies by shifts and XORs, and GF(2^8) multiplies by
log/exp tables through a method, collected by a list comprehension.  Its
only containers die at once, so gablab's heap cannot trigger a garbage
collection inside a chunk.  A change to gablab moves the program's time
and not the reference's.

In a measuring process a ``Ticker`` runs one chunk on SIGALRM every
TICK_S of wall time.  The chunks' time is subtracted from the operations
they interrupted; it is about CHUNK_S / TICK_S of the run.
"""

from __future__ import annotations

import signal
import time

# One chunk's usual time on the reference host (Intel Xeon, 2.1 GHz, CPython
# 3.11).  It only scales the reported figures.
NOMINAL_CHUNK_NS = 250_000
TICK_S = 0.01

_MOD = (1 << 17) | (1 << 3) | 1
_BIT_MULS = 60
_TABLE_ROWS = 15


def _mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a >> 17:
            a ^= _MOD
        b >>= 1
    return r


class _Table:
    """GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1 by discrete logarithms."""

    __slots__ = ("exp", "log")

    def __init__(self):
        exp, log = [0] * 510, [0] * 256
        x = 1
        for i in range(255):
            exp[i] = exp[i + 255] = x
            log[x] = i
            x <<= 1
            if x & 0x100:
                x ^= 0x11D
        self.exp, self.log = tuple(exp), tuple(log)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


_TABLE = _Table()


def chunk() -> int:
    """The reference computation; its result is fixed."""
    x = 0x1F35B
    for _ in range(_BIT_MULS):
        x = _mul(x, 0x1ABCD)
    t = _TABLE
    for j in range(1, _TABLE_ROWS + 1):
        for v in [t.mul(a, j) for a in range(1, 40, 3)]:
            x ^= v
    return x


def time_chunks(n: int) -> int:
    """ns spent on n chunks, run back to back in this process."""
    t = time.perf_counter_ns()
    for _ in range(n):
        chunk()
    return time.perf_counter_ns() - t


def speed(ref_ns: int, chunks: int) -> float:
    """The host's speed as a share of the reference host's."""
    return NOMINAL_CHUNK_NS * chunks / ref_ns


class Ticker:
    """Runs one chunk every TICK_S of wall time while started.  ``ns`` is
    the running total of chunk time, so an operation's own time is its wall
    time less the growth of ``ns`` across it."""

    def __init__(self):
        self.ns = 0
        self.chunks = 0

    def _tick(self, signum, frame):
        t = time.perf_counter_ns()
        chunk()
        self.ns += time.perf_counter_ns() - t
        self.chunks += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
