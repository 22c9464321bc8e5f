"""Reference probes, timed next to each measurement to correct for CPU drift.

On a shared virtual machine the CPU speed drifts with the neighbours' load:
on the 2-vCPU VM this benchmark was written on it switched between two
levels, in streaks of about a second, and the share of time spent at each
level moved over minutes.  Wall times moved with it, by up to 60 % between
runs minutes apart.  So every timing is bracketed by a probe before and
after it, and is reported divided by the mean *slowness* of the two
probes: 1.0 at the faster level, about 1.5 at the slower one.

A probe's slowness is its time over its time at the faster level.  The
interpreter burst slows down about 1.7x between the levels and a bare
interpreter start about 1.4x, while a ``python -m symchar`` call, about half
start-up and half interpreter work, slows down about 1.5x.  So in-process
timings use the burst alone and timings of whole processes use the mean of
both.
"""

import os
import time

# Probe times at the faster speed level on that VM (Python 3.11).
BURST_S = 0.00100
SPAWN_S = 0.0081


def burst() -> float:
    """Slowness of a fixed mix of integer, dict and str work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        table[i & 255] = acc
        acc = (acc * 31 + table.get(i >> 1 & 255, i)) % 1000003
        acc += len(str(acc))
    return (time.perf_counter() - t0) / BURST_S


def process(python: str) -> float:
    """Slowness for whole-process timings: a bare interpreter start
    (``python -I -S -c pass``) and a burst, weighted equally."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(python, [python, "-I", "-S", "-c", "pass"], {}, file_actions=actions)
    os.waitpid(pid, 0)
    start = (time.perf_counter() - t0) / SPAWN_S
    return (start + burst()) / 2
