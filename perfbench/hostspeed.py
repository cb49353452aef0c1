"""Host speed, from a fixed reference loop that does not call planeaut.

The benchmark runs on a shared virtual machine whose speed swings by tens
of percent over seconds to minutes: CPU time tracks wall time and steal
time stays near zero, so the host slows every instruction rather than
descheduling the process.  Wall times taken at different moments are
therefore put on one scale: each is multiplied by REFERENCE_S over the
time the reference loop took at that moment.  A reported time is the time
the program would have taken on a host where the loop takes REFERENCE_S;
a faster program lowers it, a faster or slower moment of the host does not.

The loop is exact rational arithmetic on a dict, the same kind of work as
planeaut's cyclotomic products, and it touches nothing of planeaut, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds one reference_loop() takes on the reference host (a 2-vCPU
# 2.1 GHz virtual machine, Python 3.11.7, at a quiet moment).
REFERENCE_S = 9.3e-4

# Coefficients with numerators and denominators of 15 to 25 digits, like
# those of dense products high in the tower, so that the loop leans on
# big-integer gcds and allocation as the program does.
_TERMS = [Fraction((i * 7919) ** 5 - 3, 1 + (i * 104729) ** 4) for i in range(1, 11)]
_SIZE = len(_TERMS)


def reference_loop() -> float:
    """Seconds for one fixed cyclic convolution of Fractions."""
    clock = time.perf_counter
    start = clock()
    out: dict[int, Fraction] = {}
    for i, x in enumerate(_TERMS):
        for j, y in enumerate(_TERMS):
            k = (i + j) % _SIZE
            out[k] = out.get(k, 0) + x * y
    return clock() - start


def median_loop(repeats: int) -> float:
    return statistics.median(reference_loop() for _ in range(repeats))


def scale(loop_s: float) -> float:
    """Factor that puts a wall time taken while the loop took `loop_s`
    on the reference host's scale."""
    return REFERENCE_S / loop_s
