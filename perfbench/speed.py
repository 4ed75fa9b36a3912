"""The machine's current speed, from fixed kernels that do not use hskolem.

The benchmark's host is a few cores of a shared machine whose speed, as one
process sees it, switches by up to 1.7x between states that last from
seconds to minutes.  CPU time moves with wall time, so the change is in the
speed of the machine, not in waiting.  The benchmark therefore runs a fixed
pure-Python kernel, which shares no code with the library, between the
calls it times, and scales each call's latency by the kernel's time around
it:

    scaled latency = latency * reference / kernel time around the call

The reference is the kernel's median time on the machine in
`baseline.json`, so a scaled time is the time the call would take on that
machine at its usual speed.  A change to hskolem moves the latency and not
the kernel, so it shows in full.
"""

from __future__ import annotations

import time

import reference as ref


# The kernel's median time over 60 s on the 2-core Xeon of baseline.json,
# Python 3.11.7.
REFERENCE_S = 0.00351


def sample() -> float:
    """Seconds taken by one run of the kernel: the reference labeling
    counter on a 5-vertex star, 10 times.  Like the search engines it
    backtracks over small sets."""
    t0 = time.perf_counter()
    for _ in range(10):
        ref.count_graph_labelings(*ref.GRAPHS["star5"], 2, 1)
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """What to multiply a time measured between two kernel samples by to
    get it at reference speed."""
    return REFERENCE_S * 2 / (before + after)
