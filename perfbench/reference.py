"""Reference work that tracks how fast the machine is running right now.

Other load on a shared machine slows every computation by tens of percent,
for seconds and for minutes at a time.  That moves a run's timings more
than most code changes do.  The benchmark times this kernel between scenes.
It scales the run's latencies to the speed at which the kernel takes
`REFERENCE_MS`, and prints the unscaled figures next to the scaled ones.

The kernel uses nothing from chainforge, so no change to the program can
move it.  Like chainforge, it mixes small numpy operations with
interpreter work, so load slows both alike.
"""

import math
import time

import numpy as np

# Nominal kernel time.  It is close to the kernel's median on one 2.1 GHz
# x86-64 core; only its constancy matters, since it fixes the speed that
# scaled figures refer to.
REFERENCE_MS = 6.5


def kernel() -> float:
    rotation = np.eye(3)
    position = np.zeros(3)
    step = np.array([1.0, 2.0, 3.0])
    total = 0.0
    table = {}
    for i in range(400):
        c, s = math.cos(i * 0.01), math.sin(i * 0.01)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ rotation
        position = rotation @ position + step
        total += float(np.linalg.norm(position)) + abs(float(np.linalg.det(rotation)))
        table[i % 17] = (total, str(i))
    return total


def time_kernel() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
