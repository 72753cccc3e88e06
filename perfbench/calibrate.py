"""A fixed amount of work that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

Prints the seconds the kernel took. The kernel mixes the two kinds of work
ffnewman does, interpreted integer loops and small numpy root finding, and
uses nothing from ffnewman, so a change to the library does not change it.
run.py scales its timings by this machine speed (see measure_end_to_end).
"""

import time

import numpy as np

INT_STEPS = 160_000
ROOT_POLYS = 4_000


def kernel() -> int:
    acc = 0
    for a in range(INT_STEPS):
        acc = (acc * 31 + pow(a, 65537, 1_000_003)) % 1_000_003
    coeffs = np.random.default_rng(0).standard_normal((ROOT_POLYS, 9))
    for c in coeffs:
        acc += int(np.abs(np.roots(c)).argmax())
    return acc


if __name__ == "__main__":
    np.roots(np.ones(9))  # finish numpy's lazy imports outside the timing
    t0 = time.perf_counter()
    kernel()
    print(time.perf_counter() - t0)
