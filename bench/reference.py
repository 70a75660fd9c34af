"""Fixed reference work, timed by bench/run.py before and after every pass.

The speed of a shared host drifts by tens of percent over seconds to
minutes, and the drift slows this script and trm alike.  run.py times this
script from spawn to exit, like an operation, and scales the end-to-end
times of each pass by REFERENCE_S / (mean time of this script just before
and just after the pass).  The work mixes the
kinds of cost trm has: interpreter start and the numpy import, many
small numpy calls, large numpy batches, and small Python objects.  It uses
no trm code, so no change to trm can move it.
"""

from __future__ import annotations

import math

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    for _ in range(1500):
        e = rng.standard_exponential((64, 3))
        (e / e.sum(axis=1, keepdims=True)).argmin(axis=1)
    for _ in range(15):
        e = rng.standard_exponential((65536, 4))
        np.partition(e / e.sum(axis=1, keepdims=True), 1, axis=1)
    total = 0.0
    for i in range(60_000):
        total += math.fsum(tuple(float(c) for c in (i, i + 1, i + 2)))


if __name__ == "__main__":
    main()
