"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on hosts whose cores are shared with other tenants.  The
speed one process gets drifts by up to 2x over seconds to minutes, and CPU
time drifts with wall time, so the cause is contention for the shared core,
caches and memory rather than stolen time.  Longer runs do not average the
drift away: on a 2-vCPU x86-64 host, the spread of a fixed verify-small
loop's time over 10 s windows was about as wide as over 30 s windows.

So the benchmark times this kernel right before and right after every op
(the pass after one op is the pass before the next) and scales the op's
time by ``NOMINAL_S`` over the mean of the two passes.  The result is the
op's time on a host that runs the kernel in ``NOMINAL_S``: it moves when the
program does more or less work, and much less when the host slows.  Over
ten seeds per workload at ``--seconds 28`` on that host, the spread of the
loop's wall time (quartile distance over median) was 0.32, 0.19 and 0.13
raw on analyze-large, verify-small and cli-roundtrip, and 0.04, 0.05 and
0.02 host-normalised.

The kernel mixes what the workloads spend their time in -- interpreted
Python, many small dense SVDs and products, and one larger SVD -- and uses
nothing from ``algscope``, so no change to the program moves it.  It adds
about 3 MB to a worker's peak memory, the same on every commit.
"""

from __future__ import annotations

import time

import numpy as np

#: about the median time of one pass on the 2-vCPU x86-64 host (Python
#: 3.11, numpy 2.4, OpenBLAS on one thread) the benchmark was defined on
NOMINAL_S = 0.06

_SMALL_SIZES = (3, 4, 6, 8, 9, 12, 16)
_SMALL_EACH = 70
_LARGE_N = 400
_LOOP = 200_000


class Reference:
    """The reference kernel, with its inputs built once from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((n, n)) for n in _SMALL_SIZES for _ in range(_SMALL_EACH)]
        self._large = rng.standard_normal((_LARGE_N, _LARGE_N))
        # the first pass pays for lazy set-up in numpy and BLAS
        self.time()

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(_LOOP):
            acc += (i * 7) % 13
            if i % 5 == 0:
                seen[i % 97] = acc
        for m in self._small:
            np.linalg.svd(m)
            np.einsum("ij,jk->ik", m, m)
        np.linalg.svd(self._large, compute_uv=False)
        return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for an op bracketed by reference passes of ``before`` and
    ``after`` seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
