"""Machine-speed reference: fixed kernels timed beside the benchmark's ops.

On a shared host the same op runs up to ~1.4x slower for minutes at a time
(measured on a 2-vCPU VM: a pure-Python loop drifted from 12 to 17 ms over
seven minutes, with no steal time). The drift moves every timing of a run
alike, so the benchmark times a kernel that never changes between its ops
and reports each gated time at the reference speed:

    time at reference speed = wall time * nominal / median kernel time

The wall times stay in the detail line. A change to hcmkit moves the op
times and not the kernel, so it shows in full; a slower or faster host
moves both and cancels out.

There is one kernel per kind of work hcmkit does, and each phase of a run
is scaled by the kernel of the work that dominates it:
- `interp`: interpreted float arithmetic, like the RK4 loops of snapdyn
  and swim;
- `lapack`: a symmetric eigensolve, like buckling's;
- `fault`: faulting in fresh memory pages, like the imports that dominate
  every CLI call and set-up (a bare interpreter start, tried first, jumped
  between 16 and 32 ms from run to run while the CLI calls did not).
"""

from __future__ import annotations

import functools
import math
import mmap
import statistics
import time

# Median kernel times on the 2-vCPU VM the baseline was measured on; they
# only fix the scale of the reported times.
NOMINAL_MS = {"interp": 7.0, "lapack": 5.5, "fault": 12.0}
INTERVAL_S = 1.0  # least wall time between two samplings in the timed loop
LOOP_SAMPLES = 5  # kernel runs per sampling
_N_LOOP = 50000
_EIG_SIZE = 96
_N_EIG = 6
_FAULT_BYTES = 16 << 20
_PAGE = 4096


@functools.cache
def _matrix():
    # numpy loads on first use, after the caller has pinned the BLAS threads.
    import numpy as np

    i = np.arange(_EIG_SIZE)
    return np.cos(np.add.outer(i, i) * 0.37) + np.diag(np.sin(i) + 4.0)


def _interp() -> None:
    s, v = 0.1, 0.0
    for _ in range(_N_LOOP):
        a = -math.sin(s) - 0.3 * v
        s += 1e-3 * v
        v += 1e-3 * a


def _lapack() -> None:
    import numpy as np

    a = _matrix()
    for _ in range(_N_EIG):
        np.linalg.eigh(a)


def _fault() -> None:
    # A fresh anonymous mapping each time: malloc would reuse warm pages.
    with mmap.mmap(-1, _FAULT_BYTES) as buf:
        buf[::_PAGE] = b"\1" * (_FAULT_BYTES // _PAGE)


KERNELS = {"interp": _interp, "lapack": _lapack, "fault": _fault}


def sample_ms(kind: str) -> float:
    """Wall time of one run of a kernel, in ms."""
    fn = KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


class Meter:
    """Samples of one kernel, taken between ops at most once per INTERVAL_S."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self._last = -math.inf

    def take(self, n: int = LOOP_SAMPLES) -> None:
        self.samples += [sample_ms(self.kind) for _ in range(n)]
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that takes a wall time of this run to reference speed."""
        return NOMINAL_MS[self.kind] / self.median_ms()
