"""Host-speed probe: a fixed piece of work, in the benchmark's own code,
timed between windows of a workload's ops.

The shared host this benchmark runs on changes speed by up to 1.7x over
seconds to minutes, for every kind of work at once (see README.md,
"Host speed").  A run reports its times scaled to a reference speed:
each window's wall times are multiplied by the probe's time at
reference speed over its time around that window.  A change to the
program moves the scaled figures as it moves the wall times; a change of
the host's speed moves the probe too and largely cancels.

The probe uses only Python and numpy, never the program, and is the same
on every commit.  Each workload names the parts that are like its own
work: scalar interpreter code and small arrays for the single-vector and
small-matrix workloads, and large arrays for the grid scans.
Set-up runs in fresh interpreters, which the probe does not follow; its
import part is scaled by a fresh interpreter's import of numpy instead.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

_SYMMETRIC = np.array(
    [[2.0, 0.5, -0.3, 0.1], [0.5, 1.0, 0.2, -0.4], [-0.3, 0.2, 0.7, 0.6], [0.1, -0.4, 0.6, 1.5]]
)
_PAULI_LIKE = np.array([[0.6, 0.8], [0.8, -0.6]])
# about 1 MB, the size of the grid scans' temporaries
_LINE = np.linspace(0.0, 1.0, 125_000)


def _scalar_math() -> float:
    """Interpreter-bound float code: math calls, tuples, a small dict."""
    total = 0.0
    seen = {}
    for i in range(2500):
        x = (i % 97) / 100.0
        y = math.asin(x) + math.sqrt(1.0 - x * x)
        row = (x, y, -x, x * y)
        total += max(row) - min(row)
        seen[i & 63] = row
    return total


def _small_arrays() -> float:
    """Call-bound numpy on 2x2 and 4x4 matrices."""
    total = 0.0
    for _ in range(60):
        m = np.kron(_PAULI_LIKE, _PAULI_LIKE) @ _SYMMETRIC
        total += np.linalg.eigvalsh(_SYMMETRIC + m.T @ m)[0]
        total += np.einsum("ij,ji->", _SYMMETRIC, m)
    return float(total)


def _large_arrays() -> float:
    """Memory-bound numpy on 1 MB arrays."""
    total = 0.0
    for _ in range(3):
        y = np.arcsin(np.sin(_LINE + 0.3)) + _LINE
        total += float(y.sum())
    return total


# Each part with the time one pass takes at reference speed, which is
# about the median speed of the 2-core reference host.  Scaled times read
# as wall times on a host running at that speed.
PARTS = {
    "scalar_math": (_scalar_math, 0.004),
    "small_arrays": (_small_arrays, 0.004),
    "large_arrays": (_large_arrays, 0.009),
}


class Probe:
    """One pass of the named parts of the probe."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[p][0] for p in parts]
        self.reference_s = sum(PARTS[p][1] for p in parts)
        self.run()  # first calls into numpy's routines are not timed

    def run(self) -> float:
        """Seconds one pass takes now."""
        began = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - began

    def scale(self, seconds: float) -> float:
        """Factor that turns wall times measured while a pass took
        `seconds` into times at reference speed."""
        return self.reference_s / seconds


# The start of a fresh interpreter spreads for reasons the probe above
# does not see (README.md, "Host speed"), so the import part of set-up is
# scaled by a fresh interpreter that imports numpy, timed the same way.
IMPORT_REFERENCE_S = 0.11
_IMPORT_CODE = """
from time import perf_counter
began = perf_counter()
import numpy
print(repr(perf_counter() - began))
"""


def import_seconds(timeout: float) -> float:
    """Seconds a fresh interpreter takes to import numpy."""
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])
