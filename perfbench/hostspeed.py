"""The host's current speed, from a fixed reference kernel.

This host is a slice of a shared machine whose speed drifts by up to
1.9x over seconds to minutes, on both vCPUs at once (perfbench/README.md).
A job's wall time alone then measures the host as much as the program.
So the worker times `sample()` in the gaps between jobs and reports each
job's time scaled by NOMINAL_S / (mean of the kernel times in the gaps on
either side of it): the job's time at a host speed where the kernel takes
NOMINAL_S. One 30-ms sample is a rough estimate, since short work and
long work slow down by different amounts; summed over a run's jobs and
rounds, the scaled times spread about half as much as the measured ones.
The kernel mixes the three kinds of work the workloads do.

The kernel takes no input and does the same work in every call.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.03  # the kernel's time on a quiet host, about; a unit only

_TENSOR = (np.arange(20 ** 3, dtype=np.int64) % 3).reshape(20, 20, 20)
_PHASES = np.arange(2520 * 64, dtype=np.int64).reshape(2520, 64)


def _fractions() -> Fraction:
    """Exact rational arithmetic, as in the lattice and closed forms."""
    total = Fraction(0)
    for block in range(32):
        part = Fraction(0)
        for i in range(1, 60):
            part += Fraction(i, i * i + block + 7)
        total += part
    return total


def _tensor() -> int:
    """An integer associativity contraction, as in FusionRing.check_axioms."""
    lhs = np.einsum("abe,ecd->abcd", _TENSOR, _TENSOR)
    rhs = np.einsum("bcf,afd->abcd", _TENSOR, _TENSOR)
    return int(np.count_nonzero(lhs != rhs))


def _phases() -> complex:
    """A sum of roots of unity, as in the Weyl-Kac oracle."""
    return complex(np.exp(-2j * np.pi * (np.mod(_PHASES, 97) / 97)).sum())


def kernel() -> None:
    _fractions()
    _tensor()
    _phases()


def sample() -> float:
    """Seconds one call of the reference kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
