"""Fabry-Perot interferometer observables.

The backscattered conductivity of a two-point-contact device oscillates
in the Abelian phase alpha with an amplitude set by the monodromy of the
probe quasiparticle around the bulk one; |monodromy| < 1 is the
signature of a non-Abelian bulk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, SamplingError
from .fusion import find_vacuum
from .smatrix import DEFAULT_TOLERANCE, SMatrix


@dataclass(frozen=True)
class Monodromy:
    """Expectation value of one anyon encircling another."""

    bulk: object
    probe: object
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return cmath.phase(self.value)


def monodromy(s: SMatrix, a, b, vac: int | None = None) -> Monodromy:
    """S_ab S_00 / (S_0a S_0b) with 0 the vacuum row, found unless given."""
    if vac is None:
        vac = find_vacuum(s)
    ia, ib = s.index(a), s.index(b)
    denom = s.entries[vac, ia] * s.entries[vac, ib]
    if denom == 0:
        raise ConsistencyError(
            f"vanishing vacuum entries for {a!r}, {b!r}; S matrix is not "
            "valid modular data"
        )
    value = s.entries[ia, ib] * s.entries[vac, vac] / denom
    if not abs(value) <= 1 + DEFAULT_TOLERANCE:  # a NaN fails
        raise ConsistencyError(
            f"monodromy magnitude {abs(value):g} exceeds 1 for {a!r}, {b!r}"
        )
    return Monodromy(bulk=b, probe=a, value=complex(value))


@dataclass(frozen=True)
class InterferencePattern:
    """Sampled sigma_xx sweep over one period of the Abelian phase."""

    alpha_samples: tuple
    sigma_xx: tuple
    t1: complex
    t2: complex
    monodromy: Monodromy


def sigma_xx_curve(s: SMatrix, a, b, t1: complex, t2: complex,
                   n_samples: int) -> InterferencePattern:
    """sigma_xx(alpha) = |t1|^2 + |t2|^2 + 2 Re(t1* t2 e^{i alpha} M_ab),
    sampled uniformly on [0, 2 pi)."""
    if n_samples < 2:
        raise SamplingError(f"need at least 2 samples, got {n_samples}")
    mono = monodromy(s, a, b)
    alphas = 2 * np.pi * np.arange(n_samples) / n_samples
    base = abs(t1) ** 2 + abs(t2) ** 2
    cross = np.conj(t1) * t2 * np.exp(1j * alphas) * mono.value
    sigma = base + 2 * cross.real
    return InterferencePattern(
        alpha_samples=tuple(float(x) for x in alphas),
        sigma_xx=tuple(float(x) for x in sigma),
        t1=complex(t1), t2=complex(t2), monodromy=mono,
    )


@dataclass(frozen=True)
class DetectionRow:
    """One bulk candidate in a detection scan."""

    bulk: object
    magnitude: float
    phase: float
    non_abelian: bool


def detection_report(s: SMatrix, probe, bulk_candidates) -> tuple:
    """Monodromy magnitude (the visibility relative to a vacuum bulk, whose
    |M| is 1) and phase for each bulk candidate; flags non-Abelian
    whenever |M| < 1 by more than DEFAULT_TOLERANCE."""
    vac = find_vacuum(s)
    rows = []
    for bulk in bulk_candidates:
        m = monodromy(s, probe, bulk, vac)
        rows.append(DetectionRow(
            bulk=bulk,
            magnitude=m.magnitude,
            phase=m.phase,
            non_abelian=not math.isclose(m.magnitude, 1.0,
                                         abs_tol=DEFAULT_TOLERANCE),
        ))
    return tuple(rows)
