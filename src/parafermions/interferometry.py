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

from .errors import ConsistencyError, ContractViolationError
from .fusion import find_vacuum
from .smatrix import DEFAULT_TOLERANCE, SMatrix


@dataclass(frozen=True)
class Monodromy:
    """Expectation value of one anyon encircling another."""

    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return cmath.phase(self.value)


def monodromy_row(s: SMatrix, probe) -> np.ndarray:
    """M_probe,x = S_probe,x S_00 / (S_0,probe S_0x) for all x (S_0x > 0).
    Raises at the first x with not |M| <= 1 + DEFAULT_TOLERANCE (inf, NaN)."""
    vac, ip = find_vacuum(s), s.index(probe)
    row = (s.entries[ip] * s.entries[vac, vac]
           / (s.entries[vac, ip] * s.entries[vac]))
    bad = np.flatnonzero(~(np.abs(row) <= 1 + DEFAULT_TOLERANCE))
    if len(bad):
        raise ConsistencyError(
            f"monodromy magnitude {abs(row[bad[0]]):g} exceeds 1 for "
            f"{probe!r}, {s.labels[bad[0]]!r}"
        )
    return row


def monodromy(s: SMatrix, a, b) -> Monodromy:
    """M_ab, one entry of monodromy_row(s, a)."""
    return Monodromy(complex(monodromy_row(s, a)[s.index(b)]))


@dataclass(frozen=True)
class InterferencePattern:
    """Sampled sigma_xx sweep over one period of the Abelian phase."""

    alpha_samples: tuple
    sigma_xx: tuple
    monodromy: Monodromy


def sigma_xx_curve(s: SMatrix, a, b, t1: complex, t2: complex,
                   n_samples: int) -> InterferencePattern:
    """sigma_xx(alpha) = |t1|^2 + |t2|^2 + 2 Re(t1* t2 e^{i alpha} M_ab),
    sampled uniformly on [0, 2 pi). Every sample is at most
    (|t1| + |t2|)^2, as |M_ab| <= 1; the amplitudes are refused unless
    that bound is finite (a NaN amplitude included)."""
    if n_samples < 2:
        raise ContractViolationError(
            f"need at least 2 samples, got {n_samples}")
    size = math.hypot(t1.real, t1.imag) + math.hypot(t2.real, t2.imag)
    if not math.isfinite(size * size):  # hypot and * overflow to inf
        raise ContractViolationError(
            f"amplitudes t1={t1}, t2={t2}: (|t1| + |t2|)^2 is not finite")
    mono = monodromy(s, a, b)
    alphas = 2 * np.pi * np.arange(n_samples) / n_samples
    base = abs(t1) ** 2 + abs(t2) ** 2
    cross = np.conj(t1) * t2 * np.exp(1j * alphas) * mono.value
    sigma = base + 2 * cross.real
    return InterferencePattern(
        alpha_samples=tuple(alphas.tolist()),
        sigma_xx=tuple(sigma.tolist()),
        monodromy=mono,
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
    |M| is 1) and phase for each bulk candidate: abs and cmath.phase of
    its entry in the probe's monodromy row, gathered once; flags
    non-Abelian whenever |M| < 1 by more than DEFAULT_TOLERANCE."""
    bulks = tuple(bulk_candidates)
    row = monodromy_row(s, probe)[[s.index(b) for b in bulks]].tolist()
    return tuple(DetectionRow(b, size, cmath.phase(m),
                              abs(size - 1) > DEFAULT_TOLERANCE)
                 for b, m, size in zip(bulks, row, map(abs, row)))
