"""The Z_k parafermion diagonal coset (su(k)_1 + su(k)_1) / su(k)_2.

The coset S matrix is built three independent ways: the compact closed
form, which is su(k)_2's compact matrix itself (coset_s_compact(k).s is
s_suk2_compact(k)), the phase-conjugate form acting on the su(k)_2
matrix, and the su(2)_k x u(1)_{2k} product construction on (l, m)
labels. `verify`'s `coset-four-way` check compares the three entrywise:
its fourth way, su(k)_2 itself, is the compact form. The acceptance
suite builds all four.
Conformal weights are integer numerators over 4k(k+2), one label-array
broadcast; coset_dimension is the per-label reference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import smatrix as sm
from .errors import InvalidRankError, LabelError
from .smatrix import CosetWeight, SMatrix, canonical_weights


class LmLabel(sm.Label):
    """su(2)_k / u(1)_{2k} coset label, the tuple (l, m, k): l twice the
    spin, m twice the projection. Taken as given, not canonicalized
    (field_identify picks a representative); str is the repr."""

    __slots__ = ()
    _fields = ("l", "m", "k")
    __str__ = sm.Label.__repr__

    def __new__(cls, l, m, k):
        return tuple.__new__(cls, (l, m, k))


@dataclass(frozen=True)
class CosetModularData:
    """Coset S matrix plus the diagonal T data that goes with it."""

    s: SMatrix
    dims: dict
    central_charge: Fraction


def central_charge(k: int) -> Fraction:
    """2(k-1)/(k+2): two su(k)_1 copies minus the diagonal su(k)_2."""
    if k < 2:
        raise InvalidRankError(f"need k >= 2, got {k}")
    return Fraction(2 * (k - 1), k + 2)


def to_lm(w: CosetWeight) -> LmLabel:
    """(mu, nu) -> (l, m) = (nu - mu, mu + nu), before field identification."""
    return LmLabel(l=w.nu - w.mu, m=w.mu + w.nu, k=w.k)


def from_lm(lbl: LmLabel) -> CosetWeight:
    """(l, m) -> (mu, nu) = ((m-l)/2, (m+l)/2), canonicalized mod k."""
    l, m, k = lbl
    if (l - m) % 2 != 0:
        raise LabelError(f"(l, m) = ({l}, {m}) violates l = m mod 2")
    return CosetWeight((m - l) // 2, (m + l) // 2, k)


def field_identify(lbl: LmLabel) -> LmLabel:
    """A label with 0 <= m <= l <= k and l - m even, of the same dimension,
    by Phi^l_{m+2k} = Phi^l_m = Phi^{k-l}_{m-k} and m -> -m (charge
    conjugation: it keeps the dimension, not the field). Not unique per
    field either: at k = 3 the field (1, 1) = (2, -2) gives both (2, 2)
    and (1, 1)."""
    k, l, m = lbl.k, lbl.l, lbl.m
    m = ((m + k - 1) % (2 * k)) - k + 1  # reduce into (-k, k]
    m = abs(m)
    if m > l:
        l, m = k - l, k - m
    if not (0 <= m <= l <= k) or (l - m) % 2 != 0:
        raise LabelError(
            f"no valid representative for (l, m) = ({lbl.l}, {lbl.m}) at k={k}"
        )
    return LmLabel(l=l, m=m, k=k)


def lm_dimension(lbl: LmLabel) -> Fraction:
    """Delta^l_m = l(l+2)/(4(k+2)) - m^2/(4k) on an identified label."""
    k = lbl.k
    return Fraction(lbl.l * (lbl.l + 2), 4 * (k + 2)) - Fraction(lbl.m ** 2, 4 * k)


def coset_dimension(w: CosetWeight) -> Fraction:
    """Conformal dimension of the coset primary labeled by w."""
    return lm_dimension(field_identify(to_lm(w)))


def dimension_numerators(mu, nu, k: int):
    """4k(k+2) coset_dimension(Lam_mu + Lam_nu) for integer arrays 0 <= mu
    <= nu < k: field_identify, then k l(l+2) - (k+2) m^2, as one broadcast."""
    l, m = nu - mu, np.abs((mu + nu + k - 1) % (2 * k) - k + 1)
    l, m = np.where(m > l, k - l, l), np.where(m > l, k - m, m)
    return k * l * (l + 2) - (k + 2) * m * m


def coset_s_compact(k: int) -> CosetModularData:
    """Coset modular data from the closed form (identical to su(k)_2)."""
    s = sm.s_suk2_compact(k)
    num = dimension_numerators(*sm.canonical_arrays(k), k).tolist()
    dims = {w: Fraction(x, 4 * k * (k + 2)) for w, x in zip(s.labels, num)}
    return CosetModularData(s=s, dims=dims, central_charge=central_charge(k))


def coset_s_phase_form(k: int) -> SMatrix:
    """Entry = exp(2 pi i (mu+nu)(rho+sigma)/k) conj(su(k)_2 entry)."""
    base = sm.s_suk2_compact(k)
    m = np.arange(2 * k - 1)  # the grid of mu + nu
    entries = np.conj(base.entries, out=base.entries)  # base is ours alone
    np.multiply(sm.gather(sm.phase(np.outer(m, m), k),
                          sum(sm.canonical_arrays(k))), entries, out=entries)
    return SMatrix(base.labels, entries)


def s_u1_2k(k: int) -> SMatrix:
    """u(1)_{2k} S matrix: (1/sqrt(2k)) exp(-2 pi i m m'/(2k)), m = 0..2k-1."""
    if k < 1:
        raise InvalidRankError(f"need k >= 1, got {k}")
    m = np.arange(2 * k)
    entries = sm.phase(-np.outer(m, m), 2 * k) / math.sqrt(2 * k)
    return SMatrix(tuple(range(2 * k)), entries)


def coset_s_via_su2k_u1(k: int) -> SMatrix:
    """Coset S as 2 S^{su(2)_k}_{l,l'} conj(S^{u(1)_{2k}}_{m,m'}).

    The (l, m) = (nu - mu, mu + nu) labels of the canonical weights
    (to_lm), one-to-one since 0 <= mu <= nu < k, gather the su(2)_k and
    u(1)_{2k} factors.
    """
    if k < 2:
        raise InvalidRankError(f"su(k)_2 needs k >= 2, got {k}")
    labels, (mu, nu) = canonical_weights(k), sm.canonical_arrays(k)
    entries = sm.gather(2 * sm.s_su2k(k).entries, nu - mu)
    entries *= sm.gather(np.conj(s_u1_2k(k).entries), mu + nu)
    return SMatrix(labels, entries)
