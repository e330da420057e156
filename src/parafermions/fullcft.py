"""The full Z_k Read-Rezayi modular data and its charge lattice.

Sectors carry a u(1) charge label l mod k+2 and a parafermion label
rho mod k tied together by the Z_k pairing rule. The full S matrix is
assembled two ways: as k * S^{u(1)} * S^{coset} on the induced labels,
and from a single-term closed form; both must agree entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import coset as co
from . import smatrix as sm
from .errors import ConsistencyError, InvalidRankError, LabelError
from .smatrix import CosetWeight, SMatrix, canonical_index


class FullSector(sm.Label):
    """Read-Rezayi sector (l mod k+2, rho mod k) obeying the pairing rule,
    the tuple (l, rho, k)."""

    __slots__ = ()
    _fields = ("l", "rho", "k")

    def __new__(cls, l, rho, k):
        l, rho, k = cls._checked(l, rho, k)
        l, rho = l % (k + 2), rho % k
        if (l - rho) % k > rho:
            raise LabelError(f"(l, rho) = ({l}, {rho}) violates the Z_k "
                             f"pairing rule at k={k}")
        return tuple.__new__(cls, (l, rho, k))

    @property
    def neutral(self) -> CosetWeight:
        """Induced parafermion label Lam_{(l-rho) mod k} + Lam_{rho}."""
        return CosetWeight((self.l - self.rho) % self.k, self.rho, self.k)


@lru_cache(maxsize=1)  # this level's, shared read-only by every builder
def sector_arrays(k: int):
    """Integer views (l, rho, L, d, neutral) of enumerate_sectors(k): L is
    full_s_compact's lifted charge, d = (2 rho - l) mod k and neutral the
    index of the induced parafermion label in canonical_weights(k)."""
    if k < 1:
        raise InvalidRankError(f"need k >= 1, got {k}")
    l, rho = np.divmod(np.arange((k + 2) * k), k)
    allowed = (l - rho) % k <= rho  # the Z_k pairing rule
    l, rho = l[allowed], rho[allowed]
    mu = (l - rho) % k
    lifted = l + (k + 2) * ((mu - (l - rho)) // k)
    out = l, rho, lifted, (2 * rho - l) % k, canonical_index(mu, rho, k)
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=1)
def enumerate_sectors(k: int):
    """All allowed (l, rho), lexicographic; count is (k+1)(k+2)/2."""
    l, rho = sector_arrays(k)[:2]
    return tuple(FullSector(a, b, k) for a, b in zip(l.tolist(), rho.tolist()))


def s_u1(k: int) -> SMatrix:
    """u(1)_{k(k+2)} S matrix: (1/sqrt(k(k+2))) exp(-2 pi i l l'/(k(k+2)))."""
    if k < 1:
        raise InvalidRankError(f"need k >= 1, got {k}")
    n = k * (k + 2)
    m = np.arange(n)
    entries = sm.phase(-np.outer(m, m), n) / math.sqrt(n)
    return SMatrix(tuple(range(n)), entries)


def full_s_product(k: int) -> SMatrix:
    """k * S^{u(1)}_{l,l'} * S^{coset} on the induced neutral labels.

    The u(1) label of sector (l, rho) inside u(1)_{k(k+2)} is l itself;
    periodicity l -> l + k+2 is absorbed by the parafermion label through
    the pairing rule. So only the block l, l' < k+2 of s_u1 is built, and
    the coset S is su(k)_2's (coset_s_compact without its dimensions).
    """
    if k < 2:
        raise InvalidRankError(f"need k >= 2, got {k}")
    l, _, _, _, neutral = sector_arrays(k)
    # the coset factor first, so that the compact S is freed before the
    # charge factor is gathered; the product keeps the charge on the left
    entries = sm.gather(sm.s_suk2_compact(k).entries, neutral)
    q = np.arange(k + 2)  # the grid of l
    charged = sm.phase(-np.outer(q, q), k * (k + 2)) / math.sqrt(k * (k + 2))
    np.multiply(sm.gather(k * charged, l), entries, out=entries)
    return SMatrix(enumerate_sectors(k), entries)


def full_s_compact(k: int) -> SMatrix:
    """Single-term closed form of the full S matrix.

    Entry = (2/(k+2)) exp(i pi L L'/(k+2)) sin(pi (d+1)(d'+1)/(k+2)) with
    d = (2 rho - l) mod k and L the representative of l mod k(k+2) for
    which (l - rho)/k rounds the induced mu into 0..k-1.
    """
    if k < 2:
        raise InvalidRankError(f"need k >= 2, got {k}")
    _, _, lifted, d, _ = sector_arrays(k)
    r = np.arange(2 * (k + 2))  # the grid of L mod 2(k+2)
    e = np.arange(1, k + 1)  # the grid of d + 1
    charge = (2.0 / (k + 2)) * sm.phase(np.outer(r, r), 2 * (k + 2))
    entries = sm.gather(charge, lifted % (2 * (k + 2)))
    entries *= sm.gather(np.sin(np.pi * np.outer(e, e) / (k + 2)), d)
    return SMatrix(enumerate_sectors(k), entries)


def full_dims(k: int) -> dict:
    """Sector dimensions (2 l^2 + coset numerator of the neutral label) /
    (4k(k+2)), l^2/(2k(k+2)) + coset dimension, used only in T phases.

    The full theory extends the coset by the electron, a simple current
    of weight 3/2, so each weight is well defined only mod 1/2 along its
    simple-current orbit. These weights therefore fix T only up to a sign
    per sector, while T^2 is well defined; only <S, T^2> acts."""
    if k < 2:
        raise InvalidRankError(f"need k >= 2, got {k}")
    l, rho = sector_arrays(k)[:2]
    num = 2 * l * l + co.dimension_numerators((l - rho) % k, rho, k)
    return {s: Fraction(x, 4 * k * (k + 2))
            for s, x in zip(enumerate_sectors(k), num.tolist())}


def full_central_charge(k: int) -> Fraction:
    return 1 + co.central_charge(k)


@dataclass(frozen=True)
class ChargeLattice:
    """Integer Gram matrix G of the (2k-1)-dimensional charge lattice and
    its charge vector Q, checked positive definite on construction.

    pivots: the diagonal of one fraction-free (Bareiss) elimination of
    [G | Q] with the row [Q^T | 0] appended, without row exchanges, one
    block update per pivot: in int64 while the trailing block's entries
    are below 2^31 in magnitude, so that each product fits 63 bits, then
    in Python ints (an object array), exact for every input. By
    Sylvester's identity pivot m <= dim is the m-th leading principal
    minor of G, all > 0 exactly when G is positive definite; the last is
    det G * (0 - Q^T G^{-1} Q), the Schur complement of G."""

    k: int
    gram: tuple  # of tuples of int
    charge_vector: tuple
    pivots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        q = self.charge_vector
        rows = [[*row, x] for row, x in zip(self.gram, q)] + [[*q, 0]]
        try:
            a = np.array(rows, dtype=np.int64)
        except OverflowError:
            a = np.array(rows, dtype=object)
        for c in range(len(a)):
            rest = a[c:, c:]
            if a.dtype != object and (rest.max() >= 2 ** 31
                                      or rest.min() <= -2 ** 31):
                a = a.astype(object)  # a product could leave 63 bits
            top = a[c, c]
            if c < self.dim and top <= 0:
                raise ConsistencyError(
                    f"Gram matrix not positive definite at k={self.k}: "
                    f"leading minor {c + 1} is {top}")
            a[c + 1:, c + 1:] = (a[c + 1:, c + 1:] * top - np.multiply.outer(
                a[c + 1:, c], a[c, c + 1:])) // (a[c - 1, c - 1] if c else 1)
        object.__setattr__(self, "pivots", tuple(a.diagonal().tolist()))

    @property
    def dim(self):
        return len(self.gram)


def gram_matrix(k: int) -> ChargeLattice:
    """Corner 3 coupled through single 1s to two A_{k-1} Cartan blocks,
    each 2 on the diagonal and -1 beside it."""
    if k < 1:
        raise InvalidRankError(f"need k >= 1, got {k}")
    n = 2 * k - 1
    g = np.diag([3] + [2] * (n - 1))
    for off in (1, k) if k >= 2 else ():
        g[0, off] = g[off, 0] = 1
        i = np.arange(off, off + k - 2)
        g[i, i + 1] = g[i + 1, i] = -1
    return ChargeLattice(k=k, gram=tuple(map(tuple, g.tolist())),
                         charge_vector=(1,) + (0,) * (n - 1))


def filling_factor(cl: ChargeLattice) -> Fraction:
    """Exact Q^T G^{-1} Q = -(last pivot) / det G from the lattice's
    elimination; `verify` compares it with k/(k+2)."""
    return Fraction(-cl.pivots[-1], cl.pivots[-2])
