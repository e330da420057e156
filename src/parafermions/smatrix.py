"""Modular S matrices of su(2)_k and su(k)_2.

Three independent routes to the su(k)_2 matrix live here:

* the Weyl-Kac sum over the Weyl group, evaluated as one 2x2
  complementary minor per entry (the oracle),
* the single-term closed form obtained through level-rank duality with
  su(2)_k,
* reconstruction from the orbit representatives via simple-current phases,
  with each weight's orbit read off its labels by orbit_of.

Every phase and conformal dimension is an exact integer over one
denominator per matrix or theory until the final exp/sin in float64.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import (ConsistencyError, ContractViolationError,
                     InvalidRankError, LabelError)

DEFAULT_TOLERANCE = 1e-10


def phase(num, den: int):
    """exp(2 pi i num/den) for integer (arrays) num: the numerator is
    reduced mod den exactly and picks its value from the den roots of
    unity, the one call to exp."""
    return np.exp(2j * np.pi * (np.arange(den) / den))[np.mod(num, den)]


class Label(tuple):
    """Base of the label types: an immutable tuple of the fields that a
    subclass names in _fields, k last, hashed as that plain tuple (in C)
    but equal only to a label of its own type. A subclass canonicalizes
    and validates in __new__, through which pickle and copy rebuild it."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        # never NotImplemented: tuple's reflected == would compare fields
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's !=

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __str__(self):
        return ",".join(map(str, self[:-1]))


class CosetWeight(Label):
    """Label Lam_mu + Lam_nu of an su(k)_2 / diagonal-coset primary, the
    tuple (mu, nu, k).

    Construction canonicalizes: indices reduced mod k (Lam_{k+s} = Lam_s),
    then sorted so mu <= nu.
    """

    __slots__ = ()
    _fields = ("mu", "nu", "k")

    def __new__(cls, mu, nu, k):
        if k < 1:
            raise InvalidRankError(f"need k >= 1, got {k}")
        mu, nu = mu % k, nu % k
        return tuple.__new__(cls, (mu, nu, k) if mu <= nu else (nu, mu, k))

    @property
    def diff(self):
        return self[1] - self[0]


@lru_cache(maxsize=1)  # this level's, shared by every builder
def canonical_weights(k: int):
    """All k(k+1)/2 canonical coset weights, in order of (nu - mu, mu)."""
    if k < 1:
        raise InvalidRankError(f"need k >= 1, got {k}")
    return tuple(CosetWeight(mu, mu + d, k)
                 for d in range(k) for mu in range(k - d))


def canonical_index(mu, nu, k: int):
    """Position of Lam_mu + Lam_nu (0 <= mu <= nu < k, integers or integer
    arrays) in canonical_weights(k)."""
    d = nu - mu
    return d * k - d * (d - 1) // 2 + mu


def weight_arrays(labels):
    """Integer-array views (mu, nu) of a sequence of CosetWeights."""
    return np.array(labels, dtype=np.int64).reshape(-1, 3)[:, :2].T


@lru_cache(maxsize=1)
def canonical_arrays(k: int):
    """weight_arrays(canonical_weights(k)), read-only, once per level."""
    out = weight_arrays(canonical_weights(k))
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class SMatrix:
    """Square complex matrix with an ordered label basis; == is identity
    (max_abs_diff compares entries)."""

    labels: tuple
    entries: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.entries = np.asarray(self.entries, dtype=complex)
        n = len(self.labels)
        if self.entries.shape != (n, n):
            raise ConsistencyError(
                f"matrix shape {self.entries.shape} does not match {n} labels"
            )
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise LabelError(f"the basis repeats labels: {len(self._index)} "
                             f"distinct of {n}")

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LabelError(f"label {label!r} not in basis") from None

    def entry(self, a, b) -> complex:
        return self.entries[self.index(a), self.index(b)]

    def unitarity_defect(self) -> float:
        eye = np.eye(self.dim)
        return float(np.max(np.abs(self.entries @ self.entries.conj().T - eye)))

    def reindexed(self, new_labels) -> "SMatrix":
        """Same matrix in another basis order; new_labels permute the basis."""
        perm = [self.index(lab) for lab in new_labels]
        if len(perm) != self.dim:  # a repeat is refused by SMatrix
            raise LabelError(f"{len(perm)} labels are not a permutation "
                             f"of the {self.dim}-label basis")
        return SMatrix(tuple(new_labels), self.entries[np.ix_(perm, perm)])

    def max_abs_diff(self, other: "SMatrix") -> float:
        """Largest entry difference; other label sets are inconsistent."""
        try:
            aligned = (other if other.labels == self.labels
                       else other.reindexed(self.labels))
        except LabelError as exc:
            raise ConsistencyError(f"label sets differ: {exc}") from None
        return float(np.max(np.abs(self.entries - aligned.entries)))


def s_su2k(k: int) -> SMatrix:
    """su(2)_k S matrix: sqrt(2/(k+2)) sin(pi (l+1)(l'+1)/(k+2))."""
    if k < 1:
        raise InvalidRankError(f"su(2)_k needs level k >= 1, got {k}")
    h = k + 2
    pref = math.sqrt(2.0 / h)
    m = np.arange(1, k + 2)
    entries = pref * np.sin(np.pi * np.outer(m, m) / h)
    return SMatrix(tuple(range(k + 1)), entries.astype(complex))


def s_suk2_weylkac(k: int) -> SMatrix:
    """su(k)_2 S matrix by the Weyl-Kac sum, one 2x2 minor per entry.

    Entry = i^{k(k-1)/2} / sqrt(k h^{k-1}) sum_w eps(w)
            exp(-2 pi i (Lam+rho | w(Lam'+rho)) / h), h = k + 2. W permutes
    the orthogonal coordinates x_j = (k - j) + [j <= mu] + [j <= nu] of
    Lam_mu + Lam_nu + rho, k of the h residues, so past the traceless phase
    exp(2 pi i |x||y| / (k h)) the sum is the minor F[X, Y] of the DFT
    matrix F = [zeta^{-ab}], zeta = exp(2 pi i / h). Jacobi's identity
    (Horn & Johnson, Matrix Analysis) makes it det F (-1)^{m+m'} times
    det(conj(F)/h)[{lo', hi'}, {lo, hi}], m = mu + nu, on the residues
    lo = k - nu, hi = k - mu + 1 that X misses. Level-rank duality is
    usually proved through this identity, so the oracle shares that one
    step with s_suk2_compact but none of its phases, signs or
    normalisation, which are what oracle-vs-compact catches.
    """
    if k < 2:
        raise InvalidRankError(f"su(k)_2 needs k >= 2, got {k}")
    h = k + 2
    labels, (mu, nu) = canonical_weights(k), canonical_arrays(k)
    lo, hi = k - nu, k - mu + 1  # the residues x misses
    size = h * (h - 1) // 2 - lo - hi  # |x|
    r = np.arange(h)
    pref = (1j ** (k * (k - 1) // 2 % 4) / math.sqrt(k * h)
            * np.linalg.det(phase(-np.outer(r, r), h) / math.sqrt(h)))
    parity = (-1) ** (mu + nu)
    shift = np.outer(size, size)
    minor = (phase(k * (np.outer(lo, lo) + np.outer(hi, hi)) + shift, k * h)
             - phase(k * (np.outer(lo, hi) + np.outer(hi, lo)) + shift, k * h))
    return SMatrix(labels, pref * np.outer(parity, parity) * minor)


def s_suk2_compact(k: int) -> SMatrix:
    """su(k)_2 S matrix in the level-rank closed form.

    Entry ((mu,nu),(rho,sigma)) =
      2/sqrt(k(k+2)) exp(2 pi i (mu+nu)(rho+sigma)/(2k))
                     sin(pi (nu-mu+1)(sigma-rho+1)/(k+2)).
    """
    if k < 2:
        raise InvalidRankError(f"su(k)_2 needs k >= 2, got {k}")
    labels, (mu, nu) = canonical_weights(k), canonical_arrays(k)
    m, l = mu + nu, nu - mu
    sine = np.sin(np.pi * np.outer(l + 1, l + 1) / (k + 2))
    entries = 2.0 / math.sqrt(k * (k + 2)) * phase(np.outer(m, m), 2 * k) * sine
    return SMatrix(labels, entries)


def level_rank_entry(a: CosetWeight, b: CosetWeight, k: int) -> complex:
    """su(k)_2 entry for two orbit representatives (0, l), (0, l').

    Level-rank duality: sqrt(2/k) exp(2 pi i l l'/(2k)) S^{su(2)_k}_{l,l'};
    the Young-tableau box counts |Lam_0 + Lam_l| = l and the one-column to
    one-row transposition are baked in.
    """
    if a.k != k or b.k != k:
        raise ContractViolationError("weights must share k")
    if a.mu != 0 or b.mu != 0:
        raise ContractViolationError(
            f"level_rank_entry needs orbit representatives (0, l); got {a}, {b}"
        )
    l, lp = a.nu, b.nu
    s2 = math.sqrt(2.0 / (k + 2)) * math.sin(math.pi * (l + 1) * (lp + 1) / (k + 2))
    root = cmath.exp(2j * math.pi * (l * lp % (2 * k) / (2 * k)))  # as phase()
    return math.sqrt(2.0 / k) * root * s2


def orbit_count(k: int) -> int:
    """Number of J-orbits of the su(k)_2 weights, one per l = 0..k // 2."""
    return k // 2 + 1


def orbit_of(mu, nu, k: int):
    """(l, p) with Lam_mu + Lam_nu = J^p (Lam_0 + Lam_l), 0 <= l <= k // 2,
    for 0 <= mu <= nu < k (integers or integer arrays).

    J = 2 Lam_1 shifts both indices by one mod k, so the orbit is fixed by
    d = nu - mu alone (Schellekens & Yankielowicz 1990): the weight is
    J^mu (0, d) when d <= k - d and J^nu (0, k - d) otherwise."""
    d = nu - mu
    near = d <= k - d
    return np.where(near, d, k - d), np.where(near, mu, nu)


def dim_su2k(l: int, k: int) -> Fraction:
    """Conformal dimension of the su(2)_k primary phi_l: l(l+2)/(4(k+2))."""
    if not 0 <= l <= k:
        raise LabelError(f"su(2)_k label needs 0 <= l <= {k}, got {l}")
    return Fraction(l * (l + 2), 4 * (k + 2))


def dim_suk2(w: CosetWeight) -> Fraction:
    """Conformal dimension of the su(k)_2 primary Lam_mu + Lam_nu."""
    k, mu, nu = w.k, w.mu, w.nu
    num = 2 * mu * (k - nu) + (k + 1) * (mu * (k - mu) + nu * (k - nu))
    return Fraction(num, 2 * k * (k + 2))


def monodromy_charge(power_mu: int, w: CosetWeight) -> Fraction:
    """Monodromy charge of w under J^power_mu, reduced to (-1, 0].

    Computed as -mu(rho+sigma)/k and cross-checked against the
    dimension-difference definition; a mismatch is a programming error.
    """
    k = w.k
    q = _reduce_charge(Fraction(-power_mu * (w.mu + w.nu), k))
    via_dims = _monodromy_via_dims(power_mu, w)
    if q != via_dims:
        raise ConsistencyError(
            f"monodromy charge mismatch for J^{power_mu} on {w}: {q} vs {via_dims}"
        )
    return q


def _monodromy_via_dims(power_mu: int, w: CosetWeight) -> Fraction:
    k = w.k
    target = CosetWeight(w.mu + power_mu, w.nu + power_mu, k)
    current = CosetWeight(power_mu, power_mu, k)
    return _reduce_charge(dim_suk2(target) - dim_suk2(w) - dim_suk2(current))


def _reduce_charge(q: Fraction) -> Fraction:
    r = q % 1
    return r - 1 if r > 0 else r


def simple_current_extend(representative_row, k: int) -> SMatrix:
    """Full su(k)_2 matrix from its orbit-representative block.

    representative_row maps (l, l') pairs of representative nu-indices to
    the complex entries S_{(0,l),(0,l')}. Rows and columns are filled with
    the simple-current phases exp(-2 pi i Q_{J^p}); the result is checked
    against the closed form to DEFAULT_TOLERANCE.
    """
    if k < 2:
        raise InvalidRankError(f"su(k)_2 needs k >= 2, got {k}")
    labels, (mu, nu) = canonical_weights(k), canonical_arrays(k)
    rep, power = orbit_of(mu, nu, k)
    r = orbit_count(k)
    block = np.array([[representative_row[(a, b)] for b in range(r)]
                      for a in range(r)], dtype=complex)
    # S_{J^p(0,ra), J^q(0,rb)} picks up e^{-2 pi i Q} per action
    entries = (phase(np.outer(power, mu + nu) + np.outer(rep, power), k)
               * block[np.ix_(rep, rep)])
    out = SMatrix(labels, entries)
    defect = out.max_abs_diff(s_suk2_compact(k))
    if not defect < DEFAULT_TOLERANCE:
        raise ConsistencyError(
            f"simple-current extension inconsistent at k={k}: defect {defect:g}"
        )
    return out


def orbit_basis(k: int):
    """Canonical weights grouped orbit by orbit, (mu, nu)-sorted inside.

    For k=3 this is the ordering [00, 11, 22, 01, 02, 12] of the 6x6
    reference matrix.
    """
    if k < 2:
        raise InvalidRankError(f"su(k)_2 needs k >= 2, got {k}")
    labels, (mu, nu) = canonical_weights(k), canonical_arrays(k)
    l, _ = orbit_of(mu, nu, k)
    return tuple(labels[i] for i in np.lexsort((nu, mu, l)))
