"""Fusion rings and modular-group verification.

Fusion coefficients come from three independent sources: the Verlinde
formula applied to any unitary S matrix, the su(2)_k truncated
Clebsch-Gordan closed form, and the diagonal-coset closed form. The
acceptance suite pins all three against each other.
"""

from __future__ import annotations

import cmath
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coset import LmLabel, from_lm
from .errors import (
    ConsistencyError,
    ContractViolationError,
    LabelError,
    NegativeFusionError,
    NonIntegerFusionError,
    ResourceError,
    VacuumError,
)
from . import smatrix as sm
from .smatrix import CosetWeight, SMatrix

INTEGRALITY_TOLERANCE = 1e-8
# Labels per block of the Verlinde sum and of each associativity slice,
# whose temporaries are O(LABEL_BLOCK n^2): 2 to 8 time alike at n = 55
# and 105, 16 and 32 are slower.
LABEL_BLOCK = 8
# Bytes per n^3 budgeted for `verlinde` including `check_axioms`: the
# int64 tensor and its float64 copy plus O(LABEL_BLOCK n^2) block
# temporaries; the tracemalloc peak measures 19.5 n^3 at n = 55, 17.8 at
# 105 and 16.8 at 231, and tests/test_fusion.py pins it below this.
VERLINDE_BYTES_PER_CUBE = 32
EXACT_FLOAT_INT = 2 ** 53  # float64 holds every integer below this exactly
# Below 2^25: with max|N|^2 n < 2^53, int64 sums stay exact for n < 2^12.
CERTIFICATE_PRIME = 2 ** 25 - 39


def memory_budget() -> int:
    """Bytes one fusion computation may hold: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def require_budget(need: int, what: str) -> None:
    """Raise ResourceError, before allocating, when `what` needs more
    than `memory_budget()` bytes."""
    budget = memory_budget()
    if need > budget:
        raise ResourceError(
            f"{what} needs about {need / 2 ** 20:.0f} MiB, over the budget "
            f"of {budget / 2 ** 20:.0f} MiB (half of physical memory)"
        )


def find_vacuum(s: SMatrix) -> int:
    """Index of the unique row that is entrywise real and strictly positive.

    Only the imaginary parts are held to DEFAULT_TOLERANCE: the vacuum
    entries 1/D shrink with k, and every other row of a unitary S is
    orthogonal to the positive vacuum row, so it has an entry with
    negative real part."""
    imag = np.max(np.abs(s.entries.imag), axis=1)
    rows = np.flatnonzero((imag < sm.DEFAULT_TOLERANCE)
                          & (np.min(s.entries.real, axis=1) > 0))
    if len(rows) != 1:
        raise VacuumError(
            f"expected exactly one real-positive row, found {len(rows)}"
        )
    return int(rows[0])


@dataclass
class FusionRing:
    """N[a][b][c] tensor over an ordered label basis."""

    labels: tuple
    tensor: np.ndarray  # integer, shape (n, n, n)
    vacuum_index: int
    generators: tuple = field(init=False, default=())  # set by check_axioms
    _index: dict = field(init=False, repr=False)
    _nonzero: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LabelError(f"label {label!r} not in basis") from None

    def coefficient(self, a, b, c) -> int:
        return int(self.tensor[self.index(a), self.index(b), self.index(c)])

    def product(self, a, b) -> Counter:
        """Multiset of fusion outcomes of a x b, a fresh Counter read from
        the nonzero table (row ends, labels, counts over the rows (a, b))
        that the first lookup builds."""
        if self._nonzero is None:
            dim = len(self.labels)
            flat = self.tensor.reshape(dim * dim, dim)
            rows, cols = np.nonzero(flat)
            ends = np.cumsum(np.bincount(rows, minlength=dim * dim))
            self._nonzero = ([0, *ends.tolist()],
                             [self.labels[c] for c in cols.tolist()],
                             flat[rows, cols].tolist())
        ends, outcomes, counts = self._nonzero
        row = self.index(a) * len(self.labels) + self.index(b)
        lo, hi = ends[row], ends[row + 1]
        return Counter(dict(zip(outcomes[lo:hi], counts[lo:hi])))

    def check_axioms(self) -> tuple:
        """Commutativity, vacuum identity and exact associativity
        sum_e N_ab^e N_ec^d = sum_f N_bc^f N_af^d for each a in the
        generating set G (returned), in O(n^3) memory. That covers every a:
        the a with vanishing associator form a subspace that holds the
        vacuum and each product gu of its members, ((gu)x)y = g((ux)y) =
        g(u(xy)) = (gu)(xy), so every word over G. With N commutative the
        slice of a is N_a N_b = N_b N_a for the matrices (N_x)_cd = N_xc^d,
        run over blocks of LABEL_BLOCK labels b so each block reads N once.
        Float64 sums are exact integers below max|N|^2 n < 2^53."""
        n = self.tensor
        dim = len(self.labels)
        if np.any(n != np.swapaxes(n, 0, 1)):
            raise ConsistencyError("fusion tensor is not commutative")
        vac = n[self.vacuum_index]
        if np.any(vac != np.eye(dim, dtype=n.dtype)):
            raise ConsistencyError("vacuum does not act as the identity")
        largest = int(np.max(np.abs(n)))
        if largest ** 2 * dim >= EXACT_FLOAT_INT:
            raise ConsistencyError(
                f"coefficients up to {largest} are too large for an exact "
                "float64 associativity check"
            )
        self.generators = _generating_set(n, self.vacuum_index)
        nf = n.astype(np.float64)
        for a in self.generators:
            for b in range(0, dim, LABEL_BLOCK):
                block = nf[b:b + LABEL_BLOCK]
                lhs = np.matmul(nf[a], block)  # [b, c, d]: sum_e N_ac^e N_eb^d
                rhs = block.reshape(-1, dim) @ nf[a]  # [(b, c), d]: N_bc^f N_af^d
                if not np.array_equal(lhs.reshape(rhs.shape), rhs):
                    raise ConsistencyError("fusion tensor is not associative")
        return self.generators


def _generating_set(tensor: np.ndarray, vac: int) -> tuple:
    """Labels G, walked greedily, whose words g1(g2(...(gm vac))) span
    Q^n: a label outside the span joins G, and the span is closed under
    w -> w @ N_g for all of G. The span is kept mod CERTIFICATE_PRIME in
    reduced row echelon form; rank n mod p means n integer words have a
    nonzero determinant. A bad prime only adds to G."""
    p, dim = CERTIFICATE_PRIME, len(tensor)
    basis, pivots, gens = np.eye(dim, dtype=np.int64)[[vac]], [vac], []
    for a in range(dim):
        if a in pivots and np.count_nonzero(basis[pivots.index(a)]) == 1:
            continue  # e_a = a vac is spanned already
        gens.append(a)
        rows = basis @ tensor[a] % p
        while len(rows):  # reduce, add the new pivots, multiply the new rows
            start, rows = len(pivots), (rows - rows[:, pivots] @ basis) % p
            while len(rows := rows[rows.any(axis=1)]):
                col = int(np.flatnonzero(rows[0])[0])
                top = rows[0] * pow(int(rows[0, col]), -1, p) % p
                rows = (rows - np.outer(rows[:, col], top)) % p
                basis = np.vstack([(basis - np.outer(basis[:, col], top)) % p, top])
                pivots.append(col)
            rows = np.vstack([basis[start:] @ tensor[g] % p for g in gens])
    return tuple(gens)


def verlinde(s: SMatrix) -> FusionRing:
    """N_ab^c = sum_x S_ax S_bx conj(S_cx) / S_vac,x, rounded to integers.

    Raises ResourceError before allocating when the O(n^3) working set
    (fusion tensor and axiom check included) exceeds `memory_budget()`."""
    require_budget(VERLINDE_BYTES_PER_CUBE * s.dim ** 3,
                   f"Verlinde fusion of {s.dim} labels")
    vac = find_vacuum(s)
    ring = FusionRing(labels=s.labels,
                      tensor=_verlinde_tensor(s, vac),
                      vacuum_index=vac)
    ring.check_axioms()
    return ring


def _verlinde_tensor(s: SMatrix, vac: int):
    """The Verlinde sum one block of LABEL_BLOCK labels a at a time, each a
    (block n, n) x (n, n) BLAS product rounded into the int64 tensor, then
    checked integral (sqrt of the largest (re - round)^2 + im^2 over all
    blocks, below INTEGRALITY_TOLERANCE) and non-negative; each block's
    complex temporaries die with it."""
    n = s.dim
    weighted = s.entries / s.entries[vac]  # divide inside the x-sum
    conj_t = s.entries.conj().T
    tensor = np.empty((n, n, n), dtype=np.int64)
    worst = 0.0
    for start in range(0, n, LABEL_BLOCK):
        rows = s.entries[start:start + LABEL_BLOCK]
        raw = (rows[:, None, :] * weighted[None]).reshape(-1, n) @ conj_t
        rounded = np.round(raw.real)
        dev = raw.real - rounded
        dev *= dev
        dev += np.square(raw.imag, out=raw.imag)
        worst = np.maximum(worst, dev.max())  # a NaN stays
        tensor[start:start + LABEL_BLOCK] = rounded.reshape(-1, n, n)
    residual = float(np.sqrt(worst))
    if not residual < INTEGRALITY_TOLERANCE:
        raise NonIntegerFusionError(
            f"Verlinde residual {residual:g} >= {INTEGRALITY_TOLERANCE:g}"
        )
    if tensor.min() < 0:
        raise NegativeFusionError("negative Verlinde coefficient")
    return tensor


def fusion_su2k_closed(l: int, l2: int, k: int) -> set:
    """Truncated su(2)_k rule: |l-l2| .. min(l+l2, 2k-l-l2) in steps of 2."""
    if not (0 <= l <= k and 0 <= l2 <= k):
        raise LabelError(f"labels must lie in 0..{k}, got {l}, {l2}")
    return set(range(abs(l - l2), min(l + l2, 2 * k - l - l2) + 1, 2))


def fusion_coset_closed(a: CosetWeight, b: CosetWeight) -> Counter:
    """Closed-form coset fusion of Lam_mu+Lam_nu with Lam_mu'+Lam_nu'.

    Routed through the su(2)_k / u(1)_{2k} correspondence: the l = nu - mu
    labels fuse by the truncated su(2)_k rule, the m = mu + nu labels add,
    and each outcome maps back through the inverse correspondence with
    mod-k canonicalization. Distinct su(2)_k channels can land on the same
    canonical weight; each field enters the product once (all coset fusion
    multiplicities are 0 or 1).
    """
    if a.k != b.k:
        raise ContractViolationError("weights must share k")
    k = a.k
    m_total = (a.mu + a.nu) + (b.mu + b.nu)
    fields = {from_lm(LmLabel(l2, m_total, k))
              for l2 in fusion_su2k_closed(a.diff, b.diff, k)}
    return Counter({w: 1 for w in fields})


def coset_fusion_tensor(k: int) -> np.ndarray:
    """fusion_coset_closed for every pair at once: the closed form
    N[a, b, c] over canonical_weights(k) as one int8 array of 0s and 1s.
    Outcome l'' of the su(2)_k rule, with m = m_a + m_b, is the weight
    ((m - l'')/2, (m + l'')/2) mod k."""
    mu, nu = sm.weight_arrays(sm.canonical_weights(k))
    l, m = nu - mu, mu + nu
    la, lb, lc = l[:, None, None], l[None, :, None], np.arange(k + 1)
    a, b, out = np.nonzero((lc >= abs(la - lb))
                           & (lc <= np.minimum(la + lb, 2 * k - la - lb))
                           & ((lc - la - lb) % 2 == 0))
    x, y = (m[a] + m[b] - out) // 2 % k, (m[a] + m[b] + out) // 2 % k
    tensor = np.zeros((len(l),) * 3, dtype=np.int8)
    tensor[a, b, sm.canonical_index(np.minimum(x, y), np.maximum(x, y), k)] = 1
    return tensor


def quantum_dimensions(s: SMatrix) -> dict:
    """d_a = S_{vac,a}/S_{vac,vac}; raises if any d_a dips below 1."""
    vac = find_vacuum(s)
    row = s.entries[vac].real
    dims = {lab: float(row[i] / row[vac]) for i, lab in enumerate(s.labels)}
    bad = [lab for lab, d in dims.items() if d < 1 - sm.DEFAULT_TOLERANCE]
    if bad:
        raise VacuumError(f"quantum dimensions below 1 for {bad}; wrong vacuum?")
    return dims


def total_quantum_dimension(s: SMatrix) -> float:
    vac = find_vacuum(s)
    return float(1.0 / s.entries[vac, vac].real)


@dataclass(frozen=True)
class TData:
    """Diagonal T matrix data: exact dimensions and central charge."""

    dims: dict  # label -> Fraction
    central_charge: Fraction

    def phase(self, label) -> complex:
        q = Fraction(self.dims[label]) - self.central_charge / 24
        return cmath.exp(2j * math.pi * float(q % 1))

    def matrix(self, labels) -> np.ndarray:
        return np.diag([self.phase(lab) for lab in labels])


@dataclass(frozen=True)
class ModularReport:
    """Max residuals of the modular-group relations on (S, T); the caller
    compares them with its tolerance."""

    s2_defect: float
    st3_defect: float
    c2_defect: float
    unitarity_defect: float
    conjugation_is_permutation: bool


def verify_modular_relations(s: SMatrix, t: TData) -> ModularReport:
    """Residuals of S S^dag = I, S^2 = C, (ST)^3 = C and C^2 = I, with C
    the rounded real part of S^2. conjugation_is_permutation is
    structural: C has entries in {-1, 0, 1}, one nonzero per row and per
    column; how close S^2 comes to C is s2_defect."""
    s2 = s.entries @ s.entries
    snapped = np.round(s2.real).astype(np.int64)
    is_perm = (set(np.unique(snapped)) <= {-1, 0, 1}
               and bool(np.all(np.abs(snapped).sum(axis=0) == 1))
               and bool(np.all(np.abs(snapped).sum(axis=1) == 1)))
    c = snapped.astype(float)
    st = s.entries @ t.matrix(s.labels)
    st3 = st @ st @ st
    return ModularReport(
        s2_defect=float(np.max(np.abs(s2 - c))),
        st3_defect=float(np.max(np.abs(st3 - c))),
        c2_defect=float(np.max(np.abs(c @ c - np.eye(s.dim)))),
        unitarity_defect=s.unitarity_defect(),
        conjugation_is_permutation=is_perm,
    )
