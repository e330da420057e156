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
# Labels per block of the current compares and the associativity pairs,
# whose temporaries are O(LABEL_BLOCK n^2): 2 to 8 time alike at n = 55
# and 105, 16 and 32 are slower.
LABEL_BLOCK = 8
# Bytes per n^3 budgeted for `verlinde` including `check_axioms`: the
# int8 tensor, the bool of the commutativity check and O(LABEL_BLOCK n^2)
# temporaries, with no float64 copy (tracemalloc peak 3.5 n^3 at n = 55,
# 2.1 at 231). The `fusion` command charges it too: its peak with the
# document written is 7.0-7.4 n^3 at n = 91..231. Tests pin both below.
VERLINDE_BYTES_PER_CUBE = 8
EXACT_FLOAT_INT = 2 ** 53  # float64 holds every integer below this exactly


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
    _rows: list = field(init=False, repr=False, default=None)

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
        """Multiset of fusion outcomes of a x b: a fresh Counter copied
        from row (a, b) of a table of dicts {label: count}, one per row,
        that the first lookup builds. The copy is a dict.update into an
        empty Counter, which skips Counter.__init__'s Mapping path."""
        if self._rows is None:
            dim = len(self.labels)
            flat = self.tensor.reshape(dim * dim, dim)
            rows, cols = np.nonzero(flat)
            self._rows = [{} for _ in range(dim * dim)]
            for row, c, count in zip(rows.tolist(), cols.tolist(),
                                     flat[rows, cols].tolist()):
                self._rows[row][self.labels[c]] = count
        try:
            row = self._rows[self._index[a] * len(self.labels)
                             + self._index[b]]
        except KeyError as missing:
            raise LabelError(
                f"label {missing.args[0]!r} not in basis") from None
        out = Counter.__new__(Counter)
        dict.update(out, row)
        return out

    def check_axioms(self) -> tuple:
        """Commutativity, vacuum identity and exact associativity
        (ab)c = a(bc), in O(n^3) memory; returns the generators G, the
        checked currents and then the non-current orbit representatives.

        With N commutative, a has a vanishing associator in every slot iff
        its matrix (N_a)_cd = N_ac^d commutes with every N_y; these a form
        a subspace V closed under products, N_ab = N_a N_b for a in V. The
        simple currents are the labels J whose N_J permutes the labels,
        c -> Jc (_permutation_rows). A current that no word in the checked
        ones reaches from the vacuum (_words) is put in V by the exact
        compare N_Jc,b^d = N_bc^(J^-1 d), (Jc)b = J(cb), with no flops.
        Every label is some Jr, r a representative of a current orbit
        (_representatives), with N_Jr = N_J N_r. A non-current
        representative a that passes its pairs, N_a N_b = N_b N_a for
        every other one b, thus commutes with each N_J, N_r and N_Jr, so a
        lies in V, and then so does every Jr. The pairs run in float64
        BLAS over blocks of LABEL_BLOCK representatives, exact integers
        below max|N|^2 n < 2^53."""
        n = self.tensor
        dim = len(self.labels)
        if np.any(n != np.swapaxes(n, 0, 1)):
            raise ConsistencyError("fusion tensor is not commutative")
        vac = n[self.vacuum_index]
        if np.any(vac != np.eye(dim, dtype=n.dtype)):
            raise ConsistencyError("vacuum does not act as the identity")
        largest = max(int(n.max()), -int(n.min()))
        if largest ** 2 * dim >= EXACT_FLOAT_INT:
            raise ConsistencyError(
                f"coefficients up to {largest} are too large for an exact "
                "float64 associativity check"
            )
        currents = _permutation_rows(n)
        checked, reached = [], {self.vacuum_index}
        for j, perm in currents.items():
            if j in reached:  # a word over the checked currents
                continue
            inverse = np.argsort(perm)
            for c in range(0, dim, LABEL_BLOCK):
                if not np.array_equal(n[perm[c:c + LABEL_BLOCK]],
                                      n[c:c + LABEL_BLOCK][:, :, inverse]):
                    raise ConsistencyError("fusion tensor is not associative")
            checked.append(j)
            reached = _words(self.vacuum_index, dim,
                             [(currents[i], 0) for i in checked])
        reps = [a for a in _representatives(
            np.array(list(currents.values()))).tolist() if a not in currents]
        for i, a in enumerate(reps):
            na = n[a].astype(np.float64)
            for start in range(i + 1, len(reps), LABEL_BLOCK):
                block = n[reps[start:start + LABEL_BLOCK]].astype(np.float64)
                lhs = np.matmul(na, block)  # [b, c, d]: sum_e N_ac^e N_eb^d
                rhs = block.reshape(-1, dim) @ na  # [(b, c), d]: N_bc^f N_af^d
                if not np.array_equal(lhs.reshape(rhs.shape), rhs):
                    raise ConsistencyError("fusion tensor is not associative")
        self.generators = tuple(checked + reps)
        return self.generators


def _permutation_rows(tensor: np.ndarray) -> dict:
    """{x: pi} for the labels x whose matrix (N_x)_cd = N_xc^d is the
    permutation matrix of c -> pi[c]: the simple currents. The candidates,
    the labels whose coefficients sum to n, are checked in one pass."""
    dim = len(tensor)
    cand = np.flatnonzero(tensor.reshape(dim, -1).sum(axis=1) == dim)
    rows = tensor[cand]  # permutation matrices: >= 0, unit row/column sums
    ok = ((rows.min(axis=(1, 2)) >= 0) & np.all(rows.sum(axis=1) == 1, axis=1)
          & np.all(rows.sum(axis=2) == 1, axis=1))
    return dict(zip(cand[ok].tolist(), rows[ok].argmax(axis=2)))


def _words(vac: int, n: int, gens: list) -> dict:
    """{W vac: (W, d)} for the shortest words W over `gens`, (permutation,
    defect) pairs, breadth-first: W composed exactly, d its letters' sum."""
    words, queue = {vac: (np.arange(n), 0.0)}, [vac]
    for x in queue:
        for pg, dg in gens:
            if (y := int(pg[x])) not in words:
                words[y] = pg[words[x][0]], dg + words[x][1]
                queue.append(y)
    return words


def _representatives(perms: np.ndarray) -> np.ndarray:
    """The least label of each orbit of the permutations `perms` (rows,
    the identity among them), plus any label that no permutation takes
    one of those to: every label is one permutation away from one."""
    reps = perms.min(axis=0) == np.arange(perms.shape[1])
    covered = np.isin(np.arange(len(reps)), perms[:, reps])
    return np.flatnonzero(reps | ~covered)


def verlinde(s: SMatrix) -> FusionRing:
    """N_ab^c = sum_x S_ax S_bx conj(S_cx) / S_vac,x, rounded to integers,
    summed on pairs of simple-current orbit representatives, then checked.

    Raises ResourceError before allocating when the O(n^3) working set
    (fusion tensor and axiom check included) exceeds `memory_budget()`."""
    require_budget(VERLINDE_BYTES_PER_CUBE * s.dim ** 3,
                   f"Verlinde fusion of {s.dim} labels")
    vac = find_vacuum(s)
    ring = FusionRing(s.labels, _verlinde_tensor(s, vac), vac)
    ring.check_axioms()
    return ring


def _simple_currents(s: SMatrix, vac: int):
    """The labels J with |S_Jx| = S_0x for every x (to DEFAULT_TOLERANCE;
    S_0J = S_00 when S is symmetric, in any order of the columns x), the
    permutation a -> Ja each one induces, and its covariance defect.

    In index order, a current that no word in the generators so far
    reaches from the vacuum is a generator: Ja is the row of S nearest
    phi_J S_a, phi_J(x) = S_Jx / S_0x, on a fixed generic projection of
    the rows, and its defect is the larger of max|S_Ja - phi_J S_a| and
    max|conj(phi_J) S_Ja - S_a|. Any other current is its shortest word
    (_words), whose summed defect bounds both sides for phi the product
    of its letters' phases (triangle inequality; |phi| = 1 to
    DEFAULT_TOLERANCE). Returns (currents, perms of shape (m, n), defects)."""
    e, n = s.entries, s.dim
    currents = np.flatnonzero(np.abs(np.abs(e) - np.abs(e[vac])).max(axis=1)
                              < sm.DEFAULT_TOLERANCE).tolist()
    probe = np.exp(2j * np.pi * np.sqrt(2) * np.arange(n) ** 2)  # Weyl phases
    prints = e @ probe
    found, words = {}, _words(vac, n, [])
    for j in currents:
        if j in words:
            continue
        phi = e[j] / e[vac]
        perm = np.abs(prints - (e @ (phi * probe))[:, None]).argmin(axis=1)
        image = e[perm]
        found[j] = perm, np.maximum(np.abs(image - e * phi).max(),
                                    np.abs(image * phi.conj() - e).max())
        words = _words(vac, n, list(found.values()))
    perms, defects = zip(*(found.get(j) or words[j] for j in currents))
    return np.array(currents), np.array(perms), np.array(defects)


def _verlinde_tensor(s: SMatrix, vac: int):
    """The Verlinde sum on pairs of simple-current orbit representatives,
    stored in the smallest integer dtype that holds max N.

    The sum runs on the R^2 pairs (a, b) of representatives of the
    currents (_simple_currents) as one (R^2, n) x (n, n) BLAS product.
    One slot-2 gather per current K fills the planes of the a,
    N_a,Kb^c = N_a,b^(K^-1 c), and one row gather per current J every
    other plane, N_Ja,y^c = N_a,Jy^c. As S_Ja = phi_J S_a to delta_J, each
    move shifts the sum by at most the current's bound 2 delta_J max|S|
    max_b sum_x |S_bx / S_0x| (README, Fusion). The pair residual (sqrt
    of the largest (re - round)^2 + im^2) must stay below
    INTEGRALITY_TOLERANCE, alone and plus twice the largest bound; a NaN
    fails both. A current that does not permute the rows has an infinite
    bound. Non-integer is reported before negative."""
    e, n = s.entries, s.dim
    currents, perms, defects = _simple_currents(s, vac)
    reps = _representatives(perms)
    weighted = e / e[vac]  # divide inside the x-sum
    raw = (e[reps][:, None] * weighted[reps]).reshape(-1, n) @ e.conj().T
    rows = np.round(raw.real)
    residual = float(np.sqrt(np.max((raw.real - rows) ** 2 + raw.imag ** 2)))
    if not residual < INTEGRALITY_TOLERANCE:  # a NaN fails
        raise NonIntegerFusionError(
            f"Verlinde residual {residual:g} >= {INTEGRALITY_TOLERANCE:g}"
        )
    inverses = np.full_like(perms, -1)
    inverses[np.arange(len(perms))[:, None], perms] = np.arange(n)
    weight = 2 * np.abs(e).max() * np.abs(weighted).sum(axis=1).max()
    bounds = np.where(np.all(inverses >= 0, axis=1), defects * weight, np.inf)
    j = int(np.argmax(bounds))  # the first NaN, if any
    if not residual + 2 * bounds[j] < INTEGRALITY_TOLERANCE:
        raise NonIntegerFusionError(
            f"S is not covariant under the simple current "
            f"{s.labels[currents[j]]}: Verlinde residual {residual:g} plus "
            f"bound {2 * bounds[j]:g} >= {INTEGRALITY_TOLERANCE:g}"
        )
    if rows.min() < 0:
        raise NegativeFusionError("negative Verlinde coefficient")
    rows = rows.reshape(len(reps), len(reps), n).astype(
        np.min_scalar_type(-1 - int(rows.max())))
    planes = np.empty((len(reps), n, n), dtype=rows.dtype)
    for perm, inverse in zip(perms, inverses):  # N_a,Kb^c = N_a,b^(K^-1 c)
        planes[:, perm[reps]] = rows[:, :, inverse]
    tensor = np.empty((n, n, n), dtype=rows.dtype)
    for perm in perms:  # N_Ja,y^c = N_a,Jy^c
        tensor[perm[reps]] = planes[:, perm]
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
    return Counter({from_lm(LmLabel(l2, m_total, k))  # a set: each field once
                    for l2 in fusion_su2k_closed(a.diff, b.diff, k)})


def su2k_fusion_tensor(k: int) -> np.ndarray:
    """fusion_su2k_closed for every pair at once: N[l, l', l''] over
    l = 0..k as one int8 array of 0s and 1s, 1 where
    |l - l'| <= l'' <= min(l + l', 2k - l - l') and l + l' + l'' is even."""
    la, lb, lc = np.ogrid[:k + 1, :k + 1, :k + 1]
    return ((lc >= abs(la - lb)) & (lc <= np.minimum(la + lb, 2 * k - la - lb))
            & ((lc - la - lb) % 2 == 0)).astype(np.int8)


def coset_fusion_tensor(k: int) -> np.ndarray:
    """fusion_coset_closed for every pair at once: the closed form
    N[a, b, c] over canonical_weights(k) as one int8 array of 0s and 1s.
    Outcome l'' of the su(2)_k rule (su2k_fusion_tensor), with
    m = m_a + m_b, is the weight ((m - l'')/2, (m + l'')/2) mod k."""
    mu, nu = sm.weight_arrays(sm.canonical_weights(k))
    l, m = nu - mu, mu + nu
    a, b, out = np.nonzero(su2k_fusion_tensor(k)[l[:, None], l[None, :]])
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

    dims: dict  # label -> Fraction, or any value Fraction() accepts
    central_charge: Fraction

    def phase(self, label) -> complex:
        q = Fraction(self.dims[label]) - self.central_charge / 24
        return cmath.exp(2j * math.pi * float(q % 1))

    def vector(self, labels) -> np.ndarray:
        """Bitwise [phase(lab) for lab in labels] in one exp: each (h - c/24)
        mod 1 exact over the lcm d of the denominators, rounded once."""
        h = [Fraction(self.dims[lab]) for lab in labels]
        h.append(Fraction(self.central_charge) / 24)
        num, den = np.array([q.as_integer_ratio() for q in h], dtype=object).T
        d = math.lcm(*set(den.tolist()))
        r = num * (d // den)
        return np.exp(2j * np.pi * ((r[:-1] - r[-1]) % d / d).astype(float))


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
    structural: |C| sums to 1 along every row and column, so the integer
    C is a signed permutation; how close S^2 comes to C is s2_defect."""
    s2 = s.entries @ s.entries
    c = np.round(s2.real)
    size = np.abs(c)
    is_perm = bool(np.all(size.sum(axis=0) == 1)
                   and np.all(size.sum(axis=1) == 1))
    st = s.entries * t.vector(s.labels)  # S diag(T), scaling columns
    st3 = st @ st @ st
    return ModularReport(
        s2_defect=float(np.max(np.abs(s2 - c))),
        st3_defect=float(np.max(np.abs(st3 - c))),
        c2_defect=float(np.max(np.abs(c @ c - np.eye(s.dim)))),
        unitarity_defect=s.unitarity_defect(),
        conjugation_is_permutation=is_perm,
    )
