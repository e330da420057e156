"""Fusion rings, stored as simple-current blocks, and modular-group
verification. Fusion coefficients come from three independent sources,
pinned against each other by the acceptance suite: the Verlinde formula on
any unitary S matrix and the su(2)_k and diagonal-coset closed forms."""

from __future__ import annotations

import cmath
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coset import LmLabel, from_lm
from .errors import (ConsistencyError, ContractViolationError, LabelError,
                     ResourceError)
from . import smatrix as sm
from .smatrix import CosetWeight, LabelIndex, SMatrix

INTEGRALITY_TOLERANCE = 1e-8
# Bytes `verlinde` budgets, its check included, per S entry (tracemalloc
# peak 57-64 n^2 at n = 55..496) and per (R, R, n) block entry (37-39 for
# su(2)_k at k = 60 and 150), plus one per plane entry. Tests pin both.
VERLINDE_BYTES_PER_SQUARE = 96
VERLINDE_BYTES_PER_BLOCK_ENTRY = 64
EXACT_FLOAT_INT = 2 ** 24  # float32 holds every integer below this exactly


def memory_budget() -> int:
    """Bytes one fusion computation may hold: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def require_budget(need: int, what: str) -> None:
    """Raise ResourceError, before allocating, when `what` needs more
    than `memory_budget()` bytes."""
    budget = memory_budget()
    if need > budget:
        mib = round(Fraction(need, 2 ** 20))  # exact past float's range
        raise ResourceError(
            f"{what} needs about {mib} MiB, over the budget "
            f"of {budget / 2 ** 20:.0f} MiB (half of physical memory)")


def find_vacuum(s: SMatrix) -> int:
    """Index of the unique row that is entrywise real and strictly
    positive. Only imaginary parts are held to DEFAULT_TOLERANCE: the
    vacuum entries 1/D shrink with k, and every other row of a unitary S,
    orthogonal to the positive vacuum row, has a negative real part."""
    imag = np.abs(s.entries.imag).max(axis=1)
    rows = np.flatnonzero((imag < sm.DEFAULT_TOLERANCE)
                          & (s.entries.real.min(axis=1) > 0))
    if len(rows) != 1:
        raise ConsistencyError(
            f"expected exactly one real-positive row, found {len(rows)}")
    return int(rows[0])


class FusionRing:
    """A fusion ring stored as its simple-current block: the permutations
    a -> Ja of the currents J (`perms`, m x n), one representative r per
    orbit (`reps`, the vacuum among them) and the integer block N_(r r')^c
    (`block`, R x R x n); N_(Jr, Kr')^c = N_(r r')^((JK)^-1 c). A dense
    tensor is the block of the trivial group."""

    def __init__(self, labels, tensor, vacuum_index):
        self.labels, self.vacuum_index = labels, vacuum_index
        self.block, self.reps = np.asarray(tensor), np.arange(len(labels))
        self.perms = np.arange(len(labels))[None]  # the trivial group
        self.generators = ()  # set by check_axioms
        self.residual = None  # set by verlinde
        self._index = LabelIndex(labels)
        self._tensor = self._planes = self._table = None

    @classmethod
    def _from_block(cls, labels, vacuum_index, perms, block, reps):
        ring = cls(labels, block, vacuum_index)  # then swap in the currents
        ring.perms, ring.reps = perms, reps
        return ring

    def index(self, label) -> int:
        return self._index[label]

    def _positions(self, perms: np.ndarray, rows) -> np.ndarray:
        """The orbit map at the labels `rows` (... for all): plane row
        r n + P[c] at (a, c), a = J r, P perms' row at J; a later J wins."""
        (m, n), size = self.perms.shape, len(self.reps)
        orbit = np.empty(n, dtype=np.intp)  # J r -> J size + r
        orbit[self.perms[:, self.reps]] = np.arange(m * size).reshape(m, size)
        return orbit[rows, None] % size * n + perms[orbit[rows] // size]

    def planes(self) -> np.ndarray:
        """(R, n, n) planes N_(r, Ks)^c = N_(r s)^(K^-1 c), built once as
        one read of the block at the orbit map of the inverse currents."""
        if self._planes is None:
            self._planes = self.block.reshape(len(self.reps), -1).take(
                self._positions(np.argsort(self.perms), ...), axis=1)
        return self._planes

    def rows(self, a) -> np.ndarray:
        """N[a], (len(a), n, n) for the label indices a, N_(Jr, y) =
        N_(r, Jy): one read of the planes at those rows of the orbit map."""
        return self.planes().reshape(-1, len(self.labels)).take(
            self._positions(self.perms, a), axis=0)

    @property
    def tensor(self) -> np.ndarray:
        """N[a][b][c]: rows() of every label, once the budget admits n^3."""
        if self._tensor is None:
            n = len(self.labels)
            require_budget(self.block.itemsize * n ** 3,
                           f"the fusion tensor of {n} labels")
            self._tensor = self.rows(range(n))
        return self._tensor

    def coefficient(self, a, b, c) -> int:
        """N_ab^c, read as product(a, b)[c]: a, b, then c must be labels."""
        return self.product(a, b)[self.labels[self.index(c)]]

    def product(self, a, b) -> Counter:
        """Multiset of outcomes of a x b: a fresh Counter, dict.update'd
        (no Counter.__init__ Mapping path) from table[a][b], one list per
        orbit-map row, the dict {label: count} of plane row (r, Jb), a = Jr."""
        if self._table is None:
            flat = self.planes().reshape(-1, len(self.labels))
            rows, cols = np.nonzero(flat)
            dicts = [{} for _ in range(len(flat))]
            for row, c, count in zip(rows.tolist(), cols.tolist(),
                                     flat[rows, cols].tolist()):
                dicts[row][self.labels[c]] = count
            dicts = np.array(dicts, dtype=object)
            self._table = [dicts[row].tolist()
                           for row in self._positions(self.perms, ...)]
        out = Counter.__new__(Counter)
        dict.update(out, self._table[self._index[a]][self._index[b]])
        return out

    def check_axioms(self) -> tuple:
        """Commutativity, vacuum identity and exact associativity of the
        ring the block defines, with no n^3 array (README, Associativity):
        a commutative group of permutations, P_J P_K = P_JK with
        JK = P_J[K]; block rows invariant under both labels' stabilizers;
        a symmetric block; a delta vacuum row; N_a N_b = N_b N_a for each
        pair of non-current representatives, in float32, exact below
        max|N|^2 n < 2^24. Returns the generators G: the generating
        currents, then the non-current representatives."""
        perms, block, reps = self.perms, self.block, self.reps
        n, vac = len(self.labels), self.vacuum_index
        slot = np.full(n, -1)  # J -> its row of perms
        slot[perms[:, vac]] = np.arange(len(perms))
        composed = perms[:, perms]  # [J, K]: the permutation of JK
        if (np.sort(perms) != np.arange(n)).any() or (
                composed != composed.swapaxes(0, 1)).any():
            raise ConsistencyError("the simple currents do not commute")
        words = slot[composed[:, :, vac]]  # [J, K]: the row of JK
        if words.min() < 0 or (perms[words] != composed).any():
            raise ConsistencyError("the simple currents are not closed")
        if (block != block.swapaxes(0, 1)).any():
            raise ConsistencyError("fusion tensor is not commutative")
        if (block[reps.searchsorted(vac)]
                != (reps[:, None] == np.arange(n))).any():
            raise ConsistencyError("vacuum does not act as the identity")
        j, i = ((perms[:, reps] == reps) & (perms[:, [vac]] != vac)).nonzero()
        moved = block[i[:, None], :, perms[j]] != block[i].swapaxes(1, 2)
        if moved.any():  # some J != 1 that fixes r_i moves its block row
            first = reps[i[moved.any(axis=(1, 2)).argmax()]]
            raise ConsistencyError(f"block of {self.labels[first]} not "
                                   "invariant under its stabilizer")
        largest = max(int(block.max()), -int(block.min()))
        if largest ** 2 * n >= EXACT_FLOAT_INT:
            raise ConsistencyError(f"coefficients up to {largest} are too "
                                   "large for an exact float32 check")
        pairs, planes = (reps != vac).nonzero()[0], self.planes()
        for x, i in enumerate(pairs.tolist()):
            na = planes[i].astype(np.float32)
            for j in pairs[x + 1:].tolist():
                nb = planes[j].astype(np.float32)
                if not (na @ nb == nb @ na).all():
                    raise ConsistencyError("fusion tensor is not associative")
        table, checked, reached = words.tolist(), [], {int(slot[vac])}
        for j in (slot >= 0).nonzero()[0].tolist():  # the currents, in order
            if (row := int(slot[j])) not in reached:  # no word reaches J:
                checked.append(j)  # a generator; the commuting rows reached
                for x in list(reached):  # so far times the powers of J
                    while (x := table[row][x]) not in reached:
                        reached.add(x)
        self.generators = tuple(checked + reps[pairs].tolist())
        return self.generators


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


def _representatives(perms: np.ndarray, vac: int) -> np.ndarray:
    """One label per orbit of the permutation rows `perms` (the identity
    among them), the vacuum for its own and else the least, plus any label
    no permutation takes one of those to: each label is one away."""
    reps = perms.min(axis=0) == np.arange(perms.shape[1])
    reps[perms[:, vac]] = False
    reps[vac] = True
    covered = np.zeros(len(reps), dtype=bool)
    covered[perms[:, reps]] = True
    return (reps | ~covered).nonzero()[0]


def verlinde(s: SMatrix) -> FusionRing:
    """N_ab^c = sum_x S_ax S_bx conj(S_cx) / S_vac,x, rounded to integers,
    summed on pairs of simple-current orbit representatives, stored as
    that block and checked. Raises ResourceError, before the sum
    allocates, when its working set exceeds `memory_budget()`. The ring's
    `residual` is the certified residual the sum was judged on."""
    vac = find_vacuum(s)
    *block, residual = _verlinde_block(s, vac)
    ring = FusionRing._from_block(s.labels, vac, *block)
    ring.residual = residual
    ring.check_axioms()
    return ring


def _simple_currents(s: SMatrix, vac: int, size):
    """The labels J with |S_Jx| = S_0x for every x (size = |S|, to
    DEFAULT_TOLERANCE, in any order of the columns x), the permutation
    a -> Ja of each and its covariance defect: (currents, perms of shape
    (m, n), defects).
    In index order, a current that no word in the generators so far
    reaches from the vacuum is a generator: Ja is the row of S nearest
    phi_J S_a, phi_J(x) = S_Jx / S_0x, on a fixed generic projection of
    the rows; its defect is max(max|S_Ja - phi_J S_a|, max|conj(phi_J) S_Ja
    - S_a|). Any other current is its shortest word (_words), whose summed
    defect bounds both (triangle inequality, |phi| = 1 to tolerance)."""
    e, n = s.entries, s.dim
    currents = np.flatnonzero(np.abs(size - size[vac]).max(axis=1)
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


def _verlinde_block(s: SMatrix, vac: int):
    """(perms, block, reps, residual): the currents' permutations
    (_simple_currents), the Verlinde sum on the R^2 pairs of their orbit
    representatives reps as one (R^2, n) x (n, n) BLAS product, (R, R, n)
    in the smallest integer dtype that holds max N, once the budget admits
    it, and its certified residual. Covariance defines every other
    coefficient, two moves of at most the current's bound
    2 delta_J max|S| max_b sum_x |S_bx / S_0x| each (README, Fusion): the
    pair residual (sqrt of the largest (re - round)^2 + im^2) must stay
    below INTEGRALITY_TOLERANCE alone and plus twice the largest bound,
    which sum is the certified residual; a NaN fails both. A current that
    does not permute the rows has an infinite bound. Non-integer is
    reported before negative."""
    e, n, size = s.entries, s.dim, np.abs(s.entries)
    currents, perms, defects = _simple_currents(s, vac, size)
    reps = _representatives(perms, vac)
    require_budget((VERLINDE_BYTES_PER_SQUARE + len(reps)) * n ** 2
                   + VERLINDE_BYTES_PER_BLOCK_ENTRY * len(reps) ** 2 * n,
                   f"Verlinde fusion of {n} labels")
    weighted = e / e[vac]  # divide inside the x-sum
    raw = (e[reps][:, None] * weighted[reps]).reshape(-1, n) @ e.conj().T
    rows = raw.real.round()
    residual = math.sqrt(((raw.real - rows) ** 2 + raw.imag ** 2).max())
    if not residual < INTEGRALITY_TOLERANCE:  # a NaN fails
        raise ConsistencyError(f"Verlinde residual {residual:g} >= "
                               f"{INTEGRALITY_TOLERANCE:g}")
    weight = 2 * size.max() * np.abs(weighted).sum(axis=1).max()
    bounds = np.where((np.sort(perms) == np.arange(n)).all(axis=1),
                      defects * weight, np.inf)
    j = int(bounds.argmax())  # the first NaN, if any
    certified = residual + 2 * bounds[j]
    if not certified < INTEGRALITY_TOLERANCE:
        raise ConsistencyError(
            f"S is not covariant under the simple current "
            f"{s.labels[currents[j]]}: Verlinde residual {residual:g} plus "
            f"bound {2 * bounds[j]:g} >= {INTEGRALITY_TOLERANCE:g}")
    if rows.min() < 0:
        raise ConsistencyError("negative Verlinde coefficient")
    return perms, rows.reshape(len(reps), len(reps), n).astype(
        np.min_scalar_type(-1 - int(rows.max()))), reps, float(certified)


def fusion_su2k_closed(l: int, l2: int, k: int) -> set:
    """Truncated su(2)_k rule: |l-l2| .. min(l+l2, 2k-l-l2) in steps of 2."""
    if not (0 <= l <= k and 0 <= l2 <= k):
        raise LabelError(f"labels must be in 0..{k}, got {l}, {l2}")
    return set(range(abs(l - l2), min(l + l2, 2 * k - l - l2) + 1, 2))


def fusion_coset_closed(a: CosetWeight, b: CosetWeight) -> Counter:
    """Closed-form coset fusion of Lam_mu+Lam_nu with Lam_mu'+Lam_nu'
    through su(2)_k / u(1)_{2k}: the l = nu - mu labels fuse by the
    truncated su(2)_k rule, the m = mu + nu labels add, and each outcome
    maps back mod k; a field enters once (multiplicities are 0 or 1)."""
    if a.k != b.k:
        raise ContractViolationError("weights must share k")
    k = a.k
    m_total = (a.mu + a.nu) + (b.mu + b.nu)
    return Counter({from_lm(LmLabel(l2, m_total, k))  # a set: each field once
                    for l2 in fusion_su2k_closed(a.diff, b.diff, k)})


def su2k_fusion_tensor(k: int, rows) -> np.ndarray:
    """fusion_su2k_closed at the rows l in `rows`: N[i, l', l''] for
    l = rows[i] and l', l'' = 0..k as one int8 array of 0s and 1s, 1 where
    |l - l'| <= l'' <= min(l + l', 2k - l - l') and l + l' + l'' is even."""
    la, lb, lc = np.ix_(np.arange(k + 1)[rows], range(k + 1), range(k + 1))
    return ((lc >= abs(la - lb)) & (lc <= np.minimum(la + lb, 2 * k - la - lb))
            & ((lc - la - lb) % 2 == 0)).astype(np.int8)


def coset_fusion_tensor(k: int, rows) -> np.ndarray:
    """fusion_coset_closed at the rows in `rows`: N[i, b, c] = 0 or 1 over
    canonical_weights(k), a = rows[i], in int8, set at its nonzero triples.
    Outcome l'' = |l_a - l_b| + 2t of the su(2)_k rule (while l'' <=
    min(l_a + l_b, 2k - l_a - l_b)) is the weight (x, x + l'') mod k with
    x = (m_a + m_b - l'')/2 mod k: one int32 pass over the pairs per t."""
    mu, nu = sm.canonical_arrays(k).astype(np.int32)
    l, m, n = nu - mu, mu + nu, len(mu)
    la, ma = l[rows][:, None], m[rows][:, None]
    x, out = np.ogrid[:k, :2 * k + 1]
    y = (x + out) % k
    index = sm.canonical_index(np.minimum(x, y), np.maximum(x, y), k)
    low, high = np.abs(la - l), np.minimum(la + l, 2 * k - la - l)
    base = (ma + m - low) // 2  # x at t = 0
    tensor = np.zeros((*low.shape, n), dtype=np.int8)
    for t in range(k // 2 + 1):
        hit = low + 2 * t <= high
        tensor[hit, index[(base[hit] - t) % k, low[hit] + 2 * t]] = 1
    return tensor


def quantum_dimensions(s: SMatrix) -> dict:
    """d_a = S_{vac,a}/S_{vac,vac}; raises if any d_a dips below 1."""
    vac = find_vacuum(s)
    row = s.entries[vac].real
    dims = {lab: float(row[i] / row[vac]) for i, lab in enumerate(s.labels)}
    bad = [lab for lab, d in dims.items() if d < 1 - sm.DEFAULT_TOLERANCE]
    if bad:
        raise ConsistencyError(
            f"quantum dimensions below 1 for {bad}; wrong vacuum?")
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
    the rounded real part of S^2. conjugation_is_permutation: |C| sums to
    1 along every row and column, so C[a, p_a] = sign_a for a permutation
    p, and C^2[a, p_(p_a)] = sign_a sign_(p_a); c2_defect is inf if not."""
    s2 = s.entries @ s.entries
    c = np.round(s2.real)
    size = np.abs(c)
    is_perm = all(np.all(size.sum(axis=i) == 1) for i in (0, 1))
    p, sign = size.argmax(axis=1), c.sum(axis=1)
    c2 = np.abs(sign * sign[p] - (p[p] == np.arange(s.dim))).max()
    st = s.entries * t.vector(s.labels)  # S diag(T), scaling columns
    st3 = st @ st @ st
    return ModularReport(
        s2_defect=float(np.max(np.abs(s2 - c))),
        st3_defect=float(np.max(np.abs(st3 - c))),
        c2_defect=float(c2) if is_perm else math.inf,
        unitarity_defect=s.unitarity_defect(),
        conjugation_is_permutation=is_perm,
    )
