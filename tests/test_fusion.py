import functools
import itertools
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import smatrix as sm
from parafermions.errors import ConsistencyError, LabelError, ResourceError

DELTA = (1 + math.sqrt(5)) / 2


def w(mu, nu, k=3):
    return sm.CosetWeight(mu, nu, k)


class TestVerlinde:
    def test_su2_2(self):
        ring = fu.verlinde(sm.s_su2k(2))
        assert ring.product(1, 1) == Counter({0: 1, 2: 1})

    def test_vacuum_is_identity(self):
        ring = fu.verlinde(co.coset_s_compact(3).s)
        vac = ring.labels[ring.vacuum_index]
        for lab in ring.labels:
            assert ring.product(vac, lab) == Counter({lab: 1})

    def test_epsilon_squared_hits_both_orbits(self):
        ring = fu.verlinde(co.coset_s_compact(3).s)
        outcome_orbits = sorted(int(sm.orbit_of(x.mu, x.nu, 3)[0])
                                for x in ring.product(w(0, 1), w(0, 1)))
        assert outcome_orbits == [0, 1]  # one vacuum-orbit, one eps-orbit

    def test_non_integer_rejected(self):
        bad = sm.SMatrix((0, 1), np.array([[0.8, 0.6], [0.6, -0.8]]))
        with pytest.raises(ConsistencyError, match="Verlinde residual"):
            fu.verlinde(bad)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_axioms(self, k):
        fu.verlinde(co.coset_s_compact(k).s).check_axioms()

    def test_unknown_label(self):
        ring = fu.verlinde(co.coset_s_compact(3).s)
        with pytest.raises(LabelError):
            ring.product(w(0, 1), "no-such-label")
        with pytest.raises(LabelError):
            ring.coefficient(w(0, 0), w(0, 0), w(0, 1, k=4))
        # checked in the order a, b, c
        for first, args in [("x", ("x", "y", "z")),
                            ("y", (w(0, 0), "y", "z")),
                            ("z", (w(0, 0), w(0, 0), "z"))]:
            with pytest.raises(LabelError, match=f"label '{first}' not in"):
                ring.coefficient(*args)

    def test_repeated_label_refused_as_smatrix_refuses_it(self):
        tensor = fu.verlinde(sm.s_su2k(2)).tensor
        message = "the basis repeats labels: 2 distinct of 3"
        with pytest.raises(LabelError, match=f"^{message}$"):
            fu.FusionRing((0, 1, 1), tensor, 0)
        with pytest.raises(LabelError, match=f"^{message}$"):
            sm.SMatrix((0, 1, 1), sm.s_su2k(2).entries)

    def test_unknown_label_refused_as_smatrix_refuses_it(self):
        s = sm.s_su2k(2)
        ring = fu.verlinde(s)
        for lookup in (ring.index, s.index, lambda x: ring.product(x, 0),
                       lambda x: ring.product(0, x)):
            with pytest.raises(LabelError, match="^label 7 not in basis$"):
                lookup(7)

    def test_coefficient_lookup(self):
        ring = fu.verlinde(co.coset_s_compact(3).s)
        assert ring.coefficient(w(0, 2), w(0, 2), w(0, 1)) == 1
        assert ring.coefficient(w(0, 2), w(0, 2), w(0, 0)) == 0


class TestFindVacuum:
    # the vacuum entries 1/D shrink with k; only the imaginary parts meet
    # DEFAULT_TOLERANCE, so small real entries still pick the vacuum row
    @pytest.mark.parametrize("k,bound", [(12, 0.04), (20, 0.02)])
    def test_vacuum_entries_below_tolerance(self, k, bound):
        s = sm.s_suk2_compact(k)
        assert s.entries[0, 0].real < bound
        assert fu.find_vacuum(s) == 0  # (0, 0) leads canonical_weights

    def test_full_theory_at_a_loose_tolerance(self):
        s = fc.full_s_product(12)
        vac = fu.find_vacuum(s)
        assert s.entries[vac, vac].real < 0.05
        assert s.labels[vac] == fc.FullSector(0, 0, 12)

    def test_imaginary_parts_still_held_to_tolerance(self):
        s = sm.s_suk2_compact(3)
        s.entries[0, 1] += 1e-6j
        with pytest.raises(ConsistencyError,
                           match="one real-positive row, found 0"):
            fu.find_vacuum(s)


def _reference_verlinde(s):
    """The three-operand n^4 einsum the BLAS Verlinde sum replaced."""
    vac = fu.find_vacuum(s)
    raw = np.einsum("ax,bx,cx->abc", s.entries, s.entries / s.entries[vac],
                    s.entries.conj())
    return np.round(raw.real).astype(np.int64)


def _reference_associative(n):
    """The two n^4 int64 einsums the sliced associativity check replaced."""
    return np.array_equal(np.einsum("abe,ecd->abcd", n, n),
                          np.einsum("bcf,afd->abcd", n, n))


def _reference_sliced(n, slices=None):
    """The all-labels slice loop the generator check replaced: whether
    (ab)c = a(bc) for every b, c and every a in `slices` (default all)."""
    dim = len(n)
    nf = n.astype(np.float64)
    by_a, by_ab = nf.reshape(dim, dim * dim), nf.reshape(dim * dim, dim)
    for a in range(dim) if slices is None else slices:
        lhs = nf[a] @ by_a  # [b, (c, d)]: sum_e N_ab^e N_ec^d
        rhs = by_ab @ nf[a]  # [(b, c), d]: sum_f N_bc^f N_af^d
        if np.any(lhs.reshape(dim, dim, dim) != rhs.reshape(dim, dim, dim)):
            return False
    return True


def _permutation_rows(tensor):
    """{x: pi} for the labels x whose matrix (N_x)_cd = N_xc^d is the
    permutation matrix of c -> pi[c]: the simple currents, read from the
    tensor. The candidates, the labels whose coefficients sum to n, are
    checked in one pass. The reference for the permutations that
    _simple_currents reads from S."""
    dim = len(tensor)
    cand = np.flatnonzero(tensor.reshape(dim, -1).sum(axis=1) == dim)
    rows = tensor[cand]  # permutation matrices: >= 0, unit row/column sums
    ok = ((rows.min(axis=(1, 2)) >= 0) & np.all(rows.sum(axis=1) == 1, axis=1)
          & np.all(rows.sum(axis=2) == 1, axis=1))
    return dict(zip(cand[ok].tolist(), rows[ok].argmax(axis=2)))


def _reference_permutation_rows(tensor):
    """The per-candidate loop the batched current scan replaced."""
    dim = len(tensor)
    eye, out = np.eye(dim, dtype=tensor.dtype), {}
    for x in np.flatnonzero(tensor.reshape(dim, -1).sum(axis=1) == dim):
        perm = np.nonzero(tensor[x])[1]
        if (len(perm) == dim and np.array_equal(tensor[x], eye[perm])
                and np.all(tensor[x].sum(axis=0) == 1)):
            out[int(x)] = perm
    return out


def _same_scan(tensor):
    """Whether the batched current scan equals the per-candidate loop."""
    got, expected = _permutation_rows(tensor), _reference_permutation_rows(
        tensor)
    return list(got) == list(expected) and all(
        np.array_equal(got[j], expected[j]) for j in got)


def _echelon(rows, p):
    """Nonzero rows of a row echelon form of `rows` mod p, column by column."""
    rows, out = rows % p, []
    for col in range(rows.shape[1]):
        hit = np.flatnonzero(rows[:, col])
        if len(hit):
            top = rows[hit[0]] * pow(int(rows[hit[0], col]), -1, p) % p
            rows = np.delete(rows, hit[0], axis=0)
            rows = (rows - np.outer(rows[:, col], top)) % p
            out.append(top)
    return np.array(out, dtype=np.int64).reshape(-1, rows.shape[1])


def _word_rank(tensor, vac, gens, p=2 ** 25 - 39):
    """Rank mod p of the words g1(g2(...(gm vac))) over `gens`: the span
    of the vacuum, multiplied by every generator until it stops growing."""
    span = np.eye(len(tensor), dtype=np.int64)[[vac]]
    while True:
        grown = _echelon(np.vstack([span] + [span @ tensor[g] % p
                                             for g in gens]), p)
        if len(grown) == len(span):
            return len(span)
        span = grown


def _s_matrix(theory, k):
    return {"su2k": sm.s_su2k, "full": fc.full_s_product,
            "coset": lambda k: co.coset_s_compact(k).s}[theory](k)


@functools.cache
def _ring(theory, k):
    return fu.verlinde(_s_matrix(theory, k))


def _block_ring(labels, vac, perms, block):
    """The ring of `block` under the currents `perms`, its orbit
    representatives read from them."""
    return fu.FusionRing._from_block(labels, vac, perms, block,
                                     fu._representatives(perms, vac))


def _klein_four():
    """The group ring of Z2 x Z2 on labels 0, a, b, ab: a x b = ab."""
    tensor = np.zeros((4, 4, 4), dtype=np.int64)
    for x in range(4):
        for y in range(4):
            tensor[x, y, x ^ y] = 1
    return fu.FusionRing((0, 1, 2, 3), tensor, 0)


def _ring3():
    return fu.verlinde(co.coset_s_compact(3).s)


def _modified(ring, entries: dict):
    """A copy of `ring` with tensor entries {(a, b, c): value} replaced."""
    tensor = ring.tensor.copy()
    for abc, value in entries.items():
        tensor[abc] = value
    return fu.FusionRing(ring.labels, tensor, ring.vacuum_index)


def _symmetric_bump(ring, a, b, c):
    """N_ab^c and N_ba^c both raised by one: still commutative."""
    bump = ring.tensor[a, b, c] + 1
    return _modified(ring, {(a, b, c): bump, (b, a, c): bump})


def _others(ring, count):
    """`count` label indices other than the vacuum."""
    return [i for i in range(len(ring.labels)) if i != ring.vacuum_index][:count]


class TestCheckAxioms:
    def test_rejects_non_commutative(self):
        ring = _ring3()
        a, b, c = _others(ring, 3)
        bumped = _modified(ring, {(a, b, c): ring.tensor[a, b, c] + 1})
        with pytest.raises(ConsistencyError, match="commutative"):
            bumped.check_axioms()

    def test_rejects_vacuum_not_identity(self):
        ring = _ring3()
        v = ring.vacuum_index
        b, c = _others(ring, 2)
        moved = _modified(ring, {(v, b, c): 1, (b, v, c): 1})
        with pytest.raises(ConsistencyError, match="vacuum"):
            moved.check_axioms()

    def test_rejects_commutative_non_associative(self):
        ring = _ring3()
        bumped = _symmetric_bump(ring, *_others(ring, 3))
        assert not _reference_associative(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()

    def test_rejects_coefficients_beyond_exact_float(self):
        # vacuum 0 acts as the identity; x x = a 0 + a x keeps the float32
        # exactness bound max|N|^2 n < 2^24 for a up to 2896 alone
        def ring(a):
            tensor = np.array([[[1, 0], [0, 1]], [[0, 1], [a, a]]])
            return fu.FusionRing((0, 1), tensor, 0)

        assert 2 * 2896 ** 2 < 2 ** 24 <= 2 * 2897 ** 2
        assert ring(2896).check_axioms() == (1,)
        for a in (2897, 2 ** 26):
            with pytest.raises(ConsistencyError,
                               match="too large for an exact float32"):
                ring(a).check_axioms()

    @pytest.mark.parametrize("theory", ["coset", "full"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_agrees_with_n4_reference(self, theory, k):
        s = (co.coset_s_compact(k).s if theory == "coset"
             else fc.full_s_product(k))
        ring = fu.verlinde(s)  # the sliced check accepts
        assert np.array_equal(ring.tensor, _reference_verlinde(s))
        assert _reference_associative(ring.tensor)
        # symmetric bumps keep commutativity; both checks give one verdict
        x, y = _others(ring, 2)
        for a, b, c in [(x, y, x), (x, x, y), (y, y, ring.vacuum_index)]:
            bumped = _symmetric_bump(ring, a, b, c)
            try:
                bumped.check_axioms()
                sliced = True
            except ConsistencyError:
                sliced = False
            assert sliced == _reference_associative(bumped.tensor)


class TestGeneratingSet:
    @pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_agrees_with_sliced_reference(self, theory, k):
        ring = _ring(theory, k)
        gens = ring.check_axioms()
        assert gens == ring.generators and ring.vacuum_index not in gens
        assert _reference_sliced(ring.tensor)
        x, y = _others(ring, 2)
        for a, b, c in [(x, y, x), (x, x, y), (y, y, ring.vacuum_index)]:
            bumped = _symmetric_bump(ring, a, b, c)
            try:
                bumped.check_axioms()
                passed = True
            except ConsistencyError:
                passed = False
            assert passed == _reference_sliced(bumped.tensor)

    @pytest.mark.parametrize("theory", ["coset", "full"])
    @pytest.mark.parametrize("k", range(4, 7))
    def test_rejects_bump_outside_generators(self, theory, k):
        ring = _ring(theory, k)
        outside = [i for i in _others(ring, len(ring.labels))
                   if i not in ring.check_axioms()]
        x, y, z = outside[0], outside[-1], outside[len(outside) // 2]
        bumped = _symmetric_bump(ring, x, y, z)
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()

    def test_words_of_one_label_need_not_span(self):
        dense = _klein_four()
        assert _reference_sliced(dense.tensor)
        # the dense form is the trivial group's: every label but the
        # vacuum is a representative
        assert dense.check_axioms() == (1, 2, 3)
        # with its translations x -> x ^ g the vacuum represents the one
        # orbit, and the words over a miss b
        perms = np.array([[x ^ g for x in range(4)] for g in range(4)])
        ring = _block_ring(dense.labels, 0, perms, dense.tensor[:1, :1])
        assert ring.check_axioms() == (1, 2)
        assert np.array_equal(ring.tensor, dense.tensor)
        # ab x ab = 1 + a: commutative, vacuum intact, not associative
        bumped = _modified(dense, {(3, 3, 1): 1})
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()

    def test_every_label_a_representative(self):
        # Fibonacci x Fibonacci: the vacuum is the only current, so the pairs of the three other
        # labels are the whole check
        fib = np.zeros((2, 2, 2), dtype=np.int64)
        fib[0, 0, 0] = fib[0, 1, 1] = fib[1, 0, 1] = 1
        fib[1, 1, 0] = fib[1, 1, 1] = 1  # tau x tau = 1 + tau
        tensor = np.einsum("ace,bdf->abcdef", fib, fib).reshape(4, 4, 4)
        ring = fu.FusionRing((0, 1, 2, 3), tensor, 0)
        assert _permutation_rows(tensor).keys() == {0}
        assert _reference_associative(tensor)
        assert ring.check_axioms() == (1, 2, 3)
        for a, b, c in itertools.product((1, 2, 3), repeat=3):
            bumped = _symmetric_bump(ring, a, b, c)
            assert not _reference_associative(bumped.tensor)
            with pytest.raises(ConsistencyError, match="associative"):
                bumped.check_axioms()


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 12), theory=st.sampled_from(["su2k", "coset", "full"]))
def test_generators_span_and_pass_the_reference(k, theory):
    ring = _ring(theory, k)
    gens = ring.check_axioms()
    n = len(ring.labels)
    assert _word_rank(ring.tensor, ring.vacuum_index, gens) == n
    assert _reference_sliced(ring.tensor, gens)


def _one_shot_verlinde(s, vac):
    """The all-rows Verlinde sum, the reference for the orbit one: one
    (n^2, n) x (n, n) product, rounded, and the np.hypot integrality
    residual of each pair (a, b)."""
    n = s.dim
    weighted = s.entries / s.entries[vac]
    raw = ((s.entries[:, None, :] * weighted[None]).reshape(n * n, n)
           @ s.entries.conj().T).reshape(n, n, n)
    rounded = np.round(raw.real)
    residuals = np.max(np.hypot(raw.real - rounded, raw.imag), axis=2)
    return rounded.astype(np.int64), residuals


def _simple_currents(s, vac):
    """fusion._simple_currents with |S| computed for it, as verlinde does."""
    return fu._simple_currents(s, vac, np.abs(s.entries))


def _representatives(s, vac):
    """The labels whose pairs the orbit Verlinde sum computes."""
    return fu._representatives(_simple_currents(s, vac)[1], vac)


def _reference_simple_currents(s, vac):
    """The per-current search the generator-built currents replaced: for
    every current J, the row of S nearest phi_J S_a on the Weyl-phase
    projection, and the direct defect, the larger of
    max|S_Ja - phi_J S_a| and max|conj(phi_J) S_Ja - S_a|."""
    e, n = s.entries, s.dim
    currents = np.flatnonzero(np.abs(np.abs(e) - np.abs(e[vac])).max(axis=1)
                              < sm.DEFAULT_TOLERANCE)
    probe = np.exp(2j * np.pi * np.sqrt(2) * np.arange(n) ** 2)
    prints = e @ probe
    perms = np.empty((len(currents), n), dtype=np.intp)
    defects = np.empty(len(currents))
    for i, j in enumerate(currents):
        phi = e[j] / e[vac]
        perms[i] = np.abs(prints - (e @ (phi * probe))[:, None]).argmin(axis=1)
        defects[i] = max(np.abs(e[perms[i]] - e * phi).max(),
                         np.abs(e[perms[i]] * phi.conj() - e).max())
    return currents, perms, defects


def _reference_words(currents, perms, vac):
    """(generators, {label: word}): a current is a generator when no word
    in the earlier generators reaches it from the vacuum; a word is a
    tuple of generator positions in `currents`, outermost letter first,
    found level by level from the vacuum over the generators in order."""
    gens, words = [], {vac: ()}
    for i, j in enumerate(currents.tolist()):
        if j in words:
            continue
        gens.append(i)
        words, level = {vac: ()}, [vac]
        while level:
            below = []
            for x in level:
                for g in gens:
                    y = int(perms[g][x])
                    if y not in words:
                        words[y] = (g,) + words[x]
                        below.append(y)
            level = below
    return gens, words


def _word_sum(direct, word):
    """The word's letters' direct defects, summed from the innermost out."""
    return functools.reduce(lambda acc, g: direct[g] + acc, word[::-1], 0.0)


def _covariance_bound(s, vac):
    """The two-slot word bound: twice 2 delta max|S| max_b sum_x
    |S_bx / S_0x| for the worst current, whose delta is its word's sum of
    direct defects (a generator's own defect, 0 for the vacuum)."""
    currents, perms, direct = _reference_simple_currents(s, vac)
    _, words = _reference_words(currents, perms, vac)
    delta = max(_word_sum(direct, words[j]) for j in currents.tolist())
    e = s.entries
    return 2 * delta * 2 * np.abs(e).max() * np.abs(e / e[vac]).sum(
        axis=1).max()


def _check_generator_built(s, vac):
    """The generator-built currents against the per-current reference;
    returns the reference words."""
    currents, perms, defects = _simple_currents(s, vac)
    expected, ref_perms, direct = _reference_simple_currents(s, vac)
    assert np.array_equal(currents, expected)
    assert np.array_equal(perms, ref_perms)
    gens, words = _reference_words(currents, perms, vac)
    for i, j in enumerate(currents.tolist()):
        if i in gens:
            assert defects[i] == direct[i]
        elif j == vac:
            # the empty word: phi = 1 exactly, where the reference's
            # S_0 / S_0 may round in the last bit
            assert defects[i] == 0 and np.array_equal(perms[i],
                                                      np.arange(s.dim))
        else:
            assert defects[i] == _word_sum(direct, words[j])
            assert defects[i] >= direct[i]
    return words


@pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
@pytest.mark.parametrize("k", range(2, 21))
def test_generator_built_currents(theory, k):
    s = _s_matrix(theory, k)
    _check_generator_built(s, fu.find_vacuum(s))


@pytest.mark.parametrize("theory,k,seed", [("coset", 5, 0), ("coset", 8, 1),
                                           ("full", 4, 4), ("full", 6, 2)])
def test_generator_built_currents_under_noise(theory, k, seed):
    # 1e-11 noise, below DEFAULT_TOLERANCE, so the currents stay currents;
    # the summed bounds must still cover each current's direct defect
    s = _s_matrix(theory, k)
    vac = fu.find_vacuum(s)
    noise = np.random.default_rng(seed).standard_normal((2, s.dim, s.dim))
    noisy = sm.SMatrix(s.labels, s.entries + 1e-11 * (noise[0] + 1j * noise[1]))
    words = _check_generator_built(noisy, vac)
    assert max(map(len, words.values())) >= 2


def _group_ring(m):
    """The group ring of Z_m: labels 0..m-1, x y = x + y mod m."""
    tensor = np.zeros((m, m, m), dtype=np.int64)
    for x in range(m):
        for y in range(m):
            tensor[x, y, (x + y) % m] = 1
    return fu.FusionRing(tuple(range(m)), tensor, 0)


class TestBlocks:
    @pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
    @pytest.mark.parametrize("k", range(2, 17))
    def test_tensor_equals_one_shot(self, theory, k):
        # n = 3..17 (su2k), 3..136 (coset) and 6..153 (full): 2 to 9
        # representatives, so 4 to 81 pairs, and 1 to 2 generators; the
        # tensor is expanded from the block
        s = _s_matrix(theory, k)
        vac = fu.find_vacuum(s)
        expected, _ = _one_shot_verlinde(s, vac)
        ring = fu.verlinde(s)
        assert ring.block.shape == (len(ring.reps),) * 2 + (s.dim,)
        assert ring.block.dtype == np.int8  # the smallest that holds max N
        assert ring.tensor.dtype == np.int8
        assert np.array_equal(ring.tensor, expected)

    @pytest.mark.parametrize("theory,k", [("su2k", 10), ("coset", 5),
                                          ("full", 4)])
    def test_residual_matches_hypot(self, theory, k, monkeypatch):
        s = _s_matrix(theory, k)
        vac = fu.find_vacuum(s)
        rng = np.random.default_rng(k)
        # below DEFAULT_TOLERANCE, so the currents stay currents
        noise = rng.standard_normal((2, s.dim, s.dim)) * 1e-11
        entries = s.entries + noise[0] + 1j * noise[1]
        entries[vac] = s.entries[vac]  # keep the vacuum row's divisor
        bumped = sm.SMatrix(s.labels, entries)
        _, residuals = _one_shot_verlinde(bumped, vac)
        reps = _representatives(bumped, vac)
        bound = _covariance_bound(bumped, vac)
        total = residuals[np.ix_(reps, reps)].max() + bound
        assert len(reps) < s.dim
        assert bound > 1e-12 and residuals.min() > 1e-12
        assert residuals.max() <= total  # the bound covers every pair
        # passing just above the representative-pair hypot residual plus
        # the two-slot bound and failing just below pins what the check
        # compares
        monkeypatch.setattr(fu, "INTEGRALITY_TOLERANCE", total * (1 + 1e-12))
        fu._verlinde_block(bumped, vac)
        monkeypatch.setattr(fu, "INTEGRALITY_TOLERANCE", total * (1 - 1e-12))
        with pytest.raises(ConsistencyError, match="not covariant"):
            fu._verlinde_block(bumped, vac)

    @pytest.mark.parametrize("theory,k", [("su2k", 10), ("coset", 5),
                                          ("full", 4)])
    def test_ring_carries_the_certified_residual(self, theory, k):
        # the residual verlinde judged, the representative-pair hypot
        # residual plus the two-slot bound, is the ring's residual
        s = _s_matrix(theory, k)
        vac = fu.find_vacuum(s)
        rng = np.random.default_rng(k)
        noise = rng.standard_normal((2, s.dim, s.dim)) * 1e-11
        entries = s.entries + noise[0] + 1j * noise[1]
        entries[vac] = s.entries[vac]
        bumped = sm.SMatrix(s.labels, entries)
        _, residuals = _one_shot_verlinde(bumped, vac)
        reps = _representatives(bumped, vac)
        total = (residuals[np.ix_(reps, reps)].max()
                 + _covariance_bound(bumped, vac))
        assert fu.verlinde(bumped).residual == pytest.approx(total, rel=1e-12)
        assert fu.verlinde(s).residual < 1e-12
        assert fu.FusionRing(s.labels, _ring(theory, k).tensor,
                             vac).residual is None

    def test_non_integer_reported_before_negative(self):
        s = sm.s_su2k(10)  # the current 10 maps l to 10 - l
        entries = s.entries.copy()
        entries[[1, 9]] *= -1  # a whole orbit: N_ab^c picks up signs
        _, residuals = _one_shot_verlinde(sm.SMatrix(s.labels, entries), 0)
        assert residuals.max() < 1e-10
        with pytest.raises(ConsistencyError,
                           match="negative Verlinde coefficient"):
            fu._verlinde_block(sm.SMatrix(s.labels, entries), 0)
        entries[10, 5] += 0.01  # row 10 sits in the last block
        with pytest.raises(ConsistencyError, match="Verlinde residual"):
            fu._verlinde_block(sm.SMatrix(s.labels, entries), 0)

    def test_simple_currents(self):
        s = sm.s_su2k(10)
        currents, perms, defects = _simple_currents(s, 0)
        assert currents.tolist() == [0, 10]
        assert perms.tolist() == [list(range(11)), list(range(10, -1, -1))]
        assert defects.max() < 1e-14
        # coset k = 5 with noise: psi_1 generates the Z_5 of currents, its
        # defect is the larger of its two sides, here the conjugate one,
        # and psi_m = psi_1^m carries the sum of m of them
        s = co.coset_s_compact(5).s
        noise = np.random.default_rng(0).standard_normal((2, 15, 15)) * 1e-11
        e = s.entries + noise[0] + 1j * noise[1]
        currents, perms, defects = _simple_currents(
            sm.SMatrix(s.labels, e), 0)
        assert currents.tolist() == [0, 1, 2, 3, 4]  # (m, m) sort first
        assert np.array_equal(perms, _simple_currents(s, 0)[1])
        direct, conj = (np.abs(e[perms[1]] - e[1] / e[0] * e).max(),
                        np.abs(e[perms[1]] * (e[1] / e[0]).conj() - e).max())
        assert conj > direct
        d = defects[1]
        assert d == pytest.approx(max(direct, conj), rel=1e-12)
        assert defects.tolist() == [0, d, d + d, d + (d + d),
                                    d + (d + (d + d))]

    @pytest.mark.parametrize("theory,k", [("su2k", 4), ("coset", 6),
                                          ("full", 5)])
    def test_columns_in_any_order(self, theory, k):
        # the sum runs over the columns x, so their order is free, and
        # |S_Jx| = S_0x finds the currents in any order
        s = _s_matrix(theory, k)
        order = np.random.default_rng(k).permutation(s.dim)
        shuffled = sm.SMatrix(s.labels, s.entries[:, order])
        assert np.array_equal(fu.verlinde(shuffled).tensor,
                              _ring(theory, k).tensor)

    def test_non_covariant_s_is_refused(self):
        s = sm.s_su2k(10)
        entries = s.entries.copy()
        entries[9] *= -1  # S_9 = -phi_10 S_1: integral, not covariant
        flipped = sm.SMatrix(s.labels, entries)
        _, residuals = _one_shot_verlinde(flipped, 0)
        assert residuals.max() < 1e-10
        assert residuals[_representatives(flipped, 0)].max() < 1e-10
        with pytest.raises(ConsistencyError,
                           match="covariant under the simple current 10"):
            fu.verlinde(flipped)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_nan_is_non_integer(self):
        s = sm.s_su2k(10)
        entries = s.entries.copy()
        entries[10, 5] = np.nan  # row 10 sits in the last block
        with pytest.raises(ConsistencyError, match="Verlinde residual nan"):
            fu._verlinde_block(sm.SMatrix(s.labels, entries), 0)

    def test_bump_seen_by_one_pair_rejected(self):
        m = 11  # the pairs of label 1 end with the pair (1, m - 1)
        ring = _group_ring(m)
        # dense, so every label but the vacuum is a representative
        assert ring.check_axioms() == tuple(range(1, m))
        assert _reference_sliced(ring.tensor)
        # (m-1)(m-1) gains the outcome 2; only the matrix N_{m-1} changes,
        # so only its pairs see N_1 N_{m-1} != N_{m-1} N_1
        bumped = _modified(ring, {(m - 1, m - 1, 2): 1})
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()

    @pytest.mark.parametrize("theory,k", [("su2k", 9), ("coset", 5),
                                          ("full", 4)])
    def test_product_is_the_tensor_row(self, theory, k):
        ring = _ring(theory, k)
        fresh = fu.FusionRing(ring.labels, ring.tensor, ring.vacuum_index)
        for i, a in enumerate(fresh.labels):
            for j, b in enumerate(fresh.labels):
                row = fresh.tensor[i, j]
                expected = {fresh.labels[c]: int(row[c])
                            for c in np.flatnonzero(row)}
                got = fresh.product(a, b)
                assert type(got) is Counter and got == expected
                assert all(type(v) is int for v in got.values())

    def test_product_reads_any_integer_entry(self):
        ring = _ring("su2k", 4)
        tensor = ring.tensor.copy()
        tensor[1, 2, [0, 3, 4]] = -3, 7, 1
        bumped = fu.FusionRing(ring.labels, tensor, ring.vacuum_index)
        assert bumped.product(1, 2) == Counter({0: -3, 1: 1, 3: 7, 4: 1})
        assert bumped.product(2, 1) == Counter({1: 1, 3: 1})

    def test_returned_counter_is_fresh(self):
        ring = _ring3()
        a = ring.labels[1]
        first = ring.product(a, a)
        expected = dict(first)
        first[a] += 5
        first["junk"] = 1
        del first[next(iter(expected))]
        assert ring.product(a, a) == expected

    def test_product_behaves_as_a_counter(self):
        ring = fu.verlinde(co.coset_s_compact(3).s)
        tau, vac = w(1, 2), w(0, 0)  # Fibonacci: tau x tau = 1 + tau
        product = ring.product(tau, tau)
        assert type(product) is Counter
        assert product == Counter({vac: 1, tau: 1})
        assert product[w(0, 2)] == 0  # a missing key reads 0
        assert w(0, 2) not in product
        total = product + ring.product(vac, tau)
        assert type(total) is Counter and total == Counter({vac: 1, tau: 2})
        assert total.most_common(1) == [(tau, 2)]
        product.update([vac])  # mutating one leaves the table as it was
        product[w(2, 2)] += 1
        assert ring.product(tau, tau) == Counter({vac: 1, tau: 1})
        assert ring.product(tau, tau) is not ring.product(tau, tau)


class TestOrbits:
    """check_axioms compares each current exactly and multiplies only
    pairs of non-current orbit representatives."""

    @pytest.mark.parametrize("theory,k", [("coset", 5), ("coset", 6),
                                          ("full", 4), ("full", 6)])
    def test_symmetric_bump_at_non_representative_is_caught(self, theory, k):
        ring = _ring(theory, k)
        currents = _permutation_rows(ring.tensor)
        reps = ring.reps
        g = next(a for a in ring.check_axioms() if a not in currents)
        b = next(b for b in range(len(ring.labels))
                 if b not in reps and b not in currents and b != g)
        for d in (ring.vacuum_index, g, b):
            bumped = _symmetric_bump(ring, g, b, d)
            assert not _reference_sliced(bumped.tensor)
            with pytest.raises(ConsistencyError, match="associative"):
                bumped.check_axioms()

    @pytest.mark.parametrize("theory,k", [("su2k", 6), ("coset", 5),
                                          ("full", 4), ("full", 5)])
    def test_bump_in_a_current_row_is_caught(self, theory, k):
        ring = _ring(theory, k)
        vac = ring.vacuum_index
        j, perm = next((j, p) for j, p in _permutation_rows(
            ring.tensor).items() if j != vac)
        c1, c2 = [c for c in range(len(ring.labels)) if c not in (vac, j)][:2]
        # +1 on N_J,c1^c2: the row of J no longer permutes the labels
        bumped = _symmetric_bump(ring, j, c1, c2)
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()
        # J c1 and J c2 swapped: the row of J still permutes the labels
        e1, e2 = np.eye(len(ring.labels), dtype=ring.tensor.dtype)[
            [perm[c1], perm[c2]]]
        swapped = _modified(ring, {(j, c1): e2, (c1, j): e2,
                                   (j, c2): e1, (c2, j): e1})
        assert j in _permutation_rows(swapped.tensor)
        assert not _reference_sliced(swapped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            swapped.check_axioms()

    @pytest.mark.parametrize("theory,k,xyz", [
        ("su2k", 18, (7, 8, 2)), ("su2k", 18, (1, 8, 8)),
        ("coset", 6, (2, 4, 3)), ("full", 5, (2, 3, 7))])
    def test_covariant_bump_is_caught_by_the_slices(self, theory, k, xyz):
        # +1 on every image of N_xy^z under pairs of currents keeps each
        # current's compare exact, so only the representative slices see it
        ring = _ring(theory, k)
        currents = _permutation_rows(ring.tensor)
        others = [a for a in range(len(ring.labels)) if a not in currents]
        x, y, z = (others[i] for i in xyz)
        bumped = ring.tensor.copy()
        for p in currents.values():
            for q in currents.values():
                bumped[p[x], q[y], p[q[z]]] += 1
                bumped[q[y], p[x], p[q[z]]] += 1
        bumped = fu.FusionRing(ring.labels, bumped, ring.vacuum_index)
        assert _permutation_rows(bumped.tensor).keys() == currents.keys()
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="associative"):
            bumped.check_axioms()

    def test_representatives_reach_every_label(self):
        # {1, (0 1), (1 2)} is no group: the least label of each "orbit"
        # misses 2, which no permutation takes 0 to, so 2 is sliced too
        perms = np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1]])
        reps = fu._representatives(perms, 0)
        assert set(reps.tolist()) == {0, 2}
        assert set(perms[:, reps].ravel().tolist()) == {0, 1, 2}

    def test_currents_are_the_permutation_rows(self):
        ring = _ring("coset", 5)
        currents = _permutation_rows(ring.tensor)
        assert {ring.labels[j] for j in currents} == {
            w(m, m, k=5) for m in range(5)}  # psi_m = Lam_m + Lam_m
        for j, perm in currents.items():
            assert [ring.product(ring.labels[j], a) for a in ring.labels] == [
                Counter({ring.labels[c]: 1}) for c in perm]


def _reference_generators(tensor, vac):
    """The generators as the dense check read them from the tensor: the
    currents (_permutation_rows) that no word in the earlier ones reaches
    from the vacuum, then the non-current orbit representatives."""
    currents = _permutation_rows(tensor)
    checked, reached = [], {vac}
    for j in currents:
        if j not in reached:
            checked.append(j)
            reached = fu._words(vac, len(tensor),
                                [(currents[g], 0) for g in checked])
    reps = fu._representatives(np.array(list(currents.values())), vac)
    return tuple(checked + [a for a in reps.tolist() if a not in currents])


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 12), theory=st.sampled_from(["su2k", "coset", "full"]))
def test_orbit_tensor_and_generators_equal_the_all_rows_reference(k, theory):
    s = _s_matrix(theory, k)
    vac = fu.find_vacuum(s)
    expected, residuals = _one_shot_verlinde(s, vac)
    ring = _ring(theory, k)
    assert residuals.max() < fu.INTEGRALITY_TOLERANCE
    assert np.array_equal(ring.tensor, expected)
    assert ring.generators == _reference_generators(expected, vac)


@pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
@pytest.mark.parametrize("k", range(2, 17))
def test_simple_currents_are_the_permutation_rows(theory, k):
    # the permutations read from S are those the tensor's current rows
    # apply, which test_tensor_equals_one_shot pins to the all-rows sum
    ring = _ring(theory, k)
    rows = _permutation_rows(ring.tensor)
    currents, perms, _ = _simple_currents(_s_matrix(theory, k),
                                             ring.vacuum_index)
    assert currents.tolist() == list(rows)
    assert np.array_equal(perms, np.array(list(rows.values())))
    assert np.array_equal(ring.perms, perms)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 12), theory=st.sampled_from(["su2k", "coset", "full"]),
       data=st.data())
def test_certificate_on_random_symmetric_bumps(k, theory, data):
    # the orbit certificate (current compares, representative pairs) gives
    # the all-slices verdict, the n^4 reference computed one slice at a time
    ring = _ring(theory, k)
    assert _same_scan(ring.tensor)
    others = st.sampled_from(_others(ring, len(ring.labels)))
    a, b = data.draw(others), data.draw(others)
    c = data.draw(st.integers(0, len(ring.labels) - 1))
    bumped = _symmetric_bump(ring, a, b, c)
    assert _same_scan(bumped.tensor)
    try:
        bumped.check_axioms()
        passed = True
    except ConsistencyError:
        passed = False
    assert passed == _reference_sliced(bumped.tensor)


def _block_bump(ring, i, j, c):
    """A copy of `ring` with N_(r_i r_j)^c and N_(r_j r_i)^c of its block
    raised by one: every image under the currents moves with them."""
    block = ring.block.copy()
    block[i, j, c] += 1
    block[j, i, c] = block[i, j, c]
    return fu.FusionRing._from_block(ring.labels, ring.vacuum_index,
                                     ring.perms, block, ring.reps)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 12), theory=st.sampled_from(["su2k", "coset", "full"]),
       data=st.data())
def test_certificate_on_random_block_bumps(k, theory, data):
    # the compressed check on a bumped block: a pass means the expanded
    # tensor is a commutative ring with the vacuum as identity that passes
    # the all-slices n^4 reference, and a refused pair means it fails it
    ring = _ring(theory, k)
    reps = st.integers(0, len(ring.reps) - 1)
    i, j = data.draw(reps), data.draw(reps)
    c = data.draw(st.integers(0, len(ring.labels) - 1))
    bumped = _block_bump(ring, i, j, c)
    tensor = bumped.tensor
    try:
        bumped.check_axioms()
    except ConsistencyError as exc:
        if "associative" in str(exc):
            assert not _reference_sliced(tensor)
    else:
        assert np.array_equal(tensor, tensor.swapaxes(0, 1))
        assert np.array_equal(tensor[ring.vacuum_index],
                              np.eye(len(ring.labels)))
        assert _reference_sliced(tensor)


class TestBlockCheck:
    """Each part of the compressed check refuses a ring that only it sees;
    the expanded tensor shows the defect."""

    @pytest.mark.parametrize("theory,k", [("su2k", 2), ("coset", 4)])
    def test_block_not_invariant_under_a_stabilizer(self, theory, k):
        # the current k of su(2)_2 fixes 1, its one non-current
        # representative, so there are no pairs; psi_2 fixes (0,2), label
        # 7, at coset k = 4
        ring = _ring(theory, k)
        vac, perms, reps = ring.vacuum_index, ring.perms, ring.reps
        (j, i), = [(j, i) for j, i in zip(*np.nonzero(perms[:, reps] == reps))
                   if perms[j, vac] != vac]
        c = next(c for c in range(len(ring.labels)) if perms[j, c] != c)
        bumped = _block_bump(ring, i, i, c)
        assert not _reference_sliced(bumped.tensor)
        with pytest.raises(ConsistencyError, match="invariant under its "
                                                   "stabilizer"):
            bumped.check_axioms()

    def test_block_not_symmetric(self):
        # su(2)_2: N_(1 0) gains 0 and 2, invariant under the current, and
        # N_(0 1) does not
        ring = _ring("su2k", 2)
        block = ring.block.copy()
        block[1, 0, [0, 2]] += 1
        bumped = fu.FusionRing._from_block(ring.labels, 0, ring.perms, block,
                                           ring.reps)
        assert not np.array_equal(bumped.tensor,
                                  bumped.tensor.swapaxes(0, 1))
        with pytest.raises(ConsistencyError, match="not commutative"):
            bumped.check_axioms()

    def test_vacuum_row_not_delta(self):
        ring = _ring("su2k", 2)
        block = ring.block.copy()
        block[[0, 1], [1, 0]] += np.array([1, 0, 1], dtype=block.dtype)
        bumped = fu.FusionRing._from_block(ring.labels, 0, ring.perms, block,
                                           ring.reps)
        assert not np.array_equal(bumped.tensor[0], np.eye(3))
        with pytest.raises(ConsistencyError, match="vacuum"):
            bumped.check_axioms()

    def test_currents_that_do_not_commute(self):
        # S_3 acting on itself from the left is a group with one orbit,
        # but the ring it defines from N_(vac vac) = vac is the group ring
        # of S_3, which is not commutative
        group = list(itertools.permutations(range(3)))
        perms = np.array([[group.index(tuple(g[x] for x in h))
                           for h in group] for g in group])
        block = np.eye(6, dtype=np.int8)[None, :1]
        ring = _block_ring(tuple(range(6)), 0, perms, block)
        assert not np.array_equal(ring.tensor, ring.tensor.swapaxes(0, 1))
        with pytest.raises(ConsistencyError, match="do not commute"):
            ring.check_axioms()

    def test_currents_that_do_not_permute(self):
        # x -> 1, 1, 2 composes to itself, and 1 x 1 = 2 in the block
        perms = np.array([[0, 1, 2], [1, 1, 2]])
        block = np.zeros((2, 2, 3), dtype=np.int8)  # representatives 0, 2
        block[0, 0, 0] = block[0, 1, 2] = block[1, 0, 2] = block[1, 1, 0] = 1
        ring = _block_ring((0, 1, 2), 0, perms, block)
        assert ring.reps.tolist() == [0, 2]
        with pytest.raises(ConsistencyError, match="do not commute"):
            ring.check_axioms()

    def test_currents_that_are_not_closed(self):
        # Z_4 with the shift by one alone: 1 x 1 = 2 is no current. With
        # 2 x 2 = 2 in the block, (1 x 1) x 2 = 2 but 1 x (1 x 2) = 0
        perms = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        block = np.zeros((2, 2, 4), dtype=np.int8)  # representatives 0, 2
        block[0, 0, 0] = block[0, 1, 2] = block[1, 0, 2] = block[1, 1, 2] = 1
        ring = _block_ring((0, 1, 2, 3), 0, perms, block)
        assert ring.reps.tolist() == [0, 2]
        assert not _reference_associative(ring.tensor)
        with pytest.raises(ConsistencyError, match="not closed"):
            ring.check_axioms()


def _product_ring(k1, k2):
    """The Verlinde ring of su(2)_k1 x su(2)_k2, labels (l1, l2): at even
    k1 its current (k1, 0) fixes every (k1/2, l2), so the block has several
    (current, representative) fixed pairs, where each ring of the three
    theories has one."""
    a, b = sm.s_su2k(k1), sm.s_su2k(k2)
    labels = tuple(itertools.product(a.labels, b.labels))
    return fu.verlinde(sm.SMatrix(labels, np.kron(a.entries, b.entries)))


def _fixed_pairs(ring):
    """(J, i) with the current J != 1 fixing representative r_i, in the
    order the stabilizer compare reads them."""
    perms, reps, vac = ring.perms, ring.reps, ring.vacuum_index
    j, i = ((perms[:, reps] == reps) & (perms[:, [vac]] != vac)).nonzero()
    return list(zip(j.tolist(), i.tolist()))


class TestStabilizerCompare:
    """The batched stabilizer compare on blocks with several fixed pairs:
    it names the representative of the first pair that fails."""

    @pytest.mark.parametrize("k1,k2", [(2, 3), (2, 5), (4, 3)])
    def test_names_the_last_pair_when_only_it_fails(self, k1, k2):
        ring = _product_ring(k1, k2)
        pairs = _fixed_pairs(ring)
        assert len(pairs) >= 2
        ring.check_axioms()  # the real ring passes
        (j, i), earlier = pairs[-1], {i for _, i in pairs[:-1]}
        assert i not in earlier  # so breaking r_i breaks its pair alone
        c = next(c for c in range(len(ring.labels)) if ring.perms[j, c] != c)
        bumped = _block_bump(ring, i, i, c)
        label = ring.labels[ring.reps[i]]
        with pytest.raises(ConsistencyError, match=re.escape(
                f"block of {label} not invariant under its stabilizer")):
            bumped.check_axioms()

    @pytest.mark.parametrize("k1,k2", [(2, 3), (2, 5), (4, 3)])
    def test_names_the_first_pair_when_all_fail(self, k1, k2):
        ring = _product_ring(k1, k2)
        block = ring.block.copy()
        for j, i in _fixed_pairs(ring):
            c = next(c for c in range(len(ring.labels))
                     if ring.perms[j, c] != c)
            block[i, i, c] += 1
        bumped = fu.FusionRing._from_block(ring.labels, ring.vacuum_index,
                                           ring.perms, block, ring.reps)
        label = ring.labels[ring.reps[_fixed_pairs(ring)[0][1]]]
        with pytest.raises(ConsistencyError, match=re.escape(
                f"block of {label} not invariant")):
            bumped.check_axioms()

    def test_synthetic_block_with_two_fixed_labels(self):
        # x -> 1 - x on {0, 1} fixes the representatives 2 and 3: a
        # symmetric block with a delta vacuum row, sigma^2 = tau^2 =
        # sigma tau = 1 + psi, invariant but not associative; dropping psi
        # from tau^2 moves tau's row alone
        perms = np.array([[0, 1, 2, 3], [1, 0, 2, 3]])
        block = np.zeros((3, 3, 4), dtype=np.int8)  # representatives 0, 2, 3
        block[0, :, [0, 2, 3]] = np.eye(3, dtype=np.int8)  # vacuum row
        block[:, 0] = block[0]
        block[1, 1, [0, 1]] = block[2, 2, [0, 1]] = 1
        block[1, 2, [0, 1]] = block[2, 1, [0, 1]] = 1
        ring = _block_ring((0, 1, 2, 3), 0, perms, block)
        assert _fixed_pairs(ring) == [(1, 1), (1, 2)]
        with pytest.raises(ConsistencyError, match="associative"):
            ring.check_axioms()  # past the stabilizer compare
        broken = block.copy()
        broken[2, 2, 1] = 0  # tau tau = 1: not invariant under x -> 1 - x
        with pytest.raises(ConsistencyError,
                           match="block of 3 not invariant"):
            _block_ring((0, 1, 2, 3), 0, perms, broken).check_axioms()


def _loop_planes(ring):
    """The per-current loop the one-scatter planes replaced: one slot-2
    gather per current K, the later K overwriting a repeated row."""
    n = len(ring.labels)
    planes = np.empty((len(ring.reps), n, n), ring.block.dtype)
    for perm, inverse in zip(ring.perms, np.argsort(ring.perms)):
        planes[:, perm[ring.reps]] = ring.block[:, :, inverse]
    return planes


def _loop_tensor(ring):
    """The dense tensor expanded from the loop planes, one current at a
    time."""
    n, planes = len(ring.labels), _loop_planes(ring)
    tensor = np.empty((n, n, n), ring.block.dtype)
    for perm in ring.perms:
        tensor[perm[ring.reps]] = planes[:, perm]
    return tensor


def _words_generators(ring):
    """The generators as the _words walk found them: in label order, each
    current that no word in the earlier ones reaches from the vacuum,
    every word composed as an n-length permutation; then the non-current
    representatives."""
    perms, vac, n = ring.perms, ring.vacuum_index, len(ring.labels)
    slot = np.full(n, -1)
    slot[perms[:, vac]] = np.arange(len(perms))
    checked, reached = [], {vac}
    for j in np.flatnonzero(slot >= 0).tolist():
        if j not in reached:
            checked.append(j)
            reached = fu._words(vac, n, [(perms[slot[g]], 0)
                                         for g in checked])
    return tuple(checked + ring.reps[ring.reps != vac].tolist())


def _isin_representatives(perms, vac):
    """_representatives with its covered labels marked by np.isin."""
    reps = perms.min(axis=0) == np.arange(perms.shape[1])
    reps[perms[:, vac]] = False
    reps[vac] = True
    covered = np.isin(np.arange(len(reps)), perms[:, reps])
    return np.flatnonzero(reps | ~covered)


class TestOnePass:
    """Each structure check_axioms and the lookups build in one pass
    equals the per-current form it replaced."""

    @pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
    @pytest.mark.parametrize("k", range(2, 17))
    def test_equal_the_per_current_forms(self, theory, k):
        # fixed points at even k; two generators for the full theory there
        ring = _ring(theory, k)
        fresh = fu.FusionRing._from_block(ring.labels, ring.vacuum_index,
                                          ring.perms, ring.block, ring.reps)
        assert _bits_equal(fresh.planes(), _loop_planes(ring))
        assert _bits_equal(fresh.tensor, _loop_tensor(ring))
        assert fresh.check_axioms() == _words_generators(ring)
        assert np.array_equal(
            fu._representatives(ring.perms, ring.vacuum_index),
            _isin_representatives(ring.perms, ring.vacuum_index))

    @pytest.mark.parametrize("theory,k", [("su2k", 2), ("coset", 4),
                                          ("coset", 8), ("full", 6)])
    def test_later_current_wins_on_a_moved_block(self, theory, k):
        # a block row that its stabilizer moves: two currents write the
        # same plane row, and the later one's must stand, as in the loop
        ring = _ring(theory, k)
        j, i = _fixed_pairs(ring)[-1]
        c = next(c for c in range(len(ring.labels)) if ring.perms[j, c] != c)
        bumped = _block_bump(ring, i, i, c)
        assert not np.array_equal(bumped.planes(), _ring_planes_first(bumped))
        assert _bits_equal(bumped.planes(), _loop_planes(bumped))
        assert _bits_equal(bumped.tensor, _loop_tensor(bumped))

    @pytest.mark.parametrize("k1,k2", [(2, 3), (2, 2), (4, 4)])
    def test_product_rings(self, k1, k2):
        ring = _product_ring(k1, k2)
        assert _bits_equal(ring.planes(), _loop_planes(ring))
        assert ring.generators == _words_generators(ring)


def _ring_planes_first(ring):
    """The planes with the earlier current winning a repeated row: what a
    scatter in the other order would give."""
    n = len(ring.labels)
    planes = np.empty((len(ring.reps), n, n), ring.block.dtype)
    for perm, inverse in list(zip(ring.perms, np.argsort(ring.perms)))[::-1]:
        planes[:, perm[ring.reps]] = ring.block[:, :, inverse]
    return planes


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == (
        b.tobytes())


@st.composite
def _cyclic_products(draw):
    """(perms, vac): every element of Z_a1 x ... x Z_at as a row of
    permutations of a union of orbits Z_m1 x ... x Z_mt (m_i | a_i, so an
    orbit may be a fixed point), the labels shuffled, any vacuum."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    orbits = draw(st.lists(st.tuples(*[st.sampled_from(
        [m for m in range(1, a + 1) if a % m == 0]) for a in sizes]),
        min_size=1, max_size=4))
    points = [(o, x) for o, ms in enumerate(orbits)
              for x in itertools.product(*[range(m) for m in ms])]
    shuffle = draw(st.permutations(range(len(points))))
    index = {p: shuffle[q] for q, p in enumerate(points)}
    perms = np.empty((math.prod(sizes), len(points)), dtype=np.intp)
    for g, shift in enumerate(itertools.product(*map(range, sizes))):
        for (o, x), q in index.items():
            moved = tuple((xi + si) % m
                          for xi, si, m in zip(x, shift, orbits[o]))
            perms[g, q] = index[o, moved]
    return perms, draw(st.integers(0, len(points) - 1))


@settings(max_examples=200, deadline=None)
@given(_cyclic_products())
def test_representatives_on_cyclic_products(case):
    perms, vac = case
    assert np.array_equal(fu._representatives(perms, vac),
                          _isin_representatives(perms, vac))


@st.composite
def _near_permutations(draw):
    """An (n, n, n) int8 tensor whose every matrix N_x is a permutation
    matrix plus a move: one unit from one entry to another, which keeps
    the coefficient sum n (each label stays a candidate), or +-1 around a
    rectangle, which keeps every row and column sum. Either may leave a
    2, a -1, a row of two 1s beside an empty one, another permutation or
    nothing changed."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    tensor = np.zeros((n, n, n), dtype=np.int8)
    for x in range(n):
        tensor[x, np.arange(n), draw(st.permutations(range(n)))] = 1
        (r, c), (r2, c2) = draw(st.tuples(index, index)), draw(
            st.tuples(index, index))
        shift = draw(st.sampled_from([0, 1, -1]))
        tensor[x, r, c] += shift
        if draw(st.booleans()):  # a rectangle
            tensor[x, r2, c2] += shift
            tensor[x, r, c2] -= shift
            tensor[x, r2, c] -= shift
        else:
            tensor[x, r2, c2] -= shift
    return tensor


@settings(max_examples=200, deadline=None)
@given(_near_permutations())
def test_current_scan_on_near_permutations(tensor):
    assert _same_scan(tensor)


def _verlinde_need(n, r):
    """The bytes the guard of verlinde charges for n labels and r orbit
    representatives: per S entry, per block entry and per plane entry."""
    return ((fu.VERLINDE_BYTES_PER_SQUARE + r) * n ** 2
            + fu.VERLINDE_BYTES_PER_BLOCK_ENTRY * r ** 2 * n)


def _verlinde_peak(s):
    """(ring, tracemalloc peak of verlinde(s), check_axioms included)."""
    tracemalloc.start()
    try:
        ring = fu.verlinde(s)
        return ring, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    @pytest.mark.parametrize("theory,k", [
        ("coset", 10), ("full", 13), ("su2k", 10), ("su2k", 60),
        ("coset", 5), ("full", 4), ("coset", 24)])
    def test_peak_within_budget_constant(self, theory, k):
        # n = 11..300, R = 3..31: the peak stays below what the guard
        # charges for the block, its planes and the S-sized temporaries
        s = _s_matrix(theory, k)
        ring, peak = _verlinde_peak(s)
        assert peak < _verlinde_need(s.dim, len(ring.reps))

    def test_no_cube_sized_array(self):
        # the full theory at k = 30, n = 496: no n^3 array is allocated
        s = fc.full_s_product(30)
        ring, peak = _verlinde_peak(s)
        assert ring._tensor is None
        assert peak <= 0.5 * s.dim ** 3

    def test_planes_peak(self):
        # su(2)_150: n = 151, R = 76, m = 2. The planes are one read of the
        # block at an (n, n) map of positions; beyond the planes themselves
        # only that map, its one temporary and the inverse currents are held
        s = sm.s_su2k(150)
        vac = fu.find_vacuum(s)
        perms, block, reps, _ = fu._verlinde_block(s, vac)
        ring = fu.FusionRing._from_block(s.labels, vac, perms, block, reps)
        (m, n), size = perms.shape, len(reps)
        assert (n, size, m) == (151, 76, 2)
        tracemalloc.start()
        try:
            planes = ring.planes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert planes.nbytes == size * n ** 2 * block.itemsize
        assert peak <= planes.nbytes + 16 * n ** 2 + 8 * m * n + 2 ** 16

    def test_guard_raises_before_allocating(self, monkeypatch):
        s = co.coset_s_compact(4).s
        need = _verlinde_need(s.dim, 3)  # (0,0), (0,1) and (0,2)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with pytest.raises(ResourceError, match="budget"):
            fu.verlinde(s)
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        fu.verlinde(s)

    def test_tensor_charged_on_first_access(self, monkeypatch):
        ring = fu.verlinde(co.coset_s_compact(4).s)  # n = 10, int8
        monkeypatch.setattr(fu, "memory_budget", lambda: 10 ** 3 - 1)
        with pytest.raises(ResourceError, match="fusion tensor of 10 labels"):
            ring.tensor
        monkeypatch.setattr(fu, "memory_budget", lambda: 10 ** 3)
        assert ring.tensor is ring.tensor  # expanded once


class TestClosedForms:
    def test_su2k_simple_current(self):
        assert fu.fusion_su2k_closed(3, 1, 3) == {2}

    def test_su2k_k2(self):
        assert fu.fusion_su2k_closed(1, 1, 2) == {0, 2}

    def test_su2k_vacuum(self):
        for l2 in range(4):
            assert fu.fusion_su2k_closed(0, l2, 3) == {l2}

    def test_su2k_out_of_range(self):
        with pytest.raises(LabelError):
            fu.fusion_su2k_closed(4, 0, 3)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_su2k_matches_verlinde(self, k):
        ring = fu.verlinde(sm.s_su2k(k))
        for a in range(k + 1):
            for b in range(k + 1):
                closed = {c: 1 for c in fu.fusion_su2k_closed(a, b, k)}
                assert closed == dict(ring.product(a, b))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_su2k_tensor_is_the_per_pair_rule(self, k):
        tensor = fu.su2k_fusion_tensor(k, range(k + 1))
        assert tensor.shape == (k + 1,) * 3 and tensor.dtype == np.int8
        for a in range(k + 1):
            for b in range(k + 1):
                outcomes = set(np.flatnonzero(tensor[a, b]).tolist())
                assert outcomes == fu.fusion_su2k_closed(a, b, k)
        assert set(np.unique(tensor).tolist()) == {0, 1}

    def test_sigma2_squared(self):
        # k=3: (Lam0+Lam2) x (Lam0+Lam2) = (Lam2+Lam2) + (Lam0+Lam1)
        got = fu.fusion_coset_closed(w(0, 2), w(0, 2))
        assert got == Counter({w(2, 2): 1, w(0, 1): 1})

    @pytest.mark.parametrize("k", range(2, 7))
    def test_simple_current_action(self, k):
        j = sm.CosetWeight(1, 1, k)
        for weight in sm.canonical_weights(k):
            expected = sm.CosetWeight(weight.mu + 1, weight.nu + 1, k)
            assert fu.fusion_coset_closed(j, weight) == Counter({expected: 1})

    @pytest.mark.parametrize("k", range(2, 13))
    def test_coset_tensor_is_the_per_pair_rule(self, k):
        labels = sm.canonical_weights(k)
        index = {lab: i for i, lab in enumerate(labels)}
        expected = np.zeros((len(labels),) * 3, dtype=np.int64)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                for c, mult in fu.fusion_coset_closed(a, b).items():
                    expected[i, j, index[c]] = mult
        assert np.array_equal(fu.coset_fusion_tensor(k, range(len(labels))),
                              expected)

    @pytest.mark.parametrize("k", [20, 30])
    def test_coset_tensor_peak(self, k):
        # one pass per outcome step over the pairs: the tracemalloc peak
        # stays within a quarter of the int8 result above it
        tracemalloc.start()
        try:
            tensor = fu.coset_fusion_tensor(k, range(k * (k + 1) // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.dtype == np.int8 and peak <= 1.25 * tensor.nbytes

    @pytest.mark.parametrize("k", range(2, 7))
    def test_coset_matches_verlinde(self, k):
        ring = fu.verlinde(co.coset_s_compact(k).s)
        for a in ring.labels:
            for b in ring.labels:
                assert fu.fusion_coset_closed(a, b) == ring.product(a, b)


def _row_lists(ring):
    """Index lists for FusionRing.rows: one row, every row reversed, none,
    the orbits of the vacuum and of the last representative in current
    order (a list crossing from one orbit to the other), and every row."""
    n, vac, last = len(ring.labels), ring.vacuum_index, ring.reps[-1]
    across = [*ring.perms[:, vac].tolist(), *ring.perms[:, last].tolist()]
    return {"one": [n // 2], "reversed": list(range(n))[::-1], "empty": [],
            "across": across, "every": range(n)}


class TestRows:
    """FusionRing.rows and the closed rules read only the rows asked
    for, and each equals its all-rows form there."""

    @pytest.mark.parametrize("theory", ["su2k", "coset", "full"])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_rows_equal_one_shot(self, theory, k):
        s = _s_matrix(theory, k)
        expected, _ = _one_shot_verlinde(s, fu.find_vacuum(s))
        ring = _ring(theory, k)
        lists = _row_lists(ring)
        assert set(lists["across"]) > set(ring.perms[:, ring.vacuum_index])
        for name, a in lists.items():
            rows = ring.rows(a)
            assert rows.shape == (len(a), s.dim, s.dim), name
            assert rows.dtype == ring.block.dtype == np.int8, name
            assert np.array_equal(rows, expected[list(a)]), name

    def test_rows_keep_the_block_dtype(self):
        ring = _klein_four()  # an int64 tensor, the trivial group's block
        assert ring.rows([2, 1]).dtype == np.int64
        assert np.array_equal(ring.rows([2, 1]), ring.block[[2, 1]])

    @pytest.mark.parametrize("k", range(2, 17))
    @pytest.mark.parametrize("rule,dim", [
        (fu.su2k_fusion_tensor, lambda k: k + 1),
        (fu.coset_fusion_tensor, lambda k: k * (k + 1) // 2)])
    def test_closed_rules_at_random_rows(self, rule, dim, k):
        n, rng = dim(k), np.random.default_rng(k)
        every = rule(k, range(n))
        assert every.shape == (n,) * 3 and every.dtype == np.int8
        for size in (0, 1, rng.integers(2, n + 1), n):
            rows = rng.permutation(n)[:size]
            block = rule(k, rows)
            assert block.dtype == np.int8
            assert np.array_equal(block, every[rows])


class TestQuantumDimensions:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_su2k_simple_current_dimension(self, k):
        dims = fu.quantum_dimensions(sm.s_su2k(k))
        assert dims[k] == pytest.approx(1.0)

    def test_k3_coset(self):
        s = co.coset_s_compact(3).s
        dims = fu.quantum_dimensions(s)
        assert dims[w(0, 1)] == pytest.approx(DELTA, abs=1e-7)
        assert sorted(round(d, 7) for d in dims.values()) == \
            [1.0, 1.0, 1.0] + [round(DELTA, 7)] * 3
        assert fu.total_quantum_dimension(s) == pytest.approx(
            math.sqrt(3 * (DELTA + 2)), abs=1e-10)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_dimension_homomorphism(self, k):
        for s in (co.coset_s_compact(k).s, fc.full_s_product(k)):
            ring = fu.verlinde(s)
            dims = fu.quantum_dimensions(s)
            d = np.array([dims[lab] for lab in ring.labels])
            lhs = np.einsum("abc,c->ab", ring.tensor, d)
            rhs = np.outer(d, d)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def _passes(report, tol=1e-10):
    """Every residual of a ModularReport below tol, C a permutation."""
    return report.conjugation_is_permutation and max(
        report.s2_defect, report.st3_defect, report.c2_defect,
        report.unitarity_defect) < tol


def _t_theories(k):
    """(labels, TData) of su(2)_k, the coset and the full theory at k."""
    su2k = sm.s_su2k(k).labels
    yield su2k, fu.TData({l: sm.dim_su2k(l, k) for l in su2k},
                         Fraction(3 * k, k + 2))
    data = co.coset_s_compact(k)
    yield data.s.labels, fu.TData(data.dims, data.central_charge)
    yield fc.enumerate_sectors(k), fu.TData(fc.full_dims(k),
                                            fc.full_central_charge(k))


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


class TestTVector:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_bitwise_phases(self, k):
        for labels, t in _t_theories(k):
            assert _bits(t.vector(labels)) == _bits(
                [t.phase(lab) for lab in labels])

    @pytest.mark.parametrize("dims,c", [
        ({"a": 0, "b": 1, "c": -2, "d": 7}, Fraction(0)),
        ({"a": 0, "b": 3, "c": -5}, Fraction(4, 5)),
        ({"a": Fraction(1, 3), "b": 5, "c": Fraction(-7, 12)}, Fraction(1)),
        ({"a": Fraction(1, 15), "b": Fraction(2, 3)}, Fraction(-26, 7)),
        ({"a": Fraction(1, 3 ** 40), "b": Fraction(2 ** 70 + 1, 2 ** 71)},
         Fraction(1, 10 ** 20)),
        # anything Fraction() accepts
        ({"a": "1/3", "b": 0.1, "c": Fraction(5, 4)}, Fraction(1, 2)),
    ])
    def test_hand_made_dicts(self, dims, c):
        t = fu.TData(dims, c)
        labels = list(dims)[::-1]
        assert _bits(t.vector(labels)) == _bits(
            [t.phase(lab) for lab in labels])

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
               st.integers(-10 ** 9, 10 ** 9),
               st.fractions(max_denominator=10 ** 6)), max_size=8),
           c=st.fractions(max_denominator=10 ** 4))
    def test_random_dicts(self, values, c):
        t = fu.TData(dict(enumerate(values)), c)
        assert _bits(t.vector(range(len(values)))) == _bits(
            [t.phase(lab) for lab in range(len(values))])

    def test_empty_and_missing_label(self):
        t = fu.TData({"a": Fraction(1, 2)}, Fraction(1, 2))
        assert t.vector([]).shape == (0,)
        with pytest.raises(KeyError):
            t.vector(["a", "b"])


class TestModularRelations:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_su2k(self, k):
        s = sm.s_su2k(k)
        t = fu.TData({l: sm.dim_su2k(l, k) for l in s.labels},
                     Fraction(3 * k, k + 2))
        assert _passes(fu.verify_modular_relations(s, t))
        # su(2)_k is self-conjugate: C must be the identity
        assert np.max(np.abs(s.entries @ s.entries - np.eye(k + 1))) < 1e-10

    @pytest.mark.parametrize("k", range(2, 7))
    def test_coset(self, k):
        data = co.coset_s_compact(k)
        assert _passes(fu.verify_modular_relations(
            data.s, fu.TData(data.dims, data.central_charge)))

    def test_conjugation_is_structural(self):
        data = co.coset_s_compact(3)
        t = fu.TData(data.dims, data.central_charge)
        # S^2 off C by 1e-6 is still a permutation; s2_defect shows how far
        off = sm.SMatrix(data.s.labels, data.s.entries * (1 + 5e-7))
        report = fu.verify_modular_relations(off, t)
        assert report.conjugation_is_permutation
        assert report.s2_defect == pytest.approx(1e-6, rel=1e-3)
        # S^2 that rounds to 2 I is not
        twice = sm.SMatrix(data.s.labels, data.s.entries * math.sqrt(2))
        assert not fu.verify_modular_relations(
            twice, t).conjugation_is_permutation

    @staticmethod
    def _rooted(c):
        """(S, T) with S a square root of c by eigendecomposition, so that
        S^2 rounds to c; T is trivial."""
        w, v = np.linalg.eig(c.astype(complex))
        s = sm.SMatrix(tuple(range(len(c))),
                       v @ np.diag(np.sqrt(w)) @ np.linalg.inv(v))
        assert np.array_equal(np.round((s.entries @ s.entries).real), c)
        return s, fu.TData(dict.fromkeys(s.labels, 0), Fraction(0))

    @pytest.mark.parametrize("n,defects", [(1, {0}), (2, {0, 2}),
                                           (3, {0, 1, 2}), (4, {0, 1, 2})])
    def test_c2_by_index_on_every_signed_permutation(self, n, defects):
        # fixed points and involutions with either sign, 3- and 4-cycles
        seen = set()
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                c = np.zeros((n, n))
                c[np.arange(n), perm] = signs
                report = fu.verify_modular_relations(*self._rooted(c))
                assert report.conjugation_is_permutation
                assert report.c2_defect == np.max(np.abs(c @ c - np.eye(n)))
                seen.add(report.c2_defect)
        assert seen == defects

    @pytest.mark.parametrize("c", [
        2 * np.eye(3),  # S * sqrt(2)
        np.diag([1, 0]),  # a zero row
        np.ones((2, 2)),  # two entries in every row and column
        np.array([[0, 1], [1, 1]]),  # a row with two entries
    ])
    def test_c2_defect_inf_unless_signed_permutation(self, c):
        report = fu.verify_modular_relations(*self._rooted(c))
        assert not report.conjugation_is_permutation
        assert report.c2_defect == math.inf

    def test_c2_defect_of_a_nan_s(self):
        data = co.coset_s_compact(3)
        entries = data.s.entries.copy()
        entries[1, 2] = np.nan
        report = fu.verify_modular_relations(
            sm.SMatrix(data.s.labels, entries),
            fu.TData(data.dims, data.central_charge))
        assert not report.conjugation_is_permutation
        assert math.isnan(report.s2_defect) and report.c2_defect == math.inf

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 12, 20, 30])
    def test_c2_by_index_for_every_theory(self, k):
        for s in (sm.s_su2k(k), co.coset_s_compact(k).s, fc.full_s_product(k)):
            labels = s.labels
            t = next(t for labs, t in _t_theories(k) if labs == labels)
            report = fu.verify_modular_relations(s, t)
            c = np.round((s.entries @ s.entries).real)
            assert report.conjugation_is_permutation
            assert report.c2_defect == np.max(np.abs(c @ c - np.eye(s.dim)))

    def test_t_phases_unimodular(self):
        data = co.coset_s_compact(4)
        t = fu.TData(data.dims, data.central_charge)
        for lab in data.s.labels:
            assert abs(abs(t.phase(lab)) - 1) < 1e-12
