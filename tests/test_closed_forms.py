"""The vectorised closed forms against per-entry references.

Each reference is the entry-by-entry loop the package used before its
builders became label-array broadcasts: one exact Fraction phase and one
cmath.exp per entry, in the same label order. The builders now read
their entries off per-coordinate factor tables; the n^2 label-array
broadcasts they replace are kept here too, and each builder must equal
its broadcast bit for bit.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import smatrix as sm

KS = range(2, 13)


def unit_phase(q) -> complex:
    """exp(2 pi i q) for an exact rational q, reduced mod 1 first."""
    return cmath.exp(2j * math.pi * float(Fraction(q) % 1))


def suk2_compact_ref(k):
    labels = sm.canonical_weights(k)
    pref = 2.0 / math.sqrt(k * (k + 2))
    entries = [[pref * unit_phase(Fraction((a.mu + a.nu) * (b.mu + b.nu), 2 * k))
                * math.sin(math.pi * (a.diff + 1) * (b.diff + 1) / (k + 2))
                for b in labels] for a in labels]
    return labels, np.array(entries)


def representative_row(k):
    reps = range(sm.orbit_count(k))
    return {(a, b): sm.level_rank_entry(sm.CosetWeight(0, a, k),
                                        sm.CosetWeight(0, b, k), k)
            for a in reps for b in reps}


def current_walk(k):
    """(l, p) of each weight w = J^p (0, l), found by walking the current
    J = 2 Lam_1 (both indices + 1 mod k) from each representative (0, l)."""
    where = {}
    for l in range(k // 2 + 1):
        for p in range(k):
            where.setdefault(sm.CosetWeight(p, l + p, k), (l, p))
    return where


def extend_ref(k):
    where = current_walk(k)
    row = representative_row(k)
    labels = sm.canonical_weights(k)
    entries = np.empty((len(labels), len(labels)), dtype=complex)
    for i, a in enumerate(labels):
        rep_a, p = where[a]
        for j, b in enumerate(labels):
            rep_b, q = where[b]
            phase = unit_phase(Fraction(p * (b.mu + b.nu), k)
                               + Fraction(q * rep_a, k))
            entries[i, j] = phase * row[(rep_a, rep_b)]
    return labels, entries


def phase_form_ref(k):
    base = sm.s_suk2_compact(k)
    entries = np.empty((base.dim, base.dim), dtype=complex)
    for i, a in enumerate(base.labels):
        for j, b in enumerate(base.labels):
            phase = unit_phase(Fraction((a.mu + a.nu) * (b.mu + b.nu), k))
            entries[i, j] = phase * np.conj(base.entries[i, j])
    return base.labels, entries


def via_su2k_u1_ref(k):
    labels = sm.canonical_weights(k)
    s2, su1 = sm.s_su2k(k), co.s_u1_2k(k)
    lm = [co.to_lm(w) for w in labels]
    entries = [[2 * s2.entry(a.l, b.l)
                * np.conj(su1.entry(a.m % (2 * k), b.m % (2 * k)))
                for b in lm] for a in lm]
    return labels, np.array(entries)


def full_product_ref(k):
    sectors = fc.enumerate_sectors(k)
    charged, neutral = fc.s_u1(k), co.coset_s_compact(k).s
    entries = [[k * charged.entry(a.l, b.l) * neutral.entry(a.neutral, b.neutral)
                for b in sectors] for a in sectors]
    return sectors, np.array(entries)


def lifted_ref(s, k):
    """(L, d) of a sector: l shifted by k+2 whenever reducing 2 rho - l
    into [0, k) wrapped it."""
    t = ((s.l - s.rho) % k - (s.l - s.rho)) // k
    return s.l + (k + 2) * t, (2 * s.rho - s.l) % k


def full_compact_ref(k):
    sectors = fc.enumerate_sectors(k)
    entries = np.empty((len(sectors), len(sectors)), dtype=complex)
    for i, a in enumerate(sectors):
        la, da = lifted_ref(a, k)
        for j, b in enumerate(sectors):
            lb, db = lifted_ref(b, k)
            entries[i, j] = ((2.0 / (k + 2))
                             * unit_phase(Fraction(la * lb, 2 * (k + 2)))
                             * math.sin(math.pi * (da + 1) * (db + 1) / (k + 2)))
    return sectors, entries


BUILDERS = {
    "s_suk2_compact": (sm.s_suk2_compact, suk2_compact_ref),
    "simple_current_extend":
        (lambda k: sm.simple_current_extend(representative_row(k), k),
         extend_ref),
    "coset_s_phase_form": (co.coset_s_phase_form, phase_form_ref),
    "coset_s_via_su2k_u1": (co.coset_s_via_su2k_u1, via_su2k_u1_ref),
    "full_s_product": (fc.full_s_product, full_product_ref),
    "full_s_compact": (fc.full_s_compact, full_compact_ref),
}


def broadcast_phase(num, den):
    """exp(2 pi i num/den), num reduced mod den by fancy indexing."""
    return np.exp(2j * np.pi * (np.arange(den) / den))[np.mod(num, den)]


def suk2_compact_broadcast(k):
    mu, nu = sm.canonical_arrays(k)
    m, l = mu + nu, nu - mu
    sine = np.sin(np.pi * np.outer(l + 1, l + 1) / (k + 2))
    return (2.0 / math.sqrt(k * (k + 2)) * broadcast_phase(np.outer(m, m), 2 * k)
            * sine)


def phase_form_broadcast(k):
    m = sum(sm.canonical_arrays(k))
    return (broadcast_phase(np.outer(m, m), k)
            * np.conj(suk2_compact_broadcast(k)))


def via_su2k_u1_broadcast(k):
    mu, nu = sm.canonical_arrays(k)
    l, m = nu - mu, mu + nu
    return (2 * sm.s_su2k(k).entries[np.ix_(l, l)]
            * np.conj(co.s_u1_2k(k).entries[np.ix_(m, m)]))


def full_product_broadcast(k):
    l, _, _, _, neutral = fc.sector_arrays(k)
    charged = (broadcast_phase(-np.outer(l, l), k * (k + 2))
               / math.sqrt(k * (k + 2)))
    return k * charged * suk2_compact_broadcast(k)[np.ix_(neutral, neutral)]


def full_compact_broadcast(k):
    _, _, lifted, d, _ = fc.sector_arrays(k)
    sine = np.sin(np.pi * np.outer(d + 1, d + 1) / (k + 2))
    return ((2.0 / (k + 2))
            * broadcast_phase(np.outer(lifted, lifted), 2 * (k + 2)) * sine)


# builder: (n^2 broadcast, bound on its tracemalloc peak at k = 40 in units
# of S's bytes; at the broadcasts it was 2.50, 3.01, 3.00, 4.27 and 2.50)
TABLE_BUILDERS = {
    sm.s_suk2_compact: (suk2_compact_broadcast, 1.75),
    co.coset_s_phase_form: (phase_form_broadcast, 2.25),
    co.coset_s_via_su2k_u1: (via_su2k_u1_broadcast, 2.25),
    fc.full_s_product: (full_product_broadcast, 3.0),
    fc.full_s_compact: (full_compact_broadcast, 1.75),
}


@pytest.mark.parametrize("build", TABLE_BUILDERS, ids=lambda f: f.__name__)
def test_builder_is_bitwise_its_broadcast(build):
    broadcast, _ = TABLE_BUILDERS[build]
    for k in range(2, 31):
        assert build(k).entries.tobytes() == broadcast(k).tobytes(), k


@pytest.mark.parametrize("build", TABLE_BUILDERS, ids=lambda f: f.__name__)
def test_builder_peak_at_k40(build):
    _, ratio = TABLE_BUILDERS[build]
    build(40)  # the level's cached labels and label arrays
    tracemalloc.start()
    try:
        s = build(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * s.entries.nbytes + 2 ** 16


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_matches_per_entry_reference(name, k):
    build, reference = BUILDERS[name]
    s = build(k)
    labels, entries = reference(k)
    assert s.labels == labels
    assert np.max(np.abs(s.entries - entries)) <= 1e-12


def test_builders_honour_a_permuted_basis():
    basis = sm.orbit_basis(5)
    for build in (sm.s_suk2_compact, co.coset_s_phase_form,
                  co.coset_s_via_su2k_u1):
        s = build(5)
        r = s.reindexed(basis)
        assert r.labels == basis
        perm = [s.labels.index(x) for x in basis]
        assert np.array_equal(r.entries, s.entries[np.ix_(perm, perm)])
        assert all(r.entry(a, b) == s.entry(a, b)
                   for a in basis for b in basis)


def test_orbit_of_matches_the_current_walk():
    for k in range(2, 31):
        where = current_walk(k)
        labels = sm.canonical_weights(k)
        assert len(where) == len(labels)  # the orbits partition the weights
        l, p = sm.orbit_of(*sm.weight_arrays(labels), k)
        assert list(zip(l.tolist(), p.tolist())) == [where[x] for x in labels]
        assert sm.orbit_basis(k) == tuple(
            sorted(labels, key=lambda x: (where[x][0], x.mu, x.nu)))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 20), data=st.data())
def test_orbit_of_inverts_the_current(k, data):
    labels = sm.canonical_weights(k)
    l, p = sm.orbit_of(*sm.weight_arrays(labels), k)
    assert all(0 <= x <= k // 2 for x in l.tolist())
    assert set(l.tolist()) == set(range(sm.orbit_count(k)))
    assert [sm.CosetWeight(b, a + b, k)
            for a, b in zip(l.tolist(), p.tolist())] == list(labels)
    w = data.draw(st.sampled_from(labels))
    assert sm.orbit_of(w.mu, w.nu, k) == (l[labels.index(w)],
                                          p[labels.index(w)])


def test_phase_is_exact_mod_den():
    num = np.array([-7, 0, 3, 10 ** 12 + 3])
    assert np.array_equal(sm.phase(num, 5), sm.phase(np.mod(num, 5), 5))
    grid = np.arange(-9, 9)
    assert sm.phase(np.outer(grid, grid), 7).tobytes() == \
        broadcast_phase(np.outer(grid, grid), 7).tobytes()
    assert abs(sm.phase(1, 4) - 1j) < 1e-15
    assert sm.phase(0, 3) == 1


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 20), data=st.data())
def test_label_arrays_agree_with_dataclass_labels(k, data):
    weights = sm.canonical_weights(k)
    basis = data.draw(st.permutations(weights))
    mu, nu = sm.weight_arrays(basis)
    assert mu.tolist() == [w.mu for w in basis]
    assert nu.tolist() == [w.nu for w in basis]
    assert sm.canonical_index(mu, nu, k).tolist() == \
        [weights.index(w) for w in basis]

    sectors = fc.enumerate_sectors(k)
    l, rho, lifted, d, neutral = fc.sector_arrays(k)
    assert l.tolist() == [s.l for s in sectors]
    assert rho.tolist() == [s.rho for s in sectors]
    assert [weights[i] for i in neutral] == [s.neutral for s in sectors]
    assert list(zip(lifted.tolist(), d.tolist())) == \
        [lifted_ref(s, k) for s in sectors]
