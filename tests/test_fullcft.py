import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import lie
from parafermions import smatrix as sm
from parafermions.errors import ConsistencyError, InvalidRankError, LabelError


def fraction_det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


class TestSectors:
    def test_counts(self):
        assert len(fc.enumerate_sectors(1)) == 3
        assert len(fc.enumerate_sectors(2)) == 6
        assert len(fc.enumerate_sectors(3)) == 10

    @pytest.mark.parametrize("k", range(2, 9))
    def test_count_formula(self, k):
        assert len(fc.enumerate_sectors(k)) == (k + 1) * (k + 2) // 2

    def test_pairing_rule_enforced(self):
        with pytest.raises(LabelError):
            fc.FullSector(1, 0, 3)  # mu = 1 > rho = 0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_labels_reduced_mod_k_plus_2_and_k(self, k):
        for s in fc.enumerate_sectors(k):
            for a, b in ((1, 0), (-1, 1), (k, 3), (k + 1, -2)):
                t = fc.FullSector(s.l + a * (k + 2), s.rho + b * k, k)
                assert (t.l, t.rho) == (s.l, s.rho)

    def test_neutral_label(self):
        s = fc.FullSector(1, 1, 3)
        assert s.neutral == sm.CosetWeight(0, 1, 3)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 20), data=st.data())
    def test_pairing_rule_is_sector_arrays(self, k, data):
        l, rho, _, _, neutral = fc.sector_arrays(k)
        listed = dict(zip(zip(l.tolist(), rho.tolist()), neutral.tolist()))
        a = data.draw(st.integers(-3 * (k + 2), 3 * (k + 2)))
        b = data.draw(st.integers(-3 * k, 3 * k))
        key = (a % (k + 2), b % k)
        if key not in listed:
            with pytest.raises(LabelError):
                fc.FullSector(a, b, k)
            return
        sector = fc.FullSector(a, b, k)
        assert (sector.l, sector.rho) == key
        assert sm.canonical_weights(k).index(sector.neutral) == listed[key]

    def test_ordering_lexicographic(self):
        sectors = fc.enumerate_sectors(2)
        pairs = [(s.l, s.rho) for s in sectors]
        assert pairs == sorted(pairs)


class TestU1:
    def test_k3_entries(self):
        s = fc.s_u1(3)
        assert s.entry(0, 0) == pytest.approx(1 / math.sqrt(15))
        val = s.entry(1, 1)
        assert abs(val) == pytest.approx(1 / math.sqrt(15))
        assert np.angle(val) == pytest.approx(-2 * math.pi / 15)

    def test_vacuum_row_constant(self):
        s = fc.s_u1(2)
        assert np.max(np.abs(s.entries[0] - s.entries[0, 0])) < 1e-12


class TestFullSMatrix:
    def test_k2_vacuum_entry(self):
        s = fc.full_s_product(2)
        vac = fc.FullSector(0, 0, 2)
        assert s.entry(vac, vac) == pytest.approx(1 / math.sqrt(8), abs=1e-10)
        assert s.entry(vac, vac) == pytest.approx(0.3535534, abs=1e-7)

    def test_k2_compact_vacuum(self):
        s = fc.full_s_compact(2)
        vac = fc.FullSector(0, 0, 2)
        assert s.entry(vac, vac) == pytest.approx(0.5 * math.sin(math.pi / 4))

    def test_k3_compact_vacuum(self):
        s = fc.full_s_compact(3)
        vac = fc.FullSector(0, 0, 3)
        assert s.entry(vac, vac) == pytest.approx(0.4 * math.sin(math.pi / 5))

    def test_k3_shape(self):
        s = fc.full_s_product(3)
        assert s.dim == 10
        assert s.unitarity_defect() < 1e-10

    @pytest.mark.parametrize("k", range(2, 7))
    def test_dual_construction(self, k):
        assert fc.full_s_product(k).max_abs_diff(fc.full_s_compact(k)) < 1e-10

    @pytest.mark.parametrize("k", range(2, 7))
    def test_unitary_symmetric_conjugation(self, k):
        s = fc.full_s_product(k)
        assert s.unitarity_defect() < 1e-10
        assert np.max(np.abs(s.entries - s.entries.T)) < 1e-10
        t = fu.TData(fc.full_dims(k), fc.full_central_charge(k))
        assert fu.verify_modular_relations(s, t).conjugation_is_permutation

    @pytest.mark.parametrize("k", range(2, 7))
    def test_verlinde_integral_and_simple_currents(self, k):
        s = fc.full_s_product(k)
        ring = fu.verlinde(s)
        dims = fu.quantum_dimensions(s)
        for i, lab in enumerate(ring.labels):
            if abs(dims[lab] - 1) < 1e-8:
                # Abelian sector: fusion with it permutes the labels
                rows = ring.tensor[i]
                assert np.all(rows.sum(axis=1) == 1)
                assert np.all(rows.sum(axis=0) == 1)


class TestDims:
    def test_examples(self):
        dims3 = fc.full_dims(3)
        assert dims3[fc.FullSector(0, 0, 3)] == 0
        assert dims3[fc.FullSector(1, 1, 3)] == Fraction(1, 10)
        dims2 = fc.full_dims(2)
        from parafermions import coset as co
        expected = Fraction(4, 16) + co.coset_dimension(sm.CosetWeight(1, 1, 2))
        assert dims2[fc.FullSector(2, 1, 2)] == expected


    @pytest.mark.parametrize("k", range(2, 41))
    def test_per_sector_formula(self, k):
        dims = fc.full_dims(k)
        expected = {s: Fraction(s.l * s.l, 2 * k * (k + 2))
                    + co.coset_dimension(s.neutral)
                    for s in fc.enumerate_sectors(k)}
        assert list(dims) == list(expected) and dims == expected
        assert all(type(d) is Fraction for d in dims.values())


@st.composite
def symmetric_systems(draw):
    """(G, Q): a random symmetric integer G up to 8 x 8, half the time
    B^T B + I (positive definite), and an integer Q."""
    n = draw(st.integers(1, 8))
    small = st.integers(-4, 4)
    if draw(st.booleans()):
        b = np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)))
        g = b.reshape(n, n).T @ b.reshape(n, n) + np.eye(n, dtype=int)
    else:
        g = np.zeros((n, n), dtype=int)
        g[np.triu_indices(n)] = draw(st.lists(
            small, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        g = g + np.triu(g, 1).T
    q = draw(st.lists(small, min_size=n, max_size=n))
    return tuple(map(tuple, g.tolist())), tuple(q)


def assert_pivots_are_fraction_minors(gram, q):
    """The lattice of (gram, q) has the Fraction leading minors and Schur
    complement as int pivots, or names the first minor <= 0 as it is."""
    n = len(gram)
    minors = [fraction_det([row[:m] for row in gram[:m]])
              for m in range(1, n + 1)]
    bad = next((m for m in range(n) if minors[m] <= 0), None)
    if bad is not None:
        with pytest.raises(ConsistencyError) as err:
            fc.ChargeLattice(k=5, gram=gram, charge_vector=q)
        assert str(err.value) == (
            "Gram matrix not positive definite at k=5: "
            f"leading minor {bad + 1} is {minors[bad]}")
        return
    cl = fc.ChargeLattice(k=5, gram=gram, charge_vector=q)
    qgq = sum(a * b for a, b in zip(q, lie.rational_solve(gram, q)))
    assert cl.pivots == (*minors, -minors[-1] * qgq)
    assert all(type(p) is int for p in cl.pivots)


def gram_entry(i, j, k):
    """Entry (i, j) of the rank 2k-1 Gram matrix, written out: the corner
    3 at (0, 0), 1 between it and the first row of each Cartan block (rows
    1 and k), and in each A_{k-1} block (rows 1..k-1 and k..2k-2) 2 on
    the diagonal and -1 beside it; 0 elsewhere."""
    if i == j:
        return 3 if i == 0 else 2
    if min(i, j) == 0:
        return int(max(i, j) in (1, k))
    same_block = (i < k) == (j < k)
    return -1 if abs(i - j) == 1 and same_block else 0


def wide_system(bits, seed):
    """(G, Q) with G = B^T B + I positive definite, B 6 x 6 with entries
    below 2^bits in magnitude, and G with its fifth leading minor made
    negative by lowering G_44 alone (minors 1..4 unchanged)."""
    rng = np.random.default_rng(seed)
    b = [[int(x) for x in row] for row in rng.integers(-2 ** bits, 2 ** bits,
                                                     (6, 6), dtype=np.int64)]
    g = [[sum(b[r][i] * b[r][j] for r in range(6)) + (i == j)
          for j in range(6)] for i in range(6)]
    q = tuple(int(x) for x in rng.integers(-4, 5, 6))
    m4, m5 = (fraction_det([row[:m] for row in g[:m]]) for m in (4, 5))
    bent = [row[:] for row in g]
    bent[4][4] -= m5 // m4 + 1  # minor 5 drops by (m5 // m4 + 1) m4 > m5
    return (tuple(map(tuple, g)), q), (tuple(map(tuple, bent)), q)


class TestChargeLattice:
    @settings(max_examples=300, deadline=None)
    @given(system=symmetric_systems())
    def test_bareiss_pivots_are_fraction_minors(self, system):
        assert_pivots_are_fraction_minors(*system)

    @pytest.mark.parametrize("bent", [False, True])
    def test_entries_cross_int64_mid_elimination(self, bent):
        # every input below 2^31, so the pass starts in int64, and the
        # minors pass 2^31 and then 2^63 as it goes
        system = wide_system(13, seed=1)[bent]
        assert max(abs(x) for row in system[0] for x in row) < 2 ** 31
        assert fraction_det([row[:3] for row in system[0][:3]]) >= 2 ** 63
        assert_pivots_are_fraction_minors(*system)

    @pytest.mark.parametrize("bent", [False, True])
    def test_inputs_beyond_int64(self, bent):
        system = wide_system(40, seed=2)[bent]
        assert max(abs(x) for row in system[0] for x in row) >= 2 ** 63
        assert_pivots_are_fraction_minors(*system)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gram_entries(self, k):
        n = 2 * k - 1
        gram = fc.gram_matrix(k).gram
        assert gram == tuple(tuple(gram_entry(i, j, k) for j in range(n))
                             for i in range(n))
        assert all(type(x) is int for row in gram for x in row)

    def test_k2(self):
        cl = fc.gram_matrix(2)
        assert cl.gram == ((3, 1, 1), (1, 2, 0), (1, 0, 2))

    def test_k1(self):
        assert fc.gram_matrix(1).gram == ((3,),)

    def test_k3_blocks(self):
        cl = fc.gram_matrix(3)
        assert cl.dim == 5
        g = np.array(cl.gram)
        a2 = np.array([[2, -1], [-1, 2]])
        assert np.all(g[1:3, 1:3] == a2)
        assert np.all(g[3:5, 3:5] == a2)
        assert np.all(g[1:3, 3:5] == 0)
        assert g[0, 1] == g[0, 3] == 1
        assert g[0, 2] == g[0, 4] == 0

    @pytest.mark.parametrize("k", [*range(1, 31), 40, 60])
    def test_filling_factor_exact(self, k):
        nu = fc.filling_factor(fc.gram_matrix(k))
        assert nu == Fraction(k, k + 2)  # exact rational, no tolerance

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pivots_are_leading_minors(self, k):
        cl = fc.gram_matrix(k)
        minors = [fraction_det([row[:m] for row in cl.gram[:m]])
                  for m in range(1, cl.dim + 1)]
        assert list(cl.pivots[:cl.dim]) == minors
        assert all(m > 0 for m in minors)
        # the appended row [Q^T | 0] ends on det G * (0 - Q^T G^-1 Q)
        assert cl.pivots[-1] == -minors[-1] * Fraction(k, k + 2)

    def test_zero_corner_names_first_failing_minor(self):
        with pytest.raises(ConsistencyError, match="leading minor 1 is 0"):
            fc.ChargeLattice(k=2, gram=((0, 1, 1), (1, 2, 0), (1, 0, 2)),
                             charge_vector=(1, 0, 0))

    @pytest.mark.usefixtures("zero_cartan_corner")
    def test_zero_cartan_corner_rejected(self):
        with pytest.raises(ConsistencyError, match="leading minor 2 is -1"):
            fc.gram_matrix(4)

    def test_symmetric(self):
        for k in range(1, 9):
            g = np.array(fc.gram_matrix(k).gram)
            assert np.all(g == g.T)


def test_rejects_bad_k():
    with pytest.raises(InvalidRankError):
        fc.full_s_product(1)
    with pytest.raises(InvalidRankError):
        fc.enumerate_sectors(0)
