import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import smatrix as sm
from parafermions.errors import InvalidRankError, LabelError, LatticeError


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


class TestChargeLattice:
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

    @pytest.mark.parametrize("k", range(1, 31))
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
        with pytest.raises(LatticeError, match="leading minor 1 is 0"):
            fc.ChargeLattice(k=2, gram=((0, 1, 1), (1, 2, 0), (1, 0, 2)),
                             charge_vector=(1, 0, 0))

    @pytest.mark.usefixtures("zero_cartan_corner")
    def test_zero_cartan_corner_rejected(self):
        with pytest.raises(LatticeError, match="leading minor 2 is -1"):
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
