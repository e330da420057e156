import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from parafermions import lie
from parafermions import smatrix as sm
from parafermions.errors import (ConsistencyError, ContractViolationError,
                                 InvalidRankError, LabelError)

DELTA = (1 + math.sqrt(5)) / 2
DTOT = math.sqrt(3 * (DELTA + 2))


def w(mu, nu, k=3):
    return sm.CosetWeight(mu, nu, k)


class TestCosetWeight:
    def test_canonicalization(self):
        assert w(4, 1) == w(1, 1)  # indices mod k
        assert w(2, 1) == w(1, 2)  # sorted
        assert str(w(0, 2)) == "0,2"

    def test_count(self):
        for k in range(2, 9):
            assert len(sm.canonical_weights(k)) == k * (k + 1) // 2

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidRankError):
            sm.CosetWeight(0, 0, 0)


class TestSu2k:
    def test_k2_entries(self):
        s = sm.s_su2k(2)
        assert s.entry(0, 0) == pytest.approx(0.5)
        assert s.entry(0, 1) == pytest.approx(0.7071068, abs=1e-7)
        assert s.entry(1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_k3_golden_ratio(self):
        s = sm.s_su2k(3)
        assert s.entry(0, 1) / s.entry(0, 0) == pytest.approx(DELTA)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_unitary_symmetric(self, k):
        s = sm.s_su2k(k)
        assert s.unitarity_defect() < 1e-10
        assert np.max(np.abs(s.entries - s.entries.T)) < 1e-12

    def test_rejects_k0(self):
        with pytest.raises(InvalidRankError,
                           match="needs level k >= 1, got 0"):
            sm.s_su2k(0)


class TestWeylKacOracle:
    def test_k3_vacuum(self):
        s = sm.s_suk2_weylkac(3)
        assert s.entry(w(0, 0), w(0, 0)) == pytest.approx(1 / DTOT, abs=1e-7)
        assert abs(s.entry(w(0, 0), w(0, 0)) - 0.3035310) < 1e-7

    def test_k3_vacuum_epsilon(self):
        s = sm.s_suk2_weylkac(3)
        assert s.entry(w(0, 0), w(0, 1)) == pytest.approx(0.4911235, abs=1e-7)

    def test_k2_vacuum(self):
        s = sm.s_suk2_weylkac(2)
        assert s.entry(w(0, 0, 2), w(0, 0, 2)) == pytest.approx(0.5)

    @pytest.mark.parametrize("k", range(2, 31))
    def test_matches_compact(self, k):
        # the oracle-vs-compact residual of `verify`
        diff = sm.s_suk2_weylkac(k).max_abs_diff(sm.s_suk2_compact(k))
        assert diff <= 2e-15

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_row_determinants(self, k):
        # the 2x2 complementary minor is Jacobi's form of the k x k minor
        assert np.max(np.abs(sm.s_suk2_weylkac(k).entries
                             - weyl_determinant_s(k))) <= 1e-14

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_weyl_sum(self, k):
        # the determinant is the Leibniz expansion of the k!-term sum
        assert np.max(np.abs(sm.s_suk2_weylkac(k).entries
                             - weyl_sum_s(k))) < 1e-12

    @pytest.mark.parametrize("k", range(2, 40))
    def test_missing_residues(self, k):
        # the k coordinates of Lam_mu + Lam_nu + rho are distinct residues
        # mod k + 2 and miss exactly k - nu and k - mu + 1
        coords = epsilon_coords(k)
        assert coords.min() >= 0 and coords.max() <= k + 1
        for weight, x in zip(sm.canonical_weights(k), coords):
            missing = set(range(k + 2)) - set(x.tolist())
            assert missing == {k - weight.nu, k - weight.mu + 1}, weight


def epsilon_coords(k):
    """(n, k) integer orthogonal coordinates of Lam + rho for the
    canonical weights: suffix sums of the Dynkin labels, then 0."""
    coords = []
    for weight in sm.canonical_weights(k):
        dynkin = [1] * (k - 1)  # rho
        for index in (weight.mu, weight.nu):
            if index:
                dynkin[index - 1] += 1
        coords.append(np.cumsum(dynkin[::-1])[::-1].tolist() + [0])
    return np.array(coords, dtype=np.int64)


def weyl_sum_s(k):
    """su(k)_2 S matrix as the explicit k!-term Weyl-Kac sum, in the
    canonical basis: i^{k(k-1)/2} / sqrt(k (k+2)^{k-1}) times
    sum_w eps(w) exp(-2 pi i (Lam+rho | w(Lam'+rho)) / (k+2))."""
    perms, signs = lie.weyl_group(k)
    x = epsilon_coords(k).astype(float)
    x -= x.mean(axis=1, keepdims=True)  # traceless
    pref = 1j ** (k * (k - 1) // 2 % 4) / math.sqrt(k * (k + 2) ** (k - 1))
    # (Lam+rho | w(Lam'+rho)) for every w: (|W|, n, n)
    inner = np.einsum("ai,wbi->wab", x, x[:, perms].transpose(1, 0, 2))
    return pref * np.einsum("w,wab->ab", signs,
                            np.exp(-2j * np.pi * inner / (k + 2)))


def weyl_determinant_s(k):
    """The same sum by the Leibniz formula, one k x k determinant
    det[exp(-2 pi i x_a y_b / (k+2))] per entry in traceless coordinates,
    a row of entries at a time."""
    h = k + 2
    coords = epsilon_coords(k)
    shifted = k * coords - coords.sum(axis=1, keepdims=True)  # k x, traceless
    pref = 1j ** (k * (k - 1) // 2 % 4) / math.sqrt(k * float(h) ** (k - 1))
    entries = np.empty((len(coords), len(coords)), dtype=complex)
    for i, row in enumerate(shifted):
        nums = row[None, :, None] * shifted[:, None, :]  # k^2 x_a y_b
        entries[i] = pref * np.linalg.det(sm.phase(-nums, k * k * h))
    return entries


class TestCompact:
    def test_k3_diagonal_values(self):
        s = sm.s_suk2_compact(3)
        assert s.entry(w(0, 0), w(0, 0)) == pytest.approx(0.3035310, abs=1e-7)
        assert s.entry(w(1, 2), w(1, 2)) == pytest.approx(-0.3035310,
                                                          abs=1e-7)
        assert s.entry(w(0, 1), w(0, 1)) == pytest.approx(
            0.1517655 + 0.2628656j, abs=1e-7)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_unitary_symmetric_positive_vacuum_row(self, k):
        s = sm.s_suk2_compact(k)
        assert s.unitarity_defect() < 1e-10
        assert np.max(np.abs(s.entries - s.entries.T)) < 1e-10
        vac_row = s.entries[s.index(sm.CosetWeight(0, 0, k))]
        assert np.max(np.abs(vac_row.imag)) < 1e-12
        assert np.min(vac_row.real) > 0


class TestLevelRank:
    def test_k3_values(self):
        assert sm.level_rank_entry(w(0, 0), w(0, 0), 3) == pytest.approx(
            0.3035310, abs=1e-7)
        assert sm.level_rank_entry(w(0, 0), w(0, 1), 3) == pytest.approx(
            0.4911235, abs=1e-7)
        expected = cmath.exp(1j * math.pi / 3) * 0.3035310
        assert sm.level_rank_entry(w(0, 1), w(0, 1), 3) == pytest.approx(
            expected, abs=1e-7)

    def test_requires_representatives(self):
        with pytest.raises(ContractViolationError):
            sm.level_rank_entry(w(1, 1), w(0, 0), 3)


class TestOrbits:
    def test_k3_orbits(self):
        assert sm.orbit_count(3) == 2
        for l, members in ((0, (w(0, 0), w(1, 1), w(2, 2))),
                           (1, (w(0, 1), w(1, 2), w(0, 2)))):
            for p, x in enumerate(members):
                assert sm.orbit_of(x.mu, x.nu, 3) == (l, p)

    def test_orbit_counts(self):
        assert sm.orbit_count(4) == 3
        for k in range(2, 9):
            expected = k // 2 + 1 if k % 2 == 0 else (k + 1) // 2
            assert sm.orbit_count(k) == expected
            l, _ = sm.orbit_of(*sm.weight_arrays(sm.canonical_weights(k)), k)
            assert sorted(set(l.tolist())) == list(range(expected))

    def test_orbit_of(self):
        assert sm.orbit_of(1, 2, 3) == (1, 1)
        assert sm.orbit_of(0, 2, 3) == (1, 2)
        l, p = sm.orbit_of(np.array([1, 0]), np.array([2, 2]), 3)
        assert l.tolist() == [1, 1] and p.tolist() == [1, 2]

    def test_orbit_basis_rejects_small_k(self):
        with pytest.raises(InvalidRankError):
            sm.orbit_basis(1)

    def test_orbit_basis_k3_order(self):
        assert [str(x) for x in sm.orbit_basis(3)] == \
            ["0,0", "1,1", "2,2", "0,1", "0,2", "1,2"]


class TestDimensions:
    def test_su2k(self):
        assert sm.dim_su2k(1, 3) == Fraction(3, 20)
        assert sm.dim_su2k(0, 5) == 0
        for k in range(1, 9):
            assert sm.dim_su2k(k, k) == Fraction(k, 4)
        with pytest.raises(LabelError):
            sm.dim_su2k(4, 3)

    def test_suk2(self):
        assert sm.dim_suk2(w(1, 1)) == Fraction(2, 3)
        assert sm.dim_suk2(w(0, 0)) == 0
        # quadratic Casimir (Lam, Lam + 2 rhobar)/(2(k+2)) fixes 4/15
        assert sm.dim_suk2(w(0, 1)) == Fraction(4, 15)


class TestMonodromyCharge:
    def test_table_k3(self):
        charges = {
            (0, 0): Fraction(0),
            (0, 1): Fraction(-1, 3),
            (0, 2): Fraction(-2, 3),
            (1, 1): Fraction(-2, 3),
            (1, 2): Fraction(0),  # -1 is 0 mod Z
            (2, 2): Fraction(-1, 3),
        }
        for (mu, nu), q in charges.items():
            assert sm.monodromy_charge(1, w(mu, nu)) == q

    def test_identity_current(self):
        for weight in sm.canonical_weights(4):
            assert sm.monodromy_charge(0, weight) == 0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_internal_cross_check_never_trips(self, k):
        # monodromy_charge raises if the dimension-difference route differs
        for weight in sm.canonical_weights(k):
            for p in range(k):
                sm.monodromy_charge(p, weight)


class TestSimpleCurrentExtend:
    @staticmethod
    def representative_row(k):
        reps = range(sm.orbit_count(k))
        return {(a, b): sm.level_rank_entry(sm.CosetWeight(0, a, k),
                                            sm.CosetWeight(0, b, k), k)
                for a in reps for b in reps}

    def test_k3_entry(self):
        ext = sm.simple_current_extend(self.representative_row(3), 3)
        expected = cmath.exp(-2j * math.pi / 3) / DTOT
        assert ext.entry(w(1, 1), w(1, 1)) == pytest.approx(expected,
                                                            abs=1e-10)

    def test_rejects_small_k(self):
        with pytest.raises(InvalidRankError):
            sm.simple_current_extend({(0, 0): 1.0}, 1)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_oracle(self, k):
        ext = sm.simple_current_extend(self.representative_row(k), k)
        assert ext.max_abs_diff(sm.s_suk2_weylkac(k)) < 1e-10

    def test_nan_entry_is_refused(self):
        row = self.representative_row(4)
        row[(1, 1)] = complex("nan")
        with pytest.raises(ConsistencyError, match="nan"):
            sm.simple_current_extend(row, 4)


class TestSMatrixContainer:
    def test_label_lookup(self):
        s = sm.s_su2k(2)
        with pytest.raises(LabelError):
            s.index(7)

    def test_equality_is_identity(self):
        s = sm.s_su2k(2)
        assert s == s
        assert s != sm.s_su2k(2)  # equal entries, another matrix
        assert s.max_abs_diff(sm.s_su2k(2)) == 0

    def test_reindex(self):
        s = sm.s_suk2_compact(3)
        r = s.reindexed(sm.orbit_basis(3))
        assert r.entry(w(0, 1), w(1, 2)) == s.entry(w(0, 1), w(1, 2))
        assert r.max_abs_diff(s) < 1e-15
