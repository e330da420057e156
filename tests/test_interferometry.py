import cmath
import math
import re

import numpy as np
import pytest

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm
from parafermions.errors import ConsistencyError, ContractViolationError

DELTA = (1 + math.sqrt(5)) / 2


def w(mu, nu, k=3):
    return sm.CosetWeight(mu, nu, k)


@pytest.fixture(scope="module")
def coset3():
    return co.coset_s_compact(3).s


class TestMonodromy:
    def test_trivial_bulk(self, coset3):
        m = it.monodromy(coset3, w(0, 0), w(0, 1))
        assert m.value == pytest.approx(1.0, abs=1e-10)

    def test_fibonacci_suppression(self, coset3):
        # probe Lam0+Lam1 around bulk Lam1+Lam2: the S_46 element of the
        # 6x6 reference matrix gives -1/delta^2
        m = it.monodromy(coset3, w(0, 1), w(1, 2))
        assert m.value == pytest.approx(-1 / DELTA ** 2, abs=1e-10)
        assert m.value == pytest.approx(-0.3819660113, abs=1e-10)

    def test_vacuum_pair(self, coset3):
        m = it.monodromy(coset3, w(0, 0), w(0, 0))
        assert m.value == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_entries_below_tolerance(self):
        # a denominator below 0.01 is still a valid one: no tolerance
        # meets the vacuum entries, only |M| <= 1 + DEFAULT_TOLERANCE
        s = co.coset_s_compact(12).s
        a, b = w(0, 1, 12), w(1, 2, 12)
        vac = w(0, 0, 12)
        denom = s.entry(vac, a) * s.entry(vac, b)
        assert abs(denom) < 0.01
        m = it.monodromy(s, a, b)
        assert m.value == s.entry(a, b) * s.entry(vac, vac) / denom
        assert m.magnitude <= 1 + sm.DEFAULT_TOLERANCE

    def test_nan_magnitude_rejected(self, coset3):
        entries = coset3.entries.copy()
        entries[1, 2] = entries[2, 1] = np.nan
        s = sm.SMatrix(coset3.labels, entries)
        a, b = s.labels[1], s.labels[2]
        with pytest.raises(ConsistencyError, match="nan"):
            it.monodromy(s, a, b)
        with pytest.raises(ConsistencyError, match="nan"):
            it.detection_report(s, a, [b])

    def test_zero_vacuum_entry_rejected(self):
        # no strictly positive row: find_vacuum refuses before any quotient
        s = sm.SMatrix((0, 1), np.eye(2))
        with pytest.raises(ConsistencyError, match="one real-positive row"):
            it.monodromy(s, 0, 1)

    def test_nan_anywhere_in_the_row_rejected(self, coset3):
        probe = w(0, 1)
        ip = coset3.index(probe)
        for j, label in enumerate(coset3.labels):
            entries = coset3.entries.copy()
            entries[ip, j] = np.nan
            s = sm.SMatrix(coset3.labels, entries)
            other = coset3.labels[(j + 1) % coset3.dim]
            named = f"nan .*{re.escape(repr(label))}"  # the pair with the NaN
            with pytest.raises(ConsistencyError, match=named):
                it.monodromy(s, probe, other)
            with pytest.raises(ConsistencyError, match=named):
                it.detection_report(s, probe, [other])

    @pytest.mark.parametrize("k", range(2, 7))
    def test_bound_and_symmetry(self, k):
        for s in (co.coset_s_compact(k).s, fc.full_s_product(k)):
            for a in s.labels:
                for b in s.labels:
                    m = it.monodromy(s, a, b)
                    assert m.magnitude <= 1 + 1e-10
                    m_swapped = it.monodromy(s, b, a)
                    assert m.value == pytest.approx(m_swapped.value,
                                                    abs=1e-10)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_abelian_transparency(self, k):
        s = co.coset_s_compact(k).s
        dims = fu.quantum_dimensions(s)
        abelian = [lab for lab, d in dims.items() if abs(d - 1) < 1e-8]
        for a in abelian:
            for b in s.labels:
                assert it.monodromy(s, a, b).magnitude == pytest.approx(
                    1.0, abs=1e-10)


class TestSigmaXxCurve:
    def test_vacuum_extremes(self, coset3):
        pat = it.sigma_xx_curve(coset3, w(0, 0), w(0, 0), 1, 1, 4)
        # alpha samples are 0, pi/2, pi, 3pi/2
        assert pat.sigma_xx[0] == pytest.approx(4.0)
        assert pat.sigma_xx[2] == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_suppressed_value(self, coset3):
        pat = it.sigma_xx_curve(coset3, w(0, 1), w(1, 2), 1, 1, 4)
        assert pat.sigma_xx[0] == pytest.approx(2 + 2 * (-0.3819660),
                                                abs=1e-6)

    def test_mean_is_incoherent_sum(self, coset3):
        pat = it.sigma_xx_curve(coset3, w(0, 1), w(1, 2), 0.7, 1.3j, 32)
        assert np.mean(pat.sigma_xx) == pytest.approx(0.7 ** 2 + 1.3 ** 2,
                                                      abs=1e-10)

    def test_modulation_amplitude(self, coset3):
        pat = it.sigma_xx_curve(coset3, w(0, 1), w(1, 2), 1, 1, 4096)
        swing = max(pat.sigma_xx) - min(pat.sigma_xx)
        expected = 4 * pat.monodromy.magnitude
        assert swing == pytest.approx(expected, abs=1e-5)

    def test_nonnegative(self, coset3):
        for bulk in coset3.labels:
            pat = it.sigma_xx_curve(coset3, w(0, 1), bulk, 1, 1, 64)
            assert min(pat.sigma_xx) >= -1e-10

    def test_sampling_error(self, coset3):
        with pytest.raises(ContractViolationError,
                           match="need at least 2 samples, got 1"):
            it.sigma_xx_curve(coset3, w(0, 0), w(0, 0), 1, 1, 1)

    @pytest.mark.parametrize("t1,t2", [
        (1e154, 1e154), (1e160, 1), (1e308, 1), (1.5e308 + 1.5e308j, 1),
        (math.nan, 1), (1, complex(1, math.nan)), (math.inf, 1)])
    def test_amplitudes_with_no_finite_bound_refused(self, coset3, t1, t2):
        # (|t1| + |t2|)^2 bounds every sample; |t1| of the complex one
        # is past float's range, where abs() would raise OverflowError
        with pytest.raises(ContractViolationError) as err:
            it.sigma_xx_curve(coset3, w(0, 1), w(1, 2), t1, t2, 4)
        assert str(err.value) == (f"amplitudes t1={t1}, t2={t2}: "
                                  "(|t1| + |t2|)^2 is not finite")

    def test_largest_amplitudes_give_finite_samples(self, coset3):
        # (|t1| + |t2|)^2 = 1.44e308, just inside float's range
        for bulk in coset3.labels:
            pat = it.sigma_xx_curve(coset3, w(0, 1), bulk, 6e153,
                                    6e153 * cmath.exp(0.3j), 64)
            assert all(map(math.isfinite, pat.sigma_xx))
            assert max(pat.sigma_xx) <= 1.44e308 * (1 + 1e-12)


class TestDetectionReport:
    def test_fibonacci_detection(self, coset3):
        rows = it.detection_report(coset3, w(0, 1), [w(0, 0), w(1, 2)])
        visibilities = [round(r.magnitude, 7) for r in rows]
        assert visibilities == [1.0, 0.3819660]
        assert not rows[0].non_abelian
        assert rows[1].non_abelian
        # suppression factor 1/delta^2, approximately 0.38
        assert abs(rows[1].magnitude - 0.382) < 1e-3

    def test_abelian_pair(self):
        s = fc.full_s_product(2)
        dims = fu.quantum_dimensions(s)
        abelian = [lab for lab, d in dims.items() if abs(d - 1) < 1e-8]
        probe = abelian[1]
        rows = it.detection_report(s, probe, abelian)
        assert all(r.magnitude == pytest.approx(1.0, abs=1e-10)
                   for r in rows)
        assert not any(r.non_abelian for r in rows)

    @pytest.mark.parametrize("gap,flagged", [(5e-10, True), (5e-11, False)])
    def test_threshold_is_the_tolerance(self, gap, flagged):
        # |M| = 1 - gap for probe and bulk 1 of su(2)_1 with S_11 scaled:
        # flagged exactly when the gap exceeds DEFAULT_TOLERANCE = 1e-10
        s = sm.s_su2k(1)
        entries = s.entries.copy()
        entries[1, 1] *= 1 - gap
        row, = it.detection_report(sm.SMatrix(s.labels, entries), 1, [1])
        assert row.magnitude == pytest.approx(1 - gap, rel=0, abs=1e-15)
        assert row.non_abelian is flagged

    def test_one_vacuum_lookup_per_report(self, coset3, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s)
            return fu.find_vacuum(s)

        def never(*args):
            raise AssertionError("monodromy called per bulk")

        monkeypatch.setattr(it, "find_vacuum", counting)
        monkeypatch.setattr(it, "monodromy", never)  # rows read off one row
        rows = it.detection_report(coset3, w(0, 1), coset3.labels)
        assert len(rows) == coset3.dim
        assert len(calls) == 1 and calls[0] is coset3

    @pytest.mark.parametrize("k", range(2, 15))
    def test_rows_bitwise_abs_and_cmath_phase(self, k):
        for s in (co.coset_s_compact(k).s, fc.full_s_product(k)):
            for probe in s.labels[:6]:
                row = it.monodromy_row(s, probe)
                bulks = s.labels[::-1]
                rows = it.detection_report(s, probe, iter(bulks))
                assert [r.bulk for r in rows] == list(bulks)
                for r in rows:
                    m = complex(row[s.index(r.bulk)])
                    assert r.magnitude.hex() == abs(m).hex()
                    assert r.phase.hex() == cmath.phase(m).hex()
                    assert r.non_abelian == (
                        abs(abs(m) - 1) > sm.DEFAULT_TOLERANCE)
                assert it.detection_report(s, probe, []) == ()

    @pytest.mark.parametrize("k", range(2, 7))
    def test_rows_are_monodromy_entries(self, k):
        for s in (co.coset_s_compact(k).s, fc.full_s_product(k)):
            for probe in s.labels:
                rows = it.detection_report(s, probe, s.labels)
                assert [r.bulk for r in rows] == list(s.labels)
                for r in rows:
                    m = it.monodromy(s, probe, r.bulk)
                    assert (r.magnitude, r.phase) == (m.magnitude, m.phase)
