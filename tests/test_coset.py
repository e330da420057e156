import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import cli
from parafermions import coset as co
from parafermions import smatrix as sm
from parafermions.errors import LabelError


def w(mu, nu, k=3):
    return sm.CosetWeight(mu, nu, k)


class TestCentralCharge:
    def test_values(self):
        assert co.central_charge(2) == Fraction(1, 2)  # Ising
        assert co.central_charge(3) == Fraction(4, 5)  # three-state Potts


class TestLmCorrespondence:
    def test_to_lm(self):
        assert co.to_lm(w(0, 1)) == co.LmLabel(1, 1, 3)
        assert co.to_lm(w(1, 2)) == co.LmLabel(1, 3, 3)
        assert co.to_lm(w(0, 0)) == co.LmLabel(0, 0, 3)

    def test_from_lm(self):
        assert co.from_lm(co.LmLabel(1, 1, 3)) == w(0, 1)
        assert co.from_lm(co.LmLabel(0, 0, 3)) == w(0, 0)
        with pytest.raises(LabelError, match="violates l = m mod 2"):
            co.from_lm(co.LmLabel(1, 2, 3))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_roundtrip(self, k):
        for weight in sm.canonical_weights(k):
            assert co.from_lm(co.to_lm(weight)) == weight

    def test_lm_labels_are_injective(self):
        # coset_s_via_su2k_u1 indexes su(2)_k and u(1)_2k by these labels
        for k in range(2, 31):
            mu, nu = sm.weight_arrays(sm.canonical_weights(k))
            pairs = set(zip((nu - mu).tolist(), (mu + nu).tolist()))
            assert len(pairs) == k * (k + 1) // 2


class TestFieldIdentification:
    def test_examples(self):
        assert co.field_identify(co.LmLabel(1, 3, 3)) == co.LmLabel(2, 0, 3)
        assert co.field_identify(co.LmLabel(0, 2, 3)) == co.LmLabel(3, 1, 3)
        # one field, (1, 1) ~ (k - 1, 1 - k), two representatives
        assert co.field_identify(co.LmLabel(1, 1, 3)) == co.LmLabel(1, 1, 3)
        assert co.field_identify(co.LmLabel(2, -2, 3)) == co.LmLabel(2, 2, 3)

    def test_fixed_points(self):
        for l in range(4):
            for m in range(-l, l + 1, 2):
                assert co.field_identify(co.LmLabel(l, m, 3)) == \
                    co.LmLabel(l, abs(m), 3)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_idempotent(self, k):
        for weight in sm.canonical_weights(k):
            once = co.field_identify(co.to_lm(weight))
            assert co.field_identify(once) == once

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 20), data=st.data())
    def test_representative_and_dimension(self, k, data):
        l = data.draw(st.integers(0, k))
        m = data.draw(st.sampled_from(range(l % 2 - 2 * k, 2 * k + 1, 2)))
        rep = co.field_identify(co.LmLabel(l, m, k))
        assert rep.k == k
        assert 0 <= rep.m <= rep.l <= k and (rep.l - rep.m) % 2 == 0
        assert co.field_identify(rep) == rep
        dim = co.lm_dimension(rep)
        for image in ((l, m + 2 * k), (l, -m), (k - l, m - k)):
            image_rep = co.field_identify(co.LmLabel(*image, k))
            assert co.lm_dimension(image_rep) == dim

    def test_invalid_label(self):
        with pytest.raises(LabelError, match="no valid representative"):
            co.field_identify(co.LmLabel(5, 1, 3))


class TestDimensions:
    def test_k3_values(self):
        assert co.coset_dimension(w(0, 1)) == Fraction(1, 15)
        assert co.coset_dimension(w(1, 2)) == Fraction(2, 5)
        assert co.coset_dimension(w(1, 1)) == Fraction(2, 3)

    def test_k3_multiset(self):
        dims = sorted(co.coset_dimension(x) for x in sm.canonical_weights(3))
        assert dims == [Fraction(0), Fraction(1, 15), Fraction(1, 15),
                        Fraction(2, 5), Fraction(2, 3), Fraction(2, 3)]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_range(self, k):
        # upper bound attained only by psi_{k/2} at k=8, which has
        # dimension p(k-p)/k = 2 exactly
        for weight in sm.canonical_weights(k):
            d = co.coset_dimension(weight)
            assert 0 <= d <= 2


class TestDimensionNumerators:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_equal_coset_dimension(self, k):
        labels = sm.canonical_weights(k)
        num = co.dimension_numerators(*sm.weight_arrays(labels), k)
        assert num.dtype.kind == "i"
        got = [Fraction(x, 4 * k * (k + 2)) for x in num.tolist()]
        assert got == [co.coset_dimension(x) for x in labels]

    @pytest.mark.parametrize("k", range(2, 17))
    def test_coset_s_compact_dims(self, k):
        data = co.coset_s_compact(k)
        assert list(data.dims) == list(data.s.labels)
        assert data.dims == {x: co.coset_dimension(x) for x in data.s.labels}
        assert all(type(d) is Fraction for d in data.dims.values())


class TestCounting:
    def test_values(self):
        assert len(set(sm.canonical_weights(3))) == 6
        assert len(set(sm.canonical_weights(2))) == 3
        assert len(set(sm.canonical_weights(1))) == 1

    @pytest.mark.parametrize("k", range(1, 9))
    def test_formula(self, k):
        assert len(set(sm.canonical_weights(k))) == k * (k + 1) // 2


class TestFourWayAgreement:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_all_constructions_agree(self, k):
        mats = [sm.s_suk2_compact(k),
                co.coset_s_compact(k).s,
                co.coset_s_phase_form(k),
                co.coset_s_via_su2k_u1(k)]
        for a in mats:
            for b in mats:
                assert a.max_abs_diff(b) < 1e-10

    def test_phase_form_refuses_a_nan(self, capsys, monkeypatch):
        # the phase form builds without comparing itself; verify's
        # coset-four-way is the one judge of the relation
        base = sm.s_suk2_compact(4)
        entries = base.entries.copy()
        entries[1, 2] = np.nan
        monkeypatch.setattr(sm, "s_suk2_compact",
                            lambda k: sm.SMatrix(base.labels, entries))
        assert cli.main(["verify", "--k", "4", "--targets", "four-way"]) == 3
        check, = json.loads(capsys.readouterr().out)["checks"]
        assert (check["name"], check["passed"], check["residual"]) == (
            "coset-four-way", False, None)
        assert "nan" in check["error"]

    def test_k2_ising_pattern(self):
        s = co.coset_s_via_su2k_u1(2)
        half = 0.5
        root = math.sqrt(0.5)
        vac = s.entry(w(0, 0, 2), w(0, 0, 2))
        assert vac == pytest.approx(half)
        sigma = w(0, 1, 2)
        assert abs(s.entry(w(0, 0, 2), sigma)) == pytest.approx(root)

    def test_vacuum_entry_formula(self):
        for k in range(2, 7):
            s = co.coset_s_via_su2k_u1(k)
            expected = 2 / math.sqrt(k * (k + 2)) * math.sin(math.pi / (k + 2))
            assert s.entry(sm.CosetWeight(0, 0, k),
                           sm.CosetWeight(0, 0, k)) == pytest.approx(expected)


class TestModularData:
    def test_k3_bundle(self):
        data = co.coset_s_compact(3)
        assert data.central_charge == Fraction(4, 5)
        assert data.dims[w(0, 1)] == Fraction(1, 15)
        assert data.s.unitarity_defect() < 1e-10

    def test_u1_2k_unitary(self):
        for k in range(1, 7):
            assert co.s_u1_2k(k).unitarity_defect() < 1e-10
