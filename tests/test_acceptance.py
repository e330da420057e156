"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Lines print outside pytest capture so the verdicts always appear in the
run log.
"""

import cmath
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm

DELTA = (1 + math.sqrt(5)) / 2
DTOT = math.sqrt(3 * (DELTA + 2))
W3 = cmath.exp(2j * math.pi / 3)
P3 = cmath.exp(1j * math.pi / 3)


def announce(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] {name}: "
              f"{'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_criterion_01_oracle_equivalence(capsys):
    start = time.monotonic()
    worst = max(sm.s_suk2_weylkac(k).max_abs_diff(sm.s_suk2_compact(k))
                for k in range(2, 13))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 60
    assert announce(capsys, 1, "Weyl-Kac oracle equals compact form, k=2..12",
                    ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_k3_conformance(capsys):
    basis = sm.orbit_basis(3)
    assert [str(x) for x in basis] == ["0,0", "1,1", "2,2",
                                       "0,1", "0,2", "1,2"]
    s = co.coset_s_compact(3).s.reindexed(basis)
    d = DELTA
    expected = np.array([
        [1, 1, 1, d, d, d],
        [1, W3 ** -1, W3, W3 * d, W3 ** -1 * d, d],
        [1, W3, W3 ** -1, W3 ** -1 * d, W3 * d, d],
        [d, W3 * d, W3 ** -1 * d, P3, P3 ** -1, -1],
        [d, W3 ** -1 * d, W3 * d, P3 ** -1, P3, -1],
        [d, d, d, -1, -1, -1],
    ]) / DTOT
    worst = float(np.max(np.abs(s.entries - expected)))
    ok = worst < 1e-10
    assert announce(capsys, 2, "k=3 coset matrix matches the 6x6 reference",
                    ok, f"max residual {worst:.2e}")


def test_criterion_03_four_way_agreement(capsys):
    worst = 0.0
    for k in range(2, 7):
        mats = [co.coset_s_phase_form(k), co.coset_s_compact(k).s,
                sm.s_suk2_compact(k), co.coset_s_via_su2k_u1(k)]
        worst = max(worst, max(a.max_abs_diff(b)
                               for a in mats for b in mats))
    ok = worst < 1e-10
    assert announce(capsys, 3, "four-way coset S agreement, k=2..6", ok,
                    f"max residual {worst:.2e}")


def _theory_data(name, k):
    if name == "su2k":
        s = sm.s_su2k(k)
        t = fu.TData({l: sm.dim_su2k(l, k) for l in s.labels},
                     Fraction(3 * k, k + 2))
    elif name == "coset":
        data = co.coset_s_compact(k)
        s, t = data.s, fu.TData(data.dims, data.central_charge)
    else:
        s = fc.full_s_product(k)
        t = fu.TData(fc.full_dims(k), fc.full_central_charge(k))
    return s, t


def _modular_residuals(name, k):
    """Residuals of every relation checked on one theory at one k, plus
    whether S^2 snaps to a signed permutation C."""
    s, t = _theory_data(name, k)
    report = fu.verify_modular_relations(s, t)
    c = np.round((s.entries @ s.entries).real)
    t2 = np.linalg.matrix_power(np.diag(t.vector(s.labels)), 2)
    return {
        "unitarity": report.unitarity_defect,
        "C^2=1": report.c2_defect,
        "S^2=C": report.s2_defect,
        "S=S^T": float(np.max(np.abs(s.entries - s.entries.T))),
        "[C,T^2]": float(np.max(np.abs(c @ t2 - t2 @ c))),
        "(ST)^3=C": report.st3_defect,
    }, report.conjugation_is_permutation


# su(2)_k and the bosonic coset carry all of SL(2, Z). The full theory
# extends the coset by the electron, a simple current of weight 3/2, so its
# weights are fixed only mod 1/2 and T only up to a sign per sector; only
# the theta group <S, T^2> acts on it, whose relations are S = S^T,
# S^2 = C, C^2 = 1 and [C, T^2] = 0. No sign choice of T reaches
# (ST)^3 = C (probed at k = 2, 3, 4), so its residual is pinned at O(1):
# a change which quietly "fixes" T is caught rather than absorbed.
_RELATIONS = {
    "su2k": ("unitarity", "C^2=1", "S^2=C", "(ST)^3=C"),
    "coset": ("unitarity", "C^2=1", "S^2=C", "(ST)^3=C"),
    "full": ("unitarity", "C^2=1", "S^2=C", "S=S^T", "[C,T^2]"),
}
FULL_ST3_FLOOR = 0.5


def test_criterion_04_modular_axioms(capsys):
    ok = True
    parts = []
    for name, relations in _RELATIONS.items():
        worst = dict.fromkeys(relations, 0.0)
        st3_min = math.inf
        perm_ok = True
        for k in range(2, 7):
            res, is_perm = _modular_residuals(name, k)
            perm_ok = perm_ok and is_perm
            for rel in relations:
                worst[rel] = max(worst[rel], res[rel])
            st3_min = min(st3_min, res["(ST)^3=C"])
        ok = ok and perm_ok and all(v < 1e-10 for v in worst.values())
        text = ", ".join(f"{rel} {v:.2e}" for rel, v in worst.items())
        if name == "full":
            ok = ok and st3_min > FULL_ST3_FLOOR
            text += f", (ST)^3=C min {st3_min:.2e} (> {FULL_ST3_FLOOR})"
        if not perm_ok:
            text += ", C not a permutation"
        parts.append(f"{name}: {text}")
    assert announce(capsys, 4, "modular axioms for su2k/coset (SL(2,Z)) "
                    "and full (<S,T^2>), k=2..6", ok, "; ".join(parts))


def test_criterion_05_fusion(capsys):
    ok = True
    for k in range(2, 7):
        coset_ring = fu.verlinde(co.coset_s_compact(k).s)
        fu.verlinde(fc.full_s_product(k))  # integrality + non-negativity
        for a in coset_ring.labels:
            for b in coset_ring.labels:
                ok = ok and (fu.fusion_coset_closed(a, b)
                             == coset_ring.product(a, b))
    ring3 = fu.verlinde(co.coset_s_compact(3).s)
    sigma2 = sm.CosetWeight(0, 2, 3)
    ok = ok and ring3.product(sigma2, sigma2) == Counter(
        {sm.CosetWeight(2, 2, 3): 1, sm.CosetWeight(0, 1, 3): 1})
    eps = sm.CosetWeight(0, 1, 3)
    orbits = sorted(int(sm.orbit_of(x.mu, x.nu, 3)[0])
                    for x in ring3.product(eps, eps))
    ok = ok and orbits == [0, 1]  # one vacuum-orbit and one eps-orbit field
    assert announce(capsys, 5, "Verlinde equals closed forms; "
                    "sigma2 x sigma2 and eps x eps reproduce", ok)


def test_criterion_06_quantum_dimensions(capsys):
    s3 = co.coset_s_compact(3).s
    dims = sorted(fu.quantum_dimensions(s3).values())
    multiset_ok = (np.allclose(dims[:3], 1.0, atol=1e-10)
                   and np.allclose(dims[3:], DELTA, atol=1e-10))
    dtot_ok = abs(fu.total_quantum_dimension(s3) - DTOT) < 1e-10
    current_ok = all(
        abs(fu.quantum_dimensions(sm.s_su2k(k))[k] - 1) < 1e-10
        for k in range(1, 9))
    hom_ok = True
    for k in range(2, 7):
        s = co.coset_s_compact(k).s
        ring = fu.verlinde(s)
        d = np.array([fu.quantum_dimensions(s)[lab] for lab in ring.labels])
        hom_ok = hom_ok and float(np.max(np.abs(
            np.einsum("abc,c->ab", ring.tensor, d) - np.outer(d, d)))) < 1e-8
    ok = multiset_ok and dtot_ok and current_ok and hom_ok
    assert announce(capsys, 6, "quantum dimensions {1,1,1,d,d,d}, total, "
                    "homomorphism", ok)


def test_criterion_07_monodromy(capsys):
    s3 = co.coset_s_compact(3).s
    eps = sm.CosetWeight(0, 1, 3)
    # the eps-around-eps element is the S_46 entry of the 6x6 reference
    # matrix: bulk label Lam1+Lam2 in the eps orbit
    bulk_eps = sm.CosetWeight(1, 2, 3)
    trivial = it.monodromy(s3, sm.CosetWeight(0, 0, 3), eps).value
    suppressed = it.monodromy(s3, eps, bulk_eps).value
    rows = it.detection_report(s3, eps, [sm.CosetWeight(0, 0, 3), bulk_eps])
    ok = (abs(trivial - 1) < 1e-10
          and abs(suppressed - (-0.3819660113)) < 1e-10
          and abs(rows[1].magnitude - 0.382) < 1e-3)
    assert announce(capsys, 7, "monodromy 1 and -1/delta^2; visibility 0.382",
                    ok, f"suppressed = {suppressed.real:.10f}")


def test_criterion_08_filling_factor(capsys):
    ok = all(fc.filling_factor(fc.gram_matrix(k)) == Fraction(k, k + 2)
             for k in range(1, 9))
    assert announce(capsys, 8, "exact filling factor k/(k+2), k=1..8", ok)


def test_criterion_09_sector_counts(capsys):
    ok = True
    for k in range(2, 9):
        ok = ok and len(sm.canonical_weights(k)) == k * (k + 1) // 2
        sectors = fc.enumerate_sectors(k)
        ok = ok and len(sectors) == (k + 1) * (k + 2) // 2
        if k <= 6:
            ok = ok and fc.full_s_compact(k).dim == len(sectors)
    assert announce(capsys, 9, "coset and full sector counts, k=2..8", ok)


def test_criterion_10_full_dual_construction(capsys):
    worst = max(fc.full_s_product(k).max_abs_diff(fc.full_s_compact(k))
                for k in range(2, 7))
    vac = fc.FullSector(0, 0, 2)
    vac_ok = abs(fc.full_s_product(2).entry(vac, vac)
                 - 1 / math.sqrt(8)) < 1e-7
    ok = worst < 1e-10 and vac_ok
    assert announce(capsys, 10, "full S product form equals closed form, "
                    "k=2..6", ok, f"max residual {worst:.2e}")


def test_criterion_11_cli_round_trip(capsys, monkeypatch):
    ok = True

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    for which in sorted(cli._SMATRIX_BUILDERS):
        code, out = run("smatrix", "--k", "3", "--which", which)
        doc = json.loads(out)
        rebuilt = np.array(doc["matrix"]).view(complex)[..., 0]
        original = cli._SMATRIX_BUILDERS[which](3).entries
        ok = ok and code == 0 and np.array_equal(rebuilt, original)

    for argv in (["fusion", "--k", "3"], ["dims", "--k", "3"],
                 ["sectors", "--k", "3"],
                 ["interfere", "--k", "3", "--bulk", "1,2",
                  "--probe", "0,1", "--samples", "8"]):
        code, out = run(*argv)
        doc = json.loads(out)
        ok = ok and code == 0 and doc == json.loads(json.dumps(doc))

    code, out = run("verify", "--k", "3", "--targets", "oracle")
    ok = ok and code == 0 and json.loads(out)["passed"]

    code, _ = run("smatrix", "--k", "0", "--which", "su2k")
    ok = ok and code == 1
    with monkeypatch.context() as m:
        m.setattr(fu, "memory_budget", lambda: 1024)
        code, _ = run("fusion", "--k", "3")
    ok = ok and code == 2
    code, _ = run("verify", "--k", "3", "--targets", "st3-full")
    ok = ok and code == 3  # genuine fermionic-extension failure surfaces
    assert announce(capsys, 11, "CLI documents round-trip; exit codes "
                    "0/1/2/3 honored", ok)
