"""Tests of the benchmark itself: each workload's output checks accept the
program's real outputs and reject a corrupted one, and the tracing
wrappers attribute and restore correctly.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import io
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm

import checks
import reference as ref
import spans
import workloads
from worker import MODULES, wall


def test_reference_fibonacci():
    s = ref.coset_s(3, ref.coset_labels(3))
    labels = ref.coset_labels(3)
    m = ref.monodromies(s, labels.index((0, 0)))
    value = m[labels.index((0, 1)), labels.index((1, 2))]
    assert value == pytest.approx(-0.3819660113, abs=1e-10)


@pytest.mark.parametrize("k", [3, 8, 20])
def test_reference_gauss_milgram(k):
    labels = ref.coset_labels(k)
    d = [ref.coset_dimension_of(lab, k) for lab in labels]
    h = [co.coset_dimension(sm.CosetWeight(*lab, k)) for lab in labels]
    assert ref.gauss_milgram_residual(d, h, ref.central_charge(k)) < 1e-12


@pytest.mark.parametrize("k", [2, 5])
def test_verify_doc_accepts_and_rejects(k):
    out = workloads.run_cli(["verify", "--k", k, "--all"])
    checks.verify_doc(out, k)
    rc, text, err = out
    with pytest.raises(checks.Mismatch):
        checks.verify_doc((0, text, err), k)
    broken = text.replace('"name": "st3-full"', '"name": "st3-fool"')
    with pytest.raises(checks.Mismatch):
        checks.verify_doc((rc, broken, err), k)


@pytest.mark.parametrize("theory,build", [
    ("su2k", sm.s_su2k),
    ("coset", lambda k: co.coset_s_phase_form(k)),
    ("full", fc.full_s_compact),
])
def test_s_check_rejects_flipped_phase(theory, build):
    k = 5
    s = build(k)
    checks.s_matrix(s, theory, k)
    i, j = 1, 2
    entries = s.entries.copy()
    entries[i, j] = -entries[i, j]  # phase flipped by pi
    entries[j, i] = entries[i, j]  # keep it symmetric
    with pytest.raises(checks.Mismatch):
        checks.s_matrix(sm.SMatrix(s.labels, entries), theory, k)


@pytest.mark.parametrize("theory", ["coset", "full"])
def test_fusion_check_rejects_bumped_coefficient(theory):
    k = 4
    s = co.coset_s_compact(k).s if theory == "coset" else fc.full_s_product(k)
    ring = fu.verlinde(s)
    products = {(a, b): ring.product(a, b)
                for a in ring.labels for b in ring.labels}
    checks.fusion_ring(ring, products, theory, k)
    tensor = ring.tensor.copy()
    tensor[1, 1, 0] += 1  # a symmetric bump keeps commutativity
    bumped = fu.FusionRing(ring.labels, tensor, ring.vacuum_index)
    with pytest.raises(checks.Mismatch):
        checks.fusion_ring(bumped, products, theory, k)
    with pytest.raises(checks.Mismatch):
        checks.fusion_doc(workloads.run_cli(["fusion", "--k", k, "--which",
                                             theory]), bumped, theory, k)


@pytest.mark.parametrize("theory", ["coset", "full"])
def test_detection_check_rejects_conjugated_monodromy(theory):
    k = 5
    s = co.coset_s_compact(k).s if theory == "coset" else fc.full_s_product(k)
    reports = [(p, it.detection_report(s, p, s.labels)) for p in s.labels[:4]]
    checks.detection(reports, theory, k)
    probe, rows = reports[-1]
    i = next(i for i, r in enumerate(rows) if abs(math.sin(r.phase)) > 1e-3)
    rows = list(rows)
    rows[i] = replace(rows[i], phase=-rows[i].phase)  # M -> conj(M)
    with pytest.raises(checks.Mismatch):
        checks.detection(reports[:-1] + [(probe, tuple(rows))], theory, k)


def test_curve_check_rejects_conjugated_monodromy():
    k = 5
    s = co.coset_s_compact(k).s
    a, b = s.labels[5], s.labels[1]
    pair = (a, b, 0.8 + 0.3j, 1.1 * np.exp(0.4j), 64)
    pat = it.sigma_xx_curve(s, *pair)
    assert abs(pat.monodromy.value.imag) > 1e-3
    checks.curves([(pat, pair)], "coset", k)
    flipped = replace(pat.monodromy, value=pat.monodromy.value.conjugate())
    with pytest.raises(checks.Mismatch):
        checks.curves([(replace(pat, monodromy=flipped), pair)], "coset", k)


def test_lattice_check_rejects_wrong_filling_factor():
    k = 6
    cl = fc.gram_matrix(k)
    checks.lattice((cl, fc.filling_factor(cl)), k)
    with pytest.raises(checks.Mismatch):
        checks.lattice((cl, Fraction(k, k + 1)), k)
    with pytest.raises(checks.Mismatch):
        checks.sectors_doc((0, workloads.run_cli(["sectors", "--k", k])[1]
                            .replace(f'"{k // 2}/{(k + 2) // 2}"', '"1/2"'),
                            ""), k)


def test_dims_doc():
    k = 7
    out = workloads.run_cli(["dims", "--k", k])
    checks.dims_doc(out, k)
    rc, text, err = out
    with pytest.raises(checks.Mismatch):  # one conformal weight off by 1/4
        checks.dims_doc((rc, text.replace('"conformal_dimensions": ["0"',
                                          '"conformal_dimensions": ["1/4"'),
                         err), k)


def test_csv_check_reads_numbers_and_refuses_reprs():
    k = 4
    out = workloads.run_cli(["smatrix", "--k", k, "--which", "coset",
                             "--format", "csv"])
    rc, text, err = out
    if "np.float64(" in text:  # the CLI writes numpy reprs into the cells
        with pytest.raises(checks.Unreadable):
            checks.csv_matrix(out, k)
        text = text.replace("np.float64(", "").replace(")", "")
    checks.csv_matrix((rc, text, err), k)
    rows = list(csv.reader(io.StringIO(text)))
    row = rows[-1]
    row[-1] = repr(-float(row[-1]))  # imaginary part of one entry negated
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    with pytest.raises(checks.Mismatch):
        checks.csv_matrix((rc, buf.getvalue(), err), k)


def test_spans_attribute_self_time_and_restore():
    rec = spans.Recorder()
    originals = {name: getattr(mod, name) for name, mod in
                 (("find_vacuum", it), ("monodromy", it), ("verlinde", fu))}
    saved = spans.install(rec, MODULES)
    try:
        s = co.coset_s_compact(3).s
        it.detection_report(s, s.labels[1], s.labels)
        fu.verlinde(s)
    finally:
        spans.uninstall(saved)
    for name, mod in (("find_vacuum", it), ("monodromy", it),
                      ("verlinde", fu)):
        assert getattr(mod, name) is originals[name]
    metrics = rec.finish_round()
    assert metrics["interferometry.monodromy_calls"] == 6
    # one find_vacuum per monodromy (bound in interferometry) + verlinde
    assert metrics["fusion.vacuum_calls"] == 7
    assert metrics["fusion.vacuum_calls_per_matrix"] == 7
    assert metrics["smatrix.entries"] == 36
    assert metrics["fusion.axioms_peak_mib"] > 0
    names = [sp[0] for sp in rec.rounds[0]]
    assert "interferometry.find_vacuum" in names
    total = sum(end - start for _, start, end, parent in rec.rounds[0]
                if parent < 0)
    attributed = sum(v for key, v in metrics.items()
                     if spans.unit(key) == "s")
    assert attributed == pytest.approx(total, rel=1e-9)


def test_same_seed_same_inputs():
    def lookup_order(seed):
        job = workloads.fusion_rings(random.Random(seed))[0]
        _, products, _ = job.run()
        return list(products)

    assert lookup_order(7) == lookup_order(7)
    assert lookup_order(7) != lookup_order(8)


def test_wall_sums_job_medians_scaled_by_host_speed():
    # (seconds, speed factor) per round; the factor is NOMINAL_S / kernel.
    times = {"a": [(1.0, 3.0), (3.0, 1.0), (2.0, 0.5)],
             "b": [(0.5, 2.0)]}
    assert wall(times, scaled=False) == pytest.approx(2.0 + 0.5)
    assert wall(times) == pytest.approx(3.0 + 1.0)  # medians of 3, 3, 1 and 1
