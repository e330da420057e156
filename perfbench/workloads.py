"""The benchmark's three workloads as fixed lists of jobs.

A job is one timed call into the package and one untimed output check.
The job list and its order are fixed, so the memory high-water mark does
not depend on the seed. The seeded generator passed to a workload draws
the inputs that may vary (lookup order, probes, pairs, amplitudes); the
amount of work does not depend on it. verify-ladder takes no random input.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm

import checks

VERIFY_KS = range(2, 9)  # the Weyl cap admits k <= 8
FUSION_KS = {"coset": (8, 9, 10), "full": (7, 8, 9)}  # n = 36, 45, 55 each
TABLE_KS = (12, 14)
SCAN_PROBES = 2  # per theory and k, each against every bulk label
CURVE_PAIRS = 2  # per theory and k
CURVE_SAMPLES = 256


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def run_cli(argv: list) -> tuple:
    """`parafermions <argv>` through cli.main: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def verify_ladder(rng: random.Random) -> list:
    return [Job(f"verify k={k}",
                lambda k=k: run_cli(["verify", "--k", k, "--all"]),
                lambda out, k=k: checks.verify_doc(out, k))
            for k in VERIFY_KS]


def _fusion_job(theory: str, k: int, rng: random.Random) -> Job:
    n = k * (k + 1) // 2 if theory == "coset" else (k + 1) * (k + 2) // 2
    order = rng.sample(range(n * n), n * n)

    def run():
        s = (co.coset_s_compact(k).s if theory == "coset"
             else fc.full_s_product(k))
        ring = fu.verlinde(s)
        labels = ring.labels
        products = {(labels[i // n], labels[i % n]):
                    ring.product(labels[i // n], labels[i % n]) for i in order}
        doc = run_cli(["fusion", "--k", k, "--which", theory])
        return ring, products, doc

    def check(out):
        ring, products, doc = out
        checks.fusion_ring(ring, products, theory, k)
        checks.fusion_doc(doc, ring, theory, k)

    return Job(f"fusion {theory} k={k}", run, check)


def fusion_rings(rng: random.Random) -> list:
    return [_fusion_job(theory, k, rng)
            for theory, ks in FUSION_KS.items() for k in ks]


def _representative_row(k: int) -> dict:
    reps = range(sm.orbit_count(k))
    return {(a, b): sm.level_rank_entry(sm.CosetWeight(0, a, k),
                                        sm.CosetWeight(0, b, k), k)
            for a in reps for b in reps}


def _amplitude(rng: random.Random) -> complex:
    """A point-contact tunnelling amplitude of modulus 0.5..1.5."""
    return rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _lattice(k: int) -> tuple:
    cl = fc.gram_matrix(k)
    return cl, fc.filling_factor(cl)


def _per_theory(check, k: int):
    """Check of a {theory: outputs} result, one theory at a time."""
    def run(out: dict) -> None:
        for theory, items in out.items():
            check(items, theory, k)
    return run


def _table_jobs(k: int, rng: random.Random) -> list:
    cdata = co.coset_s_compact(k)
    full = fc.full_s_product(k)
    t_coset = fu.TData(cdata.dims, cdata.central_charge)
    t_full = fu.TData(fc.full_dims(k), fc.full_central_charge(k))
    theories = {"coset": cdata.s, "full": full}
    probes = {th: rng.sample(s.labels, SCAN_PROBES) for th, s in theories.items()}
    pairs = {th: [(*rng.sample(s.labels, 2), _amplitude(rng), _amplitude(rng),
                   CURVE_SAMPLES) for _ in range(CURVE_PAIRS)]
             for th, s in theories.items()}

    def s_job(name, theory, build):
        return Job(f"{name} k={k}", build,
                   lambda s: checks.s_matrix(s, theory, k))

    def cli_job(name, argv, check):
        return Job(f"{name} k={k}", lambda: run_cli(argv),
                   lambda out: check(out, k))

    def detect():
        return {th: [(p, it.detection_report(s, p, s.labels))
                     for p in probes[th]] for th, s in theories.items()}

    def curve():
        return {th: [(it.sigma_xx_curve(s, *pair), pair) for pair in pairs[th]]
                for th, s in theories.items()}

    return [
        s_job("su2k", "su2k", lambda: sm.s_su2k(k)),
        s_job("suk2-compact", "coset", lambda: sm.s_suk2_compact(k)),
        s_job("extend", "coset",
              lambda: sm.simple_current_extend(_representative_row(k), k)),
        s_job("coset-compact", "coset", lambda: co.coset_s_compact(k).s),
        s_job("coset-phase", "coset", lambda: co.coset_s_phase_form(k)),
        s_job("coset-lm", "coset", lambda: co.coset_s_via_su2k_u1(k)),
        s_job("full-product", "full", lambda: fc.full_s_product(k)),
        s_job("full-compact", "full", lambda: fc.full_s_compact(k)),
        Job(f"modular k={k}",
            lambda: (fu.verify_modular_relations(cdata.s, t_coset),
                     fu.verify_modular_relations(full, t_full)),
            lambda out: checks.modular(*out, k)),
        cli_job("dims", ["dims", "--k", k], checks.dims_doc),
        cli_job("sectors", ["sectors", "--k", k], checks.sectors_doc),
        Job(f"lattice k={k}", lambda: _lattice(k),
            lambda out: checks.lattice(out, k)),
        cli_job("smatrix-csv",
                ["smatrix", "--k", k, "--which", "coset", "--format", "csv"],
                checks.csv_matrix),
        Job(f"detect k={k}", detect, _per_theory(checks.detection, k)),
        Job(f"curve k={k}", curve, _per_theory(checks.curves, k)),
    ]


def modular_tables(rng: random.Random) -> list:
    s3 = co.coset_s_compact(3).s
    epsilon = sm.CosetWeight(0, 1, 3)
    jobs = [Job("fibonacci k=3",
                lambda: [(epsilon, it.detection_report(s3, epsilon, s3.labels))],
                checks.fibonacci)]
    for k in TABLE_KS:
        jobs += _table_jobs(k, rng)
    return jobs


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "fusion-rings": fusion_rings,
    "modular-tables": modular_tables,
}
