"""Command-line front end.

Subcommands emit machine-readable documents on stdout:

* ``smatrix``  - any of the S-matrix constructions
* ``verify``   - residual table for the consistency checks
* ``fusion``   - Verlinde fusion tensor
* ``dims``     - conformal dimensions and quantum dimensions
* ``sectors``  - label enumerations
* ``interfere``- sampled interference curve with monodromy header

Exit codes: 0 success, 1 usage or label error, 2 memory budget exceeded
or out of memory, 3 verification failure. Complex numbers serialize as
[re, im] pairs; documents are strict JSON (no NaN or Infinity).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache

import numpy as np

from . import coset as co
from . import fullcft as fc
from . import fusion as fu
from . import interferometry as it
from . import smatrix as sm
from .errors import (
    ConsistencyError,
    LabelError,
    LatticeError,
    ParafermionError,
    ResourceError,
    VacuumError,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

# tracemalloc peak of `interfere` per curve sample, its JSON or CSV
# document included: 221-279 bytes at 1e5 and 4e5 samples, 295 at 1e4.
INTERFERE_BYTES_PER_SAMPLE = 384

# Errors a consistency check raises when the data fail it: the check is
# recorded as failed, not the command refused.
CHECK_FAILURES = (ConsistencyError, LatticeError, VacuumError)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _complex_pairs(matrix: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def document(kind: str, k: int, basis, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "kind": kind,
        "basis": [str(lab) for lab in basis],
        **payload,
    }


def emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, allow_nan=False))
    else:
        print(to_csv(doc), end="")


def to_csv(doc: dict) -> str:
    """Flatten a document to CSV: metadata comments, then data rows with
    complex entries as re/im column pairs."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for key in ("schema_version", "k", "kind"):
        writer.writerow([f"# {key}", doc[key]])
    if "matrix" in doc:
        header = ["label"]
        for lab in doc["basis"]:
            header += [f"{lab} re", f"{lab} im"]
        writer.writerow(header)
        for lab, row in zip(doc["basis"], doc["matrix"]):
            flat = [lab]
            for re_im in row:
                flat += map(float, re_im)
            writer.writerow(flat)
    elif "curve" in doc:
        writer.writerow(["alpha", "sigma_xx"])
        for point in doc["curve"]:
            writer.writerow(map(float, point))
    else:
        for key, value in doc.items():
            if key in ("schema_version", "k", "kind"):
                continue
            writer.writerow([key, json.dumps(value)])
    return buf.getvalue()


def matrix_from_document(doc: dict) -> np.ndarray:
    rows = doc["matrix"]
    return np.array([[complex(re, im) for re, im in row] for row in rows])


_SMATRIX_BUILDERS = {
    "su2k": lambda k, tol: sm.s_su2k(k, tolerance=tol),
    "suk2-oracle": lambda k, tol: sm.s_suk2_weylkac(k, tolerance=tol),
    "suk2-compact": lambda k, tol: sm.s_suk2_compact(k, tolerance=tol),
    "coset": lambda k, tol: co.coset_s_compact(k, tolerance=tol).s,
    "coset-lm": lambda k, tol: co.coset_s_via_su2k_u1(k, tolerance=tol),
    "u1": lambda k, tol: fc.s_u1(k, tolerance=tol),
    "full-product": lambda k, tol: fc.full_s_product(k, tolerance=tol),
    "full-compact": lambda k, tol: fc.full_s_compact(k, tolerance=tol),
}


def cmd_smatrix(args) -> int:
    s = _SMATRIX_BUILDERS[args.which](args.k, args.tolerance)
    doc = document("smatrix", args.k, s.labels, {
        "which": args.which,
        "tolerance": s.tolerance,
        "matrix": _complex_pairs(s.entries),
    })
    emit(doc, args.format)
    return EXIT_OK


def _once(build):
    """build() run at most once: later calls return its result or raise
    again the CHECK_FAILURES error it raised."""
    @cache
    def attempt():
        try:
            return build(), None
        except CHECK_FAILURES as exc:
            return None, exc

    def get():
        value, exc = attempt()
        if exc is not None:
            raise exc
        return value
    return get


def _verify_checks(k: int, tol: float, targets=None):
    """Evaluate the named consistency checks, lazily so untargeted ones
    never run. Each S matrix is built at most once per call, also when
    its build raises. A check returns its residual, or (residual, passed)
    when passing takes more than residual < tol. A check that raises one
    of CHECK_FAILURES is recorded as failed with the error's message.
    Each check records its wall time as elapsed_s, which includes the
    builds of the S matrices it is the first to use."""
    su2k = _once(lambda: sm.s_su2k(k, tolerance=tol))
    suk2 = _once(lambda: sm.s_suk2_compact(k, tolerance=tol))
    coset = _once(lambda: co.coset_s_compact(k, tolerance=tol))
    full = _once(lambda: fc.full_s_product(k, tolerance=tol))

    def four_way():
        four = [suk2(), coset().s, co.coset_s_phase_form(k, tolerance=tol),
                co.coset_s_via_su2k_u1(k, tolerance=tol)]
        return max(a.max_abs_diff(b) for a in four for b in four)

    @cache
    def report(name):
        if name == "su2k":
            s = su2k()
            t = fu.TData({l: sm.dim_su2k(l, k) for l in s.labels},
                         Fraction(3 * k, k + 2))
        elif name == "coset":
            c = coset()
            s, t = c.s, fu.TData(c.dims, c.central_charge)
        else:
            s = full()
            t = fu.TData(fc.full_dims(k), fc.full_central_charge(k))
        return fu.verify_modular_relations(s, t)

    def s2(name):
        rep = report(name)
        return rep.s2_defect, (rep.conjugation_is_permutation
                               and rep.s2_defect < tol and rep.c2_defect < tol)

    def verlinde_coset():
        ring = fu.verlinde(coset().s)  # basis canonical_weights(k)
        return int(not np.array_equal(ring.tensor,
                                      fu.coset_fusion_tensor(k)))

    def verlinde_su2k():
        ring = fu.verlinde(su2k())
        return int(any({c: 1 for c in fu.fusion_su2k_closed(a, b, k)}
                       != dict(ring.product(a, b))
                       for a in ring.labels for b in ring.labels))

    def verlinde_full():
        fu.verlinde(full())  # raises on failure
        return 0

    plan = [("oracle-vs-compact",
             lambda: sm.s_suk2_weylkac(k, tolerance=tol).max_abs_diff(suk2())),
            ("coset-four-way", four_way)]
    for name in ("su2k", "coset", "full"):
        plan += [
            (f"unitarity-{name}", lambda n=name: report(n).unitarity_defect),
            (f"s2-{name}", lambda n=name: s2(n)),
            (f"st3-{name}", lambda n=name: report(n).st3_defect),
        ]
    plan += [
        ("verlinde-vs-closed-coset", verlinde_coset),
        ("verlinde-vs-closed-su2k", verlinde_su2k),
        ("verlinde-full-integrality", verlinde_full),
        ("full-dual-construction",
         lambda: full().max_abs_diff(fc.full_s_compact(k, tolerance=tol))),
        ("filling-factor",
         lambda: int(fc.filling_factor(fc.gram_matrix(k))
                     != Fraction(k, k + 2))),
    ]
    if targets:
        plan = [(n, f) for n, f in plan
                if any(n.startswith(t) or t in n for t in targets)]
    checks = []
    for name, run in plan:
        start = time.perf_counter()
        try:
            out = run()
        except CHECK_FAILURES as exc:
            check = {"name": name, "residual": None, "passed": False,
                     "error": str(exc)}
        else:
            residual, ok = out if isinstance(out, tuple) else (out, None)
            residual = float(residual)
            check = {"name": name, "residual": residual,
                     "passed": residual < tol if ok is None else ok}
        check["elapsed_s"] = time.perf_counter() - start
        checks.append(check)
    return checks


def cmd_verify(args) -> int:
    checks = _verify_checks(args.k, args.tolerance, targets=args.targets)
    if args.targets and not checks:
        print(f"no checks match targets {args.targets}", file=sys.stderr)
        return EXIT_USAGE
    doc = document("verify", args.k, [c["name"] for c in checks], {
        "tolerance": args.tolerance,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    })
    emit(doc, args.format)
    if not doc["passed"]:
        failing = [c["name"] for c in checks if not c["passed"]]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        for c in checks:
            if "error" in c:
                print(f"{c['name']}: {c['error']}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fusion(args) -> int:
    if args.which == "coset":
        s = co.coset_s_compact(args.k, tolerance=args.tolerance).s
    elif args.which == "su2k":
        s = sm.s_su2k(args.k, tolerance=args.tolerance)
    else:
        s = fc.full_s_product(args.k, tolerance=args.tolerance)
    ring = fu.verlinde(s)
    doc = document("fusion", args.k, ring.labels, {
        "which": args.which,
        "vacuum_index": ring.vacuum_index,
        "generators": [str(ring.labels[g]) for g in ring.generators],
        "tensor": ring.tensor.tolist(),
    })
    emit(doc, args.format)
    return EXIT_OK


def cmd_dims(args) -> int:
    cdata = co.coset_s_compact(args.k, tolerance=args.tolerance)
    qdims = fu.quantum_dimensions(cdata.s)
    doc = document("dims", args.k, cdata.s.labels, {
        "central_charge": str(cdata.central_charge),
        "conformal_dimensions": [str(cdata.dims[w]) for w in cdata.s.labels],
        "quantum_dimensions": [qdims[w] for w in cdata.s.labels],
        "total_quantum_dimension": fu.total_quantum_dimension(cdata.s),
    })
    emit(doc, args.format)
    return EXIT_OK


def cmd_sectors(args) -> int:
    sectors = fc.enumerate_sectors(args.k)
    doc = document("sectors", args.k, sectors, {
        "count": len(sectors),
        "coset_primaries": co.count_primaries(args.k),
        "neutral_labels": [str(s.neutral) for s in sectors],
        "filling_factor": str(fc.filling_factor(fc.gram_matrix(args.k))),
    })
    emit(doc, args.format)
    return EXIT_OK


def _parse_label(text: str, labels, k: int):
    for lab in labels:
        if str(lab) == text.strip():
            return lab
    valid = ", ".join(str(lab) for lab in labels)
    raise LabelError(f"label {text!r} not valid for k={k}; valid: {valid}")


def cmd_interfere(args) -> int:
    if args.which == "coset":
        s = co.coset_s_compact(args.k, tolerance=args.tolerance).s
    else:
        s = fc.full_s_product(args.k, tolerance=args.tolerance)
    bulk = _parse_label(args.bulk, s.labels, args.k)
    probe = _parse_label(args.probe, s.labels, args.k)
    fu.require_budget(INTERFERE_BYTES_PER_SAMPLE * args.samples,
                      f"a curve of {args.samples} samples")
    pattern = it.sigma_xx_curve(s, probe, bulk, args.t1, args.t2, args.samples)
    mono = pattern.monodromy
    doc = document("interference", args.k, [str(probe), str(bulk)], {
        "which": args.which,
        "monodromy": [mono.value.real, mono.value.imag],
        "visibility": mono.magnitude,
        "t1": [args.t1.real, args.t1.imag],
        "t2": [args.t2.real, args.t2.imag],
        "curve": [[a, s_] for a, s_ in zip(pattern.alpha_samples,
                                           pattern.sigma_xx)],
    })
    emit(doc, args.format)
    return EXIT_OK


def _complex_arg(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"amplitude must be finite, got {text!r}")
    return value


def _tolerance_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parafermions",
                     description="Modular data of Z_k parafermion "
                                 "Read-Rezayi states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tolerance", type=_tolerance_arg,
                       default=sm.DEFAULT_TOLERANCE)

    p = sub.add_parser("smatrix", parents=[], help="emit an S matrix")
    common(p)
    p.add_argument("--which", choices=sorted(_SMATRIX_BUILDERS),
                   required=True)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("verify", help="run consistency checks")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--targets", nargs="+")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fusion", help="emit a Verlinde fusion tensor")
    common(p)
    p.add_argument("--which", choices=("coset", "su2k", "full"),
                   default="coset")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("dims", help="emit conformal and quantum dimensions")
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("sectors", help="enumerate sectors and lattice data")
    common(p)
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("interfere", help="sample an interference curve")
    common(p)
    p.add_argument("--which", choices=("coset", "full"), default="coset")
    p.add_argument("--bulk", required=True,
                   help='label string, e.g. "0,1" (coset) or "1,1" (full)')
    p.add_argument("--probe", required=True)
    p.add_argument("--t1", type=_complex_arg, default=1 + 0j)
    p.add_argument("--t2", type=_complex_arg, default=1 + 0j)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_interfere)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (LabelError, ParafermionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
