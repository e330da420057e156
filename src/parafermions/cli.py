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
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

from . import coset as co
from . import fullcft as fc
from . import fusion as fu
from . import interferometry as it
from . import smatrix as sm
from .errors import (ConsistencyError, LabelError, ParafermionError,
                     ResourceError)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

# tracemalloc peak of `interfere` per curve sample, its JSON or CSV
# document included: 221-279 bytes at 1e5 and 4e5 samples, 295 at 1e4.
INTERFERE_BYTES_PER_SAMPLE = 384

# tracemalloc peak of `smatrix` per S entry, its JSON or CSV document
# written to a file included: 117-160 bytes for JSON and 82-161 for CSV
# at n = 300..1000, where S itself holds 16, the builder up to 72 more
# (full-product) and the 16-byte keys of the entries' texts 64.
SMATRIX_BYTES_PER_ENTRY = 192

# tracemalloc peak of `fusion` per n^3, its JSON or CSV document included:
# 7.1-7.4 at n = 91..231 (the int8 tensor, then the text as uint8 and as
# str).
FUSION_BYTES_PER_CUBE = 8

# tracemalloc peak of a `verify` closed-form fusion compare per n^3: 3.0
# at k = 20 and 30 (n = 210, 465), the ring's dense int8 tensor, the
# closed form and np.array_equal's bool array held at once.
CLOSED_FUSION_BYTES_PER_CUBE = 4

# tracemalloc peak of the charge lattice's Bareiss pass (gram_matrix and
# filling_factor) per entry of its 2k x 2k int64 array: 49-76 bytes at
# k = 10..300.
LATTICE_BYTES_PER_ENTRY = 80

# tracemalloc peak of `sectors` per sector, its JSON or CSV document
# included and the lattice excluded: 295-359 bytes at k = 50..300.
SECTORS_BYTES_PER_SECTOR = 384


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def document(kind: str, k: int, basis, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "kind": kind,
        "basis": [str(lab) for lab in basis],
        **payload,
    }


def emit(doc: dict, fmt: str) -> None:
    """Print doc as JSON, the bytes json.dumps(doc) gives with a complex
    matrix as its [re, im] pairs and an integer tensor as its entries, or
    as CSV. Each value is its own write, so an encoded one is never
    copied into a string of the whole document."""
    if fmt == "json":
        pieces = []
        for key, value in doc.items():
            if isinstance(value, np.ndarray):
                text = (_matrix_json(value) if value.dtype.kind == "c"
                        else _tensor_json(value))
            else:
                text = json.dumps(value, allow_nan=False)
            pieces += [", " if pieces else "{", json.dumps(key), ": ", text]
        print(*pieces, "}", sep="")
    else:
        to_csv(doc, sys.stdout)


def to_csv(doc: dict, out) -> None:
    """Write doc to out as CSV: metadata comments, then data rows with
    complex entries as re/im column pairs, an integer tensor as its JSON
    text, encoded before any row so that a refused one writes nothing."""
    texts = {key: _tensor_json(value) for key, value in doc.items()
             if isinstance(value, np.ndarray) and value.dtype.kind != "c"}
    writer = csv.writer(out)
    for key in ("schema_version", "k", "kind"):
        writer.writerow([f"# {key}", doc[key]])
    if "matrix" in doc:
        header = ["label"]
        for lab in doc["basis"]:
            header += [f"{lab} re", f"{lab} im"]
        writer.writerow(header)
        # as writer.writerow([lab, re, im, ...]) with float cells: a row
        # is the label, quoted as the writer quotes it, and the cells
        cells = _pair_texts(doc["matrix"], repr, "{},{}")
        n = len(doc["basis"])
        for i, lab in enumerate(doc["basis"]):
            quote = _csv_quote(lab)
            row = ",".join(cells[i * n:(i + 1) * n])
            out.write(f"{quote}{lab}{quote},{row}\r\n")
    elif "curve" in doc:
        writer.writerow(["alpha", "sigma_xx"])
        for point in doc["curve"]:
            writer.writerow(map(float, point))
    else:
        for key, value in doc.items():
            if key in ("schema_version", "k", "kind"):
                continue
            if key in texts:
                # as writer.writerow([key, text]), whose row buffer would
                # hold the text at four bytes a character
                quote = _csv_quote(texts[key])
                out.writelines([f"{key},{quote}", texts[key], f"{quote}\r\n"])
            else:
                writer.writerow([key, json.dumps(value)])


def _csv_quote(text: str) -> str:
    """The quote csv.writer puts at each end of text, for a text with no
    quote or line break (JSON of numbers, a label): '"' when it has a
    comma, else none."""
    return '"' if "," in text else ""


def _pair_texts(matrix: np.ndarray, dumps, pair: str) -> list:
    """pair.format(re, im) for each entry of a complex matrix, in C
    order, with re and im as dumps writes them in a list of floats.

    S entries repeat (sine products times roots of unity), so each
    distinct [re, im] is looked up once: the entries are keyed on their
    16 bytes, never on their values, since 0.0 == -0.0 and the two keep
    their own texts. Each distinct magnitude is formatted once, and a
    negative float other than NaN reads "-" and its magnitude's text."""
    keys = np.ascontiguousarray(matrix, np.complex128).view("V16")
    keys = keys.ravel().tolist()
    distinct = dict.fromkeys(keys)
    floats = np.frombuffer(b"".join(distinct), np.float64)
    sizes, at = np.unique(np.abs(floats), return_inverse=True)
    texts = dumps(sizes.tolist())[1:-1].split(", ")
    at += len(texts) * (np.signbit(floats) & ~np.isnan(floats))
    texts = np.array(texts + ["-" + t for t in texts], object)[at].tolist()
    cell = dict(zip(distinct, map(pair.format, texts[0::2], texts[1::2])))
    return list(map(cell.__getitem__, keys))


def _matrix_json(matrix: np.ndarray) -> str:
    """json.dumps of the [re, im] pairs of a complex matrix, raising the
    strict encoder's ValueError on a non-finite entry."""
    n = matrix.shape[1]
    cells = _pair_texts(matrix, lambda x: json.dumps(x, allow_nan=False),
                        "[{}, {}]")
    rows = [", ".join(cells[i:i + n]) for i in range(0, len(cells), n)]
    rows[0] = "[[" + rows[0]  # on the end rows, not on the joined text,
    rows[-1] += "]]"          # which would be copied twice more
    return "], [".join(rows)


def _tensor_json(tensor: np.ndarray) -> str:
    """json.dumps(tensor.tolist()) for an integer tensor of shape
    (planes, rows, cols), written as bytes. Every ring here is
    multiplicity-free, so each entry is one digit at a fixed offset: one
    plane template of zeros is copied into every plane, and one strided
    add writes the digits, through a uint8 view of a one-byte tensor with
    no cast. Raises ConsistencyError, before writing anything, on an entry
    outside 0..9."""
    if tensor.min() < 0 or tensor.max() > 9:
        raise ConsistencyError("a fusion document entry outside 0..9")
    planes, rows, cols = tensor.shape
    row = b"[" + b", ".join([b"0"] * cols) + b"]"
    plane = b"[" + b", ".join([row] * rows) + b"], "
    buf = np.empty(1 + planes * len(plane), dtype=np.uint8)
    buf[0] = ord("[")
    buf[1:].reshape(planes, len(plane))[:] = np.frombuffer(plane, np.uint8)
    buf[-2] = ord("]")  # the last plane closes the tensor: drop its " "
    digits = np.lib.stride_tricks.as_strided(
        buf[3:], tensor.shape, (len(plane), len(row) + 2, 3))  # after "[[["
    small = tensor if tensor.itemsize == 1 else tensor.astype(np.uint8)
    np.add(digits, small.view(np.uint8), out=digits)
    return str(buf[:-1], "ascii")


# each builder is read from its module at call time, never bound at
# import, so a wrapper installed on the module is the one that runs
_SMATRIX_BUILDERS = {
    "su2k": lambda k: sm.s_su2k(k),
    "suk2-oracle": lambda k: sm.s_suk2_weylkac(k),
    "suk2-compact": lambda k: sm.s_suk2_compact(k),
    "coset": lambda k: co.coset_s_compact(k).s,
    "coset-lm": lambda k: co.coset_s_via_su2k_u1(k),
    "u1": lambda k: fc.s_u1(k),
    "full-product": lambda k: fc.full_s_product(k),
    "full-compact": lambda k: fc.full_s_compact(k),
}


def _smatrix_dim(which: str, k: int) -> int:
    """The label count of the S matrix `which` at level k, worked out
    without building it; 1 or 0 for k < 1, which every builder refuses
    with its own message."""
    k = max(k, 0)
    if which == "su2k":
        return k + 1
    if which == "u1":
        return k * (k + 2)
    if which.startswith("full"):
        return (k + 1) * (k + 2) // 2
    return k * (k + 1) // 2  # su(k)_2 weights, coset fields


def _lattice_need(k: int) -> int:
    """Bytes the charge lattice of level k holds at its peak, worked out
    without building it; small for k < 1, which gram_matrix refuses."""
    return LATTICE_BYTES_PER_ENTRY * (2 * max(k, 0)) ** 2


def _build(which: str, k: int, build=None, extra: int = 0, what=None):
    """build(k), or the S matrix `which` names at level k (`full` is
    `full-product`), once the memory budget admits SMATRIX_BYTES_PER_ENTRY
    per S entry plus extra bytes; else ResourceError naming `what`, by
    default the S matrix, before anything is allocated."""
    which = "full-product" if which == "full" else which
    n = _smatrix_dim(which, k)
    fu.require_budget(SMATRIX_BYTES_PER_ENTRY * n ** 2 + extra,
                      what or f"the {which} S matrix of {n ** 2} entries")
    return (build or _SMATRIX_BUILDERS[which])(k)


def cmd_smatrix(args) -> int:
    s = _build(args.which, args.k)
    doc = document("smatrix", args.k, s.labels, {
        "which": args.which,
        "matrix": s.entries,
    })
    emit(doc, args.format)
    return EXIT_OK


def _verify_checks(k: int, tol: float, targets=None):
    """Evaluate the named consistency checks, lazily so untargeted ones
    never run. tol decides pass or fail here and nowhere else, and the
    relation each check names is judged here only: the builders it calls
    do not check themselves. Each S matrix is built through _build at
    most once per call, also when its build raises; su(k)_2 is the
    coset's, coset_s_compact(k).s. A check returns
    its residual, or (residual, passed) when passing takes more than
    residual < tol. A check that raises ConsistencyError, or whose
    residual is not finite, is recorded as failed with a null residual
    and the error's message. Each check records its wall time
    as elapsed_s, which includes the builds of the S matrices it is the
    first to use."""
    built = {}  # builder: its result, or the error it raised

    def build(which, builder):
        if builder not in built:
            try:
                built[builder] = _build(which, k, builder)
            except ConsistencyError as exc:
                built[builder] = exc
        if isinstance(built[builder], ConsistencyError):
            raise built[builder]
        return built[builder]

    # read from the modules at call time, as _SMATRIX_BUILDERS does
    su2k = lambda: build("su2k", sm.s_su2k)
    coset = lambda: build("coset", co.coset_s_compact)
    full = lambda: build("full-product", fc.full_s_product)

    def four_way():
        three = [coset().s, build("coset", co.coset_s_phase_form),
                 build("coset-lm", co.coset_s_via_su2k_u1)]
        # np.max, not max: a NaN is the answer wherever it stands
        return np.max([a.max_abs_diff(b) for a, b in combinations(three, 2)])

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

    def closed_budget(which):  # before either tensor is built
        n = _smatrix_dim(which, k)
        fu.require_budget(CLOSED_FUSION_BYTES_PER_CUBE * n ** 3,
                          f"the closed-form fusion compare of {n} labels")

    def verlinde_coset():
        closed_budget("coset")
        ring = fu.verlinde(coset().s)  # basis canonical_weights(k)
        return int(not np.array_equal(ring.tensor,
                                      fu.coset_fusion_tensor(k)))

    def verlinde_su2k():
        closed_budget("su2k")
        ring = fu.verlinde(su2k())  # basis l = 0..k
        return int(not np.array_equal(ring.tensor, fu.su2k_fusion_tensor(k)))

    def verlinde_full():
        fu.verlinde(full())  # raises on failure
        return 0

    def filling():
        fu.require_budget(_lattice_need(k),
                          f"the charge lattice of rank {2 * k - 1}")
        fc.filling_factor(fc.gram_matrix(k))  # raises unless k/(k+2)
        return 0

    plan = [("oracle-vs-compact",
             lambda: build("suk2-oracle",
                           sm.s_suk2_weylkac).max_abs_diff(coset().s)),
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
         lambda: full().max_abs_diff(build("full-compact",
                                           fc.full_s_compact))),
        ("filling-factor", filling),
    ]
    if targets:
        plan = [(n, f) for n, f in plan
                if any(t and t in n for t in targets)]
    checks = []
    for name, run in plan:
        start = time.perf_counter()
        try:
            out = run()
            residual, ok = out if isinstance(out, tuple) else (out, None)
            residual = float(residual)
            if not math.isfinite(residual):
                raise ConsistencyError(f"residual {residual} is not finite")
        except ConsistencyError as exc:
            check = {"name": name, "residual": None, "passed": False,
                     "error": str(exc)}
        else:
            check = {"name": name, "residual": residual,
                     "passed": residual < tol if ok is None else ok}
        check["elapsed_s"] = time.perf_counter() - start
        checks.append(check)
    return checks


def cmd_verify(args) -> int:
    checks = _verify_checks(args.k, args.tol, targets=args.targets)
    if args.targets and not checks:
        print(f"no checks match targets {args.targets}", file=sys.stderr)
        return EXIT_USAGE
    doc = document("verify", args.k, [c["name"] for c in checks], {
        "tolerance": args.tol,
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
    n = _smatrix_dim(args.which, args.k)
    ring = fu.verlinde(_build(args.which, args.k,
                              extra=FUSION_BYTES_PER_CUBE * n ** 3,
                              what=f"the fusion document of {n} labels"))
    doc = document("fusion", args.k, ring.labels, {
        "which": args.which,
        "vacuum_index": ring.vacuum_index,
        "generators": [str(ring.labels[g]) for g in ring.generators],
        "tensor": ring.tensor,
    })
    emit(doc, args.format)
    return EXIT_OK


def cmd_dims(args) -> int:
    cdata = _build("coset", args.k, co.coset_s_compact)
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
    n = _smatrix_dim("full", args.k)  # one sector per full-theory label
    fu.require_budget(SECTORS_BYTES_PER_SECTOR * n + _lattice_need(args.k),
                      f"the sectors document of {n} sectors")
    sectors = fc.enumerate_sectors(args.k)
    names = list(map(str, sm.canonical_weights(args.k)))
    neutral = fc.sector_arrays(args.k)[4].tolist()
    doc = document("sectors", args.k, sectors, {
        "count": len(sectors),
        "coset_primaries": co.count_primaries(args.k),
        "neutral_labels": [names[i] for i in neutral],
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
    n = _smatrix_dim(args.which, args.k)
    s = _build(args.which, args.k,
               extra=INTERFERE_BYTES_PER_SAMPLE * args.samples,
               what=f"a curve of {args.samples} samples over an S matrix "
                    f"of {n ** 2} entries")
    bulk = _parse_label(args.bulk, s.labels, args.k)
    probe = _parse_label(args.probe, s.labels, args.k)
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


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parafermions",
                     description="Modular data of Z_k parafermion "
                                 "Read-Rezayi states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("smatrix", parents=[], help="emit an S matrix")
    common(p)
    p.add_argument("--which", choices=sorted(_SMATRIX_BUILDERS),
                   required=True)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("verify", help="run consistency checks")
    common(p)
    p.add_argument("--tolerance", dest="tol", type=_tolerance_arg,
                   default=sm.DEFAULT_TOLERANCE,
                   help="a check passes when its residual is below this")
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
    except (ParafermionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
