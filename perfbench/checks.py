"""Output checks of the benchmark's jobs.

Each check reads a job's output, compares it with `reference`, and
raises `Mismatch` when the output is wrong or `Unreadable` when it cannot
be read at all. A job whose check raises `Unreadable`, or that raises
itself, counts as a failed operation; a `Mismatch` makes the run
incorrect. Outputs are read through their attributes and documents only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

import reference as ref

TOL = 1e-10
DIM_TOL = 1e-9

VERIFY_CHECKS = frozenset(
    ["oracle-vs-compact", "coset-four-way"]
    + [f"{rel}-{th}" for th in ("su2k", "coset", "full")
       for rel in ("unitarity", "s2", "st3")]
    + ["verlinde-vs-closed-coset", "verlinde-vs-closed-su2k",
       "verlinde-full-integrality", "full-dual-construction",
       "filling-factor"])
VERIFY_EXIT = 3  # st3-full fails by design: weight-3/2 electron
ST3_FULL_FLOOR = 0.5


class Mismatch(Exception):
    """The output is readable but wrong."""


class Unreadable(Exception):
    """The output cannot be read."""


def require(cond, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def label_tuple(label):
    """(mu, nu), (l, rho) or l of a program label."""
    if hasattr(label, "mu"):
        return (label.mu, label.nu)
    if hasattr(label, "rho"):
        return (label.l, label.rho)
    return int(label)


def _expected_labels(theory: str, k: int) -> list:
    return {"su2k": lambda: list(range(k + 1)),
            "coset": lambda: ref.coset_labels(k),
            "full": lambda: ref.full_labels(k)}[theory]()


def _reference_s(theory: str, k: int, labels) -> np.ndarray:
    if theory == "su2k":
        return ref.su2k_s(k)[np.ix_(labels, labels)]
    if theory == "coset":
        return ref.coset_s(k, labels)
    return ref.full_s(k, labels)


def _reference_dim(theory: str, label, k: int) -> float:
    if theory == "su2k":
        return ref.quantum_dimension(label, k)
    if theory == "coset":
        return ref.coset_dimension_of(label, k)
    return ref.sector_dimension(label, k)


def _vacuum(theory: str):
    return {"su2k": 0, "coset": (0, 0), "full": (0, 0)}[theory]


def _basis(labels, theory: str, k: int) -> list:
    out = [label_tuple(lab) for lab in labels]
    require(sorted(out) == sorted(_expected_labels(theory, k)),
            f"{theory} basis at k={k} is not the expected label set")
    return out


def s_matrix(s, theory: str, k: int) -> None:
    """Closed form, unitarity, symmetry and vacuum-row dimensions."""
    labels = _basis(s.labels, theory, k)
    entries = np.asarray(s.entries)
    diff = float(np.max(np.abs(entries - _reference_s(theory, k, labels))))
    require(diff < TOL, f"{theory} S at k={k} differs from the closed form "
                        f"by {diff:g}")
    unitarity = np.max(np.abs(entries @ entries.conj().T - np.eye(len(labels))))
    require(unitarity < TOL, f"{theory} S at k={k} not unitary: {unitarity:g}")
    require(np.max(np.abs(entries - entries.T)) < TOL,
            f"{theory} S at k={k} not symmetric")
    vac = labels.index(_vacuum(theory))
    row = entries[vac] / entries[vac, vac]
    dims = np.array([_reference_dim(theory, lab, k) for lab in labels])
    require(np.max(np.abs(row - dims)) < DIM_TOL,
            f"{theory} vacuum-row dimensions at k={k} off the sine formula")


def verify_doc(out, k: int) -> None:
    """`verify --all` document: every check but st3-full passes below its
    tolerance; st3-full keeps its (ST)^3 obstruction above 0.5."""
    rc, text, _ = out
    doc = _json(text)
    require(rc == VERIFY_EXIT, f"verify --k {k} --all exited {rc}")
    require(doc["kind"] == "verify" and doc["k"] == k, "wrong verify header")
    names = [c["name"] for c in doc["checks"]]
    require(len(names) == len(VERIFY_CHECKS) and set(names) == VERIFY_CHECKS,
            f"verify --k {k} checks {sorted(names)}")
    tol = doc["tolerance"]
    for c in doc["checks"]:
        if c["name"] == "st3-full":
            require(not c["passed"] and c["residual"] > ST3_FULL_FLOOR,
                    f"st3-full at k={k}: {c}")
        else:
            require(c["passed"] and c["residual"] < tol,
                    f"{c['name']} at k={k}: {c}")
    require(doc["passed"] is False, f"verify --k {k} claims to pass")


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:
        raise Unreadable(f"document is not JSON: {exc}") from None


def fusion_ring(ring, products: dict, theory: str, k: int) -> None:
    """Integral, non-negative, commutative ring with vacuum identity;
    dimensions multiply; each lookup equals the closed-form rule
    (coset) or conserves charge mod k+2 (full)."""
    labels = _basis(ring.labels, theory, k)
    n = len(labels)
    tensor = np.asarray(ring.tensor)
    require(tensor.shape == (n, n, n) and np.issubdtype(tensor.dtype, np.integer),
            f"{theory} fusion tensor at k={k} not an integer n^3 array")
    require(np.all(tensor >= 0), f"negative fusion coefficient at k={k}")
    require(np.array_equal(tensor, tensor.swapaxes(0, 1)),
            f"{theory} fusion at k={k} not commutative")
    vac = labels.index(_vacuum(theory))
    require(ring.vacuum_index == vac, f"{theory} vacuum index at k={k}")
    require(np.array_equal(tensor[vac], np.eye(n, dtype=tensor.dtype)),
            f"{theory} vacuum does not act as the identity at k={k}")
    d = np.array([_reference_dim(theory, lab, k) for lab in labels])
    gap = np.max(np.abs(tensor @ d - np.outer(d, d)))
    require(gap < DIM_TOL * np.max(d) ** 2,
            f"{theory} fusion at k={k} breaks d_a d_b = sum N d: {gap:g}")
    require(len(products) == n * n, f"{theory} lookups at k={k} miss pairs")
    index = {lab: i for i, lab in enumerate(labels)}
    for (a, b), product in products.items():
        ta, tb = label_tuple(a), label_tuple(b)
        got = {label_tuple(c): m for c, m in product.items()}
        ia, ib = index[ta], index[tb]
        row = {labels[c]: int(m) for c, m in enumerate(tensor[ia, ib]) if m}
        require(got == row, f"{theory} product {ta} x {tb} at k={k} "
                            f"disagrees with the tensor")
        if theory == "coset":
            require(got == dict(ref.coset_fusion(ta, tb, k)),
                    f"coset {ta} x {tb} at k={k}: {got}")
        else:
            require(all((c[0] - ta[0] - tb[0]) % (k + 2) == 0 for c in got),
                    f"full {ta} x {tb} at k={k} breaks charge conservation")


def fusion_doc(out, ring, theory: str, k: int) -> None:
    rc, text, _ = out
    doc = _json(text)
    require(rc == 0, f"fusion --k {k} --which {theory} exited {rc}")
    require(doc["kind"] == "fusion" and doc["k"] == k
            and doc["which"] == theory, "wrong fusion header")
    require(doc["basis"] == [str(lab) for lab in ring.labels],
            f"fusion document basis at k={k}")
    require(doc["vacuum_index"] == ring.vacuum_index,
            f"fusion document vacuum at k={k}")
    require(np.array_equal(np.array(doc["tensor"]), ring.tensor),
            f"fusion document tensor at k={k} differs from the ring")


def modular(coset_report, full_report, k: int) -> None:
    """Coset: the SL(2, Z) relations hold. Full: unitarity, S^2 = C and
    C^2 = 1 hold; (ST)^3 = C fails by more than 0.5."""
    for name, rep in (("coset", coset_report), ("full", full_report)):
        require(rep.conjugation_is_permutation,
                f"{name} S^2 not a permutation at k={k}")
        for attr in ("unitarity_defect", "s2_defect", "c2_defect"):
            require(getattr(rep, attr) < TOL, f"{name} {attr} at k={k}")
    require(coset_report.st3_defect < TOL, f"coset st3 at k={k}")
    require(full_report.st3_defect > ST3_FULL_FLOOR,
            f"full st3 at k={k}: {full_report.st3_defect}")


def _pair_labels(basis) -> list:
    try:
        return [tuple(int(x) for x in lab.split(",")) for lab in basis]
    except ValueError:
        raise Unreadable(f"unreadable labels {basis[:3]}") from None


def dims_doc(out, k: int) -> None:
    """Quantum dimensions match the sine formula; the conformal weights
    satisfy Gauss-Milgram with c = 2(k-1)/(k+2)."""
    rc, text, _ = out
    doc = _json(text)
    require(rc == 0, f"dims --k {k} exited {rc}")
    labels = _pair_labels(doc["basis"])
    require(sorted(labels) == ref.coset_labels(k), f"dims basis at k={k}")
    d = [ref.coset_dimension_of(lab, k) for lab in labels]
    require(max(abs(a - b) for a, b in zip(doc["quantum_dimensions"], d))
            < DIM_TOL, f"dims quantum dimensions at k={k}")
    total = math.sqrt(sum(x * x for x in d))
    require(abs(doc["total_quantum_dimension"] - total) < DIM_TOL * total,
            f"dims total quantum dimension at k={k}")
    c = ref.central_charge(k)
    require(Fraction(doc["central_charge"]) == c, f"dims central charge k={k}")
    weights = [Fraction(h) for h in doc["conformal_dimensions"]]
    residual = ref.gauss_milgram_residual(d, weights, c)
    require(residual < TOL, f"Gauss-Milgram residual {residual:g} at k={k}")


def sectors_doc(out, k: int) -> None:
    rc, text, _ = out
    doc = _json(text)
    require(rc == 0, f"sectors --k {k} exited {rc}")
    sectors = _pair_labels(doc["basis"])
    require(sorted(sectors) == ref.full_labels(k), f"sector basis at k={k}")
    require(doc["count"] == (k + 1) * (k + 2) // 2, f"sector count at k={k}")
    require(doc["coset_primaries"] == k * (k + 1) // 2,
            f"coset primary count at k={k}")
    neutral = _pair_labels(doc["neutral_labels"])
    require(neutral == [ref.neutral(s, k) for s in sectors],
            f"neutral labels at k={k}")
    require(Fraction(doc["filling_factor"]) == Fraction(k, k + 2),
            f"sectors filling factor {doc['filling_factor']} at k={k}")


def lattice(out, k: int) -> None:
    """nu = k/(k+2) exactly; the Gram matrix is the reference one and
    passes a Cholesky factorisation."""
    cl, nu = out
    require(isinstance(nu, Fraction) and nu == Fraction(k, k + 2),
            f"filling factor {nu} at k={k}")
    g = np.array(cl.gram, dtype=np.int64)
    require(np.array_equal(g, ref.gram(k)), f"Gram matrix at k={k}")
    try:
        np.linalg.cholesky(g.astype(float))
    except np.linalg.LinAlgError:
        raise Mismatch(f"Gram matrix at k={k} not positive definite") from None
    q = np.array(cl.charge_vector, dtype=float)
    require(abs(q @ np.linalg.solve(g, q) - k / (k + 2)) < TOL,
            f"Q^T G^-1 Q at k={k}")


def csv_matrix(out, k: int) -> None:
    """`smatrix --which coset --format csv`: cells parse as numbers equal
    to the closed form."""
    rc, text, _ = out
    require(rc == 0, f"smatrix csv --k {k} exited {rc}")
    rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
    labels = _pair_labels([r[0] for r in rows[1:]])
    try:
        cells = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise Unreadable(f"CSV cell is not a number: {exc}") from None
    require(cells.shape == (len(labels), 2 * len(labels)), "CSV shape")
    s = cells[:, 0::2] + 1j * cells[:, 1::2]
    require(sorted(labels) == ref.coset_labels(k), f"CSV basis at k={k}")
    diff = np.max(np.abs(s - ref.coset_s(k, labels)))
    require(diff < TOL, f"CSV S at k={k} off the closed form by {diff:g}")


def _reference_monodromies(theory: str, k: int, labels):
    s = _reference_s(theory, k, labels)
    return ref.monodromies(s, labels.index(_vacuum(theory)))


def detection(reports: list, theory: str, k: int) -> None:
    """Each row's monodromy equals S_ab S_00 / (S_0a S_0b) of the closed
    form; |M| <= 1; M with the vacuum is 1; non-Abelian iff |M| < 1."""
    labels = _expected_labels(theory, k)
    m = _reference_monodromies(theory, k, labels)
    vac = labels.index(_vacuum(theory))
    for probe, rows in reports:
        ip = labels.index(label_tuple(probe))
        bulks = [label_tuple(r.bulk) for r in rows]
        require(sorted(bulks) == labels, f"scan of {theory} k={k} misses bulks")
        for bulk, row in zip(bulks, rows):
            want = m[ip, labels.index(bulk)]
            got = row.magnitude * complex(math.cos(row.phase), math.sin(row.phase))
            require(abs(got - want) < DIM_TOL,
                    f"monodromy {label_tuple(probe)} around {bulk} at k={k}: "
                    f"{got} != {want}")
            require(row.magnitude <= 1 + TOL, f"|M| > 1 at k={k}")
            require(row.non_abelian == (abs(abs(want) - 1) > DIM_TOL),
                    f"non-Abelian flag of {bulk} at k={k}")
        require(abs(m[ip, vac] - 1) < TOL, f"M with the vacuum at k={k}")


def curves(patterns: list, theory: str, k: int) -> None:
    """sigma_xx(alpha) = |t1|^2 + |t2|^2 + 2 Re(t1* t2 e^{i alpha} M)."""
    labels = _expected_labels(theory, k)
    m = _reference_monodromies(theory, k, labels)
    for pat, (probe, bulk, t1, t2, samples) in patterns:
        want = m[labels.index(label_tuple(probe)), labels.index(label_tuple(bulk))]
        require(abs(pat.monodromy.value - want) < DIM_TOL,
                f"curve monodromy at k={k}")
        alpha = 2 * np.pi * np.arange(samples) / samples
        sigma = (abs(t1) ** 2 + abs(t2) ** 2
                 + 2 * (np.conj(t1) * t2 * np.exp(1j * alpha) * want).real)
        require(len(pat.sigma_xx) == samples
                and np.max(np.abs(np.array(pat.sigma_xx) - sigma)) < DIM_TOL,
                f"sigma_xx curve at k={k}")


FIBONACCI = -2 / (3 + math.sqrt(5))  # -1/delta^2 = -0.3819660113 (golden delta)


def fibonacci(reports: list) -> None:
    """At k = 3 the probe (0,1) around the bulk (1,2) gives -1/delta^2."""
    detection(reports, "coset", 3)
    (_, rows), = reports
    value = {label_tuple(r.bulk): r.magnitude * math.cos(r.phase) for r in rows}
    require(abs(value[(1, 2)] - FIBONACCI) < TOL,
            f"Fibonacci monodromy {value[(1, 2)]} != {FIBONACCI}")
