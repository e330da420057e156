"""SHA-256 digests of every CLI document for k = 1..16, one per
(command, format) family and one over all of them.

    python tools/doc_digest.py [SRC]

imports `parafermions` from SRC, the `src` directory of a checkout (this
checkout's by default), runs each command below through `cli.main` and
hashes its argv, exit code, stdout and stderr in order, into its
family's digest and into the total. Two checkouts print the same digest
for a family exactly when every document, message and exit code of that
family is the same byte for byte:

* `smatrix` for all eight builders in JSON and CSV (the Weyl-Kac oracle
  up to k = 12);
* `sectors`, `dims` and `interfere` (coset and full) in JSON and CSV,
  and `interfere` again with each pair of OVERFLOWS amplitudes, whose
  (|t1| + |t2|)^2 is not finite, in JSON and CSV: each run is refused
  with exit 1 and nothing on stdout;
* `fusion` for su2k, coset and full up to k = 12 in JSON and CSV;
* `verify --all` in JSON and CSV for k = 2..12, and `verify --all
  --tolerance 1e-30` (the failing verdict) in JSON, with each check's
  `elapsed_s` removed, the one field that is a measurement;
* `budget`: every command above again with `fusion.memory_budget`
  patched, hashed as its argv, exit code and stderr: once refusing each
  of its budget charges in turn (the first as a budget of 0, then the
  later ones: Verlinde's, the `fusion` document's dense tensor and the
  charge lattice; `verify`'s row-block fusion compares charge nothing),
  until a run is refused no charge, and once under a budget of 1 MiB,
  which admits the small levels and refuses the larger ones.

A level a command refuses is hashed too, as its exit code and message,
and a command whose exception escapes `cli.main` as the exception's type
name and message.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

KS = range(1, 17)
ORACLE_KS = FUSION_KS = range(1, 13)
VERIFY_KS = range(2, 13)
# (which, probe, bulk): labels valid at every k >= 2
INTERFERE = (("coset", "0,1", "1,1"), ("full", "1,1", "2,1"))
OVERFLOWS = (("1e154", "1e154"), ("1e160", "1"), ("1e308", "1"))  # t1, t2
SMALL_BUDGET = 2 ** 20  # bytes


def commands(builders):
    for k in KS:
        for fmt in ("json", "csv"):
            common = ["--k", str(k), "--format", fmt]
            for which in builders:
                if which != "suk2-oracle" or k in ORACLE_KS:
                    yield ["smatrix", *common, "--which", which]
            yield ["sectors", *common]
            yield ["dims", *common]
            for which, probe, bulk in INTERFERE:
                yield ["interfere", *common, "--which", which,
                       "--probe", probe, "--bulk", bulk, "--t1", "0.8+0.3j",
                       "--t2", "1.1-0.2j", "--samples", "37"]
            if k in FUSION_KS:
                for which in ("su2k", "coset", "full"):
                    yield ["fusion", *common, "--which", which]
        if k in VERIFY_KS:
            verify = ["verify", "--k", str(k), "--all"]
            yield verify
            yield [*verify, "--format", "csv"]
            yield [*verify, "--tolerance", "1e-30"]


def overflows():
    """`interfere` with each pair of OVERFLOWS amplitudes, for both
    theories in both formats at every k. The `budget` family leaves them
    out: they charge what the runs of `commands` charge."""
    for k, fmt, (which, probe, bulk), (t1, t2) in itertools.product(
            KS, ("json", "csv"), INTERFERE, OVERFLOWS):
        yield ["interfere", "--k", str(k), "--format", fmt, "--which", which,
               "--probe", probe, "--bulk", bulk, "--t1", t1, "--t2", t2]


def family(argv) -> str:
    return f"{argv[0]} {'csv' if 'csv' in argv else 'json'}"


def _drop_elapsed(checks: list) -> list:
    for check in checks:
        del check["elapsed_s"]
    return checks


def run(cli, argv) -> tuple:
    """cli.main(argv)'s exit code, stdout and stderr. An exception that
    escapes it is the run's result instead, as its type name and message
    in place of the exit code, with empty stdout and stderr, so a tree
    that crashes on one command is still digested on every other."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        return [type(exc).__name__, str(exc)], "", ""
    return code, out.getvalue(), err.getvalue()


def untimed(argv, text: str) -> str:
    """A document without its checks' elapsed_s, or text as it is."""
    if family(argv) == "verify json" and text:
        doc = json.loads(text)
        _drop_elapsed(doc["checks"])
        text = json.dumps(doc)
    elif argv[0] == "verify":  # the checks row holds the checks' JSON
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows:
            if row[0] == "checks":
                row[1] = json.dumps(_drop_elapsed(json.loads(row[1])))
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    return text


class Refusing:
    """A memory_budget that admits the first `admitted` charges and gives
    0 bytes, refusing any charge, from then on; `calls` counts charges."""

    def __init__(self, admitted: int):
        self.admitted, self.calls = admitted, 0

    def __call__(self) -> int:
        self.calls += 1
        return 2 ** 63 if self.calls <= self.admitted else 0


def main(argv) -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(Path(argv[1]) if len(argv) > 1 else root / "src"))
    from parafermions import cli, fusion

    total, families = hashlib.sha256(), {}

    def add(name, record):
        record = json.dumps(record).encode()
        families.setdefault(name, hashlib.sha256()).update(record)
        total.update(record)

    builders = sorted(cli._SMATRIX_BUILDERS)
    for command in itertools.chain(commands(builders), overflows()):
        code, out, err = run(cli, command)
        add(family(command), [command, code, untimed(command, out), err])
    real = fusion.memory_budget
    try:
        for command in commands(builders):
            for admitted in itertools.count():
                fusion.memory_budget = budget = Refusing(admitted)
                code, _, err = run(cli, command)
                if budget.calls <= admitted:  # no charge was refused
                    break
                add("budget", [admitted, command, code, err])
            fusion.memory_budget = lambda: SMALL_BUDGET
            code, _, err = run(cli, command)
            add("budget", [SMALL_BUDGET, command, code, err])
    finally:
        fusion.memory_budget = real
    for name, digest in families.items():
        print(f"{name:<16}{digest.hexdigest()}")
    print(f"{'total':<16}{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
