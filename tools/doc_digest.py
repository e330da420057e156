"""One SHA-256 over every CLI document for k = 1..16.

    python tools/doc_digest.py [SRC]

imports `parafermions` from SRC, the `src` directory of a checkout (this
checkout's by default), runs each command below through `cli.main` and
hashes its argv, exit code, stdout and stderr in order. Two checkouts
print the same digest exactly when every document, message and exit code
is the same byte for byte:

* `smatrix` for all eight builders in JSON and CSV (the Weyl-Kac oracle
  up to k = 12);
* `sectors`, `dims` and `interfere` (coset and full) in JSON and CSV;
* `fusion` for su2k, coset and full up to k = 12 in JSON and CSV;
* `verify --all` in JSON for k = 2..12, with each check's `elapsed_s`
  removed, the one field that is a measurement.

A level a command refuses is hashed too, as its exit code and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

KS = range(1, 17)
ORACLE_KS = FUSION_KS = range(1, 13)
VERIFY_KS = range(2, 13)
# (which, probe, bulk): labels valid at every k >= 2
INTERFERE = (("coset", "0,1", "1,1"), ("full", "1,1", "2,1"))


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
            yield ["verify", "--k", str(k), "--all"]


def run(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if argv[0] == "verify":
        doc = json.loads(text)
        for check in doc["checks"]:
            del check["elapsed_s"]
        text = json.dumps(doc)
    return code, text, err.getvalue()


def main(argv) -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(Path(argv[1]) if len(argv) > 1 else root / "src"))
    from parafermions import cli

    digest = hashlib.sha256()
    for command in commands(sorted(cli._SMATRIX_BUILDERS)):
        digest.update(json.dumps([command, *run(cli, command)]).encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
