"""Wall time and peak memory of `verify --all` at each level, one child
process per level.

    python tools/verify_scale.py [--src SRC] K [K ...]

runs `python -m parafermions verify --k K --all` for each K in turn, with
`parafermions` imported from SRC (the `src` directory of a checkout, this
checkout's by default) and BLAS pinned to one thread. The child's peak
resident set is its own `ru_maxrss`, read from `os.wait4` on that child
alone (RUSAGE_CHILDREN would keep the largest of every child so far).
Each K prints one JSON line: the exit code, the wall time from spawn to
exit (`wall_s`, interpreter start included), `max_rss_mib`, the three
slowest checks with their `elapsed_s`, and the names of the failing
checks. The child's stderr passes through to this tool's stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure(src: Path, k: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREADS, "1")}
    argv = [sys.executable, "-m", "parafermions", "verify", "--k", str(k),
            "--all"]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    checks = json.loads(out)["checks"] if out else []
    slowest = sorted(checks, key=lambda c: c["elapsed_s"], reverse=True)[:3]
    return {"k": k, "exit": child.returncode, "wall_s": round(wall, 3),
            "max_rss_mib": round(usage.ru_maxrss / 1024, 1),  # KiB on Linux
            "slowest": [{"name": c["name"],
                         "elapsed_s": round(c["elapsed_s"], 3)}
                        for c in slowest],
            "failing": [c["name"] for c in checks if not c["passed"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("k", type=int, nargs="+")
    args = parser.parse_args(argv)
    for k in args.k:
        print(json.dumps(measure(args.src.resolve(), k)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
