"""Wall time and peak memory of `verify --all`, or of `fusion`, at each
level, one child process per level.

    python tools/verify_scale.py [--src SRC] [--fusion WHICH] K [K ...]

runs `python -m parafermions verify --k K --all` for each K in turn, with
`parafermions` imported from SRC (the `src` directory of a checkout, this
checkout's by default) and BLAS pinned to one thread. The child's peak
resident set is its own `ru_maxrss`, read from `os.wait4` on that child
alone (RUSAGE_CHILDREN would keep the largest of every child so far).
Each K prints one JSON line: the exit code, the wall time from spawn to
exit (`wall_s`, interpreter start included), `max_rss_mib`, the three
slowest checks with their `elapsed_s`, and the names of the failing
checks. The child's stderr passes through to this tool's stderr.

With `--fusion WHICH` the child runs `fusion --k K --which WHICH`
instead; its document is read in chunks and counted, never kept, and
each line gives the exit code, `wall_s`, `max_rss_mib` and the
document's length in `bytes`.
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


def measure(src: Path, k: int, fusion: str | None = None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREADS, "1")}
    command = (["fusion", "--k", str(k), "--which", fusion] if fusion
               else ["verify", "--k", str(k), "--all"])
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "parafermions",
                              *command], stdout=subprocess.PIPE, env=env)
    with child.stdout:
        if fusion:
            chunks = iter(lambda: child.stdout.read(2 ** 20), b"")  # 1 MiB
            size = sum(map(len, chunks))
        else:
            out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    line = {"k": k, "exit": child.returncode, "wall_s": round(wall, 3),
            "max_rss_mib": round(usage.ru_maxrss / 1024, 1)}  # KiB on Linux
    if fusion:
        return {**line, "bytes": size}
    checks = json.loads(out)["checks"] if out else []
    slowest = sorted(checks, key=lambda c: c["elapsed_s"], reverse=True)[:3]
    return {**line,
            "slowest": [{"name": c["name"],
                         "elapsed_s": round(c["elapsed_s"], 3)}
                        for c in slowest],
            "failing": [c["name"] for c in checks if not c["passed"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--fusion", metavar="WHICH",
                        choices=("coset", "su2k", "full"),
                        help="measure `fusion --which WHICH`, not verify")
    parser.add_argument("k", type=int, nargs="+")
    args = parser.parse_args(argv)
    for k in args.k:
        print(json.dumps(measure(args.src.resolve(), k, args.fusion)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
