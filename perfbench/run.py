"""Benchmark entry point for the parafermions package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. This process measures setup_s (median time
from launching a fresh interpreter to `import parafermions` returning,
scaled to the nominal host speed of hostspeed.py),
then starts one worker process that runs the workload, and prints one
JSON object as its last line. BLAS is pinned to one thread in every
child, so a run uses this process and one worker process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 25  # single launches vary by about 30 %
CHILD_TIMEOUT_S = 150
# Prints when the import returned, then the median of three reference
# kernel times taken in the same interpreter just after (one warm-up).
IMPORT_PROBE = f"""import parafermions
import time
done = time.monotonic()
import statistics, sys
sys.path.insert(0, {str(HERE)!r})
import hostspeed
hostspeed.kernel()
print(repr(done), repr(statistics.median(hostspeed.sample() for _ in range(3))))
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> float:
    """Median over fresh interpreters of launch-to-import-returned time,
    each scaled to the nominal host speed by the reference kernel timed in
    that interpreter (hostspeed.py). time.monotonic is the system-wide
    CLOCK_MONOTONIC on Linux, so the child's reading and the parent's are
    comparable."""
    samples = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch writes bytecode
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            returned, kernel = map(float, done.stdout.split()[-2:])
            samples.append((returned - start) * hostspeed.NOMINAL_S / kernel)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parafermions" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'parafermions'}",
              file=sys.stderr)
        return 2
    env = child_env()
    setup = None if args.trace else setup_seconds(env)
    trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--trace-file", str(trace_file)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 2
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    print(f"{args.workload}: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
