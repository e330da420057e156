"""Worker process: runs one workload's jobs in whole rounds and prints one
JSON line.

Usage (from run.py, with PYTHONPATH pointing at the package sources):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --trace-file PATH

Rounds repeat the workload's fixed job list until the next round would
pass --seconds (at least MIN_ROUNDS). Each job is timed alone, after a
garbage collection, and checked outside the timed region. Between
consecutive jobs the reference kernel of hostspeed.py is timed (more
often after long jobs), and each job's time is scaled to the nominal
host speed by the mean of the kernel times in the gaps on either side of
it. wall_s is the sum over jobs of each job's median scaled time. With
--trace 1, odd rounds run with the per-layer wrappers installed and even
rounds without; the per-layer metrics are medians over the traced rounds
and trace.overhead_s is the traced minus the untraced wall_s.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import parafermions
from parafermions import cli, coset, fullcft, fusion, interferometry, lie, smatrix

import checks
import hostspeed
import spans
import workloads

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two traced, two untraced
SAMPLE_EVERY_S = 0.4  # the kernel's samples cost about 7 % of a long job
MAX_EXTRA_SAMPLES = 12
MODULES = {"cli": cli, "coset": coset, "fullcft": fullcft, "fusion": fusion,
           "interferometry": interferometry, "lie": lie, "smatrix": smatrix}


def run_round(jobs, times, tally, recorder=None) -> None:
    """Runs each job once. times[job] gets (seconds, speed factor): the
    factor is NOMINAL_S over the mean of the reference kernel times taken
    in the gaps just before and just after the job. A gap takes one kernel
    sample, and one more per SAMPLE_EVERY_S of the job before it."""
    gc.collect()
    before = [hostspeed.sample()]
    for job in jobs:
        start = time.perf_counter()
        span = recorder.begin(f"job:{job.name}") if recorder else None
        failure = out = None
        try:
            out = job.run()
        except Exception as exc:  # the program failed: a failed operation
            failure = exc
        finally:
            if recorder:
                recorder.end(span)
            elapsed = time.perf_counter() - start
        if failure is not None:
            tally.fail(job.name, failure)
        else:
            try:
                job.check(out)
            except checks.Unreadable as exc:
                tally.fail(job.name, exc)
            except checks.Mismatch as exc:
                tally.wrong(job.name, exc)
        del out
        gc.collect()
        extra = min(MAX_EXTRA_SAMPLES, int(elapsed / SAMPLE_EVERY_S))
        after = [hostspeed.sample() for _ in range(1 + extra)]
        kernel = statistics.fmean(before + after)
        times[job.name].append((elapsed, hostspeed.NOMINAL_S / kernel))
        before = after


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.reported = set()

    def fail(self, name, exc):
        self.failed += 1
        self._report("failed", name, exc)

    def wrong(self, name, exc):
        self.correct = False
        self._report("wrong output", name, exc)

    def _report(self, what, name, exc):
        if name not in self.reported:
            self.reported.add(name)
            print(f"{what}: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)


def wall(times: dict, scaled: bool = True) -> float:
    """Sum over jobs of each job's median time, scaled to the nominal host
    speed (or as measured, with scaled=False)."""
    return sum(statistics.median(t * f if scaled else t for t, f in samples)
               for samples in times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(parafermions.__file__).resolve().parents:
        print(f"error: parafermions imported from {parafermions.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    plain = {job.name: [] for job in jobs}
    traced = {job.name: [] for job in jobs}
    recorder = spans.Recorder()
    layer_rounds = []
    tally = Tally()
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    begin = time.perf_counter()
    rounds = 0
    while True:
        tracing = args.trace and rounds % 2 == 1
        if tracing:
            saved = spans.install(recorder, MODULES)
            try:
                run_round(jobs, traced, tally, recorder)
            finally:
                spans.uninstall(saved)
            layer_rounds.append(recorder.finish_round())
        else:
            run_round(jobs, plain, tally)
        rounds += 1
        tally.attempted += len(jobs)
        elapsed = time.perf_counter() - begin
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    for name, samples in plain.items():
        print(f"{name:24s} median {wall({name: samples}):.4f} s scaled, "
              f"{wall({name: samples}, False):.4f} s measured, "
              f"over {len(samples)} rounds", file=sys.stderr)
    print(f"wall: {wall(plain):.4f} s scaled, {wall(plain, False):.4f} s "
          f"measured", file=sys.stderr)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "rounds": rounds}
    if args.trace:
        metrics = spans.median_metrics(layer_rounds)
        metrics["trace.overhead_s"] = wall(traced) - wall(plain)
        result["metrics"] = {k: {"value": v, "unit": spans.unit(k)}
                             for k, v in sorted(metrics.items())}
        if args.trace_file:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "span_fields": ["name", "start", "end", "parent"],
                "rounds": recorder.rounds}))
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "wall_s": {"value": wall(plain), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
