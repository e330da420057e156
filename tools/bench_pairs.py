"""Alternated benchmark pairs of two checkouts, summarised per metric.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seconds S --seed S0

runs `perfbench/run.py --workload W --seed S0+i --seconds S --trace 0` in
the PARENT and CHANGE checkouts, one run at a time, for pairs i = 0..N-1:
PARENT first in even pairs, CHANGE first in odd ones, both sides of a
pair on the same seed. Each checkout's own `perfbench/` runs; this tool
only reads what it prints. A run that is not `correct` or that has
`failed > 0` stops the tool with exit 2. Each run's end-to-end metrics
go to stderr as they arrive. Then, for each end-to-end metric that
CHANGE's BENCHMARK.json names, stdout gets each side's median and
quartiles, the change's wins out of N (ties count for neither) and two
verdicts:

* gain: the change won at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile
  range;
* bound: "ok" when the change's median is no worse than the parent's
  by more than the metric's bound (a fraction of the parent's median),
  "worse" when it is, and "unresolved" when the parent's interquartile
  range is wider than that bound, unless every run of the change is
  better than every run of the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9  # of the pairs the change must win to claim a gain


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, end_to_end) -> list:
    """One row per end-to-end metric of the (parent, change) run results
    in pairs; end_to_end is BENCHMARK.json's list of {name, unit, better,
    bound}."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        # sign * value: smaller is better
        sign = 1 if metric["better"] == "lower" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        iqr, allowed = p3 - p1, metric["bound"] * abs(pm)
        if sign * (cm - pm) > allowed:
            bound = "worse"
        elif iqr > allowed and not (
                max(sign * x for x in change) < min(sign * x for x in parent)):
            bound = "unresolved"
        else:
            bound = "ok"
        rows.append({
            "name": name, "unit": metric["unit"],
            "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "wins": wins, "pairs": len(pairs),
            "gain": wins >= GAIN_SHARE * len(pairs) and sign * (pm - cm) > iqr,
            "bound": bound,
        })
    return rows


def checked(result: dict, where: str) -> dict:
    """result, unless its run was not correct or had failed operations."""
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"refused: the run in {where} reports correct="
                         f"{result['correct']}, failed={result['failed']}")
    return result


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return checked(json.loads(done.stdout.strip().splitlines()[-1]),
                   str(checkout))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    end_to_end = json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed, order = args.seed + i, ("parent", "change")
        out = {}
        for side in order if i % 2 == 0 else order[::-1]:
            out[side] = run(getattr(args, side), args.workload, seed,
                            args.seconds)
            metrics = out[side]["metrics"]
            values = " ".join(f"{m['name']}={metrics[m['name']]['value']:.6g}"
                              for m in end_to_end)
            print(f"pair {i} seed {seed} {side}: {values}", file=sys.stderr,
                  flush=True)
        pairs.append((out["parent"], out["change"]))

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}; quartiles q1/median/q3")
    for row in summarize(pairs, end_to_end):
        parent, change = ("/".join(f"{x:.6g}" for x in row[side])
                          for side in ("parent", "change"))
        print(f"{row['name']} [{row['unit']}]: parent {parent}, change "
              f"{change}, change wins {row['wins']}/{row['pairs']}, gain "
              f"{'holds' if row['gain'] else 'not shown'}, bound {row['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
