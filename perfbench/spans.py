"""Per-layer tracing from outside the package.

`install` replaces the public functions of each `parafermions` module,
and the `SMatrix`/`FusionRing` methods, with wrappers that record a span
(name, start, end, parent) in a `Recorder`; `uninstall` puts the
originals back. Module attributes are the module's globals, so calls
inside a module go through the wrapper too. Names bound by
`from .x import y` are patched where they are bound
(`interferometry.find_vacuum`).

A span's self time is its duration minus the durations of its child
spans. Each wrapped function's self time is added to one per-layer
metric, named after the layer (module) that does the work.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute, metric that receives the span's self time)
LAYERS = (
    ("smatrix", "s_suk2_weylkac", "smatrix.oracle_s"),
    ("lie", "weyl_group", "lie.weyl_group_s"),
    ("smatrix", "s_su2k", "smatrix.closed_form_s"),
    ("smatrix", "s_suk2_compact", "smatrix.closed_form_s"),
    ("smatrix", "level_rank_entry", "smatrix.closed_form_s"),
    ("smatrix", "simple_current_extend", "smatrix.extend_s"),
    ("smatrix", "SMatrix.max_abs_diff", "smatrix.compare_s"),
    ("smatrix", "SMatrix.unitarity_defect", "smatrix.compare_s"),
    ("coset", "coset_s_compact", "coset.construct_s"),
    ("coset", "coset_s_phase_form", "coset.construct_s"),
    ("coset", "coset_s_via_su2k_u1", "coset.construct_s"),
    ("coset", "s_u1_2k", "coset.construct_s"),
    ("coset", "coset_dimension", "coset.dims_s"),
    ("fullcft", "full_dims", "coset.dims_s"),
    ("fusion", "quantum_dimensions", "coset.dims_s"),
    ("fusion", "total_quantum_dimension", "coset.dims_s"),
    ("fullcft", "full_s_product", "fullcft.construct_s"),
    ("fullcft", "full_s_compact", "fullcft.construct_s"),
    ("fullcft", "s_u1", "fullcft.construct_s"),
    ("fullcft", "gram_matrix", "fullcft.lattice_s"),
    ("fullcft", "filling_factor", "fullcft.lattice_s"),
    ("lie", "rational_inverse", "lie.elimination_s"),
    ("lie", "rational_solve", "lie.elimination_s"),
    ("fusion", "verlinde", "fusion.verlinde_s"),
    ("fusion", "FusionRing.check_axioms", "fusion.axioms_s"),
    ("fusion", "FusionRing.product", "fusion.lookup_s"),
    ("fusion", "FusionRing.coefficient", "fusion.lookup_s"),
    ("fusion", "fusion_su2k_closed", "fusion.closed_s"),
    ("fusion", "fusion_coset_closed", "fusion.closed_s"),
    ("fusion", "verify_modular_relations", "fusion.modular_s"),
    ("fusion", "find_vacuum", "fusion.vacuum_s"),
    ("interferometry", "find_vacuum", "fusion.vacuum_s"),
    ("interferometry", "monodromy", "interferometry.monodromy_s"),
    ("interferometry", "detection_report", "interferometry.monodromy_s"),
    ("interferometry", "sigma_xx_curve", "interferometry.curve_s"),
    ("cli", "main", "cli.dispatch_s"),
)

# Constructions whose n x n result counts towards smatrix.entries.
BUILDS = {"smatrix.s_su2k", "smatrix.s_suk2_compact", "smatrix.s_suk2_weylkac",
          "smatrix.simple_current_extend", "coset.coset_s_phase_form",
          "coset.coset_s_via_su2k_u1", "coset.s_u1_2k", "fullcft.s_u1",
          "fullcft.full_s_product", "fullcft.full_s_compact"}

JOB_METRIC = "trace.unattributed_s"  # self time of the benchmark's job spans

TIME_METRICS = sorted({m for _, _, m in LAYERS} | {JOB_METRIC})
UNITS = {  # metrics that are not self times, with their units
    "smatrix.oracle_terms": "count",
    "smatrix.entries": "count",
    "lie.elimination_calls": "count",
    "lie.eliminations_per_lattice": "ratio",
    "fusion.axioms_peak_mib": "MiB",
    "fusion.lookup_calls": "count",
    "fusion.vacuum_calls": "count",
    "fusion.vacuum_calls_per_matrix": "ratio",
    "interferometry.monodromy_calls": "count",
    "cli.output_bytes": "bytes",
}


class Recorder:
    """Spans of the current round, kept in memory as [name, start, end,
    parent]; finished rounds are folded into per-layer metrics and kept
    for the trace file."""

    def __init__(self):
        self.rounds = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()  # measured quantities, summed
        self.peaks = Counter()  # measured quantities, maximum
        self.matrices = {}  # id -> S matrix seen by find_vacuum this round

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def finish_round(self) -> dict:
        metrics = round_metrics(self.spans)
        metrics.update(self.counts)
        metrics.update(self.peaks)
        vacuum = metrics["fusion.vacuum_calls"]
        metrics["fusion.vacuum_calls_per_matrix"] = (
            vacuum / len(self.matrices) if self.matrices else 0.0)
        self.rounds.append(self.spans)
        self._reset()
        return metrics


def round_metrics(spans) -> dict:
    """Per-layer self times and call counts of one round of spans."""
    bucket = {f"{mod}.{attr}": metric for mod, attr, metric in LAYERS}
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(UNITS, 0.0)
    out.update(dict.fromkeys(TIME_METRICS, 0.0))
    calls = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        out[bucket.get(name, JOB_METRIC)] += end - start - child_time[i]
        calls[name] += 1
    lattices = calls["fullcft.gram_matrix"]
    out.update({
        "lie.elimination_calls": calls["lie.rational_inverse"],
        "lie.eliminations_per_lattice":
            calls["lie.rational_inverse"] / lattices if lattices else 0.0,
        "fusion.lookup_calls": (calls["fusion.FusionRing.product"]
                                + calls["fusion.FusionRing.coefficient"]),
        "fusion.vacuum_calls": (calls["fusion.find_vacuum"]
                                + calls["interferometry.find_vacuum"]),
        "interferometry.monodromy_calls": calls["interferometry.monodromy"],
    })
    return out


def _wrap(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)

    if name in BUILDS:
        def measured(*args, **kwargs):
            out = wrapper(*args, **kwargs)
            rec.counts["smatrix.entries"] += out.dim ** 2
            if name == "smatrix.s_suk2_weylkac":
                k = args[0] if args else kwargs["k"]
                rec.counts["smatrix.oracle_terms"] += (math.factorial(k)
                                                       * out.dim ** 2)
            return out
    elif name == "fusion.FusionRing.check_axioms":
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return wrapper(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                key = "fusion.axioms_peak_mib"
                rec.peaks[key] = max(rec.peaks[key], peak)
    elif name.endswith(".find_vacuum"):
        def measured(s, *args, **kwargs):
            rec.matrices[id(s)] = s  # held for the round, so ids stay unique
            return wrapper(s, *args, **kwargs)
    elif name == "cli.main":
        def measured(*args, **kwargs):
            before = sys.stdout.tell()  # jobs capture stdout in a StringIO
            try:
                return wrapper(*args, **kwargs)
            finally:
                rec.counts["cli.output_bytes"] += sys.stdout.tell() - before
    else:
        measured = wrapper
    measured.__wrapped__ = fn
    return measured


def _owner(modules: dict, mod: str, attr: str):
    owner = modules[mod]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def install(rec: Recorder, modules: dict) -> list:
    """Wrap every entry of LAYERS; returns what `uninstall` restores.
    `modules` maps a short module name to the imported module."""
    saved = []
    for mod, attr in ((m, a) for m, a, _ in LAYERS):
        owner, name = _owner(modules, mod, attr)
        original = getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, _wrap(rec, f"{mod}.{attr}", original))
    return saved


def uninstall(saved: list) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def median_metrics(rounds: list) -> dict:
    """Median of every per-layer metric across traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s")
