"""The benchmark's span tracer (`perfbench/spans.py`) wraps named package
functions with `getattr`, so `perfbench/run.py --trace 1` breaks when one
of them is deleted or renamed. These tests load the tracer by path and
check that every entry of its LAYERS table resolves on the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def modules(spans):
    return {mod: importlib.import_module(f"parafermions.{mod}")
            for mod, _, _ in spans.LAYERS}


def test_every_layer_resolves():
    spans = load_spans()
    missing = []
    for mod, attr, _ in spans.LAYERS:
        owner = importlib.import_module(f"parafermions.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    assert not missing, f"spans.LAYERS names what the package lacks: {missing}"


def test_install_and_uninstall_round_trip():
    spans = load_spans()
    mods = modules(spans)
    before = [getattr(*spans._owner(mods, m, a)) for m, a, _ in spans.LAYERS]
    saved = spans.install(spans.Recorder(), mods)
    try:
        assert len(saved) == len(spans.LAYERS)
    finally:
        spans.uninstall(saved)
    after = [getattr(*spans._owner(mods, m, a)) for m, a, _ in spans.LAYERS]
    assert after == before
