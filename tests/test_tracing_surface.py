"""The benchmark's span tracer (`perfbench/spans.py`) wraps named package
functions with `getattr`, so `perfbench/run.py --trace 1` breaks when one
of them is deleted or renamed. These tests load the tracer by path and
check that every entry of its LAYERS table resolves on the package, and
that a wrapper installed after import sees every call it is meant to."""

import contextlib
import functools
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from parafermions import cli
from parafermions import coset as co
from parafermions import fusion as fu

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


def _counting(calls, name, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)
    return wrapper


@pytest.fixture
def fusion_calls(monkeypatch):
    """Calls of fusion.verlinde and FusionRing.check_axioms, recorded by
    wrappers installed after import, as the tracer installs them."""
    calls = []
    monkeypatch.setattr(fu, "verlinde",
                        _counting(calls, "verlinde", fu.verlinde))
    monkeypatch.setattr(fu.FusionRing, "check_axioms", _counting(
        calls, "check_axioms", fu.FusionRing.check_axioms))
    return calls


def test_verlinde_calls_the_wrapped_check_once(fusion_calls):
    s = co.coset_s_compact(4).s
    fu.verlinde(s)
    assert fusion_calls == ["verlinde", "check_axioms"]


@pytest.mark.parametrize("which", ["su2k", "coset", "full"])
def test_fusion_command_calls_each_wrapper_once(fusion_calls, which):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fusion", "--k", "4", "--which", which]) == 0
    assert fusion_calls == ["verlinde", "check_axioms"]
