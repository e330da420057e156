"""The benchmark (`perfbench/`) names package functions: its span tracer
(`perfbench/spans.py`) wraps them with `getattr`, and its workloads and
worker import and call them, so a rename in `src/` breaks the benchmark
only when it runs. These tests read every `perfbench/*.py` as a syntax
tree, running none of it, and check that each entry of the tracer's
LAYERS table, each name imported from the package and each dotted read
off a package module resolves. They also load the tracer by path and
check that a wrapper installed after import sees every call it is meant
to."""

import ast
import contextlib
import functools
import importlib
import importlib.util
import inspect
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


def _trees():
    """{file name: syntax tree} of every perfbench/*.py."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SPANS.parent.glob("*.py"))}


def test_every_layer_resolves():
    layers, = [ast.literal_eval(node.value)
               for node in _trees()["spans.py"].body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["LAYERS"]]
    assert layers
    missing = []
    for mod, attr, _ in layers:
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


def _package_imports(tree):
    """(module, name, bound name) of each `from parafermions... import`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "parafermions"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


def _package_name(module, name: str):
    """What `from <module> import name` binds, or None: an attribute of
    the module, else its submodule."""
    if hasattr(module, name):
        return getattr(module, name)
    if importlib.util.find_spec(f"{module.__name__}.{name}") is None:
        return None
    return importlib.import_module(f"{module.__name__}.{name}")


def test_benchmark_imports_exist():
    imported = [(file, module, name) for file, tree in _trees().items()
                for module, name, _ in _package_imports(tree)]
    missing = [f"{file}: {module.__name__}.{name}"
               for file, module, name in imported
               if _package_name(module, name) is None]
    assert imported and not missing, (
        f"perfbench imports what src/ lacks: {missing}")


def _package_modules(tree) -> dict:
    """{bound name: module} for each `parafermions` module a file imports."""
    bound = {alias.asname or alias.name: importlib.import_module(alias.name)
             for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name == "parafermions"}
    for module, name, as_name in _package_imports(tree):
        if inspect.ismodule(value := _package_name(module, name)):
            bound[as_name] = value
    return bound


def test_benchmark_reads_exist():
    # every load of a dotted name rooted at a package module, such as
    # fu.FusionRing.product or parafermions.__version__, resolves
    missing, read = [], 0
    for file, tree in _trees().items():
        bound = _package_modules(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            attrs, root = [], node
            while isinstance(root, ast.Attribute):
                attrs.insert(0, root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                read += 1
                try:
                    functools.reduce(getattr, attrs, bound[root.id])
                except AttributeError:
                    missing.append(f"{file}:{node.lineno}: "
                                   f"{ast.unparse(node)}")
    assert read and not missing, f"perfbench reads what src/ lacks: {missing}"
