"""`tools/doc_digest.py` digests every run, a run that raises included."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "doc_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("doc_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(main):
    return types.SimpleNamespace(main=main)


def test_run_returns_code_and_streams(digest):
    def main(argv):
        print("document")
        print("message", file=sys.stderr)
        return 3
    assert digest.run(_cli(main), ["verify"]) == (3, "document\n",
                                                 "message\n")


@pytest.mark.parametrize("argv", [["interfere", "--k", "2"],
                                  ["verify", "--k", "2", "--all"]])
def test_an_escaping_exception_is_the_runs_result(digest, argv):
    # as `interfere --t1 1e160` once raised: what was written before the
    # exception is dropped, and the run is its type name and message
    def main(argv):
        print("[[partial")
        print("half a message", file=sys.stderr)
        raise OverflowError("int too large to convert to float")
    code, out, err = digest.run(_cli(main), argv)
    assert (code, out, err) == (
        ["OverflowError", "int too large to convert to float"], "", "")
    assert digest.untimed(argv, out) == ""  # a verify document too


def test_interrupts_still_escape(digest):
    def main(argv):
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        digest.run(_cli(main), ["dims"])
