import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # the hypothesis report hook warns (mypy_extensions.TypedDict is
    # deprecated); turned into an error inside pluggy's teardown, that
    # warning ended the session with INTERNALERROR after the first failure
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        capture_output=True, cwd=tmp_path, timeout=120, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "2 failed" in done.stdout
