"""`tools/verify_scale.py` prints one JSON line per level from a child
process of its own."""

import json
import subprocess
import sys
from pathlib import Path

from parafermions import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verify_scale.py"


def test_one_line_per_level():
    done = subprocess.run([sys.executable, str(TOOL), "2", "3"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["k"] for line in lines] == [2, 3]
    for line in lines:
        assert line.keys() == {"k", "exit", "wall_s", "max_rss_mib",
                               "slowest", "failing"}
        assert line["exit"] == 3 and line["failing"] == ["st3-full"]
        assert line["wall_s"] > 0 and line["max_rss_mib"] > 0
        assert len(line["slowest"]) == 3
        times = [check["elapsed_s"] for check in line["slowest"]]
        assert times == sorted(times, reverse=True)
        assert all(check.keys() == {"name", "elapsed_s"}
                   for check in line["slowest"])
    assert done.stderr.count("failing checks: st3-full") == 2


def test_fusion_lines_count_the_document(capsys):
    done = subprocess.run([sys.executable, str(TOOL), "--fusion", "coset",
                           "2", "3"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["k"] for line in lines] == [2, 3]
    for line in lines:
        assert line.keys() == {"k", "exit", "wall_s", "max_rss_mib", "bytes"}
        assert line["exit"] == 0
        assert line["wall_s"] > 0 and line["max_rss_mib"] > 0
        argv = ["fusion", "--k", str(line["k"]), "--which", "coset"]
        assert cli.main(argv) == 0
        assert line["bytes"] == len(capsys.readouterr().out.encode())
