"""`tools/bench_pairs.py` summarises synthetic pairs of run results; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, rate=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def rows(bench, walls, rates=None):
    rates = rates or [(1.0, 1.0)] * len(walls)
    pairs = [(result(p, rp), result(c, rc))
             for (p, c), (rp, rc) in zip(walls, rates)]
    return {r["name"]: r for r in bench.summarize(pairs, END_TO_END)}


def test_quartiles_are_inclusive(bench):
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_holds_on_nine_of_ten_wins_past_the_parent_iqr(bench):
    walls = [(1.0 + i / 100, 0.9 + i / 100) for i in range(9)] + [(1.0, 1.2)]
    row = rows(bench, walls)["wall_s"]
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["parent"] == pytest.approx((1.0125, 1.035, 1.0575))
    assert row["change"][1] == pytest.approx(0.945)
    assert row["gain"] and row["bound"] == "ok"


def test_eight_wins_of_ten_or_a_gap_inside_the_iqr_is_no_gain(bench):
    walls = [(1.0, 0.9)] * 8 + [(1.0, 1.1)] * 2
    assert not rows(bench, walls)["wall_s"]["gain"]
    # ten wins, but each by less than the parent's own spread
    walls = [(1.0 + i / 10, 0.99 + i / 10) for i in range(10)]
    row = rows(bench, walls)["wall_s"]
    assert row["wins"] == 10 and not row["gain"]


def test_ties_count_for_neither_side(bench):
    row = rows(bench, [(1.0, 1.0)] * 10)["wall_s"]
    assert row["wins"] == 0 and not row["gain"] and row["bound"] == "ok"


def test_higher_is_better_reverses_wins_and_bound(bench):
    rates = [(1.0, 2.0)] * 10
    row = rows(bench, [(1.0, 1.0)] * 10, rates)["rate"]
    assert row["wins"] == 10 and row["gain"] and row["bound"] == "ok"
    row = rows(bench, [(1.0, 1.0)] * 10, [(1.0, 0.9)] * 10)["rate"]
    assert row["wins"] == 0 and row["bound"] == "worse"  # 10 % > 5 %


def test_bound_worse_and_unresolved(bench):
    assert rows(bench, [(1.0, 1.3)] * 4)["wall_s"]["bound"] == "worse"
    # the parent spreads by more than the bound: unresolved, unless every
    # change run beats every parent run
    walls = [(1.0, 1.1), (2.0, 1.2), (1.0, 1.1), (2.0, 1.2)]
    assert rows(bench, walls)["wall_s"]["bound"] == "unresolved"
    walls = [(1.0, 0.5), (2.0, 0.6), (1.0, 0.5), (2.0, 0.6)]
    assert rows(bench, walls)["wall_s"]["bound"] == "ok"


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_or_failing_run_is_refused(bench, bad):
    assert bench.checked(result(1.0), "x")["correct"]
    with pytest.raises(SystemExit, match="refused"):
        bench.checked(result(1.0, **bad), "x")
