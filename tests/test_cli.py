import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm
from parafermions.errors import (ConsistencyError, ContractViolationError,
                                 InvalidRankError, LabelError, ResourceError)

# (t1, t2) pairs whose (|t1| + |t2|)^2 is past float's range
OVERFLOWING_AMPLITUDES = [("1e154", "1e154"), ("1e160", "1"), ("1e308", "1")]


def strict_json(text):
    """Parse a document, refusing the NaN/Infinity extensions."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def matrix_of(doc):
    """The complex matrix of an smatrix document, bit for bit: each
    [re, im] pair is one complex128."""
    return np.array(doc["matrix"]).view(complex)[..., 0]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSmatrixCommand:
    def test_coset_k3_roundtrip(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--k", "3", "--which", "coset")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "smatrix" and doc["k"] == 3
        matrix = matrix_of(doc)
        expected = co.coset_s_compact(3).s.entries
        assert np.array_equal(matrix, expected)  # bit-identical round trip

    @pytest.mark.parametrize("which", sorted(cli._SMATRIX_BUILDERS))
    def test_every_construction_emits(self, capsys, which):
        code, out, _ = run(capsys, "smatrix", "--k", "3", "--which", which)
        assert code == 0
        doc = json.loads(out)
        n = len(doc["basis"])
        assert matrix_of(doc).shape == (n, n)

    def test_full_compact_k2_is_6x6_unitary(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--k", "2",
                           "--which", "full-compact")
        assert code == 0
        m = matrix_of(json.loads(out))
        assert m.shape == (6, 6)
        assert np.max(np.abs(m @ m.conj().T - np.eye(6))) < 1e-10

    def test_invalid_k_exits_1(self, capsys):
        code, _, err = run(capsys, "smatrix", "--k", "0", "--which", "su2k")
        assert code == 1
        assert err

    @pytest.mark.parametrize("which", ["coset", "coset-lm"])
    def test_coset_needs_k_2(self, capsys, which):
        code, out, err = run(capsys, "smatrix", "--k", "1", "--which", which)
        assert code == 1 and out == ""
        assert "su(k)_2 needs k >= 2, got 1" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--k", "2", "--which", "su2k",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# schema_version")
        # header + 3 label rows after 3 metadata and 2 field rows
        assert len(lines) == 3 + 2 + 1 + 3
        _, json_out, _ = run(capsys, "smatrix", "--k", "2", "--which", "su2k")
        doc = json.loads(json_out)
        rows = list(csv.reader(io.StringIO(out)))[6:]
        assert [r[0] for r in rows] == doc["basis"]
        cells = [[float(x) for x in r[1:]] for r in rows]  # every cell
        assert cells == [[x for re_im in row for x in re_im]
                         for row in doc["matrix"]]


class TestVerifyCommand:
    def test_targets_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3",
                           "--targets", "oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"]
        assert doc["checks"][0]["residual"] < 1e-10

    def test_oracle_k9_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "9",
                           "--targets", "oracle")
        assert code == 0
        assert json.loads(out)["checks"][0]["residual"] < 1e-10

    def test_weyl_cap_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "3", "--targets", "oracle",
                      "--weyl-cap", "8"])
        assert exc.value.code == 1
        assert "--weyl-cap" in capsys.readouterr().err

    def test_each_matrix_built_once(self, capsys, monkeypatch):
        # every builder is read from its module when verify runs, so a
        # wrapper installed after import counts each of its calls
        builders = [(sm, "s_su2k"), (sm, "s_suk2_weylkac"),
                    (sm, "s_suk2_compact"), (co, "coset_s_compact"),
                    (co, "coset_s_phase_form"), (co, "coset_s_via_su2k_u1"),
                    (fc, "full_s_product"), (fc, "full_s_compact")]
        calls = dict.fromkeys((name for _, name in builders), 0)

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return wrapper

        for module, name in builders:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        code, _, _ = run(capsys, "verify", "--k", "6", "--all")
        assert code == 3
        # s_suk2_compact is the coset's S and runs inside coset_s_compact,
        # coset_s_phase_form and full_s_product; s_su2k runs once for
        # verify and once inside coset_s_via_su2k_u1
        assert calls == {**dict.fromkeys(calls, 1),
                         "s_suk2_compact": 3, "s_su2k": 2}

    @pytest.mark.parametrize("argv,module,name", [
        (("fusion", "--k", "3", "--which", "full"), fc, "full_s_product"),
        (("smatrix", "--k", "3", "--which", "su2k"), sm, "s_su2k")],
        ids=["fusion-full", "smatrix-su2k"])
    def test_commands_read_builders_at_call_time(self, capsys, monkeypatch,
                                                 argv, module, name):
        # a wrapper installed on the module after import is the one that
        # runs, as for verify
        calls, build = [], getattr(module, name)

        def wrapper(k):
            calls.append(k)
            return build(k)
        monkeypatch.setattr(module, name, wrapper)
        code, _, _ = run(capsys, *argv)
        assert code == 0 and calls == [3]

    def test_checks_carry_elapsed_s(self, capsys, monkeypatch):
        oracle = sm.s_suk2_weylkac

        def slow_oracle(*args, **kwargs):
            time.sleep(0.05)
            return oracle(*args, **kwargs)
        monkeypatch.setattr(sm, "s_suk2_weylkac", slow_oracle)
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--k", "3", "--all")
        wall = time.perf_counter() - start
        assert code == 3
        checks = {c["name"]: c["elapsed_s"] for c in strict_json(out)["checks"]}
        assert len(checks) == 16
        assert all(isinstance(e, float) and e >= 0 for e in checks.values())
        assert sum(checks.values()) <= wall
        # the oracle's time is charged to the one check that runs it
        assert checks["oracle-vs-compact"] >= 0.05

    def test_failed_check_carries_elapsed_s(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets",
                           "full-dual", "--tolerance", "1e-30")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert check["passed"] is False and "error" not in check
        assert 0 < check["residual"] < 1e-10 and check["elapsed_s"] >= 0

    def test_tiny_tolerance_reports_every_residual(self, capsys):
        # the tolerance reaches only the verdicts: every build succeeds,
        # every check has a residual, and the exact checks still pass
        code, out, err = run(capsys, "verify", "--k", "3", "--all",
                             "--tolerance", "1e-30")
        assert code == 3
        checks = strict_json(out)["checks"]
        assert len(checks) == 16
        assert all(isinstance(c["residual"], float) and "error" not in c
                   for c in checks)
        exact = {c["name"]: c["passed"] for c in checks
                 if c["name"].startswith("verlinde-vs-")
                 or c["name"] == "filling-factor"}
        assert len(exact) == 3 and all(exact.values())
        # the full ring's integrality is judged on its certified residual
        full, = [c for c in checks if c["name"] == "verlinde-full-integrality"]
        assert full["passed"] is False and 0 < full["residual"] < 1e-10
        assert err.startswith("failing checks: ") and err.count("\n") == 1

    def test_raising_build_fails_each_check(self, capsys, monkeypatch):
        # a build that raises fails every check that needs the matrix, each
        # with its message; a build that returns is cached
        calls = {"full": 0, "coset": 0, "suk2": 0}

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return wrapper

        def broken(k):
            raise ConsistencyError(f"full S product form not unitary at k={k}")

        monkeypatch.setattr(fc, "full_s_product", counted("full", broken))
        monkeypatch.setattr(co, "coset_s_compact",
                            counted("coset", co.coset_s_compact))
        monkeypatch.setattr(sm, "s_suk2_compact",
                            counted("suk2", sm.s_suk2_compact))
        code, out, _ = run(capsys, "verify", "--k", "3", "--all")
        assert code == 3
        full_checks = [c for c in strict_json(out)["checks"]
                       if "full" in c["name"]]
        assert len(full_checks) == 5
        assert all(c["passed"] is False and c["residual"] is None
                   and "not unitary" in c["error"] for c in full_checks)
        # the coset is built once; s_suk2_compact runs only inside
        # coset_s_compact and coset_s_phase_form, since verify reads
        # su(k)_2 as the coset's S
        assert calls["coset"] == 1 and calls["suk2"] == 2

    def test_other_basis_is_a_failed_check(self, capsys, monkeypatch):
        # the dual construction on integer labels instead of the sectors
        # is a failed compare, not a traceback and not an agreement
        build = fc.full_s_compact
        monkeypatch.setattr(fc, "full_s_compact", lambda k: sm.SMatrix(
            range((k + 1) * (k + 2) // 2), build(k).entries))
        code, out, err = run(capsys, "verify", "--k", "3", "--targets",
                             "full-dual")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert check["passed"] is False and check["residual"] is None
        assert "label sets differ" in check["error"]
        assert "full-dual-construction: label sets differ" in err

    @pytest.mark.usefixtures("zero_cartan_corner")
    def test_lattice_error_is_a_failed_check(self, capsys):
        code, out, err = run(capsys, "verify", "--k", "4", "--targets",
                             "filling-factor")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert check["passed"] is False and check["residual"] is None
        assert "leading minor 2 is -1" in check["error"]
        assert "filling-factor: Gram matrix not positive definite" in err

    def test_passing_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets",
                           "oracle", "coset-four-way", "verlinde",
                           "full-dual", "filling", "unitarity", "s2",
                           "st3-su2k", "st3-coset")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_all_reports_full_st3(self, capsys):
        # the full Z_k theory is a fermionic extension: its T is only
        # defined mod 1/2, so (ST)^3 = C genuinely fails and --all must
        # exit 3 naming the failing check
        code, out, err = run(capsys, "verify", "--k", "3", "--all")
        assert code == 3
        doc = json.loads(out)
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["st3-full"]
        assert "st3-full" in err

    def test_target_matches_inside_a_name(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets", "full")
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == ["unitarity-full", "s2-full", "st3-full",
                         "verlinde-full-integrality", "full-dual-construction"]
        assert code == 3

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, "verify", "--k", "3",
                         "--targets", "no-such-check")
        assert code == 1

    def test_empty_target_matches_no_check(self, capsys):
        code, out, err = run(capsys, "verify", "--k", "3", "--targets", "")
        assert code == 1 and out == ""
        assert err == "no checks match targets ['']\n"
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets", "",
                           "oracle")
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == [
            "oracle-vs-compact"]

    def test_raising_check_is_a_failed_check(self, capsys, monkeypatch):
        # a construction that raises a ConsistencyError fails its check
        # with the message; the other checks still run
        def broken(k):
            raise ConsistencyError(
                f"phase form disagrees with the compact form at k={k}")
        monkeypatch.setattr(co, "coset_s_phase_form", broken)
        code, out, err = run(capsys, "verify", "--k", "3", "--all")
        assert code == 3
        doc = strict_json(out)
        assert len(doc["checks"]) == 16
        four_way, = [c for c in doc["checks"] if c["name"] == "coset-four-way"]
        assert four_way["passed"] is False
        assert four_way["residual"] is None
        assert "phase form" in four_way["error"]
        assert "coset-four-way: phase form" in err
        assert any(c["passed"] for c in doc["checks"])  # exact checks ran


VERIFY_NAMES = [
    "oracle-vs-compact", "coset-four-way",
    "unitarity-su2k", "s2-su2k", "st3-su2k",
    "unitarity-coset", "s2-coset", "st3-coset",
    "unitarity-full", "s2-full", "st3-full",
    "verlinde-vs-closed-coset", "verlinde-vs-closed-su2k",
    "verlinde-full-integrality", "full-dual-construction", "filling-factor",
]


class TestVerifyTable:
    """The rows of verify --all in their order, the budget charges they
    make in theirs, and each row alone as it reads under --all."""

    def _checks(self, capsys, k, *argv):
        code, out, _ = run(capsys, "verify", "--k", str(k), *argv)
        checks = strict_json(out)["checks"]
        for check in checks:
            del check["elapsed_s"]  # the one field that is a measurement
        return code, checks

    def test_all_rows_and_charges_in_order(self, capsys, monkeypatch):
        charged = []
        require = fu.require_budget

        def recorded(need, what):
            charged.append(what)
            require(need, what)
        monkeypatch.setattr(fu, "require_budget", recorded)
        code, checks = self._checks(capsys, 3, "--all")
        assert code == 3
        assert [c["name"] for c in checks] == VERIFY_NAMES
        assert charged == [
            "the suk2-oracle S matrix of 36 entries",
            "the coset S matrix of 36 entries",  # coset_s_compact
            "the coset S matrix of 36 entries",  # coset_s_phase_form
            "the coset-lm S matrix of 36 entries",
            "the su2k S matrix of 16 entries",
            "the full-product S matrix of 100 entries",
            "Verlinde fusion of 6 labels",
            "Verlinde fusion of 4 labels",
            "Verlinde fusion of 10 labels",
            "the full-compact S matrix of 100 entries",
            "the charge lattice of rank 5",
        ]

    @pytest.mark.parametrize("k", range(2, 6))
    def test_each_row_alone_reads_as_under_all(self, capsys, k):
        _, every = self._checks(capsys, k, "--all")
        assert [c["name"] for c in every] == VERIFY_NAMES
        for row in every:
            code, alone = self._checks(capsys, k, "--targets", row["name"])
            assert alone == [row]
            assert code == (0 if row["passed"] else 3)


def _with_nan(s):
    entries = s.entries.copy()
    entries[1, 2] = np.nan
    return sm.SMatrix(s.labels, entries)


class TestOneJudgePerRelation:
    """Builders build; verify alone judges each relation, and a residual
    that is not finite is a failed check."""

    @pytest.mark.parametrize("name", ["coset_s_compact", "coset_s_phase_form",
                                      "coset_s_via_su2k_u1"])
    def test_nan_in_any_construction_fails_four_way(self, capsys,
                                                    monkeypatch, name):
        build = getattr(co, name)

        def broken(k):
            out = build(k)
            if isinstance(out, co.CosetModularData):
                return dataclasses.replace(out, s=_with_nan(out.s))
            return _with_nan(out)
        monkeypatch.setattr(co, name, broken)
        code, out, err = run(capsys, "verify", "--k", "4", "--targets",
                             "four-way")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert (check["passed"], check["residual"], check["error"]) == (
            False, None, "residual nan is not finite")
        assert err.endswith("coset-four-way: residual nan is not finite\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nan_residual_is_a_strict_failed_check(self, capsys, monkeypatch,
                                                   fmt):
        build = sm.s_su2k
        monkeypatch.setattr(sm, "s_su2k", lambda k: _with_nan(build(k)))
        code, out, err = run(capsys, "verify", "--k", "4", "--targets",
                             "unitarity-su2k", "--format", fmt)
        assert code == 3
        if fmt == "json":
            doc = strict_json(out)
        else:
            cells = {row[0]: row[1] for row in csv.reader(io.StringIO(out))}
            doc = {key: strict_json(cells[key]) for key in ("passed", "checks")}
        check, = doc["checks"]
        assert doc["passed"] is False
        assert (check["passed"], check["residual"], check["error"]) == (
            False, None, "residual nan is not finite")
        assert "unitarity-su2k: residual nan is not finite" in err

    def test_builders_do_not_judge_themselves(self, capsys, monkeypatch):
        calls = {"unitarity_defect": 0, "max_abs_diff": 0}
        for name in calls:
            def counted(self, *args, _name=name,
                        _method=getattr(sm.SMatrix, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(sm.SMatrix, name, counted)
        fc.full_s_product(6)
        co.coset_s_phase_form(6)
        assert calls == {"unitarity_defect": 0, "max_abs_diff": 0}
        code, _, _ = run(capsys, "verify", "--k", "6", "--all")
        assert code == 3
        # one S S^dag per theory; oracle-vs-compact, the three pairs of
        # coset-four-way and full-dual-construction
        assert calls == {"unitarity_defect": 3, "max_abs_diff": 5}

    def test_non_unitary_product_reaches_unitarity_full(self, capsys,
                                                        monkeypatch):
        build = sm.s_suk2_compact
        monkeypatch.setattr(sm, "s_suk2_compact", lambda k: sm.SMatrix(
            build(k).labels, 1.01 * build(k).entries))
        code, out, _ = run(capsys, "verify", "--k", "4", "--targets", "full")
        assert code == 3
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        unitarity = checks["unitarity-full"]
        assert unitarity["passed"] is False and "error" not in unitarity
        assert unitarity["residual"] == pytest.approx(1.01 ** 2 - 1)
        # only the Verlinde sum, which needs integers, cannot proceed
        assert [n for n, c in checks.items() if "error" in c] == [
            "verlinde-full-integrality"]


def _verify_doc(out, fmt):
    """The JSON fields of a verify document in either format."""
    if fmt == "json":
        return strict_json(out)
    cells = {row[0]: row[1] for row in csv.reader(io.StringIO(out))
             if not row[0].startswith("#")}
    return {key: strict_json(cells[key])
            for key in ("tolerance", "checks", "passed")}


def _cycle(k):
    """A 3 x 3 cyclic shift in su(2)_2's basis: S^2 is a 3-cycle, so C is
    a signed permutation exactly and C^2 = C^-1 is off I by 1."""
    return sm.SMatrix((0, 1, 2), np.roll(np.eye(3), 1, axis=1))


class TestOnePassRule:
    """Every verify row passes exactly when its residual is below the
    tolerance; a row without a residual names its error."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_every_row(self, capsys, k):
        for fmt, tol in itertools.product(("json", "csv"), (None, "1e-30")):
            argv = ["verify", "--k", str(k), "--all", "--format", fmt]
            code, out, _ = run(capsys, *argv,
                               *(("--tolerance", tol) if tol else ()))
            doc = _verify_doc(out, fmt)
            assert doc["tolerance"] == float(tol or sm.DEFAULT_TOLERANCE)
            assert len(doc["checks"]) == 16
            for check in doc["checks"]:
                residual = check["residual"]
                assert check["passed"] is (residual is not None
                                           and residual < doc["tolerance"])
                assert ("error" in check) is (residual is None)
            assert doc["passed"] is all(c["passed"] for c in doc["checks"])
            assert code == (0 if doc["passed"] else 3)

    def test_cycle_is_a_failed_residual(self, capsys, monkeypatch):
        monkeypatch.setattr(sm, "s_su2k", _cycle)
        code, out, err = run(capsys, "verify", "--k", "2", "--targets",
                             "s2-su2k")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert (check["residual"], check["passed"]) == (1.0, False)
        assert "error" not in check
        assert err == "failing checks: s2-su2k\n"

    @pytest.mark.parametrize("scale,error", [
        (math.sqrt(2), "S^2 does not round to a signed permutation"),
        (None, "residual nan is not finite"),
    ])
    def test_s2_without_a_residual_names_its_error(self, capsys, monkeypatch,
                                                   scale, error):
        build = sm.s_su2k

        def broken(k):
            s = build(k)
            if scale is None:
                return _with_nan(s)
            return sm.SMatrix(s.labels, scale * s.entries)
        monkeypatch.setattr(sm, "s_su2k", broken)
        code, out, err = run(capsys, "verify", "--k", "4", "--targets",
                             "s2-su2k")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert (check["residual"], check["passed"], check["error"]) == (
            None, False, error)
        assert f"s2-su2k: {error}" in err


@pytest.fixture
def doubled_charge(monkeypatch):
    """Make gram_matrix hand its lattice the charge vector 2 e_0, so that
    Q^T G^-1 Q is 4k/(k+2)."""
    lattice = fc.ChargeLattice

    def patched(k, gram, charge_vector):
        return lattice(k=k, gram=gram, charge_vector=(2, *charge_vector[1:]))

    monkeypatch.setattr(fc, "ChargeLattice", patched)


class TestVerifyJudgesItsRows:
    """The filling factor and the full ring's integrality are computed by
    their builders and judged by verify alone, on the residual it reports."""

    @pytest.mark.parametrize("k", range(2, 17))
    def test_filling_factor_reads_zero(self, capsys, k):
        code, out, _ = run(capsys, "verify", "--k", str(k), "--targets",
                           "filling", "--tolerance", "1e-30")
        assert code == 0
        check, = strict_json(out)["checks"]
        assert (check["residual"], check["passed"]) == (0.0, True)

    @pytest.mark.usefixtures("doubled_charge")
    @pytest.mark.parametrize("k", range(2, 9))
    def test_wrong_filling_factor_is_its_residual(self, capsys, k):
        code, out, err = run(capsys, "verify", "--k", str(k), "--targets",
                             "filling")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert check["residual"] == float(Fraction(3 * k, k + 2))
        assert check["passed"] is False and "error" not in check
        assert err == "failing checks: filling-factor\n"
        # sectors writes nu as computed, as dims writes its dimensions
        code, out, _ = run(capsys, "sectors", "--k", str(k))
        assert code == 0
        assert strict_json(out)["filling_factor"] == str(
            Fraction(4 * k, k + 2))

    @pytest.mark.parametrize("k", range(2, 17))
    def test_verlinde_row_is_the_rings_residual(self, capsys, k):
        ring = fu.verlinde(fc.full_s_product(k))
        assert 0 < ring.residual < fu.INTEGRALITY_TOLERANCE
        for tol, code in ((None, 0), ("1e-30", 3)):
            argv = ["verify", "--k", str(k), "--targets", "verlinde-full"]
            got, out, _ = run(capsys, *argv,
                              *(("--tolerance", tol) if tol else ()))
            check, = strict_json(out)["checks"]
            assert check["residual"] == ring.residual
            assert (got, check["passed"]) == (code, code == 0)


class TestResourceExit:
    def test_memory_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(fu, "memory_budget", lambda: 1024)
        code, out, err = run(capsys, "fusion", "--k", "3", "--which", "coset")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err
        assert "Traceback" not in err

    def test_interfere_samples_over_budget_exits_2(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("S built or curve sampled over budget")
        # the curve and the coset S at k = 3 (n = 6), charged before either
        need = (64 * cli.INTERFERE_BYTES_PER_SAMPLE
                + 6 ** 2 * cli.SMATRIX_BYTES_PER_ENTRY)
        argv = ("interfere", "--k", "3", "--bulk", "1,2", "--probe", "0,1",
                "--samples", "64")
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(it, "sigma_xx_curve", never)  # refused before sampling
            m.setitem(cli._SMATRIX_BUILDERS, "coset", never)  # and before S
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a curve of 64 samples over an S matrix "
                              "of 36 entries") and "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["curve"]) == 64

    @pytest.mark.parametrize("argv,what", [
        *[(("smatrix", "--which", which), f"the {which} S matrix of ")
          for which in sorted(cli._SMATRIX_BUILDERS)],
        (("verify", "--all"), "the suk2-oracle S matrix of "),
        (("fusion",), "the fusion document of "),
        (("dims",), "the coset S matrix of "),
        (("sectors",), "the sectors document of "),
        (("interfere", "--bulk", "0,0", "--probe", "0,1"),
         "a curve of 64 samples over an S matrix of "),
        (("interfere", "--k", "3", "--bulk", "0,0", "--probe", "0,1",
          "--samples", str(10 ** 400)),
         f"a curve of {10 ** 400} samples over an S matrix of 36 entries "),
    ], ids=[*sorted(cli._SMATRIX_BUILDERS), "verify", "fusion", "dims",
            "sectors", "interfere", "interfere-samples"])
    def test_huge_need_exits_2(self, capsys, argv, what):
        # a need past float's range is still a refusal, not an OverflowError
        if "--k" not in argv:
            argv = (*argv, "--k", str(10 ** 160))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(
            f"error: {re.escape(what)}.*needs about [0-9]+ MiB, over the "
            f"budget of [0-9]+ MiB \\(half of physical memory\\)\n", err)

    @pytest.mark.parametrize("need", [0, 1, 2 ** 19, 2 ** 19 + 1, 3 * 2 ** 19,
                                      2 ** 52 + 2 ** 19, 2 ** 53 - 1])
    def test_mib_figure_as_float_formatting(self, monkeypatch, need):
        monkeypatch.setattr(fu, "memory_budget", lambda: -1)
        with pytest.raises(ResourceError) as refused:
            fu.require_budget(need, "x")
        assert str(refused.value).startswith(
            f"x needs about {need / 2 ** 20:.0f} MiB, ")

    @pytest.mark.parametrize("samples", ["-100000", "0", "1"])
    def test_too_few_samples_refused_before_any_charge(self, capsys,
                                                       monkeypatch, samples):
        def never(*args):
            raise AssertionError("S built or budget charged")
        monkeypatch.setattr(fu, "memory_budget", lambda: 100_000)
        monkeypatch.setattr(fu, "require_budget", never)
        for key in cli._SMATRIX_BUILDERS:
            monkeypatch.setitem(cli._SMATRIX_BUILDERS, key, never)
        _raises_then_exits(
            capsys, ("interfere", "--k", "10", "--bulk", "0,0", "--probe",
                     "0,1", "--samples", samples), ContractViolationError, 1,
            f"error: need at least 2 samples, got {samples}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_smatrix_over_budget_exits_2(self, capsys, monkeypatch, fmt):
        def never(k):
            raise AssertionError("S built over budget")
        need = 6 ** 2 * cli.SMATRIX_BYTES_PER_ENTRY  # coset k = 3: n = 6
        argv = ("smatrix", "--k", "3", "--which", "coset", "--format", fmt)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setitem(cli._SMATRIX_BUILDERS, "coset", never)  # before S
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the coset S matrix of 36 entries")
        assert "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "0,1" in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_dims_over_budget_exits_2(self, capsys, monkeypatch, fmt):
        def never(k):
            raise AssertionError("S built over budget")
        need = 6 ** 2 * cli.SMATRIX_BYTES_PER_ENTRY  # coset k = 3: n = 6
        argv = ("dims", "--k", "3", "--format", fmt)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(co, "coset_s_compact", never)  # refused before S
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the coset S matrix of 36 entries")
        assert "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "0,1" in out

    @pytest.mark.parametrize("targets,which,module,builder", [
        ("oracle", "suk2-oracle", sm, "s_suk2_weylkac"),
        ("coset-four-way", "coset", co, "coset_s_compact"),
        ("unitarity-su2k", "su2k", sm, "s_su2k"),
        ("unitarity-full", "full-product", fc, "full_s_product"),
    ])
    def test_verify_over_budget_exits_2(self, capsys, monkeypatch, targets,
                                        which, module, builder):
        def never(k):
            raise AssertionError("S built over budget")
        n = cli._smatrix_dim(which, 3)
        need = n ** 2 * cli.SMATRIX_BYTES_PER_ENTRY
        argv = ("verify", "--k", "3", "--targets", targets)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(module, builder, never)  # refused before the build
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: the {which} S matrix of {n ** 2} "
                              "entries") and "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and strict_json(out)["passed"]

    def test_verify_closed_fusion_under_16_mib(self, capsys, monkeypatch):
        # k = 20: the coset (n = 210) and su(2)_20 are compared in row
        # blocks, charged only for their S matrices and Verlinde sums, and
        # the ring's dense tensor is never read (a dense compare charged
        # 4 n^3 bytes, 35 MiB, here)
        def never(ring):
            raise AssertionError("the dense fusion tensor was read")
        monkeypatch.setattr(fu, "memory_budget", lambda: 16 * 2 ** 20)
        monkeypatch.setattr(fu.FusionRing, "tensor", property(never))
        code, out, _ = run(capsys, "verify", "--k", "20", "--targets",
                           "verlinde-vs-closed")
        assert code == 0
        checks = strict_json(out)["checks"]
        assert [(c["name"], c["residual"], c["passed"]) for c in checks] == [
            ("verlinde-vs-closed-coset", 0.0, True),
            ("verlinde-vs-closed-su2k", 0.0, True)]

    @pytest.mark.parametrize("k,n", [(13, 91), (16, 136), (20, 210)])
    def test_verify_closed_fusion_peak_within_budget_constant(
            self, monkeypatch, k, n):
        # the whole check, the coset S and the ring's build included, stays
        # below what verify charged for it: the coset S, then the Verlinde
        # sum, and nothing for the compare
        charged = []
        require = fu.require_budget

        def recorded(need, what):
            charged.append((need, what))
            require(need, what)
        monkeypatch.setattr(fu, "require_budget", recorded)
        argv = ["verify", "--k", str(k), "--targets",
                "verlinde-vs-closed-coset"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (s_need, s_what), (verlinde_need, verlinde_what) = charged
        assert (s_need, s_what) == (cli.SMATRIX_BYTES_PER_ENTRY * n ** 2,
                                    f"the coset S matrix of {n ** 2} entries")
        assert verlinde_what == f"Verlinde fusion of {n} labels"
        assert peak < s_need + verlinde_need

    def test_verify_compares_in_blocks_of_32_rows(self, capsys, monkeypatch):
        # coset k = 9 (n = 45): a full block and a partial one of 13 rows;
        # su(2)_9 (n = 10) fits one block
        blocks = []
        for name in ("coset_fusion_tensor", "su2k_fusion_tensor"):
            def recorded(k, rows, rule=getattr(fu, name)):
                blocks.append(list(rows))
                return rule(k, rows)
            monkeypatch.setattr(fu, name, recorded)
        code, _, _ = run(capsys, "verify", "--k", "9", "--targets",
                         "verlinde-vs-closed")
        assert code == 0
        assert fu.VERLINDE_BYTES_PER_SQUARE // 3 == 32
        assert blocks == [list(range(32)), list(range(32, 45)),
                          list(range(10))]

    @pytest.mark.parametrize("k,row", [
        (9, 0),    # the first row
        (12, 40),  # n = 78: inside the second of three blocks
        (9, 44),   # n = 45: the last row of the partial last block
    ])
    def test_a_closed_rule_wrong_at_one_row_fails(self, capsys, monkeypatch,
                                                  k, row):
        rule = fu.coset_fusion_tensor

        def wrong(k, rows):
            out = rule(k, rows)
            out[np.asarray(rows) == row, 0, 0] ^= 1
            return out
        monkeypatch.setattr(fu, "coset_fusion_tensor", wrong)
        code, out, _ = run(capsys, "verify", "--k", str(k), "--targets",
                           "verlinde-vs-closed-coset")
        assert code == 3
        check, = strict_json(out)["checks"]
        assert (check["residual"], check["passed"]) == (1.0, False)

    def test_verify_without_s_needs_no_budget(self, capsys, monkeypatch):
        # the lattice check charges its own array and no S matrix
        monkeypatch.setattr(fu, "memory_budget", lambda: cli._lattice_need(3))
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets",
                           "filling")
        assert code == 0 and strict_json(out)["passed"]
        code, out, _ = run(capsys, "verify", "--k", "3", "--all")
        assert code == 2 and out == ""

    def test_verify_filling_over_budget_exits_2(self, capsys, monkeypatch):
        def never(k):
            raise AssertionError("lattice built over budget")
        need = 6 ** 2 * cli.LATTICE_BYTES_PER_ENTRY  # k = 3: a 6 x 6 array
        argv = ("verify", "--k", "3", "--targets", "filling")
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(fc, "gram_matrix", never)  # refused before the lattice
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: the charge lattice of rank 5")
        assert "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and strict_json(out)["passed"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sectors_over_budget_exits_2(self, capsys, monkeypatch, fmt):
        def never(k):
            raise AssertionError("sectors or lattice built over budget")
        # k = 3: 10 sectors and the 6 x 6 lattice array, charged before either
        need = (10 * cli.SECTORS_BYTES_PER_SECTOR
                + 6 ** 2 * cli.LATTICE_BYTES_PER_ENTRY)
        argv = ("sectors", "--k", "3", "--format", fmt)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(fc, "enumerate_sectors", never)
            m.setattr(fc, "gram_matrix", never)
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: the sectors document of 10 sectors")
        assert "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "3/5" in out

    def test_sectors_refuses_a_bad_level_before_the_budget(self, capsys):
        # k < 1 charges almost nothing, so the builder's own message wins
        code, out, err = run(capsys, "sectors", "--k", "-5000")
        assert code == 1 and out == ""
        assert err.startswith("error: need k >= 1, got -5000")

    @pytest.mark.parametrize("k", [40, 60])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sectors_peak_within_budget_constants(self, capsys, k, fmt):
        run(capsys, "sectors", "--k", "2")  # the parser, built once
        n = (k + 1) * (k + 2) // 2
        argv = ["sectors", "--k", str(k), "--format", fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < cli.SECTORS_BYTES_PER_SECTOR * n + cli._lattice_need(k)

    @pytest.mark.parametrize("k", [10, 40, 100])
    def test_lattice_peak_within_budget_constant(self, k):
        tracemalloc.start()
        try:
            fc.filling_factor(fc.gram_matrix(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli._lattice_need(k)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fusion_over_budget_exits_2(self, capsys, monkeypatch, fmt):
        def never(s):
            raise AssertionError("fusion built over budget")
        # coset k = 3: n = 6; the tensor and S, charged once before either
        need = (6 ** 3 * cli.FUSION_BYTES_PER_CUBE
                + 6 ** 2 * cli.SMATRIX_BYTES_PER_ENTRY)
        argv = ("fusion", "--k", "3", "--which", "coset", "--format", fmt)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(fu, "verlinde", never)  # refused before Verlinde
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the fusion document of 6 labels")
        assert "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "tensor" in out

    @pytest.mark.parametrize("which,n", [("coset", 6), ("su2k", 4),
                                         ("full", 10)])
    def test_fusion_refused_before_the_build(self, capsys, monkeypatch,
                                             which, n):
        def never(k):
            raise AssertionError("S built over budget")
        need = (n ** 3 * cli.FUSION_BYTES_PER_CUBE
                + n ** 2 * cli.SMATRIX_BYTES_PER_ENTRY)
        argv = ("fusion", "--k", "3", "--which", which)
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            for key in cli._SMATRIX_BUILDERS:
                m.setitem(cli._SMATRIX_BUILDERS, key, never)
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: the fusion document of {n} labels")
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "tensor" in out

    @pytest.mark.parametrize("command", ["fusion", "interfere", "dims"])
    @pytest.mark.parametrize("k,message", [
        ("1", "su(k)_2 needs k >= 2, got 1"),
        ("-100000", "su(k)_2 needs k >= 2, got -100000"),
    ])
    def test_invalid_k_is_the_builders_error(self, capsys, command, k,
                                             message):
        # the guard charges nothing for a k that the builder refuses
        labels = ("--bulk", "0,0", "--probe", "0,0")
        code, out, err = run(capsys, command, "--k", k,
                             *(labels if command == "interfere" else ()))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("which", sorted(cli._SMATRIX_BUILDERS))
    def test_smatrix_dim_before_the_build(self, which):
        for k in range(2, 17):
            n = cli._SMATRIX_BUILDERS[which](k).dim
            assert cli._smatrix_dim(which, k) == n, k

    @pytest.mark.parametrize("k,which,message", [
        ("0", "su2k", "su(2)_k needs level k >= 1, got 0"),
        ("0", "coset", "su(k)_2 needs k >= 2, got 0"),
        ("-100000", "u1", "need k >= 1, got -100000"),
        ("-100000", "full-product", "need k >= 2, got -100000"),
    ])
    def test_smatrix_invalid_k_is_the_builders_error(self, capsys, k, which,
                                                     message):
        # no budget refusal for a k whose label count formula is huge
        code, out, err = run(capsys, "smatrix", "--k", k, "--which", which)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("which,k,n", [("coset", 24, 300),
                                           ("suk2-oracle", 24, 300),
                                           ("su2k", 299, 300),
                                           ("full-product", 23, 300)])
    def test_smatrix_peak_within_budget_constant(self, tmp_path, which, k, n,
                                                 fmt):
        # the whole command, its document written to a real file, stays
        # below the bytes per entry that its guard charges
        argv = ["smatrix", "--k", str(k), "--which", which, "--format", fmt]
        with open(tmp_path / "doc", "w") as sink, \
                contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < cli.SMATRIX_BYTES_PER_ENTRY * n ** 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("which,k,n", [("coset", 13, 91),
                                           ("full", 16, 153)])
    def test_fusion_peak_within_budget_constant(self, which, k, n, fmt):
        # the whole command, its document written to a real file, stays
        # below the bytes per n^3 that its guard charges
        argv = ["fusion", "--k", str(k), "--which", which, "--format", fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < cli.FUSION_BYTES_PER_CUBE * n ** 3

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(s):
            raise MemoryError()
        monkeypatch.setattr(fu, "verlinde", exhausted)
        code, _, err = run(capsys, "fusion", "--k", "3")
        assert code == 2
        assert "out of memory" in err


def _raises_then_exits(capsys, argv, cls, code, err):
    """args.func raises exactly cls, and cli.main turns it into code with
    nothing on stdout and err on stderr."""
    args = cli.build_parser().parse_args(list(argv))
    with pytest.raises(cls) as raised:
        args.func(args)
    assert type(raised.value) is cls
    assert run(capsys, *argv) == (code, "", err)


class TestExitCodeMap:
    """One case per kept error class: the three ValueErrors exit 1,
    ResourceError and MemoryError 2, ConsistencyError 1, and 3 inside
    verify, where it is a failed check."""

    @pytest.fixture
    def scaled_coset(self, monkeypatch):
        build = sm.s_suk2_compact  # the coset's S, in every command

        def scaled(k):  # 1.01 S: every Verlinde coefficient times 1.0201
            s = build(k)
            return sm.SMatrix(s.labels, 1.01 * s.entries)
        monkeypatch.setattr(sm, "s_suk2_compact", scaled)

    def test_invalid_rank(self, capsys):
        _raises_then_exits(capsys, ("smatrix", "--k", "1", "--which", "coset"),
                           InvalidRankError, 1,
                           "error: su(k)_2 needs k >= 2, got 1\n")

    def test_label(self, capsys):
        _raises_then_exits(
            capsys, ("interfere", "--k", "3", "--bulk", "9,9", "--probe",
                     "0,1"), LabelError, 1,
            "error: label '9,9' not valid for k=3; valid: 0,0, 1,1, 2,2, "
            "0,1, 1,2, 0,2\n")

    def test_contract_violation(self, capsys):
        _raises_then_exits(
            capsys, ("interfere", "--k", "3", "--bulk", "0,0", "--probe",
                     "0,0", "--samples", "1"), ContractViolationError, 1,
            "error: need at least 2 samples, got 1\n")

    def test_resource(self, capsys, monkeypatch):
        monkeypatch.setattr(fu, "memory_budget", lambda: 0)
        _raises_then_exits(
            capsys, ("fusion", "--k", "3"), ResourceError, 2,
            "error: the fusion document of 6 labels needs about 0 MiB, over "
            "the budget of 0 MiB (half of physical memory)\n")

    def test_memory_error(self, capsys, monkeypatch):
        def exhausted(s):
            raise MemoryError()
        monkeypatch.setattr(fu, "verlinde", exhausted)
        _raises_then_exits(capsys, ("fusion", "--k", "3"), MemoryError, 2,
                           "error: out of memory\n")

    @pytest.mark.usefixtures("scaled_coset")
    def test_consistency(self, capsys):
        _raises_then_exits(capsys, ("fusion", "--k", "3"), ConsistencyError,
                           1, "error: Verlinde residual 0.0201 >= 1e-08\n")

    @pytest.mark.usefixtures("scaled_coset")
    def test_consistency_in_verify_is_a_failed_check(self, capsys):
        name = "verlinde-vs-closed-coset"
        code, out, err = run(capsys, "verify", "--k", "3", "--targets", name)
        assert code == 3
        check, = strict_json(out)["checks"]
        assert (check["passed"], check["residual"], check["error"]) == (
            False, None, "Verlinde residual 0.0201 >= 1e-08")
        assert err == (f"failing checks: {name}\n"
                       f"{name}: Verlinde residual 0.0201 >= 1e-08\n")


class TestFusionDimsSectors:
    def test_fusion_roundtrip(self, capsys):
        code, out, _ = run(capsys, "fusion", "--k", "3", "--which", "coset")
        assert code == 0
        doc = json.loads(out)
        tensor = np.array(doc["tensor"])
        assert tensor.shape == (6, 6, 6)
        assert doc["basis"][doc["vacuum_index"]] == "0,0"

    @pytest.mark.parametrize("which", ["su2k", "coset", "full"])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_fusion_reports_generators(self, capsys, which, k):
        code, out, _ = run(capsys, "fusion", "--k", str(k), "--which", which)
        assert code == 0
        doc = json.loads(out)
        gens = doc["generators"]
        assert gens and set(gens) <= set(doc["basis"])
        assert doc["basis"][doc["vacuum_index"]] not in gens
        if which == "coset":
            assert gens == ["1,1"] + [f"0,{m}" for m in range(1, k // 2 + 1)]

    @pytest.mark.parametrize("which,ks", [("su2k", range(1, 13)),
                                          ("coset", range(2, 13)),
                                          ("full", range(2, 13))])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fusion_document_bytes(self, capsys, which, ks, fmt):
        # the encoded tensor gives the bytes of json.dumps on tolist()
        for k in ks:
            code, out, _ = run(capsys, "fusion", "--k", str(k),
                               "--which", which, "--format", fmt)
            assert code == 0
            assert out == _reference_fusion_document(which, k, fmt)

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["central_charge"] == "4/5"
        assert "1/15" in doc["conformal_dimensions"]
        assert doc["total_quantum_dimension"] == pytest.approx(3.2945564,
                                                               abs=1e-7)

    @pytest.mark.parametrize("argv", [
        ("dims", "--k", "20"),
        ("fusion", "--k", "12"),
        ("interfere", "--k", "12", "--bulk", "1,2", "--probe", "0,1"),
    ])
    def test_vacuum_entries_below_tolerance(self, capsys, argv):
        # S_00 = 0.0136 at k = 20 and 0.0343 at k = 12: only the imaginary
        # parts meet a tolerance, so the vacuum row is still found and the
        # monodromy taken
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        if argv[0] == "fusion":
            assert doc["basis"][doc["vacuum_index"]] == "0,0"

    def test_sectors(self, capsys):
        code, out, _ = run(capsys, "sectors", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 10
        assert doc["coset_primaries"] == 6
        assert doc["filling_factor"] == "3/5"


def _reference_fusion_document(which, k, fmt):
    """The fusion document through tolist() and json.dumps."""
    ring = fu.verlinde(cli._build(which, k))
    doc = cli.document("fusion", k, ring.labels, {
        "which": which,
        "vacuum_index": ring.vacuum_index,
        "generators": [str(ring.labels[g]) for g in ring.generators],
        "tensor": ring.tensor.tolist(),
    })
    if fmt == "json":
        return json.dumps(doc) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    for key, value in doc.items():
        if key in ("schema_version", "k", "kind"):
            writer.writerow([f"# {key}", value])
        else:
            writer.writerow([key, json.dumps(value)])
    return buf.getvalue()


class TestTensorEncoder:
    @pytest.mark.parametrize("top", [0, 1, 9, 10, 130])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_json_dumps(self, n, top):
        # one digit an entry: 0..9 is encoded, 10 and above refused
        rng = np.random.default_rng(n * 1000 + top)
        for dtype in (np.min_scalar_type(top), np.int64):
            tensor = rng.integers(0, top + 1, size=(n, n, n)).astype(dtype)
            tensor[rng.integers(n), rng.integers(n), rng.integers(n)] = top
            if top <= 9:
                assert cli._tensor_json(tensor) == json.dumps(tensor.tolist())
            else:
                with pytest.raises(ConsistencyError, match="outside 0..9"):
                    cli._tensor_json(tensor)

    def test_mixed_widths(self):
        tensor = np.arange(60).reshape(3, 4, 5) ** 3  # 1 to 6 digits
        with pytest.raises(ConsistencyError, match="outside 0..9"):
            cli._tensor_json(tensor)
        with pytest.raises(ConsistencyError, match="outside 0..9"):
            cli._tensor_json(-np.ones((2, 2, 2), dtype=np.int8))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refused_tensor_writes_nothing(self, capsys, monkeypatch, fmt):
        ring = fu.verlinde(sm.s_su2k(2))
        ring.tensor[0, 0, 0] = 10
        monkeypatch.setattr(fu, "verlinde", lambda s: ring)
        code, out, err = run(capsys, "fusion", "--k", "2", "--which", "su2k",
                             "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: a fusion document entry outside 0..9\n"

    @pytest.mark.parametrize("n", [1, 2])  # n = 1 has no comma to quote
    def test_csv_cell_as_the_writer_writes_it(self, n):
        tensor = np.ones((n, n, n), dtype=np.int8)
        text = json.dumps(tensor.tolist())
        doc = cli.document("fusion", 2, ["0"] * n,
                           {"which": "su2k", "tensor": tensor})
        got, want = io.StringIO(), io.StringIO()
        cli.to_csv(doc, got)
        writer = csv.writer(want)
        for key, value in doc.items():
            if key in ("schema_version", "k", "kind"):
                writer.writerow([f"# {key}", value])
            else:
                writer.writerow([key, text if key == "tensor"
                                 else json.dumps(value)])
        assert got.getvalue() == want.getvalue()


def _reference_smatrix_document(k, which, labels, matrix, fmt):
    """The smatrix document through tolist(), json.dumps and csv.writer
    rows of float cells, after its basis and which as comment rows."""
    pairs = np.stack((matrix.real, matrix.imag), axis=-1).tolist()
    doc = cli.document("smatrix", k, labels,
                       {"which": which, "matrix": pairs})
    if fmt == "json":
        return json.dumps(doc, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    for key in ("schema_version", "k", "kind"):
        writer.writerow([f"# {key}", doc[key]])
    for key in ("basis", "which"):
        writer.writerow([f"# {key}", json.dumps(doc[key])])
    header = ["label"]
    for lab in doc["basis"]:
        header += [f"{lab} re", f"{lab} im"]
    writer.writerow(header)
    for lab, row in zip(doc["basis"], pairs):
        writer.writerow([lab] + [float(x) for re_im in row for x in re_im])
    return buf.getvalue()


def _emitted(capsys, labels, matrix, fmt):
    doc = cli.document("smatrix", 2, labels, {"which": "su2k",
                                              "matrix": np.array(matrix)})
    cli.emit(doc, fmt)
    return capsys.readouterr().out


class TestMatrixEncoder:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("which", sorted(cli._SMATRIX_BUILDERS))
    def test_builder_documents(self, capsys, which, fmt):
        for k in range(2, 13):
            s = cli._SMATRIX_BUILDERS[which](k)
            code, out, _ = run(capsys, "smatrix", "--k", str(k),
                               "--which", which, "--format", fmt)
            assert code == 0
            assert out == _reference_smatrix_document(
                k, which, s.labels, s.entries, fmt), k

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("labels,matrix", [
        (["0"], [[0.5 - 0.25j]]),
        (["0"], [[complex(-0.0, -0.0)]]),
        (["0", "0,1"], [[complex(0.0, -0.0), complex(-0.0, 0.0)],
                        [complex(-0.0, -0.0), complex(0.0, 0.0)]]),
        (["0,1", "1", "2,2"], [[5e-324, 1e16j, 1e-05],
                               [-1.5e300 + 5e-324j, -0.0, 1e16],
                               [1e-05j, complex(-1.5e300, -0.0), 1 / 3]]),
    ])
    def test_hand_made_matrices(self, capsys, labels, matrix, fmt):
        # 0.0 and -0.0 are equal values with their own texts
        expected = _reference_smatrix_document(2, "su2k", labels,
                                               np.array(matrix), fmt)
        assert _emitted(capsys, labels, matrix, fmt) == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_signed_magnitudes(self, capsys, fmt):
        # a negative float reads "-" and its magnitude's text, a NaN
        # "nan" whatever its sign bit
        labels = ["0", "1", "2"]
        matrix = np.array([
            [0.25 - 0.25j, complex(-1 / 3, 1 / 3), complex(-np.nan, -0.0)],
            [complex(np.inf, -np.inf), -0.25 + 0j, complex(np.nan, 0.0)],
            [complex(-1 / 3, -np.inf), complex(0.0, -np.nan), 1 / 3 + 0.25j]])
        assert np.signbit(matrix[0, 2].real) and np.signbit(matrix[2, 1].imag)
        doc = cli.document("smatrix", 2, labels, {"which": "su2k",
                                                  "matrix": matrix})
        if fmt == "csv":
            cli.emit(doc, fmt)
            assert capsys.readouterr().out == _reference_smatrix_document(
                2, "su2k", labels, matrix, fmt)
            return
        with pytest.raises(ValueError) as expected:
            json.dumps(np.stack((matrix.real, matrix.imag), -1).tolist(),
                       allow_nan=False)
        with pytest.raises(ValueError) as err:
            cli.emit(doc, fmt)
        assert str(err.value) == str(expected.value)
        assert capsys.readouterr().out == ""
        finite = np.where(np.isfinite(matrix), matrix, -0.5)
        assert _emitted(capsys, labels, finite, fmt) == (
            _reference_smatrix_document(2, "su2k", labels, finite, fmt))

    def test_non_finite_entries(self, capsys, monkeypatch):
        labels = ["0", "1"]
        entries = np.array([[complex(np.nan, 0.5), 1.0],
                            [complex(-0.0, np.inf), -np.inf]])
        monkeypatch.setitem(cli._SMATRIX_BUILDERS, "su2k",
                            lambda k: sm.SMatrix(labels, entries))
        code, out, err = run(capsys, "smatrix", "--k", "1", "--which", "su2k")
        assert code == 1 and out == ""  # strict JSON, as json.dumps
        assert err == ("error: Out of range float values are not JSON "
                       "compliant\n")
        code, out, _ = run(capsys, "smatrix", "--k", "1", "--which", "su2k",
                           "--format", "csv")
        assert code == 0
        assert out == _reference_smatrix_document(1, "su2k", labels, entries,
                                                  "csv")
        assert out.endswith("0,nan,0.5,1.0,0.0\r\n1,-0.0,inf,-inf,0.0\r\n")


class TestLabels:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 20), data=st.data())
    def test_coset_weight_canonical(self, k, data):
        mu, nu = (data.draw(st.integers(0, k - 1)) for _ in range(2))
        i, j = (data.draw(st.integers(-3, 3)) for _ in range(2))
        label = sm.CosetWeight(mu, nu, k)
        assert sm.CosetWeight(mu + i * k, nu + j * k, k) == label
        assert sm.CosetWeight(nu + j * k, mu + i * k, k) == label
        assert sm.CosetWeight(label.mu, label.nu, k) == label
        assert 0 <= label.mu <= label.nu < k
        assert cli._parse_label(str(label), sm.canonical_weights(k),
                                k) == label

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 20), data=st.data())
    def test_full_sector_canonical(self, k, data):
        sectors = fc.enumerate_sectors(k)
        label = data.draw(st.sampled_from(sectors))
        i, j = (data.draw(st.integers(-3, 3)) for _ in range(2))
        assert fc.FullSector(label.l + i * (k + 2), label.rho + j * k,
                             k) == label
        assert fc.FullSector(label.l, label.rho, k) == label
        assert 0 <= label.l < k + 2 and 0 <= label.rho < k
        assert cli._parse_label(str(label), sectors, k) == label


def test_readme_library_block_runs():
    # the README's Library example is the one user of the top-level names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert [str(lab) for lab in namespace["paper"].labels] == [
        "0,0", "1,1", "2,2", "0,1", "0,2", "1,2"]


def test_python_m_runs_the_cli(capsys):
    # -W error: pytest's filterwarnings does not reach a subprocess
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (["sectors", "--k", "2"],
                 ["fusion", "--k", "3", "--format", "csv"],
                 ["verify", "--k", "3", "--targets", "oracle"]):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "parafermions", *argv],
            capture_output=True, env=env, timeout=60)
        out, err = done.stdout.decode(), done.stderr.decode()
        assert (done.returncode, err) == (0, ""), argv
        if argv[0] == "verify":
            assert [c["name"] for c in strict_json(out)["checks"]] == [
                "oracle-vs-compact"]
        else:
            assert out == run(capsys, *argv)[1]
    assert strict_json(run(capsys, "sectors", "--k", "2")[1])["count"] == 6


class TestInterfereCommand:
    def test_fibonacci_header(self, capsys):
        code, out, _ = run(capsys, "interfere", "--k", "3",
                           "--bulk", "1,2", "--probe", "0,1",
                           "--t1", "1", "--t2", "1", "--samples", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["monodromy"][0] == pytest.approx(-0.3819660, abs=1e-7)
        assert doc["monodromy"][1] == pytest.approx(0.0, abs=1e-10)
        assert doc["visibility"] == pytest.approx(0.3819660, abs=1e-7)
        assert len(doc["curve"]) == 4

    def test_trivial_bulk(self, capsys):
        code, out, _ = run(capsys, "interfere", "--k", "3",
                           "--bulk", "0,0", "--probe", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["monodromy"][0] == pytest.approx(1.0, abs=1e-10)

    def test_invalid_label_exits_1(self, capsys):
        code, _, err = run(capsys, "interfere", "--k", "3",
                           "--bulk", "9,9", "--probe", "0,1")
        assert code == 1
        assert "0,1" in err  # valid labels listed

    def test_full_theory_labels(self, capsys):
        code, out, _ = run(capsys, "interfere", "--k", "3", "--which",
                           "full", "--bulk", "1,1", "--probe", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert abs(complex(*doc["monodromy"])) <= 1 + 1e-10

    def test_csv_curve(self, capsys):
        code, out, _ = run(capsys, "interfere", "--k", "3", "--bulk", "0,0",
                           "--probe", "0,0", "--samples", "4",
                           "--format", "csv")
        assert code == 0
        assert "alpha,sigma_xx" in out
        _, json_out, _ = run(capsys, "interfere", "--k", "3", "--bulk", "0,0",
                             "--probe", "0,0", "--samples", "4")
        rows = list(csv.reader(io.StringIO(out)))
        start = rows.index(["alpha", "sigma_xx"]) + 1
        curve = [[float(x) for x in r] for r in rows[start:]]
        assert curve == json.loads(json_out)["curve"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("t1,t2", OVERFLOWING_AMPLITUDES)
    def test_overflowing_amplitudes_exit_1(self, capsys, fmt, t1, t2):
        code, out, err = run(capsys, "interfere", "--k", "3", "--bulk", "1,2",
                             "--probe", "0,1", "--t1", t1, "--t2", t2,
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (f"error: amplitudes t1={complex(t1)}, "
                       f"t2={complex(t2)}: (|t1| + |t2|)^2 is not finite\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_largest_amplitudes_emit(self, capsys, fmt):
        code, out, _ = run(capsys, "interfere", "--k", "3", "--bulk", "0,0",
                           "--probe", "0,0", "--t1", "6e153", "--t2", "6e153",
                           "--samples", "4", "--format", fmt)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[-4:]
        curve = (strict_json(out)["curve"] if fmt == "json"
                 else [[float(x) for x in row] for row in rows])
        # the in-phase sample is (|t1| + |t2|)^2, just inside float's range
        assert max(s for _, s in curve) == pytest.approx(1.44e308)
        assert all(math.isfinite(s) for _, s in curve)


@pytest.mark.parametrize("argv", [
    ["smatrix", "--k", "3", "--which", "coset"],
    ["verify", "--k", "3", "--targets", "s2", "filling"],
    ["fusion", "--k", "3", "--which", "full"],
    ["dims", "--k", "3"],
    ["sectors", "--k", "3"],
    ["interfere", "--k", "3", "--bulk", "1,2", "--probe", "0,1",
     "--t1", "0.8+0.3j", "--t2", "1.1-0.2j", "--samples", "5"],
])
def test_csv_carries_every_json_field(capsys, argv):
    # each field but the matrix or curve is a row "key" or "# key": the
    # metadata as text, every other field as its JSON
    _, json_out, _ = run(capsys, *argv)
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    doc = json.loads(json_out)
    cells = {row[0].removeprefix("# "): row[1:]
             for row in csv.reader(io.StringIO(csv_out))}
    for key, value in doc.items():
        if key in ("matrix", "curve"):
            continue
        text, = cells[key]
        if key in ("schema_version", "k", "kind"):
            assert text == str(value), key
            continue
        got = json.loads(text)
        if key == "checks":  # elapsed_s is a measurement of each run
            for check in got + value:
                del check["elapsed_s"]
        assert got == value, key


def _every_command(k):
    """Each command at level k with each of its choices, and interfere
    with each pair of OVERFLOWING_AMPLITUDES."""
    level = ["--k", str(k)]
    for which in sorted(cli._SMATRIX_BUILDERS):
        yield ["smatrix", *level, "--which", which]
    yield ["verify", *level, "--all"]
    yield ["verify", *level, "--all", "--tolerance", "1e-30"]
    for which in ("su2k", "coset", "full"):
        yield ["fusion", *level, "--which", which]
    yield ["dims", *level]
    yield ["sectors", *level]
    for which, probe, bulk in (("coset", "0,1", "1,1"), ("full", "1,1", "2,1")):
        interfere = ["interfere", *level, "--which", which, "--probe", probe,
                     "--bulk", bulk]
        yield interfere
        for t1, t2 in OVERFLOWING_AMPLITUDES:
            yield [*interfere, "--t1", t1, "--t2", t2]


@pytest.mark.parametrize("k", range(2, 7))
def test_csv_verdict_equals_json_verdict(capsys, k):
    for argv in _every_command(k):
        code, out, err = run(capsys, *argv)
        assert run(capsys, *argv, "--format", "csv")[::2] == (code, err), argv
        assert bool(out) is (code in (0, 3)), argv


class TestUsage:
    def test_cached_parser_is_a_fresh_parser(self, capsys):
        # the parser is built once; every call reads as with a new one
        argvs = [["smatrix", "--k", "3"],
                 ["verify", "--k", "3", "--targets", "oracle"],
                 ["smatrix", "--k", "3", "--which", "su2k", "--format", "csv"],
                 ["fusion", "--k", "3"]]

        def outcomes(fresh):
            got = []
            for argv in argvs:
                if fresh:
                    cli.build_parser.cache_clear()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                got.append((code, re.sub(r'"elapsed_s": [^,}]+', "", out),
                            err))
            return got

        cli.build_parser.cache_clear()
        cached = outcomes(fresh=False)
        assert cli.build_parser.cache_info().hits == len(argvs) - 1
        assert cached == outcomes(fresh=True)
        assert [c for c, _, _ in cached] == [1, 0, 0, 0]
        assert "required: --which" in cached[0][2]

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["smatrix", "--k", "x", "--which", "su2k"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-10",
                                       "1e-400", "tiny"])
    def test_bad_tolerance(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "3", "--targets", "oracle",
                      f"--tolerance={value}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--tolerance" in err and value in err

    @pytest.mark.parametrize("flag", ["--t1", "--t2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "nan+1j"])
    def test_bad_amplitude(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["interfere", "--k", "3", "--bulk", "0,0",
                      "--probe", "0,1", f"{flag}={value}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag in err and value in err

    @pytest.mark.parametrize("command,argv", [
        ("smatrix", ("--which", "su2k")), ("fusion", ()), ("dims", ()),
        ("sectors", ()), ("interfere", ("--bulk", "0,0", "--probe", "0,1"))])
    def test_tolerance_is_verify_only(self, capsys, command, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--k", "3", *argv, "--tolerance", "1e-10"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_good_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets",
                           "oracle", "--tolerance", "1e-8")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-8
