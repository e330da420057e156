import csv
import io
import json
import time

import numpy as np
import pytest

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import fusion as fu
from parafermions import interferometry as it
from parafermions import smatrix as sm


def strict_json(text):
    """Parse a document, refusing the NaN/Infinity extensions."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


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
        matrix = cli.matrix_from_document(doc)
        expected = co.coset_s_compact(3).s.entries
        assert np.array_equal(matrix, expected)  # bit-identical round trip

    @pytest.mark.parametrize("which", sorted(cli._SMATRIX_BUILDERS))
    def test_every_construction_emits(self, capsys, which):
        code, out, _ = run(capsys, "smatrix", "--k", "3", "--which", which)
        assert code == 0
        doc = json.loads(out)
        n = len(doc["basis"])
        assert cli.matrix_from_document(doc).shape == (n, n)

    def test_full_compact_k2_is_6x6_unitary(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--k", "2",
                           "--which", "full-compact")
        assert code == 0
        m = cli.matrix_from_document(json.loads(out))
        assert m.shape == (6, 6)
        assert np.max(np.abs(m @ m.conj().T - np.eye(6))) < 1e-10

    def test_invalid_k_exits_1(self, capsys):
        code, _, err = run(capsys, "smatrix", "--k", "0", "--which", "su2k")
        assert code == 1
        assert err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--k", "2", "--which", "su2k",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# schema_version")
        # header + 3 label rows after 3 metadata rows
        assert len(lines) == 3 + 1 + 3
        _, json_out, _ = run(capsys, "smatrix", "--k", "2", "--which", "su2k")
        doc = json.loads(json_out)
        rows = list(csv.reader(io.StringIO(out)))[4:]
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
        calls = {"full": 0, "coset": 0}

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fc, "full_s_product",
                            counted("full", fc.full_s_product))
        monkeypatch.setattr(co, "coset_s_compact",
                            counted("coset", co.coset_s_compact))
        code, _, _ = run(capsys, "verify", "--k", "6", "--all")
        assert code == 3
        # full_s_product builds its neutral factor from s_suk2_compact
        assert calls == {"full": 1, "coset": 1}

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
        assert check["residual"] is None and check["elapsed_s"] >= 0

    def test_raising_build_is_built_once(self, capsys, monkeypatch):
        # at this tolerance full_s_product raises; the error is kept and
        # raised again for every check that needs the matrix
        calls = {"full": 0, "coset": 0, "suk2": 0}

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fc, "full_s_product",
                            counted("full", fc.full_s_product))
        monkeypatch.setattr(co, "coset_s_compact",
                            counted("coset", co.coset_s_compact))
        monkeypatch.setattr(sm, "s_suk2_compact",
                            counted("suk2", sm.s_suk2_compact))
        code, out, _ = run(capsys, "verify", "--k", "3", "--all",
                           "--tolerance", "1e-30")
        assert code == 3
        full_checks = [c for c in strict_json(out)["checks"]
                       if "full" in c["name"]]
        assert len(full_checks) == 5
        assert all(c["passed"] is False and "not unitary" in c["error"]
                   for c in full_checks)
        # one call each through the cache; s_suk2_compact also runs inside
        # coset_s_compact, coset_s_phase_form and full_s_product
        assert calls == {"full": 1, "coset": 1, "suk2": 4}

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

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, "verify", "--k", "3",
                         "--targets", "no-such-check")
        assert code == 1

    def test_raising_check_is_a_failed_check(self, capsys):
        # at this tolerance coset_s_phase_form raises a ConsistencyError;
        # the check fails with its message, the other checks still run
        code, out, err = run(capsys, "verify", "--k", "3", "--all",
                             "--tolerance", "1e-30")
        assert code == 3
        doc = strict_json(out)
        assert len(doc["checks"]) == 16
        four_way, = [c for c in doc["checks"] if c["name"] == "coset-four-way"]
        assert four_way["passed"] is False
        assert four_way["residual"] is None
        assert "phase form" in four_way["error"]
        assert "coset-four-way: phase form" in err
        assert any(c["passed"] for c in doc["checks"])  # exact checks ran


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
            raise AssertionError("curve sampled over budget")
        need = 64 * cli.INTERFERE_BYTES_PER_SAMPLE
        argv = ("interfere", "--k", "3", "--bulk", "1,2", "--probe", "0,1",
                "--samples", "64")
        monkeypatch.setattr(fu, "memory_budget", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(it, "sigma_xx_curve", never)  # refused before sampling
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a curve of 64 samples") and "budget" in err
        monkeypatch.setattr(fu, "memory_budget", lambda: need)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["curve"]) == 64

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(s):
            raise MemoryError()
        monkeypatch.setattr(fu, "verlinde", exhausted)
        code, _, err = run(capsys, "fusion", "--k", "3")
        assert code == 2
        assert "out of memory" in err


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
            assert len(gens) == 2

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["central_charge"] == "4/5"
        assert "1/15" in doc["conformal_dimensions"]
        assert doc["total_quantum_dimension"] == pytest.approx(3.2945564,
                                                               abs=1e-7)

    def test_sectors(self, capsys):
        code, out, _ = run(capsys, "sectors", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 10
        assert doc["coset_primaries"] == 6
        assert doc["filling_factor"] == "3/5"


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


class TestUsage:
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

    def test_good_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--targets",
                           "oracle", "--tolerance", "1e-8")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-8
