import json

import numpy as np
import pytest

from mlie.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list_has_fourteen_names(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list")
    assert code == 0
    names = {line.split()[0] for line in out.strip().splitlines()}
    assert len(names) == 14


def test_catalog_writes_file_and_ricci_reads_it(tmp_path, capsys):
    path = tmp_path / "l32.json"
    code, _, _ = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["dim"] == 3
    assert "metric" in doc and "comment" in doc

    code, out, _ = run_cli(capsys, "ricci", str(path))
    assert code == 0
    assert "verdict:           Flat" in out
    assert "signature:         (minus=1, plus=2, null=0)" in out


def test_catalog_stdout_default(capsys):
    code, out, _ = run_cli(capsys, "catalog", "EX6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 6


def test_catalog_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=0")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "catalog", "NOPE")
    assert code == 2
    code, _, _ = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=abc")
    assert code == 2


def test_ricci_ex8_einstein(tmp_path, capsys):
    path = tmp_path / "ex8.json"
    run_cli(capsys, "catalog", "EX8", "-o", str(path))
    code, out, _ = run_cli(capsys, "ricci", str(path))
    assert code == 0
    assert "verdict:           Einstein" in out
    assert "0.5" in out


def test_ricci_missing_metric_exit_2(tmp_path, capsys):
    path = tmp_path / "nometric.json"
    path.write_text('{"dim": 2, "brackets": []}')
    code, _, err = run_cli(capsys, "ricci", str(path))
    assert code == 2
    assert "metric" in err


def test_parse_error_exit_2_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n "brackets": [}')
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert ":2:" in err


def test_decompose_roundtrip_via_files(tmp_path, capsys):
    src = tmp_path / "l32.json"
    dec = tmp_path / "dec.json"
    ext = tmp_path / "ext.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    code, _, _ = run_cli(capsys, "decompose", str(src), "-o", str(dec))
    assert code == 0
    doc = json.loads(dec.read_text())
    assert doc["v_dim"] == 1
    assert "basis_change" in doc
    code, out, _ = run_cli(capsys, "decompose", str(src))
    assert code == 0
    assert json.loads(out) == doc
    assert out == dec.read_text()

    code, _, _ = run_cli(capsys, "double-extend", str(dec), "-o", str(ext))
    assert code == 0
    code, out, _ = run_cli(capsys, "ricci", str(ext))
    assert code == 0
    assert "Flat" in out


def test_decompose_definite_center_exit_3(tmp_path, capsys):
    path = tmp_path / "ex6.json"
    run_cli(capsys, "catalog", "EX6", "-o", str(path))
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert code == 3
    assert "no isotropic central vector" in out


def test_double_extend_rejects_non_lie_data(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "v_dim": 2,
                "K": [[0.0, 1.0], [-1.0, 0.0]],
                "D": [[1.0, 0.0], [0.0, 2.0]],
                "mu": 0.0,
                "b": [0.0, 0.0],
            }
        )
    )
    code, _, err = run_cli(capsys, "double-extend", str(path))
    assert code == 3
    assert "not applicable" in err


def test_classify_ex8(tmp_path, capsys):
    path = tmp_path / "ex8.json"
    run_cli(capsys, "catalog", "EX8", "-o", str(path))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert "center: dim 2 — EuclideanNondegenerate" in out
    assert "derived ideal: dim 6 — LorentzianNondegenerate" in out


def test_classify_abelian_center_is_everything(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [], "metric": np.eye(3).tolist()}))
    code, out, _ = run_cli(capsys, "classify", str(path), "--subspace", "center")
    assert code == 0
    assert "center: dim 3" in out
    assert "derived" not in out


@pytest.mark.parametrize("command", ["ricci", "decompose", "derivations", "search", "classify"])
def test_non_lie_table_exit_3(tmp_path, capsys, command):
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi with defect 1
    path = tmp_path / "bad.json"
    brackets = [{"i": 1, "j": 2, "coeffs": {"3": 1.0}}, {"i": 1, "j": 3, "coeffs": {"1": 1.0}}]
    doc = {"dim": 3, "brackets": brackets, "metric": np.diag([-1.0, 1.0, 1.0]).tolist()}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 3
    assert "Jacobi" in err


def test_derivations_catalog_match(tmp_path, capsys):
    path = tmp_path / "l32.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(path))
    code, out, _ = run_cli(capsys, "derivations", str(path))
    assert code == 0
    assert "derivation space dimension: 6" in out
    assert "trace 2" in out


def test_verify_only_flatness(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "flatness")
    assert code == 0
    assert out.count("[PASS]") == 1
    assert "1/1 checks passed" in out


def test_verify_unknown_check_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--only", "nonsense")
    assert code == 2
    assert "unknown checks" in err


def test_verify_absurd_tolerance_fails(capsys, monkeypatch):
    monkeypatch.setenv("MLIE_TOL", "1e-18")
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "route-equivalence")
    assert code == 1
    assert "[FAIL]" in out


def test_search_converges_and_writes(tmp_path, capsys):
    src = tmp_path / "l32.json"
    found = tmp_path / "found.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    code, out, _ = run_cli(
        capsys, "search", str(src), "--signature", "1,2", "-o", str(found)
    )
    assert code == 0
    assert "converged:     True" in out
    doc = json.loads(found.read_text())
    assert "metric" in doc


def test_search_nonconvergence_exit_1(tmp_path, capsys):
    src = tmp_path / "l43.json"
    run_cli(capsys, "catalog", "L4_3", "m43", "a=0", "b=0", "eps=1", "-o", str(src))
    code, out, _ = run_cli(
        capsys, "search", str(src), "--signature", "0,4", "--restarts", "2"
    )
    assert code == 1
    assert "converged:     False" in out


def test_search_bad_signature_exit_2(tmp_path, capsys):
    src = tmp_path / "l32.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    code, _, err = run_cli(capsys, "search", str(src), "--signature", "banana")
    assert code == 2
    assert "signature" in err


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ricci", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error" in err


def test_tol_flag_loosens_verdict(tmp_path, capsys):
    # the searched gram has residual ~2.7e-7: NotEinstein at the default
    # verdict tolerance, flat/Ricci-flat when --tol is loosened to 1e-5
    src = tmp_path / "l32.json"
    found = tmp_path / "found.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    run_cli(capsys, "search", str(src), "--signature", "1,2", "-o", str(found))
    code, out, _ = run_cli(capsys, "ricci", str(found))
    assert code == 0
    assert "NotEinstein" in out
    code, out, _ = run_cli(capsys, "ricci", str(found), "--tol", "1e-5")
    assert code == 0
    assert "NotEinstein" not in out
    assert "Flat" in out
