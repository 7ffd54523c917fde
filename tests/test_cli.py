import argparse
import functools
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlie.cli
import mlie.errors
import mlie.liealg
import mlie.pseudolin
from mlie.cli import main
from mlie.fileio import read_algebra
from mlie.search import TARGETS, SearchSpec, run_search
from mlie.errors import (
    InvalidInput,
    NotApplicable,
    NotLie,
    NotNilpotent,
    UnknownName,
)
from mlie.verify import CHECK_NAMES

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def close_stdout(monkeypatch):
    """A call that makes sys.stdout the write end of a pipe whose reader has
    quit, as under `mlie … | head -1`: every write raises BrokenPipeError.
    Call it in the test body, since capsys resets sys.stdout before the body."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_fd

    yield lambda: monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.undo()
    os.close(write_fd)


@pytest.fixture
def ex8_file(tmp_path, capsys):
    path = tmp_path / "ex8.json"
    run_cli(capsys, "catalog", "EX8", "-o", str(path))
    return path


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
    # the comment names the algebra, the variant and the parameters once each
    code, out, _ = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1")
    assert json.loads(out)["comment"].startswith("catalog L3_2 m32 alpha=1;")


def test_catalog_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=0")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "catalog", "NOPE")
    assert code == 2
    code, _, _ = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=abc")
    assert code == 2
    code, _, err = run_cli(capsys, "catalog", "EX8", "x=1")  # EX8's metric has no parameters
    assert code == 2 and "no parameters" in err
    # catalog decides nothing numerically, so it refuses --tol
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "L3_2", "m32", "alpha=2", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("second", ["alpha=2", "alpha=1"])
def test_catalog_refuses_a_parameter_given_twice(capsys, second):
    # the first value is not silently overwritten, nor a repeat of it taken
    code, out, err = run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", second)
    assert (code, out) == (2, "")
    assert err == "error: parameter alpha given twice\n"
    code, _, err = run_cli(capsys, "catalog", "L4_2", "m42", "a=0.3", "alpha=1", "a=0.5")
    assert code == 2 and "parameter a given twice" in err


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


def test_a_coefficient_key_in_another_spelling_exit_2(tmp_path, capsys):
    path = tmp_path / "twokeys.json"
    path.write_text('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0, "03": 2.0}}]}')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert "coefficient key '03' is not an index" in err


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


def test_decompose_then_double_extend_with_an_empty_core(tmp_path, capsys):
    # abelian R² with ⟨e_1, e_2⟩ = 1: e_1 is isotropic and central, so V = 0
    src, dec = tmp_path / "plane.json", tmp_path / "dec.json"
    src.write_text(json.dumps({"dim": 2, "brackets": [], "metric": [[0.0, 1.0], [1.0, 0.0]]}))
    code, _, _ = run_cli(capsys, "decompose", str(src), "-o", str(dec))
    assert code == 0
    assert json.loads(dec.read_text())["v_dim"] == 0
    code, out, err = run_cli(capsys, "double-extend", str(dec))
    assert (code, err) == (0, "")
    assert json.loads(out)["dim"] == 2


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


def test_ricci_and_classify_print_one_signature_at_tol(tmp_path, capsys):
    # the eigenvalue 1e-10 is null at the default cutoff 1e-9 and positive at 1e-12
    path = tmp_path / "l32.json"
    doc = {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0}}],
        "metric": np.diag([-1.0, 1.0, 1e-10]).tolist(),
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "ricci", str(path), "--tol", "1e-12")
    assert code == 0
    assert "signature:         (minus=1, plus=2, null=0)" in out
    code, out, _ = run_cli(capsys, "classify", str(path), "--tol", "1e-12")
    assert code == 0
    assert "signature: (minus=1, plus=2, null=0)" in out


def test_tol_reaches_the_metric_reader(tmp_path, capsys):
    # the metric's asymmetry 1e-6 is refused at the default 1e-9 and accepted at 1e-3
    path = tmp_path / "l32.json"
    doc = {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0}}],
        "metric": [[-1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "ricci", str(path))
    assert code == 2
    assert "'metric' is not symmetric" in err
    code, out, _ = run_cli(capsys, "ricci", str(path), "--tol", "1e-3")
    assert code == 0
    assert "signature:         (minus=1, plus=2, null=0)" in out


STRUCTURE_METHODS = (
    "require_jacobi",
    "center",
    "derived_ideal",
    "lower_central_series",
    "is_nilpotent",
    "derivation_space",
    "find_nonzero_trace_derivation",
)


#: decisions each command must be seen taking
TOL_DECISIONS = {
    "ricci": {"require_jacobi", "is_nilpotent", "_orthonormal_bases"},
    "double-extend": {"_orthonormal_bases"},
    "decompose": {"require_jacobi", "is_nilpotent", "center", "_orthonormal_bases"},
    "classify": {"require_jacobi", "is_nilpotent", "center", "derived_ideal", "_orthonormal_bases", "_signatures"},
    "derivations": {"require_jacobi", "derivation_space"},
    # a Lorentzian L3_2 search holds a vector of Z ∩ [g,g] null, and its
    # settle takes the frames of the converging restarts' grams as one stack
    "search": {"require_jacobi", "is_nilpotent", "center", "derived_ideal", "_orthonormal_bases"},
}


@pytest.mark.parametrize("command", list(TOL_DECISIONS))
def test_tol_reaches_every_nilpotency_and_inertia_decision(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "m42.json"
    run_cli(capsys, "catalog", "L4_2", "m42", "alpha=1", "a=0.3", "-o", str(path))
    if command == "double-extend":
        run_cli(capsys, "decompose", str(path), "-o", str(tmp_path / "ext.json"))
        path = tmp_path / "ext.json"
    elif command == "search":
        path = tmp_path / "m32.json"
        run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(path))
    seen = []

    def spy_method(fn):
        @functools.wraps(fn)
        def recording(self, *args, **kwargs):
            seen.append((fn.__name__, self.tol))
            return fn(self, *args, **kwargs)

        return recording

    algebra_cls = mlie.liealg.LieAlgebra
    for name in STRUCTURE_METHODS:
        monkeypatch.setattr(algebra_cls, name, spy_method(getattr(algebra_cls, name)))
    # every inertia decision is taken by _orthonormal_bases (a stack's frames,
    # a metric's build among them) or _signatures (a subspace's class, which
    # signature reads too), each patched wherever a module holds it, since
    # modules look names up in their own globals
    decisions = (
        mlie.pseudolin._orthonormal_bases,
        mlie.pseudolin._signatures,
    )
    for decide in decisions:
        params = inspect.signature(decide)

        @functools.wraps(decide)
        def recording(*args, _decide=decide, _params=params, **kwargs):
            bound = _params.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((_decide.__name__, bound.arguments["tol"]))
            return _decide(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "mlie" or name.startswith("mlie."):
                for key, value in list(vars(module).items()):
                    if value is decide:
                        monkeypatch.setattr(module, key, recording)

    code, _, _ = run_cli(capsys, command, str(path), "--tol", "1e-6")
    assert code == 0
    assert TOL_DECISIONS[command] <= {name for name, _ in seen}, seen
    assert {tol for _, tol in seen} == {1e-6}, seen


@pytest.mark.parametrize("value", ["1", "2"])
@pytest.mark.parametrize("command", ["ricci", "classify", "search"])
def test_a_tol_of_one_or_more_is_refused_by_its_range(tmp_path, capsys, command, value):
    # at tol >= 1 every decision would degenerate, so the flag itself is refused
    path = tmp_path / "m32.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(path))
    code, out, err = run_cli(capsys, command, str(path), "--tol", value)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --tol must be a positive finite number below 1, in (0, 1)"]


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


def test_derivations_solves_for_the_derivation_space_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = mlie.liealg.nullspace

    def counting(m, tol):
        calls.append(tol)
        return solve(m, tol)

    path = tmp_path / "ex8.json"
    run_cli(capsys, "catalog", "EX8", "-o", str(path))
    monkeypatch.setattr(mlie.liealg, "nullspace", counting)
    code, out, _ = run_cli(capsys, "derivations", str(path))
    assert code == 0
    assert "derivation space dimension: 12" in out
    assert "no nonzero-trace derivation found" in out
    assert len(calls) == 1


def test_verify_only_flatness(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "flatness")
    assert code == 0
    assert out.count("[PASS]") == 1
    assert "1/1 checks passed" in out


@pytest.mark.parametrize(
    "only, ran",
    [
        (["flatness, derivations"], ["flatness", "derivations"]),
        ([" examples ", "derivations ,"], ["examples", "derivations"]),
        (["examples,examples"], ["examples"]),
        (["derivations", "examples,derivations"], ["derivations", "examples"]),
    ],
)
def test_verify_only_strips_names_and_runs_each_once(only, ran, capsys):
    # whitespace around a name is no part of it, and a name given twice runs
    # once, where it first appears
    argv = [arg for tok in only for arg in ("--only", tok)]
    code, out, err = run_cli(capsys, "verify-paper", *argv)
    rows = out.splitlines()
    assert (code, err) == (0, "")
    assert [row.split()[1] for row in rows[:-1]] == ran
    assert rows[-1] == f"{len(ran)}/{len(ran)} checks passed"


def test_several_main_calls_build_the_parser_once(ex8_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    mlie.cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    try:
        for argv in (["ricci", str(ex8_file)], ["catalog", "--list"], ["ricci", str(ex8_file)]):
            assert run_cli(capsys, *argv)[0] == 0
    finally:
        mlie.cli._build_parser.cache_clear()  # drop the parser built under the spy
    assert built.count("mlie") == 1


def test_the_search_targets_are_the_search_module_s():
    # one list of targets: the parser's choices are search.TARGETS, in its order
    (subparsers,) = [
        action
        for action in mlie.cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    search = subparsers.choices["search"]
    (target,) = [action for action in search._actions if action.dest == "target"]
    assert target.choices == TARGETS and target.default == "ricci-flat"
    assert "{" + ",".join(TARGETS) + "}" in search.format_help()


def test_successive_main_calls_leak_no_state(capsys):
    # the parser is kept across calls, the parsed arguments are not: an
    # appended --only starts empty in every call
    for name in ("examples", "derivations"):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", name)
        rows = out.splitlines()
        assert code == 0
        assert len(rows) == 2 and rows[0].startswith(f"[PASS] {name} ")
        assert rows[1] == "1/1 checks passed"


def test_verify_unknown_check_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--only", "nonsense")
    assert (code, out) == (2, "")
    assert err == f"error: unknown checks: nonsense; known: {', '.join(CHECK_NAMES)}\n"


@pytest.mark.parametrize("only", [",", "", " , "])
def test_verify_with_no_check_selected_exit_2(only, capsys):
    # a verification that runs no check verifies nothing: not "0/0 checks passed"
    code, out, err = run_cli(capsys, "verify-paper", "--only", only)
    assert (code, out) == (2, "")
    assert err == f"error: no check selected; known: {', '.join(CHECK_NAMES)}\n"


def test_verify_absurd_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--only", "route-equivalence", "--tol", "1e-18"
    )
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
    assert "stop reason:   converged" in out
    assert "held null:     [0. 0. 1.]" in out  # L3_2's center, held null
    doc = json.loads(found.read_text())
    assert "metric" in doc


def test_search_writes_output_before_a_closed_stdout(tmp_path, capsys, close_stdout):
    # `mlie search … -o f.json | head -1`: the reader quits, the search does not
    src = tmp_path / "l32.json"
    found = tmp_path / "found.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    close_stdout()
    code = main(["search", str(src), "--signature", "1,2", "-o", str(found)])
    assert code == 0
    assert "metric" in json.loads(found.read_text())
    assert capsys.readouterr().err == ""


def test_search_on_a_closed_stdout_keeps_its_exit_1(tmp_path, capsys, close_stdout):
    src = tmp_path / "l43.json"
    run_cli(capsys, "catalog", "L4_3", "m43", "a=0", "b=0", "eps=1", "-o", str(src))
    close_stdout()
    assert main(["search", str(src), "--signature", "0,4", "--restarts", "2"]) == 1
    assert capsys.readouterr().err == ""


def test_verify_on_a_closed_stdout_keeps_its_exit_1(capsys, close_stdout):
    close_stdout()
    assert main(["verify-paper", "--tol", "1e-18"]) == 1
    assert capsys.readouterr().err == ""


def test_ricci_into_a_pipe_closed_by_its_reader(ex8_file):
    # `mlie ricci ex8.json | true` in a real process: the interpreter's own
    # last flush of stdout must stay quiet too
    src = str(Path(mlie.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mlie.cli", "ricci", str(ex8_file)],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_ricci_route_mismatch_exit_1(capsys, monkeypatch):
    # L5_8 with an ill-conditioned gram (cond 6.5e5, signature (2,3)), on
    # which the two Ricci routes once differed beyond the cross-check bound;
    # in the metric's frame they agree, and the verdict is NotEinstein
    path = str(DATA / "l58_route_mismatch.json")
    code, out, err = run_cli(capsys, "ricci", path)
    assert code == 0 and err == ""
    assert "NotEinstein" in out
    # routes forced apart: exit 1 with the one error line
    exact_q = mlie.curvature.q_operators
    monkeypatch.setattr(mlie.curvature, "q_operators", lambda s, eps: exact_q(s, eps) + 1.0)
    for _ in range(2):  # a second call in the same process fails the same way
        code, out, err = run_cli(capsys, "ricci", path)
        assert code == 1
        assert out == ""
        assert err == "error: internal Ricci routes disagree beyond cross-check bound\n"


#: the documented exit code of each base of the package's errors
DOCUMENTED_EXITS = (
    ((InvalidInput, UnknownName), 2),
    ((NotLie, NotNilpotent, NotApplicable), 3),
)
ERROR_CLASSES = sorted(
    (cls for _, cls in inspect.getmembers(mlie.errors, inspect.isclass)
     if cls.__module__ == mlie.errors.__name__),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_maps_to_its_documented_exit_code(error, ex8_file, capsys, monkeypatch):
    codes = [code for bases, code in DOCUMENTED_EXITS if issubclass(error, bases)]
    assert len(codes) == 1, f"{error.__name__} has no documented exit code"

    def raising(path, tol):
        raise error("boom")

    monkeypatch.setattr(mlie.cli, "_read_metric", raising)
    code, out, err = run_cli(capsys, "ricci", str(ex8_file))
    assert code == codes[0]
    assert out == ""
    assert len(err.splitlines()) == 1 and err.rstrip("\n").endswith("boom")
    assert "Traceback" not in err


def test_other_runtime_errors_are_not_taken_for_the_route_mismatch(ex8_file, monkeypatch):
    # exit 1 belongs to the Ricci cross-check's own RuntimeError only
    def raising(path, tol):
        raise RuntimeError("boom")

    monkeypatch.setattr(mlie.cli, "_read_metric", raising)
    with pytest.raises(RuntimeError, match="boom"):
        main(["ricci", str(ex8_file)])


def test_search_nonconvergence_exit_1(tmp_path, capsys):
    src = tmp_path / "l43.json"
    run_cli(capsys, "catalog", "L4_3", "m43", "a=0", "b=0", "eps=1", "-o", str(src))
    code, out, _ = run_cli(
        capsys, "search", str(src), "--signature", "0,4", "--restarts", "2"
    )
    assert code == 1
    assert "converged:     False" in out
    assert "held null" not in out  # a Euclidean search holds no null vector
    assert "hyperplane" not in out


def test_search_prints_the_held_hyperplane(tmp_path, capsys):
    # beside the null central vector z the search prints the 1-form α whose
    # kernel H = z^⊥ it held admissible: the winner's SearchResult.hyperplane
    src = tmp_path / "l43.json"
    run_cli(capsys, "catalog", "L4_3", "m43", "a=0", "b=0", "eps=1", "-o", str(src))
    code, out, _ = run_cli(capsys, "search", str(src), "--signature", "1,3", "--seed", "2")
    assert code == 0
    (line,) = [x for x in out.splitlines() if x.startswith("hyperplane α:  [")]
    printed = np.array(line.split("[", 1)[1].rstrip("]").split(), dtype=float)
    algebra = read_algebra(str(src), mlie.pseudolin.DEFAULT_TOL)[0]
    want = run_search(SearchSpec(algebra, signature=(1, 3), seed=2)).hyperplane
    assert np.abs(printed - want).max() <= 1e-8
    assert abs(printed @ algebra.center().basis[0]) <= 1e-8


def test_search_bad_signature_exit_2(tmp_path, capsys):
    src = tmp_path / "l32.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    code, _, err = run_cli(capsys, "search", str(src), "--signature", "banana")
    assert code == 2
    assert "signature" in err


@pytest.mark.parametrize(
    "flag, value, word",
    [
        ("--search-tol", "-1", "tol"),
        ("--max-iters", "-5", "max_iters"),
        ("--seed", "-1", "seed"),
        ("--tol", "inf", "positive finite"),
        ("--tol", "nan", "positive finite"),
    ],
)
def test_search_out_of_range_spec_exit_2(tmp_path, capsys, flag, value, word):
    src = tmp_path / "l32.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(src))
    code, out, err = run_cli(capsys, "search", str(src), flag, value)
    assert code == 2
    assert word in err and out == ""


def test_bool_dim_exit_2(tmp_path, capsys):
    src = tmp_path / "bool.json"
    src.write_text('{"dim": true}')
    code, _, err = run_cli(capsys, "ricci", str(src))
    assert code == 2
    assert "'dim'" in err


@pytest.mark.parametrize("brackets", ["null", "3", '{"i": 1}'])
def test_brackets_that_are_not_a_list_exit_2(tmp_path, capsys, brackets):
    src = tmp_path / "brackets.json"
    src.write_text(f'{{"dim": 2, "brackets": {brackets}, "metric": [[1, 0], [0, 1]]}}')
    code, out, err = run_cli(capsys, "ricci", str(src))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {src}: 'brackets' must be a list"]


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ricci", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error" in err


def test_tol_flag_loosens_verdict(tmp_path, capsys):
    # the flat m32 gram with entry [2,2] raised by 1e-7: NotEinstein at the
    # default verdict tolerance, flat/Ricci-flat when --tol is loosened to 1e-5
    found = tmp_path / "found.json"
    run_cli(capsys, "catalog", "L3_2", "m32", "alpha=1", "-o", str(found))
    doc = json.loads(found.read_text())
    doc["metric"][2][2] += 1e-7
    found.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "ricci", str(found))
    assert code == 0
    assert "NotEinstein" in out
    code, out, _ = run_cli(capsys, "ricci", str(found), "--tol", "1e-5")
    assert code == 0
    assert "NotEinstein" not in out
    assert "Flat" in out
