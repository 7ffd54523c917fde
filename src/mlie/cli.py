"""Command-line front end.

Subcommands: ricci, catalog, double-extend, decompose, verify-paper,
derivations, search, classify.  Exit codes are a stable contract:

* 0 — success
* 1 — verification failure (failing checks, non-converged search, the two
  Ricci routes disagree)
* 2 — invalid input (parse errors, bad parameters, degenerate metrics)
* 3 — not applicable (construction preconditions unmet, no isotropic
  central vector)

A closed stdout keeps the command's exit code and writes nothing to stderr.

The ``--tol`` flag, a number in (0, 1), overrides both default
tolerances: 1e-8 for verdicts, 1e-9 for the algebra read from the file, which
is read at it (its metric's symmetry too) and takes Jacobi and every rank,
degeneracy and inertia decision, its metric's and its subspaces' too, at it;
so ``search --tol`` reaches all of these, and convergence stays at 1e-8.
``catalog`` decides nothing numerically and takes no ``--tol``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .catalog import (
    ALGEBRA_NAMES,
    BRACKET_TABLES,
    DERIVATION_TABLE,
    EXAMPLE_TIMELIKE_INDEX,
    METRIC_VARIANTS,
    make_algebra,
    make_metric,
    table1_derivation,
)
from .curvature import VERDICT_TOL, CurvatureReport, MetricLieAlgebra
from .doubleext import decompose, extend
from .errors import InvalidInput, NotApplicable, NotLie, NotNilpotent, UnknownName, is_route_mismatch
from .fileio import (
    algebra_to_dict,
    extension_to_dict,
    read_algebra,
    read_extension,
    write_algebra,
    write_json,
)
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram, classify_subspace
from .search import STOP_REASONS, TARGETS, SearchSpec, run_search
from .verify import CHECK_NAMES, format_row, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_APPLICABLE = 3


def _fmt(a: np.ndarray) -> str:
    return np.array2string(np.asarray(a), max_line_width=100, suppress_small=False)


def _tols(args: argparse.Namespace) -> Tuple[float, float]:
    """(linear-algebra tol, verdict tol) after a --tol override.  A tol of 1
    or more is refused: its cutoff tol·max(1, largest) reaches every singular
    value of an orthonormal basis, so every decision would come out degenerate."""
    tol = args.tol
    if tol is None:
        return DEFAULT_TOL, VERDICT_TOL
    if not 0.0 < tol < 1.0:  # False for NaN too
        raise InvalidInput("--tol must be a positive finite number below 1, in (0, 1)")
    return tol, tol


def _read_lie(path: str, tol: float) -> Tuple[LieAlgebra, Optional[Gram]]:
    """Algebra, built at tol, and metric of an algebra file; NotLie when Jacobi fails."""
    algebra, metric, _ = read_algebra(path, tol)
    return algebra.require_jacobi(), metric


def _read_metric(path: str, tol: float) -> MetricLieAlgebra:
    """The metric algebra of an algebra file; NotLie when Jacobi fails,
    InvalidInput when the file has no metric."""
    algebra, metric = _read_lie(path, tol)
    if metric is None:
        raise InvalidInput(f"{path}: this command needs a 'metric' field in the file")
    return MetricLieAlgebra(algebra, metric)


def _print_report(report: CurvatureReport) -> None:
    sig = report.signature
    print(f"verdict:           {report.verdict.value}")
    lam = "n/a" if report.einstein_lambda is None else repr(report.einstein_lambda)
    print(f"einstein lambda:   {lam}")
    print(f"einstein residual: {report.einstein_residual:.6e}")
    print(f"scalar curvature:  {report.scalar_curvature!r}")
    print(f"signature:         (minus={sig.minus}, plus={sig.plus}, null={sig.null})")
    print(f"flat:              {report.flat}")
    print("ricci operator:")
    print(_fmt(report.ricci_operator))
    print("ricci form:")
    print(_fmt(report.ricci_form))


def _emit(out: Optional[str], doc: Dict[str, Any]) -> None:
    """Print doc as indented JSON, or write it in the same layout to the file out."""
    if out is None:
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        write_json(out, doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ricci(args: argparse.Namespace) -> int:
    lin_tol, verdict_tol = _tols(args)
    m = _read_metric(args.file, lin_tol)
    _print_report(m.einstein_classify(verdict_tol))
    return EXIT_OK


def _parse_params(tokens: List[str]) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise InvalidInput(f"expected NAME=VALUE, got {tok!r}")
        if key in params:
            raise InvalidInput(f"parameter {key} given twice")
        try:
            params[key] = float(value)
        except ValueError:
            raise InvalidInput(f"parameter {key}: {value!r} is not a number") from None
    return params


def _catalog_list() -> None:
    for name in ALGEBRA_NAMES:
        variants = [v for v in METRIC_VARIANTS.values() if v.algebra == name]
        dim = BRACKET_TABLES[name][0]
        if name in EXAMPLE_TIMELIKE_INDEX:
            print(f"{name:6} dim {dim}  orthonormal metric built in (no variants)")
        elif variants:
            for v in variants:
                pars = ", ".join(v.params)
                print(f"{name:6} dim {dim}  variant {v.name}({pars})  where {v.constraints}")
        else:
            print(f"{name:6} dim {dim}  (no metric variant; algebra only)")


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        _catalog_list()
        return EXIT_OK
    if args.name is None:
        raise InvalidInput("catalog needs a NAME (or --list)")
    tokens = list(args.params)
    variant = args.variant
    if variant is not None and "=" in variant:  # no variant given, first token was a param
        tokens.insert(0, variant)
        variant = None
    params = _parse_params(tokens)
    m = make_metric(args.name, variant, params)
    parts = [args.name] + ([variant] if variant else [])
    if params:
        parts.append(", ".join(f"{k}={v:g}" for k, v in sorted(params.items())))
    comment = "catalog " + " ".join(parts) + "; irrational coefficients are binary64 roundings"
    _emit(args.output, algebra_to_dict(m.algebra, m.gram, comment))
    return EXIT_OK


def cmd_double_extend(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    data, _, _ = read_extension(args.file)
    m = extend(data, tol=lin_tol)
    comment = f"double extension of a {data.v_dim}-dimensional Euclidean core (mu={data.mu:g})"
    _emit(args.output, algebra_to_dict(m.algebra, m.gram, comment))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    lin_tol, verdict_tol = _tols(args)
    m = _read_metric(args.file, lin_tol)
    dec = decompose(m, verdict_tol)
    if dec is None:
        print("no isotropic central vector: the center is definite, nothing to decompose")
        return EXIT_NOT_APPLICABLE
    comment = "basis_change columns are (e, f_1.., ebar) in input coordinates"
    _emit(args.output, extension_to_dict(dec.data, dec.basis_change, comment))
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    _, verdict_tol = _tols(args)
    names = None
    if args.only:
        names = []
        for tok in args.only:
            names.extend(x for x in map(str.strip, tok.split(",")) if x)
    results = run_checks(names, tol=verdict_tol)
    for r in results:
        print(format_row(r))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_derivations(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    algebra, _ = _read_lie(args.file, lin_tol)
    print(f"derivation space dimension: {len(algebra.derivation_space())}")
    for name, diag in DERIVATION_TABLE.items():
        if algebra.n == len(diag) and np.array_equal(algebra.c, make_algebra(name).c):
            der = table1_derivation(name)
            print(f"diagonal derivation of catalog entry {name} (trace {np.trace(der):g}):")
            print(_fmt(der))
            return EXIT_OK
    found = algebra.find_nonzero_trace_derivation()
    if found is None:
        print("no nonzero-trace derivation found (derivation algebra is traceless)")
    else:
        print(f"nonzero-trace derivation (trace {np.trace(found):.12g}):")
        print(_fmt(found))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    algebra, _ = _read_lie(args.file, lin_tol)
    try:
        minus, plus = (int(x) for x in args.signature.split(","))
    except ValueError:
        raise InvalidInput(f"--signature must be MINUS,PLUS, got {args.signature!r}") from None
    spec = SearchSpec(
        algebra,
        target=args.target,
        signature=(minus, plus),
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.search_tol,
    )
    result = run_search(spec)
    if result.best_gram is not None and args.output is not None:
        write_algebra(
            args.output,
            algebra,
            result.best_gram,
            comment=(
                f"search target={args.target} signature=({minus},{plus}) "
                f"seed={args.seed} residual={result.residual:.6e}"
            ),
        )
    counts = ", ".join(f"{reason} {result.stop_reasons.count(reason)}" for reason in STOP_REASONS)
    print(f"converged:     {result.converged}")
    print(f"residual:      {result.residual:.6e}")
    print(f"iterations:    {result.iterations}")
    print(f"restart index: {result.restart_index}")
    print(f"stop reason:   {result.stop_reasons[result.restart_index]}")
    print(f"stop reasons:  {counts}")
    if result.central_vector is not None:
        print(f"held null:     {_fmt(result.central_vector)}")
        print(f"hyperplane α:  {_fmt(result.hyperplane)}")
    if result.best_gram is not None:
        print("gram matrix:")
        print(_fmt(result.best_gram.mat))
    return EXIT_OK if result.converged else EXIT_VERIFY_FAILED


def cmd_classify(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    m = _read_metric(args.file, lin_tol)
    algebra, gram = m.algebra, m.gram
    sig = m.signature()
    print(f"dimension: {algebra.n}")
    print(f"signature: (minus={sig.minus}, plus={sig.plus}, null={sig.null})")
    print(f"nilpotent: {algebra.is_nilpotent()}")
    wanted = args.subspace
    if wanted in ("center", "both"):
        center = algebra.center()
        cls = classify_subspace(gram, center)
        print(f"center: dim {center.dim} — {cls}")
    if wanted in ("derived", "both"):
        derived = algebra.derived_ideal()
        cls = classify_subspace(gram, derived)
        print(f"derived ideal: dim {derived.dim} — {cls}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first main call and kept for the process:
    parse_args reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="mlie",
        description=(
            "Curvature of left-invariant pseudo-Riemannian metrics at the "
            "Lie-algebra level: Ricci verdicts, the double-extension "
            "construction and the low-dimensional Ricci-flat catalog."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override both default tolerances (verdict 1e-8; 1e-9 for the algebra and its "
        "metric's rank, degeneracy and inertia decisions); a number in (0, 1)",
    )

    p = sub.add_parser("ricci", parents=[tol], help="curvature report for an algebra+metric file")
    p.add_argument("file")
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("catalog", help="write a catalog algebra (with metric) as JSON")
    p.add_argument("name", nargs="?", help="catalog algebra name, e.g. L3_2 or EX8")
    p.add_argument("variant", nargs="?", help="metric variant name, e.g. m32")
    p.add_argument("params", nargs="*", help="variant parameters as NAME=VALUE")
    p.add_argument("--list", action="store_true", help="list all names, variants, constraints")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("double-extend", parents=[tol], help="extend Euclidean (K, D, mu, b) data")
    p.add_argument("file", help="extension-data JSON file")
    p.add_argument("-o", "--output", help="output algebra file (default: stdout)")
    p.set_defaults(func=cmd_double_extend)

    p = sub.add_parser(
        "decompose",
        parents=[tol],
        help="express a Ricci-flat nilpotent Lorentzian metric as a double extension",
    )
    p.add_argument("file", help="algebra+metric JSON file")
    p.add_argument("-o", "--output", help="output extension-data file (default: stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-paper", parents=[tol], help="run the acceptance checks")
    p.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named checks (repeatable, comma-separable; a name given "
        "twice runs once); known: "
        + ", ".join(CHECK_NAMES),
    )
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser(
        "derivations", parents=[tol], help="derivation space and a nonzero-trace derivation"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser(
        "search",
        parents=[tol],
        help="random-restart Levenberg–Marquardt search, in the bracket picture, "
        "for Einstein/Ricci-flat grams",
    )
    p.add_argument("file", help="algebra JSON file (metric field ignored)")
    p.add_argument("--target", choices=TARGETS, default="ricci-flat")
    p.add_argument("--signature", default="1,2", metavar="MINUS,PLUS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument(
        "--search-tol",
        type=float,
        default=1e-6,
        help="convergence threshold on the found gram's residual ‖Ric − λ̂·Id‖_F; the gram must "
        "also classify as the target at the default verdict tolerance 1e-8",
    )
    p.add_argument("-o", "--output", help="write algebra+found metric here when converged")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "classify", parents=[tol], help="degeneracy class of the center / derived ideal"
    )
    p.add_argument("file", help="algebra+metric JSON file")
    p.add_argument("--subspace", choices=("center", "derived", "both"), default="both")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = io.StringIO()  # written last, so that a closed stdout cannot change the exit code
    try:
        with contextlib.redirect_stdout(out):
            return args.func(args)
    except (NotApplicable, NotLie, NotNilpotent) as err:
        print(f"not applicable: {err}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except RuntimeError as err:  # the Ricci cross-check; any other one is a bug
        if not is_route_mismatch(err):
            raise
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (InvalidInput, UnknownName, OSError) as err:
        msg = str(err).strip("'\"") if isinstance(err, UnknownName) else err
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        try:
            sys.stdout.write(out.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:  # the reader quit early: keep the interpreter's last flush quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
