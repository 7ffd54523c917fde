"""Command-line front end.

Subcommands: ricci, catalog, double-extend, decompose, verify-paper,
derivations, search, classify.  Exit codes are a stable contract:

* 0 — success
* 1 — verification failure (failing checks, non-converged search)
* 2 — invalid input (parse errors, bad parameters, degenerate metrics)
* 3 — not applicable (construction preconditions unmet, no isotropic
  central vector)

The ``--tol`` flag (fallback: the ``MLIE_TOL`` environment variable)
overrides both default tolerances: 1e-8 for verdicts, 1e-9 for rank and
degeneracy decisions.
"""
from __future__ import annotations

import argparse
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
from .errors import InvalidInput, NotApplicable, NotLie, NotNilpotent, UnknownName
from .fileio import (
    algebra_to_dict,
    extension_to_dict,
    read_algebra,
    read_extension,
    write_algebra,
    write_extension,
)
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram, classify_subspace
from .search import SearchSpec, run_search
from .verify import CHECK_NAMES, format_row, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_APPLICABLE = 3


def _fmt(a: np.ndarray) -> str:
    return np.array2string(np.asarray(a), max_line_width=100, suppress_small=False)


def _tols(args: argparse.Namespace) -> Tuple[float, float]:
    """(linear-algebra tol, verdict tol) after --tol / MLIE_TOL overrides."""
    tol = args.tol
    if tol is None:
        env = os.environ.get("MLIE_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                raise InvalidInput(f"MLIE_TOL is not a number: {env!r}") from None
    if tol is None:
        return DEFAULT_TOL, VERDICT_TOL
    if not tol > 0:
        raise InvalidInput("--tol must be positive")
    return tol, tol


def _read_lie(path: str, tol: float) -> Tuple[LieAlgebra, Optional[Gram]]:
    """Algebra and metric of an algebra file; NotLie when Jacobi fails."""
    algebra, metric, _ = read_algebra(path)
    return algebra.require_jacobi(tol), metric


def _require_metric(metric: Optional[Gram], path: str) -> Gram:
    if metric is None:
        raise InvalidInput(f"{path}: this command needs a 'metric' field in the file")
    return metric


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


def _print_json(doc: Dict[str, Any]) -> None:
    json.dump(doc, sys.stdout, indent=2)
    print()


def _emit_algebra(
    out: Optional[str], algebra: LieAlgebra, metric: Optional[Gram], comment: Optional[str]
) -> None:
    if out is None:
        _print_json(algebra_to_dict(algebra, metric, comment))
    else:
        write_algebra(out, algebra, metric, comment)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ricci(args: argparse.Namespace) -> int:
    lin_tol, verdict_tol = _tols(args)
    algebra, metric = _read_lie(args.file, lin_tol)
    m = MetricLieAlgebra(algebra, _require_metric(metric, args.file), tol=lin_tol)
    _print_report(m.einstein_classify(verdict_tol))
    return EXIT_OK


def _parse_params(tokens: List[str]) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise InvalidInput(f"expected NAME=VALUE, got {tok!r}")
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
    parts = [args.name]
    if args.variant:
        parts.append(args.variant)
    if params:
        parts.append(", ".join(f"{k}={v:g}" for k, v in sorted(params.items())))
    comment = "catalog " + " ".join(parts) + "; irrational coefficients are binary64 roundings"
    _emit_algebra(args.output, m.algebra, m.gram, comment)
    return EXIT_OK


def cmd_double_extend(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    data, _, _ = read_extension(args.file)
    m = extend(data, tol=lin_tol)
    comment = f"double extension of a {data.v_dim}-dimensional Euclidean core (mu={data.mu:g})"
    _emit_algebra(args.output, m.algebra, m.gram, comment)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    lin_tol, verdict_tol = _tols(args)
    algebra, metric = _read_lie(args.file, lin_tol)
    m = MetricLieAlgebra(algebra, _require_metric(metric, args.file), tol=lin_tol)
    dec = decompose(m, tol=lin_tol, verdict_tol=verdict_tol)
    if dec is None:
        print("no isotropic central vector: the center is definite, nothing to decompose")
        return EXIT_NOT_APPLICABLE
    comment = "basis_change columns are (e, f_1.., ebar) in input coordinates"
    if args.output is None:
        _print_json(extension_to_dict(dec.data, dec.basis_change, comment))
    else:
        write_extension(args.output, dec.data, dec.basis_change, comment)
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    _, verdict_tol = _tols(args)
    names = None
    if args.only:
        names = []
        for tok in args.only:
            names.extend(x for x in tok.split(",") if x)
    try:
        results = run_checks(names, tol=verdict_tol)
    except KeyError as err:
        raise InvalidInput(str(err).strip("'\"")) from None
    for r in results:
        print(format_row(r))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_derivations(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    algebra, _ = _read_lie(args.file, lin_tol)
    basis = algebra.derivation_space(lin_tol)
    print(f"derivation space dimension: {len(basis)}")
    for name, diag in DERIVATION_TABLE.items():
        if algebra.n == len(diag) and np.array_equal(algebra.c, make_algebra(name).c):
            der = table1_derivation(name)
            print(f"diagonal derivation of catalog entry {name} (trace {der.trace:g}):")
            print(_fmt(der.matrix))
            return EXIT_OK
    found = algebra.find_nonzero_trace_derivation(lin_tol)
    if found is None:
        print("no nonzero-trace derivation found (derivation algebra is traceless)")
    else:
        print(f"nonzero-trace derivation (trace {found.trace:.12g}):")
        print(_fmt(found.matrix))
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
        step0=args.step0,
        tol=args.search_tol,
    )
    result = run_search(spec)
    print(f"converged:     {result.converged}")
    print(f"residual:      {result.residual:.6e}")
    print(f"iterations:    {result.iterations}")
    print(f"restart index: {result.restart_index}")
    if result.best_gram is not None:
        print("gram matrix:")
        print(_fmt(result.best_gram.mat))
        if args.output is not None:
            write_algebra(
                args.output,
                algebra,
                result.best_gram,
                comment=(
                    f"search target={args.target} signature=({minus},{plus}) "
                    f"seed={args.seed} residual={result.residual:.6e}"
                ),
            )
    return EXIT_OK if result.converged else EXIT_VERIFY_FAILED


def cmd_classify(args: argparse.Namespace) -> int:
    lin_tol, _ = _tols(args)
    algebra, metric = _read_lie(args.file, lin_tol)
    gram = _require_metric(metric, args.file)
    m = MetricLieAlgebra(algebra, gram, tol=lin_tol)
    sig = m.signature(lin_tol)
    print(f"dimension: {algebra.n}")
    print(f"signature: (minus={sig.minus}, plus={sig.plus}, null={sig.null})")
    print(f"nilpotent: {algebra.is_nilpotent(lin_tol)}")
    wanted = args.subspace
    if wanted in ("center", "both"):
        center = algebra.center(lin_tol)
        cls = classify_subspace(gram, center, lin_tol)
        print(f"center: dim {center.dim} — {cls}")
    if wanted in ("derived", "both"):
        derived = algebra.derived_ideal(lin_tol)
        cls = classify_subspace(gram, derived, lin_tol)
        print(f"derived ideal: dim {derived.dim} — {cls}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlie",
        description=(
            "Curvature of left-invariant pseudo-Riemannian metrics at the "
            "Lie-algebra level: Ricci verdicts, the double-extension "
            "construction and the low-dimensional Ricci-flat catalog."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="override both default tolerances (verdict 1e-8, linear algebra 1e-9); "
            "falls back to the MLIE_TOL environment variable",
        )

    p = sub.add_parser("ricci", help="curvature report for an algebra+metric file")
    p.add_argument("file")
    add_tol(p)
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("catalog", help="write a catalog algebra (with metric) as JSON")
    p.add_argument("name", nargs="?", help="catalog algebra name, e.g. L3_2 or EX8")
    p.add_argument("variant", nargs="?", help="metric variant name, e.g. m32")
    p.add_argument("params", nargs="*", help="variant parameters as NAME=VALUE")
    p.add_argument("--list", action="store_true", help="list all names, variants, constraints")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    add_tol(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("double-extend", help="extend Euclidean (K, D, mu, b) data")
    p.add_argument("file", help="extension-data JSON file")
    p.add_argument("-o", "--output", help="output algebra file (default: stdout)")
    add_tol(p)
    p.set_defaults(func=cmd_double_extend)

    p = sub.add_parser(
        "decompose", help="express a Ricci-flat nilpotent Lorentzian metric as a double extension"
    )
    p.add_argument("file", help="algebra+metric JSON file")
    p.add_argument("-o", "--output", help="output extension-data file (default: stdout)")
    add_tol(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-paper", help="run the acceptance checks")
    p.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named checks (repeatable, comma-separable); known: "
        + ", ".join(CHECK_NAMES),
    )
    add_tol(p)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("derivations", help="derivation space and a nonzero-trace derivation")
    p.add_argument("file")
    add_tol(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("search", help="random-restart descent for Einstein/Ricci-flat grams")
    p.add_argument("file", help="algebra JSON file (metric field ignored)")
    p.add_argument("--target", choices=("ricci-flat", "einstein"), default="ricci-flat")
    p.add_argument("--signature", default="1,2", metavar="MINUS,PLUS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--step0", type=float, default=0.05)
    p.add_argument(
        "--search-tol", type=float, default=1e-6, help="convergence threshold on the residual"
    )
    p.add_argument("-o", "--output", help="write algebra+found metric here when converged")
    add_tol(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", help="degeneracy class of the center / derived ideal")
    p.add_argument("file", help="algebra+metric JSON file")
    p.add_argument("--subspace", choices=("center", "derived", "both"), default="both")
    add_tol(p)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotApplicable, NotLie, NotNilpotent) as err:
        print(f"not applicable: {err}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (InvalidInput, UnknownName) as err:
        msg = str(err).strip("'\"") if isinstance(err, UnknownName) else err
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
