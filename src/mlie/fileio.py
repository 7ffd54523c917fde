"""JSON file formats for algebras and extension data.

Algebra files carry 1-based bracket indices with i < j:

    {"dim": 3,
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0}}],
     "metric": [[...], ...],        # optional, symmetric
     "comment": "..."}              # optional

Extension-data files:

    {"v_dim": 2, "K": [[...]], "D": [[...]], "mu": 0.0, "b": [...],
     "basis_change": [[...]],       # optional (written by decompose)
     "comment": "..."}              # optional

Numbers are emitted through the shortest round-trip float representation, so
write followed by read reproduces every value bit-exactly.
"""
from __future__ import annotations

import json
import math
import warnings
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .doubleext import ExtensionData
from .errors import InvalidInput
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInput(msg)


def _finite_number(x: Any, where: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), f"{where}: expected a number")
    v = float(x)
    _require(math.isfinite(v), f"{where}: value must be finite")
    return v


def algebra_to_dict(
    algebra: LieAlgebra, metric: Optional[Gram] = None, comment: Optional[str] = None
) -> Dict[str, Any]:
    n = algebra.n
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            row = algebra.c[i, j]
            coeffs = {str(k + 1): float(row[k]) for k in range(n) if row[k] != 0.0}
            if coeffs:
                brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    doc: Dict[str, Any] = {"dim": n, "brackets": brackets}
    if metric is not None:
        doc["metric"] = [[float(v) for v in row] for row in metric.mat]
    if comment is not None:
        doc["comment"] = comment
    return doc


def dict_to_algebra(doc: Any) -> Tuple[LieAlgebra, Optional[Gram], Optional[str]]:
    _require(isinstance(doc, dict), "top level: expected a JSON object")
    _require("dim" in doc, "missing field 'dim'")
    dim = doc["dim"]
    _require(isinstance(dim, int) and dim > 0, "'dim' must be a positive integer")
    known = {"dim", "brackets", "metric", "comment"}
    for key in doc:
        _require(key in known, f"unknown field {key!r}")

    c = np.zeros((dim, dim, dim))
    seen = set()
    for pos, entry in enumerate(doc.get("brackets", [])):
        where = f"brackets[{pos}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        for key in entry:
            _require(key in {"i", "j", "coeffs"}, f"{where}: unknown field {key!r}")
        i, j = entry.get("i"), entry.get("j")
        _require(isinstance(i, int) and isinstance(j, int), f"{where}: 'i' and 'j' must be integers")
        _require(1 <= i < j <= dim, f"{where}: need 1 <= i < j <= dim, got i={i} j={j}")
        _require((i, j) not in seen, f"{where}: duplicate bracket pair ({i}, {j})")
        seen.add((i, j))
        coeffs = entry.get("coeffs", {})
        _require(isinstance(coeffs, dict), f"{where}: 'coeffs' must be an object")
        for kstr, val in coeffs.items():
            try:
                k = int(kstr)
            except (TypeError, ValueError):
                raise InvalidInput(f"{where}: coefficient key {kstr!r} is not an index") from None
            _require(1 <= k <= dim, f"{where}: coefficient index {k} out of range")
            c[i - 1, j - 1, k - 1] = _finite_number(val, f"{where}.coeffs[{kstr}]")
    algebra = LieAlgebra(dim, c)

    metric = None
    if "metric" in doc:
        raw = doc["metric"]
        _require(
            isinstance(raw, list) and len(raw) == dim and all(
                isinstance(row, list) and len(row) == dim for row in raw
            ),
            f"'metric' must be a {dim}x{dim} matrix",
        )
        mat = np.array(
            [[_finite_number(v, f"metric[{r}][{s}]") for s, v in enumerate(row)]
             for r, row in enumerate(raw)]
        )
        asym = float(np.abs(mat - mat.T).max(initial=0.0))
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        _require(asym <= DEFAULT_TOL * scale, f"'metric' is not symmetric (defect {asym:.3e})")
        metric = Gram(mat)

    comment = doc.get("comment")
    if comment is not None:
        _require(isinstance(comment, str), "'comment' must be a string")
    return algebra, metric, comment


def extension_to_dict(
    data: ExtensionData,
    basis_change: Optional[np.ndarray] = None,
    comment: Optional[str] = None,
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "v_dim": data.v_dim,
        "K": [[float(v) for v in row] for row in data.K],
        "D": [[float(v) for v in row] for row in data.D],
        "mu": float(data.mu),
        "b": [float(v) for v in data.b],
    }
    if basis_change is not None:
        doc["basis_change"] = [[float(v) for v in row] for row in basis_change]
    if comment is not None:
        doc["comment"] = comment
    return doc


def dict_to_extension(doc: Any) -> Tuple[ExtensionData, Optional[np.ndarray], Optional[str]]:
    _require(isinstance(doc, dict), "top level: expected a JSON object")
    known = {"v_dim", "K", "D", "mu", "b", "basis_change", "comment"}
    for key in doc:
        _require(key in known, f"unknown field {key!r}")
    _require("v_dim" in doc, "missing field 'v_dim'")
    v = doc["v_dim"]
    _require(isinstance(v, int) and v >= 0, "'v_dim' must be a nonnegative integer")

    def matrix(name: str, rows: int, cols: int) -> np.ndarray:
        raw = doc.get(name)
        _require(
            isinstance(raw, list) and len(raw) == rows and all(
                isinstance(row, list) and len(row) == cols for row in raw
            ),
            f"'{name}' must be a {rows}x{cols} matrix",
        )
        return np.array(
            [[_finite_number(x, f"{name}[{r}][{s}]") for s, x in enumerate(row)]
             for r, row in enumerate(raw)]
        )

    k = matrix("K", v, v)
    d = matrix("D", v, v)
    skew_defect = float(np.abs(k + k.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(k).max(initial=0.0)))
    if skew_defect > DEFAULT_TOL * scale:
        warnings.warn(f"'K' had skew-symmetry defect {skew_defect:.3e}; antisymmetrized")
    mu = _finite_number(doc.get("mu", 0.0), "mu")
    braw = doc.get("b", [0.0] * v)
    _require(isinstance(braw, list) and len(braw) == v, f"'b' must be a list of length {v}")
    b = np.array([_finite_number(x, f"b[{r}]") for r, x in enumerate(braw)])

    basis_change = None
    if "basis_change" in doc:
        basis_change = matrix("basis_change", v + 2, v + 2)
    comment = doc.get("comment")
    if comment is not None:
        _require(isinstance(comment, str), "'comment' must be a string")
    return ExtensionData(v, k, d, mu=mu, b=b), basis_change, comment


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidInput(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None


def read_algebra(path: str) -> Tuple[LieAlgebra, Optional[Gram], Optional[str]]:
    try:
        return dict_to_algebra(_load_json(path))
    except InvalidInput as err:
        if str(err).startswith(path):
            raise
        raise InvalidInput(f"{path}: {err}") from None


def write_algebra(
    path: str,
    algebra: LieAlgebra,
    metric: Optional[Gram] = None,
    comment: Optional[str] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra, metric, comment), fh, indent=2)
        fh.write("\n")


def read_extension(path: str) -> Tuple[ExtensionData, Optional[np.ndarray], Optional[str]]:
    try:
        return dict_to_extension(_load_json(path))
    except InvalidInput as err:
        if str(err).startswith(path):
            raise
        raise InvalidInput(f"{path}: {err}") from None


def write_extension(
    path: str,
    data: ExtensionData,
    basis_change: Optional[np.ndarray] = None,
    comment: Optional[str] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(extension_to_dict(data, basis_change, comment), fh, indent=2)
        fh.write("\n")
