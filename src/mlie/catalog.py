"""Executable catalog: the nilpotent Lie algebras of dimension at most five
that carry Ricci-flat Lorentzian metrics, their classified metric families,
and three higher-dimensional examples.

Basis indices in bracket tables and gram entries are 1-based, matching the
usual presentation of these algebras.  A gram entry listed for a pair (i, j)
with i ≠ j is the value of ⟨e_i, e_j⟩ itself (it lands in both symmetric
slots of the matrix); this convention was pinned down by checking that the
resulting metrics are Ricci-flat.
"""
from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .curvature import MetricLieAlgebra
from .errors import BadParams, DegenerateGram, InvalidInput, UnknownName
from .liealg import LieAlgebra
from .pseudolin import Gram, _as_float_array

_SQ = math.sqrt

#: name -> (dimension, {(i, j): {k: coeff}} with 1-based indices)
BRACKET_TABLES: Dict[str, Tuple[int, Dict[Tuple[int, int], Dict[int, float]]]] = {
    "L3_2": (3, {(1, 2): {3: 1.0}}),
    "L4_2": (4, {(1, 2): {3: 1.0}}),
    "L4_3": (4, {(1, 2): {3: 1.0}, (1, 3): {4: 1.0}}),
    "L5_2": (5, {(1, 2): {3: 1.0}}),
    "L5_3": (5, {(1, 2): {3: 1.0}, (1, 3): {4: 1.0}}),
    "L5_4": (5, {(1, 2): {5: 1.0}, (3, 4): {5: 1.0}}),
    "L5_5": (5, {(1, 2): {3: 1.0}, (1, 3): {5: 1.0}, (2, 4): {5: 1.0}}),
    "L5_6": (5, {(1, 2): {3: 1.0}, (1, 3): {4: 1.0}, (1, 4): {5: 1.0}, (2, 3): {5: 1.0}}),
    "L5_7": (5, {(1, 2): {3: 1.0}, (1, 3): {4: 1.0}, (1, 4): {5: 1.0}}),
    "L5_8": (5, {(1, 2): {4: 1.0}, (1, 3): {5: 1.0}}),
    "L5_9": (5, {(1, 2): {3: 1.0}, (1, 3): {4: 1.0}, (2, 3): {5: 1.0}}),
    "EX6": (
        6,
        {
            (1, 3): {6: 1.0},
            (1, 5): {6: 1.0},
            (2, 3): {6: -1.0},
            (2, 4): {6: 1.0},
            (3, 4): {1: 1.0},
            (3, 5): {2: 1.0},
            (4, 5): {1: 1.0, 2: 1.0},
        },
    ),
    "EX7": (
        7,
        {
            (1, 3): {7: _SQ(2.0)},
            (2, 4): {7: _SQ(2.0)},
            (4, 5): {1: -1.0},
            (4, 6): {1: -1.0},
            (3, 5): {2: -1.0},
            (3, 6): {2: -1.0},
        },
    ),
    "EX8": (
        8,
        {
            (1, 2): {3: -4.0 * _SQ(3.0)},
            (1, 3): {4: _SQ(5.0 / 2.0)},
            (1, 4): {8: -2.0 * _SQ(3.0)},
            (1, 5): {6: 3.0 * _SQ(7.0 / 2.0)},
            (1, 6): {7: -4.0 * _SQ(2.0)},
            (2, 3): {5: -_SQ(5.0 / 2.0)},
            (2, 4): {6: -3.0 * _SQ(7.0 / 2.0)},
            (2, 5): {7: -2.0 * _SQ(3.0)},
            (2, 6): {8: -4.0 * _SQ(2.0)},
            (3, 4): {7: -_SQ(21.0)},
            (3, 5): {8: -_SQ(21.0)},
        },
    ),
}

#: diagonal derivations with nonzero trace, one per algebra of dim <= 5
DERIVATION_TABLE: Dict[str, Tuple[float, ...]] = {
    "L3_2": (1, 0, 1),
    "L4_2": (1, 0, 1, 0),
    "L4_3": (-1, 2, 1, 0),
    "L5_2": (1, 0, 1, 0, 0),
    "L5_3": (-1, 2, 1, 0, 0),
    "L5_4": (1, 0, 1, 0, 1),
    "L5_5": (1, 0, 1, 2, 2),
    "L5_6": (1, 2, 3, 4, 5),
    "L5_7": (1, -2, -1, 0, 1),
    "L5_8": (1, -1, 0, 0, 1),
    "L5_9": (2, -1, 1, 3, 0),
}

ALGEBRA_NAMES = tuple(BRACKET_TABLES)


def _build_algebra(name: str) -> LieAlgebra:
    dim, table = BRACKET_TABLES[name]
    zero_based = {
        (i - 1, j - 1): {k - 1: v for k, v in coeffs.items()}
        for (i, j), coeffs in table.items()
    }
    return LieAlgebra.from_brackets(dim, zero_based)


#: one frozen algebra per name, shared by every caller and every metric built
#: on it, so what it computes about itself is computed once
_ALGEBRAS: Dict[str, LieAlgebra] = {name: _build_algebra(name) for name in BRACKET_TABLES}


def make_algebra(name: str) -> LieAlgebra:
    """The catalog algebra for one of the known names: the same shared,
    frozen instance on every call."""
    try:
        return _ALGEBRAS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownName(f"unknown catalog algebra {name!r}") from None


def table1_derivation(name: str) -> np.ndarray:
    """The listed diagonal nonzero-trace derivation for a dim <= 5 algebra, as
    a read-only matrix."""
    try:
        diag = DERIVATION_TABLE[name]
    except (KeyError, TypeError):
        raise UnknownName(f"no listed derivation for {name!r}") from None
    der = np.diag(np.asarray(diag, dtype=float))
    der.flags.writeable = False
    return der


# -- metric variants -----------------------------------------------------
#
# A variant's build takes one parameter set, as floats, and returns its
# gram's slots {(i, j): value} with i <= j, refusing a set outside the
# variant's constraints; _variant_grams writes the slots of a stack of sets.


def _need_nonzero(params: Dict[str, float], key: str) -> float:
    v = params[key]
    if v == 0.0:
        raise BadParams(f"parameter {key} must be nonzero")
    return v


def _need_eps(params: Dict[str, float]) -> float:
    v = params["eps"]
    if v not in (1.0, -1.0, 1, -1):
        raise BadParams("parameter eps must be +1 or -1")
    return float(v)


def _need_open_unit(params: Dict[str, float], key: str) -> float:
    v = params[key]
    if not abs(v) < 1.0:
        raise BadParams(f"parameter {key} must satisfy |{key}| < 1")
    return v


def _m32(p):
    alpha = p["alpha"]
    if not alpha > 0.0:
        raise BadParams("parameter alpha must be positive")
    return {(1, 3): alpha, (2, 2): 1.0}


def _m42(p):
    alpha = _need_nonzero(p, "alpha")
    a = _need_open_unit(p, "a")
    return {(1, 3): alpha, (2, 2): 1.0, (4, 4): 1.0, (2, 4): a}


def _m43(p):
    a, b, eps = p["a"], p["b"], _need_eps(p)
    return {(1, 1): 1.0, (1, 2): a, (2, 2): a * a + b * b, (2, 3): b, (2, 4): eps, (3, 3): 1.0}


def _m52(p):
    alpha = _need_nonzero(p, "alpha")
    a = _need_open_unit(p, "a")
    b = _need_open_unit(p, "b")
    return {
        (1, 3): alpha,
        (2, 2): 1.0,
        (4, 4): 1.0,
        (5, 5): 1.0,
        (2, 4): a,
        (2, 5): b,
        (4, 5): a * b,
    }


def _m53(p):
    a, b, x, eps = p["a"], p["b"], p["x"], _need_eps(p)
    return {
        (1, 1): 1.0,
        (1, 2): a,
        (2, 2): a * a + b * b,
        (2, 3): b,
        (2, 4): eps * _SQ(x * x + 1.0),
        (3, 3): 1.0 + x * x,
        (3, 5): -x,
        (5, 5): 1.0,
    }


def _m551(p):
    a, b, y = p["a"], p["b"], p["y"]
    x = _need_nonzero(p, "x")
    rho = _need_nonzero(p, "rho")
    return {
        (1, 1): a * a + b * b,
        (1, 2): a / rho,
        (1, 4): rho * (b - a * y / x),
        (1, 5): _SQ(x * x + y * y),
        (2, 2): rho**-2,
        (2, 4): -y / x,
        (3, 3): x * x / rho**2,
        (4, 4): rho * rho * (1.0 + (y / x) ** 2),
    }


def _m552(p):
    a, b, x, eps = p["a"], p["b"], p["x"], _need_eps(p)
    rho = _need_nonzero(p, "rho")
    return {
        (1, 1): 1.0,
        (1, 2): b,
        (2, 2): a * a + b * b,
        (2, 3): a,
        (2, 5): eps * _SQ(x * x + 1.0),
        (3, 3): 1.0 + x * x,
        (3, 4): x * rho,
        (4, 4): rho * rho,
    }


def _m56(p):
    a, b, y, eps = p["a"], p["b"], p["y"], _need_eps(p)
    mu = _need_nonzero(p, "mu")
    x = _need_nonzero(p, "x")
    return {
        (1, 1): a * a + b * b,
        (1, 2): b + a * y / x,
        (1, 3): mu * a,
        (1, 5): eps * mu * mu * _SQ(x * x + y * y + 1.0),
        (2, 2): 1.0 + (y / x) ** 2,
        (2, 3): mu * y / x,
        (3, 3): mu * mu,
        (4, 4): mu**4 * x * x,
    }


def _m58(p):
    a, b, y = p["a"], p["b"], p["y"]
    x = _need_nonzero(p, "x")
    return {
        (1, 1): 1.0,
        (1, 2): a,
        (1, 3): -y / x,
        (2, 2): a * a + b * b,
        (2, 3): b - a * y / x,
        (2, 5): _SQ(x * x + y * y),
        (3, 3): 1.0 + (y / x) ** 2,
        (4, 4): x * x,
    }


def _m59(p):
    a, b, y, eps = p["a"], p["b"], p["y"], _need_eps(p)
    x = _need_nonzero(p, "x")
    return {
        (1, 1): a * a + b * b,
        (1, 2): b - a * y / x,
        (1, 3): a,
        (1, 5): eps * _SQ(x * x + y * y + 1.0),
        (2, 2): 1.0 + (y / x) ** 2,
        (2, 3): -y / x,
        (3, 3): 1.0,
        (4, 4): x * x,
    }


@dataclass(frozen=True)
class MetricVariant:
    name: str
    algebra: str
    params: Tuple[str, ...]
    constraints: str
    #: one parameter set's gram slots {(i, j): value}, i <= j
    build: Callable[[Dict[str, float]], Dict[Tuple[int, int], float]] = dc_field(repr=False)


METRIC_VARIANTS: Dict[str, MetricVariant] = {
    v.name: v
    for v in (
        MetricVariant("m32", "L3_2", ("alpha",), "alpha > 0", _m32),
        MetricVariant("m42", "L4_2", ("alpha", "a"), "alpha != 0, |a| < 1", _m42),
        MetricVariant("m43", "L4_3", ("a", "b", "eps"), "eps = ±1 (flat iff eps = -1)", _m43),
        MetricVariant(
            "m52", "L5_2", ("alpha", "a", "b"), "alpha != 0, |a| < 1, |b| < 1", _m52
        ),
        MetricVariant("m53", "L5_3", ("a", "b", "x", "eps"), "eps = ±1", _m53),
        MetricVariant(
            "m551", "L5_5", ("a", "b", "x", "y", "rho"), "x != 0, rho != 0", _m551
        ),
        MetricVariant(
            "m552", "L5_5", ("a", "b", "x", "rho", "eps"), "rho != 0, eps = ±1", _m552
        ),
        MetricVariant(
            "m56", "L5_6", ("a", "b", "x", "y", "mu", "eps"), "mu != 0, x != 0, eps = ±1", _m56
        ),
        MetricVariant("m58", "L5_8", ("a", "b", "x", "y"), "x != 0", _m58),
        MetricVariant("m59", "L5_9", ("a", "b", "x", "y", "eps"), "x != 0, eps = ±1", _m59),
    )
}

#: orthonormal metrics for the three higher-dimensional examples: the listed
#: basis vector has square -1, every other one +1
EXAMPLE_TIMELIKE_INDEX = {"EX6": 1, "EX7": 1, "EX8": 6}


def make_metric(
    name: str, variant: Optional[str] = None, params: Optional[Mapping[str, float]] = None
) -> MetricLieAlgebra:
    """Catalog algebra + metric.

    For the dim <= 5 algebras a metric variant compatible with the algebra
    and a full parameter assignment are required; each parameter must be a
    real finite number (not a bool or a string) and is validated against the
    stated constraints (BadParams on violation, as for a gram the parameters
    make degenerate).  For EX6, EX7 and EX8 no variant and no parameter is
    accepted and the orthonormal metric is returned.
    """
    algebra = make_algebra(name)
    if name in EXAMPLE_TIMELIKE_INDEX:
        if variant is not None:
            raise UnknownName(f"{name} has a fixed orthonormal metric, no variants")
        given = _named(params)
        if given:
            raise BadParams(f"{name} takes no parameters: " + ", ".join(given))
        d = np.ones(algebra.n)
        d[EXAMPLE_TIMELIKE_INDEX[name] - 1] = -1.0
        return MetricLieAlgebra(algebra, Gram.from_diagonal(d))

    if variant is None:
        raise UnknownName(f"{name} needs a metric variant: " + ", ".join(
            v for v, mv in METRIC_VARIANTS.items() if mv.algebra == name
        ))
    try:
        mv = METRIC_VARIANTS[variant]
    except (KeyError, TypeError):
        raise UnknownName(f"unknown metric variant {variant!r}") from None
    if mv.algebra != name:
        raise UnknownName(f"metric variant {variant} belongs to {mv.algebra}, not {name}")

    try:
        return MetricLieAlgebra(algebra, Gram(_variant_grams(mv, params, ndim=0)[0]))
    except DegenerateGram:
        raise BadParams(f"parameters make the {variant} gram degenerate") from None


def _variant_grams(
    mv: MetricVariant, params: Optional[Mapping[str, object]], ndim: int = 1
) -> np.ndarray:
    """The grams (k, n, n) of variant mv on a stack of k parameter sets: params
    maps each of mv's parameters to its k values, 1-D arrays of one length,
    or with ndim=0 to one value (k = 1).  Each parameter's values are
    validated once, as make_metric validates a parameter (BadParams, with
    make_metric's texts, when one is missing or unknown or is no real finite
    number); mv's build then takes each set as Python floats and refuses one
    outside its constraints.  The entries stay Python-float arithmetic, whose
    powers are the C library's pow: numpy's vectorized pow rounds some of
    them differently.  Every slot of the stack and its mirror are written in
    one assignment, so the grams are symmetric bit for bit.  A set whose
    entries overflow (a power raises OverflowError, a product or a sum turns
    infinite or NaN) is refused as BadParams naming the variant."""
    given = _named(params)
    missing = [k for k in mv.params if k not in given]
    if missing:
        raise BadParams(f"missing parameters for {mv.name}: " + ", ".join(missing))
    extra = [k for k in given if k not in mv.params]
    if extra:
        raise BadParams(f"unknown parameters for {mv.name}: " + ", ".join(extra))
    sets = zip(*(_param(given[k], k, ndim) for k in mv.params))
    non_finite = f"parameters make the {mv.name} gram non-finite"
    try:
        slots = [mv.build(dict(zip(mv.params, values))) for values in sets]
    except OverflowError:
        raise BadParams(non_finite) from None
    n = BRACKET_TABLES[mv.algebra][0]
    grams = np.zeros((len(slots), n * n))
    if slots:  # the flat indices of each slot (i, j), then of its mirror (j, i)
        flat = [(i - 1) * n + j - 1 for i, j in slots[0]]
        flat += [(j - 1) * n + i - 1 for i, j in slots[0]]
        grams[:, flat] = [list(member.values()) * 2 for member in slots]
    if not np.isfinite(grams).all():
        raise BadParams(non_finite)
    return grams.reshape(-1, n, n)


def _named(params: Optional[Mapping[str, float]]) -> dict:
    """params as a dict; BadParams naming the type of params when it is not a
    mapping, or a key that is not a string."""
    if params is not None and not isinstance(params, abc.Mapping):
        raise BadParams(f"params must be a mapping of names to numbers, not {type(params).__name__}")
    given = dict(params or {})
    for key in given:
        if not isinstance(key, str):
            raise BadParams(f"parameter name {key!r} is not a string")
    return given


def _param(value, key: str, ndim: int) -> list:
    """A parameter's k values as floats; BadParams unless _as_float_array
    reads them as real finite numbers with ndim axes (with ndim=0 a bool, a
    string, a complex number, None or a list are refused)."""
    try:
        values = _as_float_array(value, f"parameter {key}", ndim=ndim).tolist()
    except InvalidInput as err:
        raise BadParams(str(err)) from None
    return values if ndim else [values]
