"""Exact oracle for the three higher-dimensional examples.

The bracket tables of EX6, EX7 and EX8 are written here with symbolic
radicals, checked against the binary64 tables of the catalog, and their
Ricci operators computed in exact arithmetic in the catalog's
pseudo-orthonormal basis (⟨e_i, e_i⟩ = ε_i, e_t timelike), with the formula
for nilpotent algebras

    ric(e_a, e_b) = −½ Σ ε_i ε_j ⟨[e_a,e_i],e_j⟩⟨[e_b,e_i],e_j⟩
                    + ¼ Σ ε_i ε_j ⟨[e_i,e_j],e_a⟩⟨[e_i,e_j],e_b⟩.
"""
import pytest

from mlie.catalog import BRACKET_TABLES, EXAMPLE_TIMELIKE_INDEX
from mlie.verify import EX8_LAMBDA

sp = pytest.importorskip("sympy")

R = sp.Rational
SQ = sp.sqrt

#: name -> {(i, j): {k: coeff}} with 1-based indices, as in catalog.BRACKET_TABLES
EXACT_TABLES = {
    "EX6": {
        (1, 3): {6: 1},
        (1, 5): {6: 1},
        (2, 3): {6: -1},
        (2, 4): {6: 1},
        (3, 4): {1: 1},
        (3, 5): {2: 1},
        (4, 5): {1: 1, 2: 1},
    },
    "EX7": {
        (1, 3): {7: SQ(2)},
        (2, 4): {7: SQ(2)},
        (4, 5): {1: -1},
        (4, 6): {1: -1},
        (3, 5): {2: -1},
        (3, 6): {2: -1},
    },
    "EX8": {
        (1, 2): {3: -4 * SQ(3)},
        (1, 3): {4: SQ(R(5, 2))},
        (1, 4): {8: -2 * SQ(3)},
        (1, 5): {6: 3 * SQ(R(7, 2))},
        (1, 6): {7: -4 * SQ(2)},
        (2, 3): {5: -SQ(R(5, 2))},
        (2, 4): {6: -3 * SQ(R(7, 2))},
        (2, 5): {7: -2 * SQ(3)},
        (2, 6): {8: -4 * SQ(2)},
        (3, 4): {7: -SQ(21)},
        (3, 5): {8: -SQ(21)},
    },
}

#: the exact Ricci operator of each example's orthonormal metric, as a multiple of Id
EXACT_EINSTEIN_CONSTANT = {"EX6": 0, "EX7": 0, "EX8": R(1, 2)}


def _structure(name):
    """c[i][j][k] (0-based) of the exact table, antisymmetric in (i, j)."""
    n = BRACKET_TABLES[name][0]
    c = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in EXACT_TABLES[name].items():
        for k, val in coeffs.items():
            c[i - 1][j - 1][k - 1] = val
            c[j - 1][i - 1][k - 1] = -val
    return c


def _ricci_operator(name):
    n = BRACKET_TABLES[name][0]
    c = _structure(name)
    eps = [-1 if k == EXAMPLE_TIMELIKE_INDEX[name] - 1 else 1 for k in range(n)]
    # ⟨[e_i, e_j], e_k⟩ = ε_k c[i][j][k] in the orthonormal basis
    pair = [[[eps[k] * c[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]

    def ric(a, b):
        total = sp.Integer(0)
        for i in range(n):
            for j in range(n):
                w = eps[i] * eps[j]
                total += -R(1, 2) * w * pair[a][i][j] * pair[b][i][j]
                total += R(1, 4) * w * pair[i][j][a] * pair[i][j][b]
        return total

    # Ric = G⁻¹·ric with G = diag(ε)
    return sp.Matrix(n, n, lambda a, b: sp.simplify(eps[a] * ric(a, b)))


@pytest.mark.parametrize("name", sorted(EXACT_TABLES))
def test_catalog_tables_are_the_roundings_of_the_exact_ones(name):
    dim, table = BRACKET_TABLES[name]
    exact = EXACT_TABLES[name]
    assert table.keys() == exact.keys()
    for pair, coeffs in exact.items():
        assert table[pair].keys() == coeffs.keys(), pair
        for k, val in coeffs.items():
            assert float(val) == table[pair][k], (pair, k)


@pytest.mark.parametrize("name", sorted(EXACT_TABLES))
def test_exact_ricci_operator(name):
    n = BRACKET_TABLES[name][0]
    assert _ricci_operator(name) == EXACT_EINSTEIN_CONSTANT[name] * sp.eye(n)


def test_ex8_lambda_is_one_half():
    assert EX8_LAMBDA == float(EXACT_EINSTEIN_CONSTANT["EX8"])
