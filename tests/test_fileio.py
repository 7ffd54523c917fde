import json
import os
import re
from functools import partial

import numpy as np
import pytest

from mlie.catalog import make_metric
from mlie.doubleext import ExtensionData
from mlie.errors import InvalidInput
from mlie.fileio import (
    algebra_to_dict,
    dict_to_algebra,
    dict_to_extension,
    read_algebra,
    read_extension,
    write_algebra,
    write_extension,
)
from mlie.liealg import LieAlgebra
from mlie.pseudolin import DEFAULT_TOL, Gram


def test_algebra_roundtrip_bit_exact(tmp_path):
    m = make_metric("EX8")  # coefficients include binary64 roundings of radicals
    path = tmp_path / "ex8.json"
    write_algebra(str(path), m.algebra, m.gram, comment="roundtrip")
    algebra, gram, comment = read_algebra(str(path), DEFAULT_TOL)
    assert np.array_equal(algebra.c, m.algebra.c)
    assert np.array_equal(gram.mat, m.gram.mat)
    assert comment == "roundtrip"


def test_algebra_roundtrip_without_metric(tmp_path):
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 0.1 + 0.2}})
    path = tmp_path / "a.json"
    write_algebra(str(path), alg)
    back, gram, comment = read_algebra(str(path), DEFAULT_TOL)
    assert np.array_equal(back.c, alg.c)
    assert gram is None and comment is None


def test_double_read_is_stable(tmp_path):
    m = make_metric("L5_9", "m59", {"a": 0.3, "b": -0.2, "x": 1.1, "y": 0.4, "eps": -1.0})
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_algebra(str(p1), m.algebra, m.gram)
    a1, g1, _ = read_algebra(str(p1), DEFAULT_TOL)
    write_algebra(str(p2), a1, g1)
    assert p1.read_text() == p2.read_text()


def test_brackets_use_one_based_upper_indices():
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 2.5}})
    doc = algebra_to_dict(alg)
    assert doc["dim"] == 3
    assert doc["brackets"] == [{"i": 1, "j": 2, "coeffs": {"3": 2.5}}]


def test_dict_to_algebra_validation_messages():
    parse = partial(dict_to_algebra, tol=DEFAULT_TOL)
    with pytest.raises(InvalidInput, match="dim"):
        parse({"brackets": []})
    with pytest.raises(InvalidInput, match="1 <= i < j"):
        parse({"dim": 3, "brackets": [{"i": 2, "j": 1, "coeffs": {}}]})
    with pytest.raises(InvalidInput, match="out of range"):
        parse({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": 1.0}}]})
    with pytest.raises(InvalidInput, match="duplicate"):
        parse(
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {}}, {"i": 1, "j": 2, "coeffs": {}}]}
        )
    with pytest.raises(InvalidInput, match="finite"):
        parse({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": float("inf")}}]})
    # a coefficient key is an index in its one canonical spelling, so two keys
    # cannot name one coefficient and the first be lost
    for key in ("03", " +0_3 ", "3 ", "+3", "٣", "3.0", "0x3"):
        with pytest.raises(InvalidInput, match=re.escape(f"coefficient key {key!r} is not an index")):
            parse({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0, key: 2.0}}]})
    for key in (3, True, None):  # a library caller's key that JSON cannot spell
        with pytest.raises(InvalidInput, match="is not an index"):
            parse({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {key: 1.0}}]})
    with pytest.raises(InvalidInput, match="coefficient index 0 out of range"):
        parse({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"0": 1.0}}]})
    with pytest.raises(InvalidInput, match="unknown field"):
        parse({"dim": 2, "bracketts": []})
    with pytest.raises(InvalidInput, match="symmetric"):
        parse({"dim": 2, "metric": [[1.0, 2.0], [0.0, 1.0]]})
    # JSON booleans are not integers, although Python's bool is an int
    with pytest.raises(InvalidInput, match="'dim' must be an integer"):
        parse({"dim": True})
    with pytest.raises(InvalidInput, match=r"brackets\[0\]\.i must be an integer"):
        parse({"dim": 3, "brackets": [{"i": True, "j": 2, "coeffs": {"3": 1.0}}]})
    with pytest.raises(InvalidInput, match=r"brackets\[0\]\.j must be an integer"):
        parse({"dim": 3, "brackets": [{"i": 1, "j": False, "coeffs": {}}]})
    with pytest.raises(InvalidInput, match=r"brackets\[0\]\.j must be an integer"):
        parse({"dim": 3, "brackets": [{"i": 1, "j": 2.0, "coeffs": {}}]})
    # an object would be iterated by its keys, null or a number not at all
    for brackets in (None, 3, {"i": 1, "j": 2, "coeffs": {}}):
        with pytest.raises(InvalidInput, match="'brackets' must be a list"):
            parse({"dim": 3, "brackets": brackets})


def test_reader_builds_the_algebra_and_checks_the_metric_at_tol():
    doc = {"dim": 2, "metric": [[1.0, 1e-6], [0.0, 1.0]]}
    with pytest.raises(InvalidInput, match="symmetric"):
        dict_to_algebra(doc, DEFAULT_TOL)
    algebra, gram, _ = dict_to_algebra(doc, 1e-3)
    assert algebra.tol == 1e-3
    assert gram.mat[0, 1] == gram.mat[1, 0] == 5e-7


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "brackets": [}\n')
    with pytest.raises(InvalidInput, match=r"broken\.json:2"):
        read_algebra(str(path), DEFAULT_TOL)
    with pytest.raises(InvalidInput, match=r"broken\.json:2"):
        read_algebra(path, DEFAULT_TOL)  # an os.PathLike names the file too


def test_a_file_descriptor_is_not_a_path():
    # an integer path would be opened as that fd, written to and closed
    algebra = make_metric("L3_2", "m32", {"alpha": 1.0}).algebra
    data = ExtensionData(np.zeros((1, 1)), np.zeros((1, 1)))
    r, w = os.pipe()
    try:
        for call in (
            partial(write_algebra, w, algebra),
            partial(write_extension, w, data),
            partial(read_algebra, r, DEFAULT_TOL),
            partial(read_extension, r),
        ):
            with pytest.raises(InvalidInput, match="^path must be a str or os.PathLike, got int$"):
                call()
        os.write(w, b"x")  # w is still open
        assert os.read(r, 2) == b"x"  # and nothing else was written
    finally:
        os.close(r)
        os.close(w)


def test_extension_roundtrip(tmp_path):
    data = ExtensionData(
        np.sqrt(2.0) * np.array([[0.0, -1.0], [1.0, 0.0]]),
        np.array([[0.0, 0.7], [0.0, 0.0]]),
        mu=0.25,
        b=np.array([0.125, -3.5]),
    )
    path = tmp_path / "ext.json"
    write_extension(str(path), data, basis_change=np.eye(4), comment="c")
    back, bc, comment = read_extension(str(path))
    assert np.array_equal(back.K, data.K)
    assert np.array_equal(back.D, data.D)
    assert np.array_equal(back.b, data.b)
    assert back.mu == 0.25
    assert np.array_equal(bc, np.eye(4))
    assert comment == "c"


def test_extension_defaults_and_validation():
    data, bc, comment = dict_to_extension(
        {"v_dim": 2, "K": [[0.0, 1.0], [-1.0, 0.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}
    )
    assert data.mu == 0.0
    assert np.array_equal(data.b, np.zeros(2))
    assert bc is None and comment is None
    with pytest.raises(InvalidInput, match="v_dim"):
        dict_to_extension({"K": [], "D": []})
    with pytest.raises(InvalidInput, match="2x2"):
        dict_to_extension({"v_dim": 2, "K": [[0.0]], "D": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(InvalidInput, match="'v_dim' must be an integer"):
        dict_to_extension({"v_dim": False, "K": [], "D": []})
    with pytest.raises(InvalidInput, match="'v_dim' must be an integer"):
        dict_to_extension({"v_dim": True, "K": [[0.0]], "D": [[0.0]]})


def test_non_skew_k_warns_and_antisymmetrizes():
    doc = {"v_dim": 2, "K": [[0.0, 1.0], [0.5, 0.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.warns(UserWarning, match="skew"):
        data, _, _ = dict_to_extension(doc)
    assert np.array_equal(data.K, -data.K.T)


def test_json_floats_are_shortest_roundtrip(tmp_path):
    # the emitted text must parse back to the identical binary64 values
    g = Gram(np.array([[1.0 / 3.0, 0.0], [0.0, np.sqrt(5.0)]]))
    path = tmp_path / "g.json"
    write_algebra(str(path), LieAlgebra.abelian(2), g)
    raw = json.loads(path.read_text())
    assert raw["metric"][0][0] == 1.0 / 3.0
    assert raw["metric"][1][1] == np.sqrt(5.0)
