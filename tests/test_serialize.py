import numpy as np
import pytest

from idemap.core import AutomorphismTag, ScalarField, SemilinearOperator
from idemap.idempotents import FiniteRankIdempotent, rank_one_from_pair
from idemap.indefinite import IndefiniteSpace
from idemap.sampling import random_invertible, random_rank_one
from idemap.serialize import (
    FormatError,
    dumps_report,
    finite_rank_from_json,
    finite_rank_to_json,
    matrix_from_json,
    matrix_to_json,
    rank_one_from_json,
    rank_one_to_json,
    semilinear_from_json,
    semilinear_to_json,
    space_from_json,
    space_to_json,
)


def test_real_matrix_roundtrip():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = matrix_to_json(m)
    assert d["field"] == "real" and d["n"] == 2
    assert d["data"] == [1.0, 2.0, 3.0, 4.0]
    np.testing.assert_array_equal(matrix_from_json(d), m)


def test_complex_matrix_roundtrip():
    m = np.array([[1.0 + 2j, 0], [0, -1j]])
    d = matrix_to_json(m)
    assert d["field"] == "complex"
    assert d["data"][0] == [1.0, 2.0]
    np.testing.assert_array_equal(matrix_from_json(d), m)


def test_semilinear_roundtrip():
    rng = np.random.default_rng(0)
    op = SemilinearOperator(random_invertible(rng, 3, ScalarField.COMPLEX),
                            AutomorphismTag.CONJUGATION)
    d = semilinear_to_json(op)
    assert d["auto"] == "conj"
    back = semilinear_from_json(d)
    np.testing.assert_allclose(back.matrix, op.matrix)
    assert back.auto is op.auto


def test_rank_one_roundtrip():
    rng = np.random.default_rng(1)
    p = random_rank_one(rng, 4, ScalarField.COMPLEX)
    d = rank_one_to_json(p)
    assert d["kind"] == "rank1"
    back = rank_one_from_json(d)
    np.testing.assert_allclose(back.matrix, p.matrix, atol=1e-12)


def test_rank_one_payload_is_the_pair():
    p = rank_one_from_pair([1.0, 2.0, 0], [1.0, 0, 1j])
    d = rank_one_to_json(p)
    assert set(d) == {"kind", "field", "n", "x", "f"}
    assert d["field"] == "complex" and d["n"] == 3
    # payloads that still carry the matrix load as before
    d["data"] = matrix_to_json(p.matrix)["data"]
    np.testing.assert_array_equal(rank_one_from_json(d).matrix, p.matrix)


def test_finite_rank_roundtrip():
    p = FiniteRankIdempotent(np.diag([1.0, 1.0, 0.0]))
    d = finite_rank_to_json(p)
    assert d["kind"] == "finite_rank"
    back = finite_rank_from_json(d)
    assert back.rank == 2


def test_space_roundtrip():
    space = IndefiniteSpace(np.diag([1.0, 1.0, -1.0]))
    d = space_to_json(space)
    assert d["n"] == 3 and d["field"] == "real"
    back = space_from_json(d)
    np.testing.assert_array_equal(back.eta, space.eta)


def test_bad_payloads():
    with pytest.raises(FormatError):
        matrix_from_json({"field": "real", "n": 2, "data": [1.0, 2.0]})
    with pytest.raises(FormatError):
        matrix_from_json({"field": "octonion", "n": 1, "data": [1.0]})
    with pytest.raises(FormatError):
        matrix_from_json({"field": "complex", "n": 1, "data": [1.0]})
    with pytest.raises(FormatError):
        rank_one_from_json({"kind": "finite_rank"})
    with pytest.raises(FormatError):
        space_from_json({"eta": matrix_to_json(np.eye(3)), "n": 4})


def test_kind_mismatch():
    p = rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0])
    d = rank_one_to_json(p)
    d["kind"] = "finite_rank"
    with pytest.raises(FormatError):
        rank_one_from_json(d)


def test_dumps_report_deterministic():
    obj = {"b": [1.0, 2.5], "a": {"z": 1, "y": -0.25}}
    assert dumps_report(obj) == dumps_report({"a": {"y": -0.25, "z": 1}, "b": [1.0, 2.5]})
