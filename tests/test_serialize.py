import json

import numpy as np
import pytest

from idemap.cli import _load_phi, main
from idemap.core import OVERFLOWED, AutomorphismTag, ScalarField, SemilinearOperator
from idemap.errors import NotIdempotent
from idemap.idempotents import rank_one_from_pair
from idemap.sampling import random_invertible, random_rank_one
from idemap.serialize import (
    FormatError,
    dumps_report,
    finite_rank_from_json,
    loads_input,
    matrix_from_json,
    matrix_to_json,
    rank_one_from_json,
    rank_one_to_json,
    rank_ones_from_json,
    semilinear_from_json,
    semilinear_to_json,
    space_from_json,
    vector_from_json,
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
    m = np.diag([1.0, 1.0, 0.0])
    back = finite_rank_from_json(dict(matrix_to_json(m), kind="finite_rank"))
    assert back.rank == 2
    np.testing.assert_array_equal(back.matrix, m)


def test_space_roundtrip():
    eta = np.diag([1.0, 1.0, -1.0])
    back = space_from_json({"n": 3, "field": "real", "eta": matrix_to_json(eta)})
    np.testing.assert_array_equal(back.eta, eta)


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
    with pytest.raises(FormatError, match="non-finite"):
        matrix_from_json({"field": "real", "n": 2, "data": [1.0, 0.0, float("inf"), 1.0]})
    with pytest.raises(FormatError, match="automorphism tag"):
        semilinear_from_json({"field": "real", "n": 1, "data": [1.0], "auto": "swap"})
    with pytest.raises(FormatError, match="missing key"):
        rank_one_from_json({"kind": "rank1", "field": "real", "n": 2, "f": [1.0, 0.0]})
    with pytest.raises(FormatError, match="real entry"):
        matrix_from_json({"field": "real", "n": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(FormatError, match="field does not match"):
        space_from_json({"eta": matrix_to_json(np.eye(3)), "field": "complex"})


# Malformed entries and the exception type each one is refused with.
_BAD_ENTRIES = [
    ("complex", [1.0], FormatError),
    ("complex", [1, 2, 3], FormatError),
    ("complex", [[1.0]], FormatError),
    ("complex", None, FormatError),
    ("real", [1.0], FormatError),
    ("real", [1, 2, 3], FormatError),
    ("real", [[1.0]], FormatError),
    ("real", None, TypeError),
]


@pytest.mark.parametrize("field, bad, exc", _BAD_ENTRIES,
                         ids=[f"{f}-{json.dumps(b)}" for f, b, _ in _BAD_ENTRIES])
@pytest.mark.parametrize("everywhere", [False, True], ids=("one", "all"))
def test_bad_entries(field, bad, exc, everywhere, tmp_path):
    fld = ScalarField(field)
    good = [1.0, 0.0] if fld is ScalarField.COMPLEX else 1.0

    def entries(count):
        return [bad] * count if everywhere else [good, bad] + [good] * (count - 2)

    vec = {"kind": "rank1", "field": field, "n": 4, "x": entries(4), "f": entries(4)}
    op = dict(semilinear_to_json(SemilinearOperator(np.eye(4, dtype=fld.dtype))),
              data=entries(16))
    for decode in (lambda: vector_from_json(entries(4), 4, fld),
                   lambda: rank_one_from_json(vec), lambda: matrix_from_json(op)):
        with pytest.raises(exc) as info:
            decode()
        assert type(info.value) is exc
    # the command line refuses either payload as malformed input
    table = {"phi": {"mode": "table", "n": 4, "field": field,
                     "probes": [{"in": vec, "out": vec}]}}
    for payload in (table, {"phi": {"mode": "induced", "operator": op}}):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        assert main(["reconstruct", "--in", str(path), "--samples", "0"]) == 1


_OP = semilinear_to_json(SemilinearOperator(np.eye(3)))
_VEC = rank_one_to_json(rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0]))
_HUGE = 10**400  # an integer too large for a float
_INF = float("inf")  # ``n`` written as ``1e400``, as ``json`` reads it


def _table(vec, n=3):
    return {"phi": {"mode": "table", "n": n, "field": "real",
                    "probes": [{"in": vec, "out": vec}]}}


def _load_table(payload):
    return _load_phi(payload)


#: Per site of a number beyond float range: the decoder, the payload it
#: reads, the command and the command-line input holding that payload.
_BEYOND_FLOAT_RANGE = {
    "matrix-entry": (semilinear_from_json, dict(_OP, data=[_HUGE] + _OP["data"][1:]),
                     "reconstruct", lambda op: {"phi": {"mode": "induced", "operator": op}}),
    "matrix-n": (semilinear_from_json, dict(_OP, n=_INF),
                 "reconstruct", lambda op: {"phi": {"mode": "induced", "operator": op}}),
    "rank1-entry": (rank_one_from_json, dict(_VEC, x=[_HUGE, 0.0, 0.0]), "reconstruct", _table),
    "rank1-n": (rank_one_from_json, dict(_VEC, n=_INF), "reconstruct", _table),
    "table-n": (_load_table, _table(_VEC, n=_INF), "reconstruct", lambda phi: phi),
    "space-n": (space_from_json, {"eta": _OP, "n": _INF},
                "symmetry", lambda space: {"space": space, "operator": _OP}),
}


@pytest.mark.parametrize("site", sorted(_BEYOND_FLOAT_RANGE))
def test_numbers_beyond_float_range_are_malformed(site, tmp_path, capsys):
    decode, payload, command, wrap = _BEYOND_FLOAT_RANGE[site]
    with pytest.raises(FormatError):
        decode(payload)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(wrap(payload)).replace("Infinity", "1e400"))
    assert main([command, "--in", str(path)]) == 1
    assert "malformed input" in capsys.readouterr().err


def _nested(depth):
    return "[" * depth + "]" * depth


#: JSON texts about the nesting limit of ``loads_input``, and whether each is
#: refused: brackets and escaped quotes inside strings and keys do not count.
_DEPTHS = {
    "64": (_nested(64), False),
    "65": (_nested(65), True),
    "opening-brackets-in-a-string": ('["' + "[{" * 40 + '", ' + _nested(63) + "]", False),
    "closing-brackets-in-a-string": ('["' + "]}" * 40 + '", ' + _nested(64) + "]", True),
    "escaped-quote-in-a-string": ('["\\"' + "[" * 70 + '"]', False),
    "brackets-and-escaped-quote-in-a-key": ('{"' + "[" * 70 + '\\"": ' + _nested(63) + "}",
                                            False),
    "escaped-backslash-then-quote-in-a-key": ('{"k\\\\": ' + _nested(63) + "}", False),
    "escaped-backslash-then-quote-too-deep": ('{"k\\\\": ' + _nested(64) + "}", True),
}


@pytest.mark.parametrize("name", sorted(_DEPTHS))
def test_input_nesting_limit(name):
    text, refused = _DEPTHS[name]
    if refused:
        with pytest.raises(FormatError, match="nests 65 levels deep, more than 64"):
            loads_input(text.encode())
    else:
        assert loads_input(text.encode()) == json.loads(text)


#: Values of ``n`` that are not JSON integers; ``int`` would take each.
_NOT_INTEGERS = [3.9, 3.0, "3", True]


@pytest.mark.parametrize("n", _NOT_INTEGERS, ids=json.dumps)
def test_n_must_be_a_json_integer(n, tmp_path, capsys):
    # data of the size ``int(n)`` gives, which a truncating decoder accepts
    with pytest.raises(FormatError):
        matrix_from_json({"field": "real", "n": n, "data": [1.0] * int(n) ** 2})
    with pytest.raises(FormatError):
        rank_one_from_json(dict(_VEC, n=n))
    for ds in ([dict(_VEC, n=n)] * 2, [_VEC, dict(_VEC, n=n)]):  # one block, then mixed
        with pytest.raises(FormatError):
            rank_ones_from_json(ds)
    with pytest.raises(FormatError):
        space_from_json({"eta": _OP, "n": n})
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_table(_VEC, n=n)))
    assert main(["reconstruct", "--in", str(path)]) == 1
    assert "malformed input" in capsys.readouterr().err


def test_kind_mismatch():
    p = rank_one_from_pair([1.0, 0, 0], [1.0, 0, 0])
    d = rank_one_to_json(p)
    d["kind"] = "finite_rank"
    with pytest.raises(FormatError):
        rank_one_from_json(d)


def test_dumps_report_deterministic():
    obj = {"b": [1.0, 2.5], "a": {"z": 1, "y": -0.25}}
    assert dumps_report(obj) == dumps_report({"a": {"y": -0.25, "z": 1}, "b": [1.0, 2.5]})


def _faulty(d, change):
    d = json.loads(json.dumps(d))
    change(d)
    return d


#: Changes to a valid complex n = 4 payload, each refused by one check of
#: ``rank_one_from_json``, in the order it makes them.
_FAULTS = {
    "kind": lambda d: d.update(kind="finite_rank"),
    "field": lambda d: d.pop("field"),
    "n-missing": lambda d: d.pop("n"),
    "n-text": lambda d: d.update(n="four"),
    "x-missing": lambda d: d.pop("x"),
    "x-short": lambda d: d["x"].pop(),
    "x-null": lambda d: d["x"].__setitem__(1, None),
    "f-text": lambda d: d["f"].__setitem__(0, ["a", 0.0]),
    "f-nan": lambda d: d["f"].__setitem__(2, [float("nan"), 0.0]),
    "pairing": lambda d: d.update(x=[[2 * re, 2 * im] for re, im in d["x"]]),
}


def _refusal(d):
    try:
        rank_one_from_json(d)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("payload accepted")


@pytest.mark.parametrize("first", sorted(_FAULTS))
def test_block_decoding_refuses_the_first_refused_payload(first):
    """Decoded as one block, a list of payloads raises the error that the
    first refused payload raises alone, whatever is wrong further on."""
    rng = np.random.default_rng(2)
    good = [rank_one_to_json(random_rank_one(rng, 4, ScalarField.COMPLEX)) for _ in range(6)]
    want = _refusal(_faulty(good[2], _FAULTS[first]))
    for later in sorted(_FAULTS):
        ds = good[:2] + [_faulty(good[2], _FAULTS[first])] + good[3:5] \
            + [_faulty(good[5], _FAULTS[later])]
        with pytest.raises(want[0]) as info:
            rank_ones_from_json(ds)
        assert (type(info.value), str(info.value)) == want


def test_block_decoding_gives_the_one_by_one_rows():
    """Payloads of one field and dimension, of mixed fields, and of mixed
    dimensions decode to the rows that ``rank_one_from_json`` gives each."""
    rng = np.random.default_rng(3)
    cplx = [rank_one_to_json(random_rank_one(rng, 4, ScalarField.COMPLEX)) for _ in range(3)]
    real = [rank_one_to_json(random_rank_one(rng, 4, ScalarField.REAL)) for _ in range(2)]
    wide = [rank_one_to_json(random_rank_one(rng, 5, ScalarField.REAL))]
    for ds in (cplx, real, cplx + real, real + wide, []):
        got = rank_ones_from_json(ds)
        assert len(got) == len(ds)
        for p, d in zip(got, ds):
            want = rank_one_from_json(d)
            for a, b in ((p.x, want.x), (p.f, want.f)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable


def _rank1(x, f):
    return {"kind": "rank1", "field": "real", "n": len(x), "x": x, "f": f}


def _valid(n, field, seed):
    rng = np.random.default_rng(seed)
    return [rank_one_to_json(random_rank_one(rng, n, field)) for _ in range(12)]


#: Payload lists; whether the block test accepts them whole, without the
#: per-payload rule; and the text the rule refuses them with, if it does.
_BLOCKS = {
    **{f"{field.value}-{n}": (_valid(n, field, n), True, None)
       for field in ScalarField for n in (3, 16)},
    # |pair - 1| = 1e-5 > PAIRING_RTOL (1 + ||x|| ||f||) = 1e-10 (1 + 1e4)
    "beyond-bound": ([_rank1([1, 100 * (1 + 1e-5), 0], [0, 1e-2, 100]),
                      _rank1([1, 0, 0], [1, 0, 0])], False, "expected 1 within"),
    # |pair - 1| = 1e-8, between PAIRING_RTOL and the rule's bound
    "within-bound": ([_rank1([1, 0, 0], [1, 0, 0]),
                      _rank1([1, 100 * (1 + 1e-8), 0], [0, 1e-2, 100])], False, None),
    "large-and-small": ([_rank1([1e200, 2e200, 0], [1e-200, 0, 3e-200]),
                         _rank1([1e-200, 0, 1e-200], [1e200, -3e200, 0]),
                         _rank1([1, 0, 0], [1, 0, 0])], True, None),
    "empty": ([_rank1([], [])] * 2, False, "expected 1 within"),
    # pair = 1, but ||x|| ||f|| = 1e318 overflows, so the rule is undecided
    "overflow": ([_rank1([1, 0, 0], [1, 0, 0]),
                  _rank1([1e160, 1, 0], [0, 1, 1e158])], False, OVERFLOWED),
}


def _outcome(decode, ds):
    """The rows ``decode(ds)`` gives, as dtypes and bytes, or its error."""
    try:
        return [(p.x.dtype, p.x.tobytes(), p.f.dtype, p.f.tobytes()) for p in decode(ds)]
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", _BLOCKS)
def test_block_acceptance_matches_the_per_payload_rule(name, monkeypatch):
    """A table is accepted whole, as the same rows, only where every
    payload passes ``RankOneIdempotent``'s rule; elsewhere the rule decides,
    with the error of the first payload refused."""
    ds, whole, refusal = _BLOCKS[name]
    want = _outcome(lambda ds: [rank_one_from_json(d) for d in ds], ds)
    if refusal is None:
        assert len(want) == len(ds)
    else:
        assert want[0] is NotIdempotent and refusal in want[1]
    if whole:  # the block test decides without the per-payload rule
        monkeypatch.setattr("idemap.idempotents._accepts_pair", None)
    assert _outcome(rank_ones_from_json, ds) == want
