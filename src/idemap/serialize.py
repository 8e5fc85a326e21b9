"""Shared JSON formats.

Matrices travel as ``{"field": "real"|"complex", "n": int, "data":
row-major list}`` with complex entries encoded as ``[re, im]`` pairs.
Semilinear operators add ``"auto": "id"|"conj"``; idempotents add
``"kind": "rank1"|"finite_rank"`` (rank-one also stores its ``x`` and
``f`` arrays); spaces are ``{"n", "field", "eta"}``.
"""

from __future__ import annotations

import json

import numpy as np

from .core import AutomorphismTag, ScalarField, SemilinearOperator, field_of
from .idempotents import FiniteRankIdempotent, RankOneIdempotent
from .indefinite import IndefiniteSpace


class FormatError(ValueError):
    """Raised for malformed or inconsistent JSON payloads."""


def _encode_entry(z, field: ScalarField):
    if field is ScalarField.COMPLEX:
        z = complex(z)
        return [float(z.real), float(z.imag)]
    return float(np.real(z))


def _decode_entry(v, field: ScalarField):
    if field is ScalarField.COMPLEX:
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise FormatError(f"complex entry must be [re, im], got {v!r}")
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (list, tuple)):
        raise FormatError(f"real entry must be a number, got {v!r}")
    return float(v)


def _field_from_json(d) -> ScalarField:
    try:
        return ScalarField(d["field"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad or missing field tag: {exc}") from exc


def vector_to_json(x, field: ScalarField):
    return [_encode_entry(z, field) for z in np.asarray(x)]


def vector_from_json(data, n, field: ScalarField):
    if not isinstance(data, (list, tuple)) or len(data) != n:
        raise FormatError(f"vector must have {n} entries")
    return np.array([_decode_entry(v, field) for v in data], dtype=field.dtype)


def matrix_to_json(m) -> dict:
    m = np.asarray(m)
    field = field_of(m)
    n = m.shape[0]
    return {
        "field": field.value,
        "n": n,
        "data": [_encode_entry(z, field) for z in m.ravel()],
    }


def matrix_from_json(d) -> np.ndarray:
    if not isinstance(d, dict):
        raise FormatError("matrix payload must be an object")
    field = _field_from_json(d)
    try:
        n = int(d["n"])
        data = d["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix payload: {exc}") from exc
    if n <= 0 or not isinstance(data, list) or len(data) != n * n:
        raise FormatError(f"matrix data must hold n*n = {n * n} entries")
    flat = [_decode_entry(v, field) for v in data]
    m = np.array(flat, dtype=field.dtype).reshape(n, n)
    if not np.all(np.isfinite(m)):
        raise FormatError("matrix has non-finite entries")
    return m


def semilinear_to_json(a: SemilinearOperator) -> dict:
    d = matrix_to_json(a.matrix)
    d["auto"] = a.auto.value
    return d


def semilinear_from_json(d) -> SemilinearOperator:
    m = matrix_from_json(d)
    try:
        auto = AutomorphismTag(d.get("auto", "id"))
    except ValueError as exc:
        raise FormatError(f"bad automorphism tag: {exc}") from exc
    return SemilinearOperator(m, auto)


def rank_one_to_json(p: RankOneIdempotent) -> dict:
    d = matrix_to_json(p.matrix)
    d["kind"] = "rank1"
    d["x"] = vector_to_json(p.x, p.field)
    d["f"] = vector_to_json(p.f, p.field)
    return d


def rank_one_from_json(d) -> RankOneIdempotent:
    if not isinstance(d, dict) or d.get("kind") != "rank1":
        raise FormatError("expected a rank1 idempotent payload")
    field = _field_from_json(d)
    try:
        n = int(d["n"])
        x = vector_from_json(d["x"], n, field)
        f = vector_from_json(d["f"], n, field)
    except KeyError as exc:
        raise FormatError(f"missing key: {exc}") from exc
    return RankOneIdempotent(x, f)


def finite_rank_to_json(p: FiniteRankIdempotent) -> dict:
    d = matrix_to_json(p.matrix)
    d["kind"] = "finite_rank"
    return d


def finite_rank_from_json(d) -> FiniteRankIdempotent:
    if not isinstance(d, dict) or d.get("kind") != "finite_rank":
        raise FormatError("expected a finite_rank idempotent payload")
    return FiniteRankIdempotent(matrix_from_json(d))


def space_to_json(space: IndefiniteSpace) -> dict:
    return {
        "n": space.n,
        "field": space.field.value,
        "eta": matrix_to_json(space.eta),
    }


def space_from_json(d) -> IndefiniteSpace:
    if not isinstance(d, dict) or "eta" not in d:
        raise FormatError("space payload needs an eta matrix")
    eta = matrix_from_json(d["eta"])
    if "n" in d and int(d["n"]) != eta.shape[0]:
        raise FormatError("space n does not match eta")
    if "field" in d and ScalarField(d["field"]) is not field_of(eta):
        raise FormatError("space field does not match eta")
    return IndefiniteSpace(eta)


def scalar_to_json(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def dumps_report(obj) -> str:
    """Deterministic serialization: same object, same bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
