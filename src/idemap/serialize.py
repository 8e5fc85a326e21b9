"""Shared JSON formats.

Matrices travel as ``{"field": "real"|"complex", "n": int, "data":
row-major list}`` with complex entries encoded as ``[re, im]`` pairs.
Semilinear operators add ``"auto": "id"|"conj"``; finite-rank
idempotents add ``"kind": "finite_rank"``.  A rank-one idempotent
travels as its pair alone, ``{"kind": "rank1", "field", "n", "x",
"f"}``; a ``"data"`` matrix in older payloads is ignored on reading.
Spaces are ``{"n", "field", "eta"}``.
"""

from __future__ import annotations

import json

import numpy as np

from .core import AutomorphismTag, ScalarField, SemilinearOperator, field_of
from .idempotents import FiniteRankIdempotent, RankOneIdempotent
from .indefinite import IndefiniteSpace


class FormatError(ValueError):
    """Raised for malformed or inconsistent JSON payloads."""


def _entries_from_json(data, count, field: ScalarField) -> np.ndarray:
    """``count`` JSON entries as one array of ``field.dtype``, or FormatError."""
    pairs = field is ScalarField.COMPLEX
    what = "complex entry must be [re, im]" if pairs else "real entry must be a number"
    if None in data:  # numpy reads null as NaN; refuse it as float(None) did
        raise (FormatError if pairs else TypeError)(f"{what}, got None")
    try:
        a = np.array(data, dtype=np.float64)
    except ValueError as exc:  # ragged entries, or text that is not a number
        raise FormatError(f"{what}: {exc}") from None
    if a.shape != ((count, 2) if pairs else (count,)):
        raise FormatError(f"{what}, got entries of shape {a.shape}")
    return a.view(np.complex128).reshape(count) if pairs else a


def _field_from_json(d) -> ScalarField:
    try:
        return ScalarField(d["field"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad or missing field tag: {exc}") from exc


def vector_to_json(x, field: ScalarField) -> list:
    """Entries of ``x`` in row-major order: ``[re, im]`` pairs over the
    complex field, numbers over the reals."""
    if field is ScalarField.COMPLEX:
        return np.ascontiguousarray(x, np.complex128).view(np.float64).reshape(-1, 2).tolist()
    return np.asarray(np.real(x), dtype=np.float64).ravel().tolist()


def vector_from_json(data, n, field: ScalarField):
    if not isinstance(data, (list, tuple)) or len(data) != n:
        raise FormatError(f"vector must have {n} entries")
    return _entries_from_json(data, n, field)


def matrix_to_json(m) -> dict:
    m = np.asarray(m)
    field = field_of(m)
    return {"field": field.value, "n": m.shape[0], "data": vector_to_json(m, field)}


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
    m = _entries_from_json(data, n * n, field).reshape(n, n)
    if not np.all(np.isfinite(m)):
        raise FormatError("matrix has non-finite entries")
    return m


def semilinear_to_json(a: SemilinearOperator) -> dict:
    return dict(matrix_to_json(a.matrix), auto=a.auto.value)


def semilinear_from_json(d) -> SemilinearOperator:
    m = matrix_from_json(d)
    try:
        auto = AutomorphismTag(d.get("auto", "id"))
    except ValueError as exc:
        raise FormatError(f"bad automorphism tag: {exc}") from exc
    return SemilinearOperator(m, auto)


def rank_one_to_json(p: RankOneIdempotent) -> dict:
    return {"kind": "rank1", "field": p.field.value, "n": p.n,
            "x": vector_to_json(p.x, p.field), "f": vector_to_json(p.f, p.field)}


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
    return dict(matrix_to_json(p.matrix), kind="finite_rank")


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
    """One line of sorted-key JSON and a newline, written by ``json``'s C
    encoder: same object, same bytes.  ``python -m json.tool`` indents it."""
    return json.dumps(obj, sort_keys=True) + "\n"
