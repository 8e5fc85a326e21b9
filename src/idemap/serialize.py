"""Shared JSON formats.

Matrices travel as ``{"field": "real"|"complex", "n": int, "data":
row-major list}`` with complex entries encoded as ``[re, im]`` pairs.
Semilinear operators add ``"auto": "id"|"conj"``; finite-rank
idempotents add ``"kind": "finite_rank"``.  A rank-one idempotent
travels as its pair alone, ``{"kind": "rank1", "field", "n", "x",
"f"}``; a ``"data"`` matrix in older payloads is ignored on reading.
Spaces are ``{"n", "field", "eta"}``.

The JSON text itself is read by :func:`loads_input` and written by
:func:`dumps_report`, both through ``orjson``.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import orjson

from .core import AutomorphismTag, ScalarField, SemilinearOperator, field_of
from .idempotents import FiniteRankIdempotent, RankOneIdempotent, _accepts_pairs, _rank_one_views
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
    except (OverflowError, ValueError) as exc:  # ragged, not a number, beyond float range
        raise FormatError(f"{what}: {exc}") from None
    if a.shape != ((count, 2) if pairs else (count,)):
        raise FormatError(f"{what}, got entries of shape {a.shape}")
    return a.view(np.complex128).reshape(count) if pairs else a


def _n_from_json(value) -> int:
    """``value`` if it is a JSON integer (an ``int``, not a ``bool``), else FormatError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"n must be an integer, got {value!r}")
    return value


def _key(d, key):
    """``d[key]``; a missing key is a FormatError that names it."""
    try:
        return d[key]
    except KeyError as exc:
        raise FormatError(f"missing key: {exc}") from exc


def _field_from_json(d) -> ScalarField:
    """The field tag ``d["field"]``; a missing or unknown tag is a FormatError."""
    try:
        return ScalarField(d["field"])
    except KeyError as exc:
        raise FormatError(f"missing key: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"bad field tag: {exc}") from exc


def vector_to_json(x, field: ScalarField) -> list:
    """Entries of ``x`` as nested lists of its shape: ``[re, im]`` pairs over
    the complex field, numbers over the reals."""
    if field is ScalarField.COMPLEX:
        x = np.ascontiguousarray(x, np.complex128)
        return x.view(np.float64).reshape(*x.shape, 2).tolist()
    return np.asarray(np.real(x), dtype=np.float64).tolist()


def vector_from_json(data, n, field: ScalarField):
    if not isinstance(data, (list, tuple)) or len(data) != n:
        raise FormatError(f"vector must have {n} entries")
    return _entries_from_json(data, n, field)


def matrix_to_json(m) -> dict:
    m = np.asarray(m)
    field = field_of(m)
    return {"field": field.value, "n": m.shape[0], "data": vector_to_json(m.ravel(), field)}


def matrix_from_json(d) -> np.ndarray:
    if not isinstance(d, dict):
        raise FormatError("matrix payload must be an object")
    field = _field_from_json(d)
    n = _n_from_json(_key(d, "n"))
    data = _key(d, "data")
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


def rank_ones_to_json(x, f) -> list:
    """Payloads of the rank-one rows ``(x, f)``, each side encoded as one
    block; :func:`rank_one_to_json` is the one-row case."""
    field = ScalarField.COMPLEX if np.iscomplexobj(x) or np.iscomplexobj(f) else ScalarField.REAL
    n = x.shape[1]
    return [{"kind": "rank1", "field": field.value, "n": n, "x": xk, "f": fk}
            for xk, fk in zip(vector_to_json(x, field), vector_to_json(f, field))]


def rank_one_to_json(p: RankOneIdempotent) -> dict:
    return rank_ones_to_json(p.x[None], p.f[None])[0]


def _rank_one_rows_from_json(ds):
    """Rows ``(x, f)`` of rank1 payloads of one field and dimension, each
    side decoded as one block, with the pairs not yet checked.  One payload
    is checked in the order :func:`rank_one_from_json` documents."""
    heads = set()
    for d in ds:
        if not isinstance(d, dict) or d.get("kind") != "rank1":
            raise FormatError("expected a rank1 idempotent payload")
        heads.add((_field_from_json(d), _n_from_json(_key(d, "n"))))
    if len(heads) != 1:
        raise FormatError("rank1 payloads of several fields or dimensions")
    (field, n), = heads
    rows = []
    for key in ("x", "f"):
        data = [_key(d, key) for d in ds]
        if not all(isinstance(v, (list, tuple)) and len(v) == n for v in data):
            raise FormatError(f"vector must have {n} entries")
        flat = list(itertools.chain.from_iterable(data))
        rows.append(_entries_from_json(flat, len(flat), field).reshape(len(ds), n))
    return rows


def rank_one_from_json(d) -> RankOneIdempotent:
    """The idempotent of a rank1 payload: its kind, field tag and ``n``,
    then ``x`` and ``f`` in turn, then the pair by
    :class:`RankOneIdempotent`'s rule."""
    x, f = _rank_one_rows_from_json([d])
    return RankOneIdempotent(x[0], f[0])


def rank_ones_from_json(ds) -> list:
    """The idempotents of a list of rank1 payloads, decoded as one block
    when they share a field and dimension.  The block is accepted whole when
    every pairing is within ``PAIRING_RTOL`` of 1 and no entry is near
    overflow, a test sufficient for :class:`RankOneIdempotent`'s rule;
    otherwise each pair is checked by that rule.  If the block is refused,
    the payloads are decoded one by one, so the first one refused raises
    the error :func:`rank_one_from_json` gives it."""
    try:
        x, f = _rank_one_rows_from_json(ds)
    except (TypeError, ValueError):
        pass
    else:
        if _accepts_pairs(x, f):
            return _rank_one_views(x, f)
    return [rank_one_from_json(d) for d in ds]


def finite_rank_from_json(d) -> FiniteRankIdempotent:
    if not isinstance(d, dict) or d.get("kind") != "finite_rank":
        raise FormatError("expected a finite_rank idempotent payload")
    return FiniteRankIdempotent(matrix_from_json(d))


def space_from_json(d) -> IndefiniteSpace:
    if not isinstance(d, dict) or "eta" not in d:
        raise FormatError("space payload needs an eta matrix")
    eta = matrix_from_json(d["eta"])
    if "n" in d and _n_from_json(d["n"]) != eta.shape[0]:
        raise FormatError("space n does not match eta")
    if "field" in d and _field_from_json(d) is not field_of(eta):
        raise FormatError("space field does not match eta")
    return IndefiniteSpace(eta)


def scalar_to_json(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


#: Deepest nesting of arrays and objects that :func:`loads_input` reads;
#: valid payloads nest at most 7 levels deep.
MAX_INPUT_DEPTH = 64

_ESCAPE_PAIR = re.compile(rb"\\.", re.DOTALL)
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b'[]{}"')))
#: +1 for an opening bracket, -1 for a closing one, 0 for any other byte.
_DEPTH_STEP = np.zeros(256, np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _nesting_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text ``data``.
    Escape pairs ``\\X`` are dropped, so that every quote left opens or
    closes a string; of the rest only the bytes ``[]{}"`` are kept, so the
    text is not copied whole; the brackets outside strings are the even
    parts of a split on the quotes, and the depth is the largest sum of
    their steps over a prefix."""
    if b"\\" in data:
        data = _ESCAPE_PAIR.sub(b"", data)
    brackets = b"".join(data.translate(None, _NOT_BRACKET).split(b'"')[0::2])
    return int(np.cumsum(_DEPTH_STEP[np.frombuffer(brackets, np.uint8)]).max(initial=0))


def loads_input(data: bytes):
    """The JSON value of the UTF-8 text ``data``, read by ``orjson``.  Text
    nested deeper than :data:`MAX_INPUT_DEPTH` is refused first, with
    :class:`FormatError`: ``orjson`` sets no recursion limit of its own."""
    depth = _nesting_depth(data)
    if depth > MAX_INPUT_DEPTH:
        raise FormatError(f"input nests {depth} levels deep, more than {MAX_INPUT_DEPTH}")
    return orjson.loads(data)


def dumps_report(obj) -> str:
    """One line of sorted-key JSON and a newline, written by ``orjson``:
    compact separators, and each float in the shortest spelling that reads
    back to its bits, so that the same object gives the same bytes.
    ``python -m json.tool`` indents it."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE).decode()
