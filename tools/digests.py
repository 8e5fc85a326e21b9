"""Print three SHA-256 digests of idemap's observable output, so that two
trees can be compared for a change that must not move any result:

    python3 tools/digests.py

(a) ``cli``: the benchmark's ``cli`` workload (``perfbench/workloads.py``,
    imported read-only), built as its worker builds it at seeds 1-5 and
    770031; each operation's kind, exit code and report bytes, in build order.
(b) ``selftest``: the file ``idemap selftest --seed 42 --out`` writes.
(c) ``library``: a corpus at n = 3, 6 and 16, in both fields, at scales 1,
    1e200 and 1e-200: sampler reports, ``reconstruct`` and
    ``recover_inducing_operator`` results, ``extend`` and ``decompose`` rows,
    table reconstruction, and the type and message of every refusal.

idemap is imported from ``src`` and the workload from ``perfbench`` of the
checkout the script sits in.  BLAS is pinned to one thread, as the
benchmark pins it, so that a digest does not depend on threading.  The
digests are reproducible on one host and one set of library versions;
another numpy or BLAS may round differently.  :func:`library_records`
gives the corpus case by case, for finding the cases two trees disagree on.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import idemap  # noqa: E402
import idemap.cli  # noqa: E402
from idemap.sampling import random_idempotent, random_invertible  # noqa: E402

CLI_SEEDS = (1, 2, 3, 4, 5, 770031)
SIZES = (3, 6, 16)
SCALES = (1.0, 1e200, 1e-200)
FIELDS = (idemap.ScalarField.REAL, idemap.ScalarField.COMPLEX)


def cli_digest() -> str:
    import workloads

    h = hashlib.sha256()
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.build_cli(np.random.default_rng(seed), workdir):
                code = op.run()
                h.update(f"{op.kind}\0{code}\0".encode())
                for path in glob.glob(os.path.join(workdir, "*-report.json")):
                    with open(path, "rb") as fh:
                        h.update(fh.read())
                    os.remove(path)
    return h.hexdigest()


def selftest_digest() -> str:
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "selftest.json")
        with contextlib.redirect_stdout(io.StringIO()):
            idemap.cli.main(["selftest", "--seed", "42", "--out", out])
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _canon(obj) -> bytes:
    """Bytes that stand for ``obj``: arrays by dtype, shape and bits, the
    library's values by the fields that carry their results."""
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype.str}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, idemap.RankOneIdempotent):
        return b"R1" + _canon(obj.x) + _canon(obj.f)
    if isinstance(obj, idemap.FiniteRankIdempotent):
        return b"FR" + _canon(list(obj.rows))
    if isinstance(obj, idemap.SemilinearOperator):
        return b"op" + _canon(obj.matrix) + obj.auto.value.encode()
    if isinstance(obj, idemap.ReconstructionResult):
        return b"RR" + _canon([obj.A, obj.residual, obj.probes_used])
    if isinstance(obj, idemap.Ray):
        return b"ray" + _canon(obj.representative)
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__.encode() + _canon(
            [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(map(_canon, obj)) + b"]"
    if isinstance(obj, enum.Enum):
        return repr(obj.value).encode()
    if isinstance(obj, (complex, np.complexfloating)):
        return repr(complex(obj)).encode()
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex().encode()
    return repr(obj).encode()


def _outcome(run) -> bytes:
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return b"ok" + _canon(run())
    except Exception as exc:  # a refusal is part of the output
        return f"{type(exc).__name__}: {exc}".encode()


def _scaled_rank_ones(ps, s):
    """Pieces ``(x s, f / s)``: the same idempotents, their rows far from 1."""
    return [idemap.RankOneIdempotent(p.x * s, p.f / s) for p in ps]


def _cases(n, field, scale):
    """``(label, run)`` of one dimension, field and scale."""
    rng = np.random.default_rng([n, len(field.value), SCALES.index(scale)])
    conj = field is idemap.ScalarField.COMPLEX and n != 6
    auto = idemap.AutomorphismTag.CONJUGATION if conj else idemap.AutomorphismTag.IDENTITY
    a = idemap.SemilinearOperator(random_invertible(rng, n, field) * scale, auto)
    phi = idemap.induce(a)

    def wrapped(p):
        # A black box whose images have rows far from the safe scale.
        q = phi(p)
        return idemap.RankOneIdempotent(q.x * scale, q.f / scale)

    box = idemap.TransformHandle(wrapped, n, field)
    eta = np.diag([1.0] * (n - 1) + [-1.0]).astype(field.dtype) * scale
    space = idemap.IndefiniteSpace(eta)
    iso = idemap.generate_eta_isometry(idemap.IndefiniteSpace(eta / scale), seed=n)
    u = idemap.SemilinearOperator(iso.matrix * scale, idemap.AutomorphismTag.IDENTITY)
    rays = idemap.induced_ray_map(u)
    ray_box = idemap.RayMap(lambda r: idemap.Ray(iso(r.representative) * scale))
    generic = idemap.RayMap(lambda r: idemap.Ray(a.matrix @ r.representative))
    big = random_idempotent(rng, n, n // 2, field)
    pieces = idemap.decompose(big)
    table = idemap.probe_table_from_operator(a, validation_count=10, seed=n)
    x = rng.standard_normal(n) * scale
    return [
        ("preservation.induced", lambda: idemap.check_preservation(phi, 60, seed=1)),
        ("preservation.box", lambda: idemap.check_preservation(box, 60, seed=1)),
        ("preservation.transpose",
         lambda: idemap.check_preservation(idemap.transpose_handle(n, field), 60, seed=1)),
        ("reconstruct.induced", lambda: idemap.reconstruct(phi, 20, seed=2)),
        ("reconstruct.box", lambda: idemap.reconstruct(box, 20, seed=2)),
        ("reconstruct.table",
         lambda: idemap.reconstruct(idemap.handle_from_table(table, n, field), 10, seed=n)),
        ("automorphism", lambda: idemap.automorphism_of(phi)),
        ("characterize", lambda: idemap.characterize(space, u)),
        ("symmetry.induced", lambda: idemap.is_symmetry(space, rays, 60, seed=3)),
        ("symmetry.box", lambda: idemap.is_symmetry(space, ray_box, 60, seed=3)),
        ("symmetry.generic", lambda: idemap.is_symmetry(space, generic, 60, seed=3)),
        ("recover.induced", lambda: idemap.recover_inducing_operator(space, rays, 20, seed=4)),
        ("recover.box", lambda: idemap.recover_inducing_operator(space, ray_box, 20, seed=4)),
        ("recover.generic", lambda: idemap.recover_inducing_operator(space, generic, 20, seed=4)),
        ("extend", lambda: idemap.extend(phi, big)),
        ("extend.pieces", lambda: idemap.extend(phi, big, _scaled_rank_ones(pieces, scale))),
        ("decompose", lambda: idemap.decompose(big)),
        ("decompose.rank_one", lambda: idemap.decompose(_scaled_rank_ones(pieces, scale)[0])),
        ("decompose.pairing",
         lambda: idemap.decompose(np.outer(np.eye(n)[0], (1 + 6e-10) * np.eye(n)[0]))),
        ("rank_one_from_pair", lambda: idemap.rank_one_from_pair(x, x.conj())),
        ("ray", lambda: idemap.Ray(x)),
        ("partner", lambda: idemap.eta_orthogonal_partner(space, x, np.random.default_rng(5))),
        ("majorant", lambda: idemap.majorant(pieces[0], big)),
        ("space.small", lambda: idemap.IndefiniteSpace(eta[:2, :2])),
        ("handle.small", lambda: idemap.TransformHandle(wrapped, 2, field)),
        ("probes.small", lambda: idemap.reconstruction_probe_set(2, field)),
    ]


def library_records():
    """``(label, bytes)`` of every case of the corpus, in a fixed order."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in SIZES:
            for field in FIELDS:
                for scale in SCALES:
                    head = f"n={n} {field.value} scale={scale:g} "
                    try:
                        cases = _cases(n, field, scale)
                    except Exception as exc:  # a corpus set-up refused at this scale
                        records.append((head + "setup", f"{type(exc).__name__}: {exc}".encode()))
                        continue
                    records += [(head + label, _outcome(run)) for label, run in cases]
    return records


def library_digest() -> str:
    h = hashlib.sha256()
    for label, data in library_records():
        h.update(label.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def main():
    print(f"cli      {cli_digest()}")
    print(f"selftest {selftest_digest()}")
    print(f"library  {library_digest()}")


if __name__ == "__main__":
    main()
