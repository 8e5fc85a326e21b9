import dataclasses
import gc
import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import orjson
import pytest

import idemap.cli
from idemap import __version__, selftest
from idemap.cli import build_parser, main
from idemap.core import RELATION_TOL, AutomorphismTag, ScalarField, SemilinearOperator, \
    up_to_scalar_distance
from idemap.errors import ExtensionInconsistent, NotInduced
from idemap.idempotents import RankOneIdempotent
from idemap.indefinite import IndefiniteSpace, characterize, induced_ray_map, is_symmetry, \
    recover_inducing_operator
from idemap.sampling import random_invertible
from idemap.serialize import (
    FormatError,
    dumps_report,
    matrix_to_json,
    rank_one_from_json,
    rank_one_to_json,
    semilinear_from_json,
    semilinear_to_json,
)
from idemap.transform import TransformHandle, _rank_one_distances, induce, \
    probe_table_from_operator, reconstruct

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def induced_input(op):
    return {"phi": {"mode": "induced", "operator": semilinear_to_json(op)}}


def table_input(op, samples, seed):
    table = probe_table_from_operator(op, validation_count=samples, seed=seed)
    return {
        "phi": {
            "mode": "table",
            "n": op.n,
            "field": op.field.value,
            "probes": [
                {"in": rank_one_to_json(p), "out": rank_one_to_json(q)}
                for p, q in table
            ],
        }
    }


def nested(depth):
    """JSON text of ``depth`` nested arrays."""
    return "[" * depth + "]" * depth


#: Input texts refused before any payload is read: by the parser, or by the
#: nesting limit that comes before it.
_MALFORMED_TEXTS = {
    "not-json": "{not json",
    "nested-200000": nested(200_000),  # json.load raised RecursionError here
    "nan": '{"phi": NaN}',
    "infinity": '{"phi": -Infinity}',
    "bom": "\ufeff{}",
}

#: A valid rank1 payload of the plane, where no transform is supported.
_PLANE_PROBE = {"kind": "rank1", "field": "real", "n": 2, "x": [1.0, 0.0], "f": [1.0, 0.0]}
_PLANE_REFUSAL = "dimension 2 is not supported: the theorem needs dimension >= 3"


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ["reconstruct"],
        ["selftest", "--samples", "abc"],
        ["reconstruct", "--in", "in.json", "--tol", "1e-6"],
        ["symmetry", "--in", "in.json", "--tol", "1e-6"],
        ["selftest", "--tol", "1e-8"],
        ["unknown"],
    ], ids=("missing-in", "bad-int", "reconstruct-tol", "symmetry-tol", "selftest-tol",
            "unknown-command"))
    def test_argument_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["symmetry", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


class TestCollector:
    """``main`` runs a command with the cyclic collector paused, and leaves
    it as it found it on every way out."""

    @pytest.fixture(params=(True, False), ids=("collecting", "paused"))
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("outcome, code", [
        (0, 0), (1, 1), (2, 2), (3, 3),
        (FormatError("bad"), 1), (OSError("gone"), 1), (NotInduced("no"), 2),
    ], ids=("return-0", "return-1", "return-2", "return-3",
            "malformed", "os-error", "negative"))
    def test_handler_runs_paused(self, outcome, code, collecting, monkeypatch):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(idemap.cli, "cmd_selftest", handler)
        assert main(["selftest"]) == code
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_unexpected_error_propagates(self, collecting, monkeypatch):
        def handler(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(idemap.cli, "cmd_reconstruct", handler)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["reconstruct", "--in", "in.json"])
        assert gc.isenabled() is collecting

    def test_usage_error_and_help(self, collecting, capsys):
        assert main(["unknown"]) == 1
        assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc.isenabled() is collecting

    def test_a_command_end_to_end(self, collecting, tmp_path):
        inp = write_json(tmp_path / "in.json", induced_input(SemilinearOperator(np.eye(3))))
        assert main(["reconstruct", "--in", inp, "--samples", "4"]) == 0
        assert gc.isenabled() is collecting


class TestReconstructCommand:
    def test_induced_roundtrip(self, tmp_path, capsys):
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        inp = write_json(tmp_path / "in.json", induced_input(op))
        out = str(tmp_path / "report.json")
        code = main(["reconstruct", "--in", inp, "--out", out,
                     "--seed", "7", "--samples", "20"])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["auto"] == "id"
        assert report["residual"] <= 1e-9
        data = np.array(report["A"]["data"]).reshape(3, 3)
        assert up_to_scalar_distance(
            data, np.diag([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        ) <= 1e-9
        # real field: no automorphism/phase probes
        assert len(report["probe_set"]) == 3 + 2 + 20
        assert report["config"] == {"command": "reconstruct", "seed": 7, "samples": 20}

    def test_byte_identical_reports(self, tmp_path):
        rng = np.random.default_rng(0)
        op = SemilinearOperator(random_invertible(rng, 3, ScalarField.COMPLEX),
                                AutomorphismTag.CONJUGATION)
        inp = write_json(tmp_path / "in.json", induced_input(op))
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["reconstruct", "--in", inp, "--out", out1,
                     "--seed", "3", "--samples", "10"]) == 0
        assert main(["reconstruct", "--in", inp, "--out", out2,
                     "--seed", "3", "--samples", "10"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_report_is_one_sorted_line(self, tmp_path):
        rng = np.random.default_rng(4)
        op = SemilinearOperator(random_invertible(rng, 4, ScalarField.COMPLEX),
                                AutomorphismTag.CONJUGATION)
        inp = write_json(tmp_path / "in.json", induced_input(op))
        out = tmp_path / "report.json"
        assert main(["reconstruct", "--in", inp, "--out", str(out),
                     "--seed", "3", "--samples", "10"]) == 0
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        report = json.loads(text)
        assert text == orjson.dumps(
            report, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE).decode()

        def sorted_at_every_depth(v):
            if isinstance(v, dict):
                return list(v) == sorted(v) and all(map(sorted_at_every_depth, v.values()))
            return not isinstance(v, list) or all(map(sorted_at_every_depth, v))

        assert sorted_at_every_depth(report)
        result = reconstruct(induce(op), validation_count=10, seed=3)
        a = semilinear_from_json(report["A"])
        assert a.auto is result.A.auto
        assert a.matrix.tobytes() == result.A.matrix.tobytes()
        assert report["residual"] == result.residual

    def test_table_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        op = SemilinearOperator(random_invertible(rng, 3, ScalarField.COMPLEX))
        inp = write_json(tmp_path / "t.json", table_input(op, samples=10, seed=5))
        out = str(tmp_path / "report.json")
        code = main(["reconstruct", "--in", inp, "--out", out,
                     "--seed", "5", "--samples", "10"])
        assert code == 0
        report = json.loads(open(out).read())
        recovered = np.array(
            [complex(re, im) for re, im in report["A"]["data"]]
        ).reshape(3, 3)
        assert up_to_scalar_distance(
            recovered, op.matrix / np.linalg.norm(op.matrix)
        ) <= 1e-8

    @pytest.mark.parametrize("field", (ScalarField.REAL, ScalarField.COMPLEX),
                             ids=("real", "complex"))
    @pytest.mark.parametrize("k", (600, -600, 1000, -1000))
    def test_out_of_range_table_outputs(self, field, k, tmp_path):
        # Outputs written as (x 2^k, f 2^-k), the same idempotents, give the
        # report of the table as written in range, with no overflow warning.
        op = SemilinearOperator(random_invertible(np.random.default_rng(7), 3, field))
        reports = []
        for scale in (0, k):
            payload = table_input(op, samples=10, seed=5)
            for entry in payload["phi"]["probes"]:
                entry["out"]["x"] = np.ldexp(np.array(entry["out"]["x"]), scale).tolist()
                entry["out"]["f"] = np.ldexp(np.array(entry["out"]["f"]), -scale).tolist()
            inp = write_json(tmp_path / "t.json", payload)
            out = tmp_path / f"report{scale}.json"
            assert main(["reconstruct", "--in", inp, "--out", str(out),
                         "--seed", "5", "--samples", "10"]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]

    def test_inconsistent_table_exits_2(self, tmp_path):
        rng = np.random.default_rng(2)
        op = SemilinearOperator(random_invertible(rng, 3, ScalarField.COMPLEX))
        payload = table_input(op, samples=10, seed=5)
        probes = payload["phi"]["probes"]
        # swap two responses: all entries stay valid idempotents, but no
        # single operator induces the table any more
        probes[0]["out"], probes[1]["out"] = probes[1]["out"], probes[0]["out"]
        inp = write_json(tmp_path / "bad.json", payload)
        code = main(["reconstruct", "--in", inp, "--seed", "5",
                     "--samples", "10"])
        assert code == 2

    def test_complex_entry_in_a_real_table_exits_1(self, tmp_path, capsys):
        op = SemilinearOperator(random_invertible(np.random.default_rng(8), 3, ScalarField.REAL))
        payload = table_input(op, samples=4, seed=1)
        p = rank_one_from_json(payload["phi"]["probes"][0]["in"])
        payload["phi"]["probes"][0]["in"] = rank_one_to_json(
            RankOneIdempotent(p.x + 1e-3j * np.roll(p.x, 1), p.f))
        inp = write_json(tmp_path / "t.json", payload)
        assert main(["reconstruct", "--in", inp, "--samples", "4", "--seed", "1"]) == 1
        assert "real field holds a complex entry" in capsys.readouterr().err

    def test_uncovered_table_exits_1(self, tmp_path, capsys):
        # a table built for 50 validation probes does not cover the 20 asked for
        rng = np.random.default_rng(3)
        op = SemilinearOperator(random_invertible(rng, 6, ScalarField.COMPLEX))
        inp = write_json(tmp_path / "t.json", table_input(op, samples=50, seed=5))
        code = main(["reconstruct", "--in", inp, "--seed", "5", "--samples", "20"])
        assert code == 1
        assert "not covered by the probe table" in capsys.readouterr().err

    def test_table_refusals_follow_table_order(self, tmp_path, capsys):
        """A missing side of any entry is reported first; else the payloads
        are read as ``in``, ``out`` of each entry in turn, and a refused
        ``out`` is reported before a later entry's refused ``in``."""
        op = SemilinearOperator(random_invertible(np.random.default_rng(6), 3,
                                                  ScalarField.COMPLEX))
        payload = table_input(op, samples=4, seed=1)
        probes = payload["phi"]["probes"]
        good = json.loads(json.dumps(probes))
        probes[1]["out"]["x"].pop()
        probes[3]["in"]["kind"] = "finite_rank"
        del probes[4]["out"]
        # Each refusal is mended, in turn, once it has been reported.
        for message, mend in (("missing key: 'out'", 4),
                              ("vector must have 3 entries", 1),
                              ("expected a rank1 idempotent payload", None)):
            inp = write_json(tmp_path / "t.json", payload)
            assert main(["reconstruct", "--in", inp, "--samples", "4", "--seed", "1"]) == 1
            assert message in capsys.readouterr().err
            if mend is not None:
                probes[mend] = good[mend]

    @pytest.mark.parametrize("text", _MALFORMED_TEXTS.values(), ids=_MALFORMED_TEXTS.keys())
    def test_malformed_input_exits_1(self, text, tmp_path, capsys):
        p = tmp_path / "garbage.json"
        p.write_text(text, encoding="utf-8")
        assert main(["reconstruct", "--in", str(p)]) == 1
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", (64, 65))
    def test_nesting_limit(self, depth, tmp_path, capsys):
        # An induced input whose unused key takes it down to ``depth`` levels.
        note = []
        for _ in range(depth - 3):
            note = [note]
        payload = induced_input(SemilinearOperator(np.diag([1.0, 2.0, 3.0])))
        payload["phi"]["note"] = note
        inp = write_json(tmp_path / "in.json", payload)
        refused = depth > 64
        assert main(["reconstruct", "--in", inp, "--samples", "4"]) == int(refused)
        assert ("nests 65 levels deep, more than 64" in capsys.readouterr().err) == refused

    @pytest.mark.parametrize("command, payload", [
        ("reconstruct", [1, 2]),
        ("reconstruct", {"phi": 5}),
        ("symmetry", [1, 2]),
    ], ids=("reconstruct-list", "reconstruct-phi-number", "symmetry-list"))
    def test_input_that_is_not_an_object_exits_1(self, command, payload, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", payload)
        assert main([command, "--in", inp]) == 1
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ("operator", "n", "field", "probes", "in"))
    def test_missing_key_is_named(self, key, tmp_path, capsys):
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        payload = table_input(op, samples=4, seed=1) if key != "operator" else induced_input(op)
        phi = payload["phi"]
        del (phi["probes"][2] if key == "in" else phi)[key]
        inp = write_json(tmp_path / "in.json", payload)
        assert main(["reconstruct", "--in", inp, "--samples", "4", "--seed", "1"]) == 1
        assert f"error: malformed input: missing key: '{key}'" in capsys.readouterr().err

    def test_unknown_phi_mode_exits_1(self, tmp_path, capsys):
        inp = write_json(tmp_path / "oracle.json", {"phi": {"mode": "oracle"}})
        assert main(["reconstruct", "--in", inp]) == 1
        assert "unknown phi mode 'oracle'" in capsys.readouterr().err

    def test_bare_phi_exits_1(self, tmp_path, capsys):
        # The map is read from the ``phi`` key only, never from the top level.
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        inp = write_json(tmp_path / "bare.json", induced_input(op)["phi"])
        assert main(["reconstruct", "--in", inp]) == 1
        assert "error: malformed input: missing key: 'phi'" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({"mode": "table", "n": 3, "field": "quaternion", "probes": []},
         "bad field tag: 'quaternion' is not a valid ScalarField"),
        ({"mode": "table", "n": 2, "field": "real",
          "probes": [{"in": _PLANE_PROBE, "out": _PLANE_PROBE}]}, _PLANE_REFUSAL),
        ({"mode": "induced", "operator": matrix_to_json(np.eye(2))}, _PLANE_REFUSAL),
    ], ids=("field-unknown", "table-dimension", "induced-dimension"))
    def test_header_refusals_come_from_the_library(self, payload, message, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"phi": payload})
        assert main(["reconstruct", "--in", inp]) == 1
        assert f"error: malformed input: {message}" in capsys.readouterr().err

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        assert main(["reconstruct", "--in", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_singular_operator_exits_1(self, tmp_path):
        payload = {"phi": {"mode": "induced",
                           "operator": matrix_to_json(np.diag([1.0, 1.0, 0.0]))}}
        inp = write_json(tmp_path / "sing.json", payload)
        assert main(["reconstruct", "--in", inp]) == 1

    def test_small_dimension_exits_1(self, tmp_path):
        payload = {"phi": {"mode": "induced",
                           "operator": matrix_to_json(np.eye(2))}}
        inp = write_json(tmp_path / "small.json", payload)
        assert main(["reconstruct", "--in", inp]) == 1

    def test_negative_samples_exits_1(self, tmp_path):
        inp = write_json(tmp_path / "in.json",
                         induced_input(SemilinearOperator(np.eye(3))))
        out = tmp_path / "report.json"
        assert main(["reconstruct", "--in", inp, "--out", str(out),
                     "--samples", "-3"]) == 1
        assert not out.exists()

    def test_flag_mismatch_exits_1(self, tmp_path, capsys):
        """The input states its dimension and field once: ``--n`` and
        ``--field`` are retired, and either exits 1, even when it agrees
        with the input, and neither is listed by ``--help``."""
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        inputs = {"reconstruct": induced_input(op),
                  "symmetry": {"eta": matrix_to_json(np.eye(3)),
                               "operator": semilinear_to_json(op)}}
        for command, payload in inputs.items():
            inp = write_json(tmp_path / "in.json", payload)
            assert main([command, "--in", inp, "--samples", "4"]) in (0, 2)
            for flag in (["--n", "3"], ["--field", "real"]):
                capsys.readouterr()
                assert main([command, "--in", inp, "--samples", "4", *flag]) == 1
                assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
                with pytest.raises(SystemExit):
                    main([command, "--help"])
                assert flag[0] not in capsys.readouterr().out


def per_probe_report(argv):
    """The report of ``idemap reconstruct`` built one probe at a time: each
    table entry decoded alone, each query answered by a scan of the whole
    table (the first input at the least ``_rank_one_distances``; these
    tables' rows are all at a safe scale), each probe encoded alone."""
    args = build_parser().parse_args(argv)
    with open(args.inp) as fh:
        phi_def = json.load(fh)["phi"]
    if phi_def["mode"] == "induced":
        phi = induce(semilinear_from_json(phi_def["operator"]))
    else:
        table = [(rank_one_from_json(e["in"]), rank_one_from_json(e["out"]))
                 for e in phi_def["probes"]]
        ys, gs = np.array([p.x for p, _ in table]), np.array([p.f for p, _ in table])

        def scan(p):
            dists = _rank_one_distances(p.x[None], p.f[None], ys, gs)
            best = int(np.argmin(dists))
            assert dists[best] <= RELATION_TOL * (1 + np.linalg.norm(p.x) * np.linalg.norm(p.f))
            return table[best][1]

        phi = TransformHandle(scan, int(phi_def["n"]), ScalarField(phi_def["field"]))
    result = reconstruct(phi, validation_count=args.samples, seed=args.seed)

    def entries(v, cplx):
        return [[float(z.real), float(z.imag)] for z in v] if cplx else [float(z) for z in v]

    def probe(p):
        cplx = np.iscomplexobj(p.x) or np.iscomplexobj(p.f)
        return {"kind": "rank1", "field": "complex" if cplx else "real", "n": p.n,
                "x": entries(p.x, cplx), "f": entries(p.f, cplx)}

    return dumps_report({
        "version": __version__, "seed": args.seed,
        "config": {"command": "reconstruct", "seed": args.seed, "samples": args.samples},
        "A": semilinear_to_json(result.A), "auto": result.A.auto.value,
        "residual": result.residual, "probes": result.probes_used,
        "probe_set": [probe(p) for p in result.probes.all_probes()]}).encode()


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_benchmark_reports_match_the_per_probe_path(seed, tmp_path, monkeypatch):
    """The ``reconstruct`` reports of the ``cli`` benchmark workload, induced
    and from a table, have the SHA-256 digests of the reports built one
    probe at a time: the block lookup, the block decoding of the table and
    the block encoding of ``probe_set`` change no byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    lines = []
    with monkeypatch.context() as m:
        m.setattr(idemap.cli, "main", lambda argv: lines.append(argv) or 0)
        for op in workloads.build_cli(np.random.default_rng(seed), str(tmp_path)):
            op.run()
    lines = [argv for argv in lines if argv[0] == "reconstruct"]
    assert len(lines) == 18
    for argv in lines:
        assert main(argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == hashlib.sha256(per_probe_report(argv)).hexdigest()), argv


class TestSymmetryCommand:
    def _payload(self, eta, op, mode):
        return {"eta": matrix_to_json(eta),
                "mode": mode,
                "operator": semilinear_to_json(op)}

    def test_characterize_hyperbolic(self, tmp_path):
        eta = np.diag([1.0, 1.0, -1.0])
        c, s = np.cosh(1.0), np.sinh(1.0)
        u = SemilinearOperator(np.array([[1.0, 0, 0], [0, c, s], [0, s, c]]))
        inp = write_json(tmp_path / "sym.json",
                         self._payload(eta, u, "characterize"))
        out = str(tmp_path / "rep.json")
        code = main(["symmetry", "--in", inp, "--out", out, "--samples", "100"])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["characterization"]["kind"] == "linear"
        const = report["characterization"]["constant"]
        assert const[0] == pytest.approx(1.0) and const[1] == pytest.approx(0.0)
        assert report["symmetry_check"]["violations"] == []
        assert report["symmetry_check"]["pairs"] == 100

    def test_characterize_identity(self, tmp_path):
        inp = write_json(
            tmp_path / "id.json",
            self._payload(np.eye(3), SemilinearOperator(np.eye(3)), "characterize"),
        )
        assert main(["symmetry", "--in", inp, "--samples", "50"]) == 0

    def test_tol_is_refused(self, tmp_path, capsys):
        # with a readable input, unlike the argument-error cases: the flag
        # itself is refused, not the missing file
        inp = write_json(
            tmp_path / "id.json",
            self._payload(np.eye(3), SemilinearOperator(np.eye(3)), "characterize"),
        )
        assert main(["symmetry", "--in", inp, "--tol", "1e-6"]) == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_generic_triangular_exits_2(self, tmp_path):
        u = SemilinearOperator(np.array([[1.0, 2.0, 0], [0, 1.0, 3.0],
                                         [0, 0, 1.0]]))
        inp = write_json(tmp_path / "tri.json",
                         self._payload(np.eye(3), u, "characterize"))
        assert main(["symmetry", "--in", inp, "--samples", "50"]) == 2

    def test_recover_mode(self, tmp_path):
        eta = np.diag([1.0, 1.0, -1.0])
        c, s = np.cosh(1.0), np.sinh(1.0)
        u = SemilinearOperator(np.array([[1.0, 0, 0], [0, c, s], [0, s, c]]))
        inp = write_json(tmp_path / "rec.json", self._payload(eta, u, "recover"))
        out = str(tmp_path / "rep.json")
        code = main(["symmetry", "--in", inp, "--out", out, "--samples", "15"])
        assert code == 0
        report = json.loads(open(out).read())
        recovered = np.array(report["U"]["data"]).reshape(3, 3)
        assert up_to_scalar_distance(
            recovered, u.matrix / np.linalg.norm(u.matrix)
        ) <= 1e-7

    def test_mode_flag_overrides_file(self, tmp_path):
        eta = np.diag([1.0, 1.0, -1.0])
        c, s = np.cosh(1.0), np.sinh(1.0)
        u = SemilinearOperator(np.array([[1.0, 0, 0], [0, c, s], [0, s, c]]))
        inp = write_json(tmp_path / "sym.json",
                         self._payload(eta, u, "characterize"))
        out = str(tmp_path / "rep.json")
        code = main(["symmetry", "--in", inp, "--out", out,
                     "--mode", "recover", "--samples", "15"])
        assert code == 0
        assert "U" in json.loads(open(out).read())

    def test_byte_identical_reports(self, tmp_path):
        u = SemilinearOperator(np.eye(3))
        inp = write_json(tmp_path / "sym.json",
                         self._payload(np.diag([1.0, 1.0, -1.0]), u,
                                       "characterize"))
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["symmetry", "--in", inp, "--out", out1, "--seed", "5",
                     "--samples", "40"]) == 0
        assert main(["symmetry", "--in", inp, "--out", out2, "--seed", "5",
                     "--samples", "40"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_recover_non_symmetry_exits_2(self, tmp_path):
        rng = np.random.default_rng(3)
        u = SemilinearOperator(random_invertible(rng, 3, ScalarField.REAL))
        inp = write_json(tmp_path / "bad.json",
                         self._payload(np.diag([1.0, 1.0, -1.0]), u, "recover"))
        assert main(["symmetry", "--in", inp, "--samples", "15"]) == 2

    def test_negative_samples_exits_1(self, tmp_path):
        inp = write_json(
            tmp_path / "id.json",
            self._payload(np.eye(3), SemilinearOperator(np.eye(3)), "characterize"),
        )
        out = tmp_path / "rep.json"
        for mode in ("characterize", "recover"):
            assert main(["symmetry", "--mode", mode, "--in", inp,
                         "--out", str(out), "--samples", "-3"]) == 1
            assert not out.exists()

    def test_overflowing_characterization_exits_1(self, tmp_path, capsys):
        u = SemilinearOperator(1e155 * np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]]))
        inp = write_json(tmp_path / "huge.json",
                         self._payload(np.diag([1.0, 1.0, -1.0]), u, "characterize"))
        out = tmp_path / "rep.json"
        assert main(["symmetry", "--in", inp, "--out", str(out), "--samples", "20"]) == 1
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()  # the parent wrote "constant": [Infinity, 0.0]

    def test_unknown_mode_exits_1(self, tmp_path, capsys):
        inp = write_json(tmp_path / "invert.json",
                         self._payload(np.eye(3), SemilinearOperator(np.eye(3)), "invert"))
        assert main(["symmetry", "--in", inp]) == 1
        assert "unknown symmetry mode 'invert'" in capsys.readouterr().err

    def test_missing_operator_is_named(self, tmp_path, capsys):
        payload = self._payload(np.eye(3), SemilinearOperator(np.eye(3)), "characterize")
        del payload["operator"]
        inp = write_json(tmp_path / "no-op.json", payload)
        assert main(["symmetry", "--in", inp]) == 1
        assert "error: malformed input: missing key: 'operator'" in capsys.readouterr().err

    def test_operator_size_mismatch_exits_1(self, tmp_path, capsys):
        inp = write_json(tmp_path / "wide.json",
                         self._payload(np.eye(3), SemilinearOperator(np.eye(4)), "characterize"))
        assert main(["symmetry", "--in", inp]) == 1
        assert "operator dimension does not match eta" in capsys.readouterr().err

    def test_singular_eta_exits_1(self, tmp_path):
        payload = {"eta": matrix_to_json(np.diag([1.0, 1.0, 0.0])),
                   "mode": "characterize",
                   "operator": semilinear_to_json(SemilinearOperator(np.eye(3)))}
        inp = write_json(tmp_path / "sing.json", payload)
        assert main(["symmetry", "--in", inp]) == 1


class TestSelftestCommand:
    def test_zero_budget_vacuous(self, capsys):
        assert main(["selftest", "--samples", "0"]) == 0
        err = capsys.readouterr().err
        assert "vacuous" in err or "budget 0" in err

    def test_small_budget_passes(self):
        assert main(["selftest", "--samples", "16", "--seed", "1"]) == 0

    def test_negative_budget_exits_1(self, capsys):
        assert main(["selftest", "--samples", "-3"]) == 1
        assert "[PASS]" not in capsys.readouterr().out

    def test_wrong_reconstruction_exits_3(self, monkeypatch, capsys):
        # an operator moved by 1e-5 I is beyond the roundtrip threshold of 1e-7
        def moved(*args, **kwargs):
            result = reconstruct(*args, **kwargs)
            m = result.A.matrix
            return dataclasses.replace(
                result, A=SemilinearOperator(m + 1e-5 * np.eye(len(m)), result.A.auto))

        monkeypatch.setattr(selftest, "reconstruct", moved)
        assert main(["selftest", "--samples", "16"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] roundtrip_reconstruction" in out
        assert "\n    case 0 (" in out  # failure reasons

    @pytest.mark.parametrize("name, error", [
        ("generate_eta_isometry", ArithmeticError("isometry generation failed")),
        ("extend", ExtensionInconsistent("mapped pieces do not sum to an idempotent")),
    ], ids=("generation", "extension"))
    def test_raising_suite_exits_3(self, name, error, monkeypatch, capsys):
        # generation is called outside any per-case catch, and so is
        # extend in the trace-identity suite
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(selftest, name, raising)
        assert main(["selftest", "--samples", "4"]) == 3
        assert f"suite raised {type(error).__name__}: {error}" in capsys.readouterr().out

    def test_summary_file(self, tmp_path):
        out = str(tmp_path / "self.json")
        assert main(["selftest", "--samples", "8", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert len(report["suites"]) == 8
        assert all(s["passed"] for s in report["suites"])


def real_entries(a):
    return [float(z) for z in np.ravel(a)]


class TestReportBytes:
    """Each report has the bytes of ``dumps_report`` of the dict built here
    from the library's own results at the same seed, so a key dropped or
    renamed in any report shows."""

    HYPERBOLIC = np.array([[1.0, 0, 0], [0, np.cosh(1.0), np.sinh(1.0)],
                           [0, np.sinh(1.0), np.cosh(1.0)]])
    TRIANGULAR = np.array([[1.0, 2.0, 0], [0, 1.0, 3.0], [0, 0, 1.0]])

    def _symmetry(self, tmp_path, eta, u, argv):
        inp = write_json(tmp_path / "in.json", {"eta": matrix_to_json(eta),
                                                "operator": semilinear_to_json(u)})
        out = tmp_path / "report.json"
        code = main(["symmetry", "--in", inp, "--out", str(out), *argv])
        return code, out.read_bytes()

    @pytest.mark.parametrize("eta, matrix, code", [
        (np.diag([1.0, 1.0, -1.0]), HYPERBOLIC, 0),
        (np.eye(3), TRIANGULAR, 2),
    ], ids=("symmetry", "generic"))
    def test_characterize(self, eta, matrix, code, tmp_path):
        u = SemilinearOperator(matrix)
        got = self._symmetry(tmp_path, eta, u, ["--mode", "characterize", "--seed", "9",
                                                "--samples", "60"])
        space = IndefiniteSpace(eta)
        ch = characterize(space, u)
        check = is_symmetry(space, induced_ray_map(u), sample_count=60, seed=9)
        assert bool(check.violations) == bool(code)
        constant = None if ch.constant is None else [float(ch.constant.real),
                                                     float(ch.constant.imag)]
        assert got == (code, dumps_report({
            "version": __version__, "seed": 9,
            "config": {"command": "symmetry.characterize", "seed": 9, "samples": 60},
            "characterization": {"kind": ch.kind.value, "constant": constant},
            "symmetry_check": {
                "violations": [{"x": real_entries(v.first), "y": real_entries(v.second),
                                "source_margin": v.source_margin,
                                "image_margin": v.image_margin}
                               for v in check.violations],
                "pairs": 60}}).encode())

    def test_recover(self, tmp_path):
        eta, u = np.diag([1.0, 1.0, -1.0]), SemilinearOperator(self.HYPERBOLIC)
        got = self._symmetry(tmp_path, eta, u, ["--mode", "recover", "--seed", "9",
                                                "--samples", "15"])
        result = recover_inducing_operator(IndefiniteSpace(eta), induced_ray_map(u),
                                           validation_count=15, seed=9)
        assert got == (0, dumps_report({
            "version": __version__, "seed": 9,
            "config": {"command": "symmetry.recover", "seed": 9, "samples": 15},
            "U": {"field": "real", "n": 3, "data": real_entries(result.A.matrix),
                  "auto": "id"},
            "auto": "id", "residual": result.residual,
            "probes": result.probes_used}).encode())

    def test_selftest(self, tmp_path):
        out = tmp_path / "self.json"
        assert main(["selftest", "--samples", "8", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == dumps_report({
            "version": __version__, "seed": 3,
            "config": {"command": "selftest", "seed": 3, "samples": 8},
            "suites": [{"name": r.name, "passed": r.passed, "cases": r.cases,
                        "detail": r.detail, "failures": list(r.failures)}
                       for r in selftest.run_all(seed=3, budget=8)]}).encode()
