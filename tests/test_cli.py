import json

import numpy as np
import pytest

from idemap.cli import main
from idemap.core import AutomorphismTag, ScalarField, SemilinearOperator, \
    up_to_scalar_distance
from idemap.sampling import random_invertible
from idemap.serialize import (
    matrix_to_json,
    rank_one_to_json,
    semilinear_to_json,
)
from idemap.transform import probe_table_from_operator


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


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ["reconstruct"],
        ["selftest", "--samples", "abc"],
        ["reconstruct", "--in", "in.json", "--tol", "1e-6"],
        ["unknown"],
    ], ids=("missing-in", "bad-int", "reconstruct-tol", "unknown-command"))
    def test_argument_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["symmetry", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


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

    def test_uncovered_table_exits_1(self, tmp_path, capsys):
        # a table built for 50 validation probes does not cover the 20 asked for
        rng = np.random.default_rng(3)
        op = SemilinearOperator(random_invertible(rng, 6, ScalarField.COMPLEX))
        inp = write_json(tmp_path / "t.json", table_input(op, samples=50, seed=5))
        code = main(["reconstruct", "--in", inp, "--seed", "5", "--samples", "20"])
        assert code == 1
        assert "not covered by the probe table" in capsys.readouterr().err

    def test_malformed_input_exits_1(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        assert main(["reconstruct", "--in", str(p)]) == 1

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

    def test_flag_mismatch_exits_1(self, tmp_path):
        op = SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
        inp = write_json(tmp_path / "in.json", induced_input(op))
        assert main(["reconstruct", "--in", inp, "--n", "4"]) == 1
        assert main(["reconstruct", "--in", inp, "--field", "complex"]) == 1


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

    def test_broken_tolerance_exits_3(self, capsys):
        assert main(["selftest", "--samples", "16", "--tol", "1e-20"]) == 3
        assert "\n    case 0 " in capsys.readouterr().out  # failure reasons

    def test_summary_file(self, tmp_path):
        out = str(tmp_path / "self.json")
        assert main(["selftest", "--samples", "8", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert len(report["suites"]) == 8
        assert all(s["passed"] for s in report["suites"])
