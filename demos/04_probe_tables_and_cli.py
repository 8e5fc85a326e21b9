"""The command-line pipelines and their JSON formats: reconstruct an
operator from an induced definition and from a precomputed probe-response
table, characterize a symmetry, and run the verification suites.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import idemap as im
from idemap.serialize import matrix_to_json, rank_one_to_json, semilinear_to_json
from idemap.transform import probe_table_from_operator


def run(args):
    proc = subprocess.run([sys.executable, "-m", "idemap.cli", *args],
                          capture_output=True, text=True)
    print(f"$ idemap {' '.join(args)}")
    print(f"  exit {proc.returncode}")
    for line in (proc.stdout.strip().splitlines() or [])[:3]:
        print(f"  {line}")
    return proc


tmpdir = tempfile.TemporaryDirectory(prefix="idemap-demo-")
workdir = Path(tmpdir.name)
print(f"working in {workdir}\n")

print("--- reconstruct, induced mode ---")
op = im.SemilinearOperator(np.diag([1.0, 2.0, 3.0]))
(workdir / "induced.json").write_text(json.dumps(
    {"phi": {"mode": "induced", "operator": semilinear_to_json(op)}}
))
run(["reconstruct", "--in", str(workdir / "induced.json"),
     "--out", str(workdir / "report1.json"), "--samples", "20"])
report = json.loads((workdir / "report1.json").read_text())
print(f"  recovered auto={report['auto']}, residual={report['residual']:.2e}, "
      f"probe set size {len(report['probe_set'])}\n")

print("--- reconstruct, probe-table mode ---")
rng = np.random.default_rng(0)
m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
secret = im.SemilinearOperator(m, im.AutomorphismTag.CONJUGATION)
table = probe_table_from_operator(secret, validation_count=15, seed=9)
(workdir / "table.json").write_text(json.dumps({
    "phi": {
        "mode": "table", "n": 3, "field": "complex",
        "probes": [{"in": rank_one_to_json(p), "out": rank_one_to_json(q)}
                   for p, q in table],
    }
}))
run(["reconstruct", "--in", str(workdir / "table.json"),
     "--out", str(workdir / "report2.json"), "--seed", "9", "--samples", "15"])
report2 = json.loads((workdir / "report2.json").read_text())
recovered = np.array([complex(re, im_) for re, im_ in report2["A"]["data"]]).reshape(3, 3)
print(f"  table held a hidden conjugate-linear operator; distance after gauge: "
      f"{im.up_to_scalar_distance(recovered, m / np.linalg.norm(m)):.2e}\n")

print("--- symmetry characterization and recovery ---")
eta = np.diag([1.0, 1.0, -1.0])
c, s = np.cosh(1.0), np.sinh(1.0)
u = im.SemilinearOperator(np.array([[1.0, 0, 0], [0, c, s], [0, s, c]]))
(workdir / "sym.json").write_text(json.dumps({
    "eta": matrix_to_json(eta), "operator": semilinear_to_json(u),
}))
run(["symmetry", "--in", str(workdir / "sym.json"),
     "--out", str(workdir / "symreport.json"), "--samples", "200"])
sym = json.loads((workdir / "symreport.json").read_text())
print(f"  kind={sym['characterization']['kind']}, "
      f"constant={sym['characterization']['constant']}, "
      f"violations={len(sym['symmetry_check']['violations'])}\n")

run(["symmetry", "--in", str(workdir / "sym.json"), "--mode", "recover",
     "--out", str(workdir / "recreport.json"), "--samples", "15"])
tmpdir.cleanup()
print()

print("--- the verification suites ---")
run(["selftest", "--samples", "40"])
