"""End-to-end command-line behavior through files and JSON/CSV outputs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chswitch
from chswitch.cli import main
from chswitch.gates import WeylOp
from chswitch.matrices import fourier
from chswitch.promise import PromiseInstance, save_instance, shift_permutations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_gen_and_classify(tmp_path, capsys):
    path = tmp_path / "f4.json"
    code, out, _ = run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "4", "--out", str(path))
    assert code == 0
    assert json.loads(out)["written"] == str(path)
    code, out, _ = run_cli(capsys, "matrix", "classify", str(path))
    assert code == 0
    assert json.loads(out) == {"butson": 4}


def test_matrix_validate_and_mindim(tmp_path, capsys):
    path = tmp_path / "m.json"
    run_cli(capsys, "matrix", "gen", "--family", "f4", "--a-turn", "1/8", "--out", str(path))
    code, out, _ = run_cli(capsys, "matrix", "validate", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "matrix", "mindim", str(path))
    assert json.loads(out) == {"min_dimension": 8, "cv_required": False}


def test_matrix_classify_irrational(tmp_path, capsys):
    path = tmp_path / "irr.json"
    a = (2 * math.pi / math.sqrt(2)) % math.pi
    run_cli(capsys, "matrix", "gen", "--family", "f4", "--a", str(a), "--out", str(path))
    code, out, _ = run_cli(capsys, "matrix", "classify", str(path), "--d-max", "512")
    assert code == 0
    payload = json.loads(out)
    assert payload["butson"] is None
    assert payload["witness"] == [1, 1]


def test_matrix_dephase_roundtrip(tmp_path, capsys):
    src = tmp_path / "m.json"
    out_path = tmp_path / "deph.json"
    run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "3", "--out", str(src))
    code, out, _ = run_cli(capsys, "matrix", "dephase", str(src), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["written"] == str(out_path)
    assert all(f == {"num": 0, "den": 1} for f in payload["row_factors"])


def test_promise_build_verify_run_qudit(tmp_path, capsys):
    mat = tmp_path / "m.json"
    inst = tmp_path / "inst.json"
    run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "3", "--out", str(mat))
    code, out, _ = run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "2",
        "--target", "qudit", "--out", str(inst),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "promise", "verify", "--instance", str(inst))
    assert code == 0
    assert json.loads(out) == {"column": 2, "claimed_column": 2}
    code, out, _ = run_cli(capsys, "switch", "run", "--instance", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload["argmax"] == 2
    assert payload["deterministic"] is True
    assert payload["distribution"][2] == pytest.approx(1.0)


def test_promise_build_cv_and_run_with_sample(tmp_path, capsys):
    mat = tmp_path / "m.json"
    inst = tmp_path / "inst.json"
    run_cli(capsys, "matrix", "gen", "--family", "f4", "--a", "0.6", "--out", str(mat))
    run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "1",
        "--target", "cv", "--alpha", "0.5", "--out", str(inst),
    )
    code, out, _ = run_cli(capsys, "switch", "run", "--instance", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload["argmax"] == 1


def test_promise_build_minimal(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys, "promise", "build", "--target", "minimal", "--a", "0.9",
        "--column", "3", "--out", str(inst),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "promise", "verify", "--instance", str(inst))
    assert code == 0
    assert json.loads(out)["column"] == 3


def test_switch_run_psi_file(tmp_path, capsys):
    mat = tmp_path / "m.json"
    inst = tmp_path / "inst.json"
    psi = tmp_path / "psi.json"
    run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "2", "--out", str(mat))
    run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "1",
        "--target", "qudit", "--out", str(inst),
    )
    s = 1 / math.sqrt(2)
    psi.write_text(json.dumps([[s, 0.0], [0.0, s]]))
    code, out, _ = run_cli(capsys, "switch", "run", "--instance", str(inst), "--psi", str(psi))
    assert code == 0
    assert json.loads(out)["argmax"] == 1


def test_switch_run_psi_rejected_for_cv(tmp_path, capsys):
    mat = tmp_path / "m.json"
    inst = tmp_path / "inst.json"
    psi = tmp_path / "psi.json"
    run_cli(capsys, "matrix", "gen", "--family", "f4", "--a", "0.4", "--out", str(mat))
    run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "2",
        "--target", "cv", "--out", str(inst),
    )
    psi.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    code, _, err = run_cli(capsys, "switch", "run", "--instance", str(inst), "--psi", str(psi))
    assert code == 1
    assert json.loads(err)["code"] == "domain_error"


def test_switch_run_random_psi(tmp_path, capsys):
    mat = tmp_path / "m.json"
    inst = tmp_path / "inst.json"
    run_cli(capsys, "matrix", "gen", "--family", "sylvester", "--k", "2", "--out", str(mat))
    run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "3",
        "--target", "qudit", "--dim", "2", "--out", str(inst),
    )
    code, out, _ = run_cli(capsys, "switch", "run", "--instance", str(inst), "--random-psi", "42")
    assert code == 0
    assert json.loads(out)["argmax"] == 3


def test_switch_sweep_families(capsys):
    code, out, _ = run_cli(capsys, "switch", "sweep", "--family", "fourier", "--dmax", "4", "--target", "qudit")
    assert code == 0
    payload = json.loads(out)
    # a column that is not recovered exits 1, so a sweep that prints succeeded
    assert set(payload) == {"target", "sweeps"}
    assert all(s["worst_deviation"] < 1e-9 for s in payload["sweeps"])
    assert [s["d"] for s in payload["sweeps"]] == [2, 3, 4]
    code, out, _ = run_cli(
        capsys, "switch", "sweep", "--family", "f4", "--a", "0.0,1.5707963,0.3", "--target", "cv"
    )
    assert code == 0
    assert len(json.loads(out)["sweeps"]) == 3


def test_scs_solve_with_witness(capsys):
    code, out, _ = run_cli(capsys, "scs", "solve", "--perms", "012,102,120", "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 5
    assert payload["witness_order"] == "application"
    assert len(payload["witness"]) == 5


def test_scs_census_stdout_row(capsys):
    code, out, _ = run_cli(capsys, "scs", "census", "--n", "3", "--p", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("N,p,combos")
    fields = lines[1].split(",")
    assert fields[:6] == ["3", "4", "10", "exhaustive", "5", "6"]
    assert fields[6] == "5.400000"


def test_scs_sweep_csv_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "6", "--out", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("N,p,combos")
    assert len(text.strip().split("\n")) == 6


def test_scs_census_budget_error(capsys):
    code, out, err = run_cli(capsys, "scs", "census", "--n", "4", "--p", "12")
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "budget_exceeded"
    assert payload["required"] == 1352078
    # sampling is the suggested way out
    code, out, _ = run_cli(capsys, "scs", "census", "--n", "4", "--p", "12", "--sample", "25", "--seed", "3")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[3] == "sample"


def test_cli_outputs_are_reproducible(tmp_path, capsys):
    mat = tmp_path / "m.json"
    run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "5", "--out", str(mat))
    _, out1, _ = run_cli(capsys, "matrix", "classify", str(mat))
    _, out2, _ = run_cli(capsys, "matrix", "classify", str(mat))
    assert out1 == out2
    _, c1, _ = run_cli(capsys, "scs", "census", "--n", "4", "--p", "3", "--sample", "20", "--seed", "11")
    _, c2, _ = run_cli(capsys, "scs", "census", "--n", "4", "--p", "3", "--sample", "20", "--seed", "11")
    assert c1 == c2


def test_cli_domain_error_is_structured(tmp_path, capsys):
    mat = tmp_path / "m.json"
    a = (2 * math.pi / math.sqrt(2)) % math.pi
    run_cli(capsys, "matrix", "gen", "--family", "f4", "--a", str(a), "--out", str(mat))
    code, _, err = run_cli(
        capsys, "promise", "build", "--matrix", str(mat), "--column", "0", "--target", "qudit"
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "not_butson"
    assert payload["witness"] == [1, 1]


def test_cli_usage_error_exit_code(capsys):
    assert main(["matrix", "gen"]) == 2  # missing required --family
    capsys.readouterr()
    assert main(["unknown-group"]) == 2
    capsys.readouterr()


def test_cli_pretty_flag(tmp_path, capsys):
    mat = tmp_path / "m.json"
    run_cli(capsys, "matrix", "gen", "--family", "fourier", "--d", "2", "--out", str(mat))
    _, out, _ = run_cli(capsys, "matrix", "classify", str(mat), "--pretty")
    assert out.startswith("{\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "abc"], 2),
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "-1"], 2),
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "1.5"], 2),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--budget", "abc"], 2),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--budget", ""], 2),
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "unlimited"], 0),
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "10"], 0),
        (["scs", "census", "--n", "3", "--p", "4", "--budget", "9"], 1),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--budget", "10"], 0),
    ],
)
def test_scs_budget_argument(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert "--budget" in err and out == ""
    elif code == 1:
        assert json.loads(err)["code"] == "budget_exceeded"
    else:
        assert out.startswith("N,p,combos")


# Inputs written by test_cli_error_contract; "{dir}" in an argv is tmp_path.
ERROR_INPUTS = {
    "no_matrix.json": {"perms": [[0, 1]], "gates": {"kind": "weyl", "gates": []}},
    "bad_perm.json": {
        "matrix": {"p": 1, "rep": "exact", "phases": [[{"num": 0, "den": 1}]]},
        "perms": [["a"]],
        "gates": {"kind": "weyl", "gates": [{"theta": 0.0, "beta": 0.0, "gamma": 0.0}]},
    },
    "bad_gate.json": {
        "matrix": {"p": 1, "rep": "exact", "phases": [[{"num": 0, "den": 1}]]},
        "perms": [[0]],
        "gates": {"kind": "weyl", "gates": [{"theta": 0.0}]},
    },
    "nan_phase.json": {"p": 2, "rep": "float", "phases": [[0.0, float("nan")], [0.0, 0.0]]},
    "inf_phase.json": {"p": 1, "rep": "float", "phases": [[float("inf")]]},
    "p_true.json": {"p": True, "rep": "exact", "phases": [[{"num": 0, "den": 1}]]},
    "f4.json": {"p": 1, "rep": "float", "phases": [[0.0]]},
    "psi.json": [[1.0, 0.0]],
    "list_instance.json": [{"matrix": {"p": 1, "rep": "exact", "phases": [[{"num": 0, "den": 1}]]}}],
    "p_huge.json": {"p": 1025, "rep": "float", "phases": []},
    # its gram passes (modulus ~1e-20), and its dephased order is 2**70
    "order_huge.json": {"p": 2, "rep": "exact", "phases": [
        [{"num": 0, "den": 1}, {"num": 0, "den": 1}],
        [{"num": 0, "den": 1}, {"num": 2**69 + 1, "den": 2**70}],
    ]},
}
# Written by save_instance: displacements whose float sums depend on the
# order, so the switch branches carry different displacements.
BRANCH_MISMATCH = PromiseInstance(
    fourier(3), shift_permutations(3, 3), (WeylOp(0, 1e17, 0), WeylOp(0, -1e17, 0), WeylOp(0, 1, 0))
)


@pytest.mark.parametrize(
    "argv, code, expect",
    [
        (["matrix", "gen", "--family", "f4", "--a-turn", "1/0"], 2, "--a-turn"),
        (["matrix", "gen", "--family", "f4", "--a-turn", "0.25"], 2, "--a-turn"),
        (["promise", "build", "--target", "minimal", "--column", "0", "--a-turn", "x/2"], 2, "--a-turn"),
        (["scs", "solve", "--perms", "01,0a"], 2, "--perms"),
        (["switch", "sweep", "--family", "f4", "--a", "x", "--target", "cv"], 2, "--a"),
        (["switch", "sweep", "--family", "f4", "--a", "0.3,,1.1", "--target", "cv"], 2, "--a"),
        (["scs", "sweep", "--n", "3", "--p-min", "5", "--p-max", "2"], 2, "--p-min"),
        (["promise", "verify", "--instance", "{dir}/no_matrix.json"], 1, "malformed_instance"),
        (["promise", "verify", "--instance", "{dir}/bad_perm.json"], 1, "malformed_instance"),
        (["switch", "run", "--instance", "{dir}/bad_gate.json"], 1, "malformed_instance"),
        (["promise", "verify", "--instance", "{dir}/missing.json"], 1, "io_error"),
        (["matrix", "validate", "{dir}/missing.json"], 1, "io_error"),
        (["matrix", "classify", "{dir}"], 1, "io_error"),
        (["matrix", "validate", "{dir}/nan_phase.json"], 1, "malformed_matrix"),
        (["matrix", "validate", "{dir}/inf_phase.json"], 1, "malformed_matrix"),
        (["matrix", "validate", "{dir}/p_true.json"], 1, "malformed_matrix"),
        (["matrix", "gen", "--family", "f4", "--a-turn", "0/1"], 0, None),
        (["scs", "solve", "--perms", "012, 102,120"], 0, None),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "2"], 0, None),
        # tolerances, --d-max and --dmax are checked at parse time; a flag the
        # subcommand does not read is a usage error
        (["matrix", "validate", "{dir}/f4.json", "--eps-unitary", "-1"], 2, "--eps-unitary"),
        (["matrix", "validate", "{dir}/f4.json", "--eps-unitary", "abc"], 2, "--eps-unitary"),
        (["matrix", "classify", "{dir}/f4.json", "--eps-phase", "nan"], 2, "--eps-phase"),
        (["matrix", "mindim", "{dir}/f4.json", "--eps-phase", "inf"], 2, "--eps-phase"),
        (["promise", "verify", "--instance", "{dir}/bad_gate.json", "--eps-phase", "0"], 2, "--eps-phase"),
        (["switch", "run", "--instance", "{dir}/bad_gate.json", "--eps-det", "0"], 2, "--eps-det"),
        (["matrix", "classify", "{dir}/f4.json", "--d-max", "0"], 2, "--d-max"),
        (["matrix", "mindim", "{dir}/f4.json", "--d-max", "1.5"], 2, "--d-max"),
        (["promise", "build", "--matrix", "{dir}/f4.json", "--column", "0", "--target", "qudit",
          "--d-max", "-2"], 2, "--d-max"),
        (["switch", "sweep", "--family", "fourier", "--target", "qudit", "--dmax", "0"], 2, "--dmax"),
        (["switch", "sweep", "--family", "fourier", "--target", "qudit", "--dmax", "1"], 2, "--dmax"),
        (["matrix", "gen", "--family", "fourier", "--d", "3", "--eps-det", "1e-9"], 2, "--eps-det"),
        (["switch", "sweep", "--family", "fourier", "--target", "qudit", "--d-max", "10"], 2, "--d-max"),
        (["matrix", "dephase", "{dir}/f4.json", "--eps-phase", "1e-9"], 2, "--eps-phase"),
        (["switch", "run", "--instance", "{dir}/bad_gate.json", "--psi", "{dir}/psi.json",
          "--random-psi", "3"], 2, "--random-psi"),
        (["matrix", "classify", "{dir}/f4.json", "--d-max", "1", "--eps-phase", "1e-300"], 0, None),
        (["switch", "sweep", "--family", "fourier", "--target", "qudit", "--dmax", "2"], 0, None),
        # --sample is a count >= 1 on both census commands; an instance file
        # must hold a JSON object
        (["scs", "census", "--n", "3", "--p", "4", "--sample", "0"], 2, "--sample"),
        (["scs", "census", "--n", "3", "--p", "4", "--sample", "abc"], 2, "--sample"),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--sample", "0",
          "--budget", "0"], 2, "--sample"),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--sample", "-5"], 2, "--sample"),
        (["scs", "census", "--n", "3", "--p", "4", "--sample", "1"], 0, None),
        (["scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "3", "--sample", "1",
          "--budget", "0"], 0, None),
        (["promise", "verify", "--instance", "{dir}/list_instance.json"], 1, "malformed_instance"),
        (["switch", "run", "--instance", "{dir}/list_instance.json"], 1, "malformed_instance"),
        # matrix orders above matrices.MAX_P are refused before anything is built
        (["matrix", "gen", "--family", "sylvester", "--k", "40"], 1, "limit_exceeded"),
        (["matrix", "gen", "--family", "sylvester", "--k", "11"], 1, "limit_exceeded"),
        (["matrix", "gen", "--family", "fourier", "--d", "1025"], 1, "limit_exceeded"),
        (["matrix", "gen", "--family", "fourier", "--d", "100000"], 1, "limit_exceeded"),
        (["switch", "sweep", "--family", "sylvester", "--target", "qudit", "--k", "30"], 1,
         "limit_exceeded"),
        (["switch", "sweep", "--family", "fourier", "--target", "cv", "--dmax", "100000"], 1,
         "limit_exceeded"),
        (["matrix", "validate", "{dir}/p_huge.json"], 1, "limit_exceeded"),
        (["promise", "build", "--matrix", "{dir}/p_huge.json", "--column", "0", "--target", "cv"], 1,
         "limit_exceeded"),
        (["switch", "run", "--instance", "{dir}/branch_mismatch.json"], 1, "branch_mismatch"),
        # an exact matrix whose dephased root-of-unity order exceeds matrices.MAX_EXACT_ORDER
        (["matrix", "validate", "{dir}/order_huge.json"], 1, "limit_exceeded"),
        (["promise", "build", "--target", "minimal", "--a", "0.3", "--column", "0", "--alpha", "0"],
         1, "domain_error"),
        # a census over more than scs.DEFAULT_N_MAX gates is refused before n! is built
        (["scs", "census", "--n", "2000", "--p", "2"], 1, "limit_exceeded"),
        (["scs", "census", "--n", "12", "--p", "2", "--sample", "1"], 1, "limit_exceeded"),
        (["switch", "run", "--instance", "{dir}/bad_gate.json", "--sample", "7"], 2, "--sample"),
    ],
)
def test_cli_error_contract(tmp_path, capsys, argv, code, expect):
    for name, obj in ERROR_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    save_instance(BRANCH_MISMATCH, tmp_path / "branch_mismatch.json")
    got, out, err = run_cli(capsys, *[a.replace("{dir}", str(tmp_path)) for a in argv])
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert expect in err and out == ""
    elif code == 1:
        assert json.loads(err)["code"] == expect and out == ""
    else:
        assert err == "" and out


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(chswitch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "chswitch.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = run("scs", "solve", "--perms", "012,102,120")
    assert ok.returncode == 0 and json.loads(ok.stdout)["length"] == 5 and ok.stderr == ""
    domain = run("matrix", "validate", str(tmp_path / "missing.json"))
    assert domain.returncode == 1 and domain.stdout == ""
    assert json.loads(domain.stderr)["code"] == "io_error"
    usage = run("matrix", "classify", str(tmp_path / "missing.json"), "--d-max", "0")
    assert usage.returncode == 2 and usage.stdout == ""
    assert "--d-max" in usage.stderr and "Traceback" not in usage.stderr
