"""Byte-identical CLI outputs on the protocol path.

Each case runs one ``chswitch`` command in-process and compares its exit
code and stdout with the files under ``tests/golden/``. The matrices and
instances the cases read are built first by the setup commands below,
plus exact matrices that no ``matrix gen`` family produces, written by
``save(matrix_to_json(m), path)``: twirled Fourier matrices with exact
row and column phases, and a 2x2 grid whose float gram passes but whose
rows are not orthogonal.
A change that alters one of these outputs on purpose regenerates them
with ``PYTHONPATH=src python tests/test_golden_cli.py`` and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from chswitch.cli import main
from chswitch.matrices import CHMatrix, fourier, phase_twirl
from chswitch.wire import matrix_to_json, save

GOLDEN = Path(__file__).resolve().parent / "golden"

IRRATIONAL_A = repr((2 * math.pi / math.sqrt(2)) % math.pi)
# f4 parameters: 3e-7 rad off a 7th root of unity, and an order-24 Butson point
NEAR_ORDER7_A = repr(2 * math.pi / 7 + 3e-7)
ORDER24_A = repr(math.pi / 12)

# Commands that write the inputs of the cases; "{dir}" is a scratch directory.
SETUP = [
    ["matrix", "gen", "--family", "f4", "--a", IRRATIONAL_A, "--out", "{dir}/f4_float.json"],
    ["matrix", "gen", "--family", "fourier", "--d", "5", "--out", "{dir}/fourier5.json"],
    ["matrix", "gen", "--family", "fourier", "--d", "6", "--out", "{dir}/fourier6.json"],
    ["matrix", "gen", "--family", "sylvester", "--k", "2", "--out", "{dir}/sylvester2.json"],
    ["matrix", "gen", "--family", "f4", "--a", "0.6", "--out", "{dir}/f4_06.json"],
    ["matrix", "gen", "--family", "f4", "--a", NEAR_ORDER7_A, "--out", "{dir}/f4_near7.json"],
    ["matrix", "gen", "--family", "f4", "--a", ORDER24_A, "--out", "{dir}/f4_24.json"],
    ["matrix", "gen", "--family", "fourier", "--d", "64", "--out", "{dir}/fourier64.json"],
    ["matrix", "gen", "--family", "f4", "--a-turn", "1/24", "--out", "{dir}/f4_turn24.json"],
    ["promise", "build", "--matrix", "{dir}/fourier5.json", "--column", "3",
     "--target", "qudit", "--out", "{dir}/qudit_fourier5.json"],
    ["promise", "build", "--matrix", "{dir}/sylvester2.json", "--column", "3",
     "--target", "qudit", "--dim", "4", "--out", "{dir}/qudit_sylvester2.json"],
    ["promise", "build", "--matrix", "{dir}/fourier6.json", "--column", "4",
     "--target", "cv", "--out", "{dir}/cv_fourier6.json"],
    ["promise", "build", "--matrix", "{dir}/f4_06.json", "--column", "1",
     "--target", "cv", "--alpha", "0.5", "--out", "{dir}/cv_f4.json"],
]

# row and column turns of the twirled Fourier-6 that ``matrix dephase`` reads
TWIRL_ROWS = [Fraction(1, 3), Fraction(1, 4), Fraction(0), Fraction(5, 7), Fraction(1, 2), Fraction(2, 5)]
TWIRL_COLS = [Fraction(1, 8), Fraction(0), Fraction(1, 6), Fraction(3, 4), Fraction(1, 9), Fraction(1, 5)]
# a twirled Fourier-9 of lcm order 360,360, whose dephased order is 9
TWIRL9_ROWS = [Fraction(1, 8), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)] + [Fraction(0)] * 5
TWIRL9_COLS = [Fraction(1, 13)] * 9
# gram modulus 0.445 below 1/2, but its Galois conjugate zeta -> zeta^2 has 1.80
NOT_ORTHOGONAL_37 = [[0, 0], [0, Fraction(3, 7)]]

CASES = {
    "sweep_fourier_qudit": ["switch", "sweep", "--family", "fourier", "--target", "qudit", "--dmax", "24"],
    "sweep_fourier_cv": ["switch", "sweep", "--family", "fourier", "--target", "cv", "--dmax", "40"],
    "sweep_f4_cv": ["switch", "sweep", "--family", "f4", "--target", "cv", "--a", "0.3,1.1,2.9"],
    "sweep_sylvester_qudit": ["switch", "sweep", "--family", "sylvester", "--target", "qudit", "--k", "5"],
    "sweep_sylvester_cv": ["switch", "sweep", "--family", "sylvester", "--target", "cv", "--k", "4"],
    "validate_f4_float": ["matrix", "validate", "{dir}/f4_float.json"],
    "classify_f4_float": ["matrix", "classify", "{dir}/f4_float.json"],
    "classify_f4_float_dmax": ["matrix", "classify", "{dir}/f4_float.json", "--d-max", "1000"],
    "verify_qudit_fourier5": ["promise", "verify", "--instance", "{dir}/qudit_fourier5.json"],
    "verify_qudit_sylvester2": ["promise", "verify", "--instance", "{dir}/qudit_sylvester2.json"],
    "verify_cv_fourier6": ["promise", "verify", "--instance", "{dir}/cv_fourier6.json"],
    "verify_cv_f4": ["promise", "verify", "--instance", "{dir}/cv_f4.json"],
    "run_qudit_fourier5": ["switch", "run", "--instance", "{dir}/qudit_fourier5.json"],
    "run_qudit_sylvester2_psi": ["switch", "run", "--instance", "{dir}/qudit_sylvester2.json",
                                 "--random-psi", "42"],
    "run_cv_fourier6": ["switch", "run", "--instance", "{dir}/cv_fourier6.json"],
    "run_cv_f4": ["switch", "run", "--instance", "{dir}/cv_f4.json"],
    # each kept tolerance flag is read, and each default is where it was
    "validate_f4_float_eps": ["matrix", "validate", "{dir}/f4_float.json", "--eps-unitary", "1e-12"],
    "validate_f4_float_eps_tiny": ["matrix", "validate", "{dir}/f4_float.json", "--eps-unitary", "1e-20"],
    "mindim_f4_near7": ["matrix", "mindim", "{dir}/f4_near7.json"],
    "mindim_f4_near7_loose": ["matrix", "mindim", "{dir}/f4_near7.json",
                              "--d-max", "1000", "--eps-phase", "1e-6"],
    "build_qudit_f4_24": ["promise", "build", "--matrix", "{dir}/f4_24.json", "--column", "1",
                          "--target", "qudit"],
    "build_qudit_f4_24_dmax": ["promise", "build", "--matrix", "{dir}/f4_24.json", "--column", "1",
                               "--target", "qudit", "--d-max", "8"],
    "verify_qudit_fourier5_eps": ["promise", "verify", "--instance", "{dir}/qudit_fourier5.json",
                                  "--eps-phase", "1e-6"],
    "verify_qudit_fourier5_eps_tiny": ["promise", "verify", "--instance", "{dir}/qudit_fourier5.json",
                                       "--eps-phase", "1e-300"],
    "run_qudit_fourier5_eps": ["switch", "run", "--instance", "{dir}/qudit_fourier5.json",
                               "--eps-det", "1e-3"],
    "sweep_fourier_qudit_default": ["switch", "sweep", "--family", "fourier", "--target", "qudit"],
    "sweep_sylvester_cv_default": ["switch", "sweep", "--family", "sylvester", "--target", "cv"],
    # the exact JSON edge: generated, classified, validated, built and dephased
    "gen_fourier12": ["matrix", "gen", "--family", "fourier", "--d", "12"],
    "gen_sylvester3": ["matrix", "gen", "--family", "sylvester", "--k", "3"],
    "gen_f4_turn": ["matrix", "gen", "--family", "f4", "--a-turn", "1/8"],
    "classify_fourier6": ["matrix", "classify", "{dir}/fourier6.json"],
    "validate_fourier6": ["matrix", "validate", "{dir}/fourier6.json"],
    "build_qudit_fourier5": ["promise", "build", "--matrix", "{dir}/fourier5.json", "--column", "3",
                             "--target", "qudit"],
    "dephase_twirled_fourier6": ["matrix", "dephase", "{dir}/twirled_fourier6.json"],
    "dephase_f4_float": ["matrix", "dephase", "{dir}/f4_06.json"],
    # exact orthogonality: a float gram below 1/2 that is not zero, a large
    # lcm order, a generated Fourier-64 and an order-24 f4
    "validate_not_orthogonal_37": ["matrix", "validate", "{dir}/not_orthogonal_37.json"],
    "validate_twirled_fourier9": ["matrix", "validate", "{dir}/twirled_fourier9.json"],
    "validate_fourier64": ["matrix", "validate", "{dir}/fourier64.json"],
    "validate_f4_turn24": ["matrix", "validate", "{dir}/f4_turn24.json"],
    # dephasing an exact matrix: a twirl of lcm order 360,360 back to order 9,
    # and a matrix already in dephased form
    "dephase_twirled_fourier9": ["matrix", "dephase", "{dir}/twirled_fourier9.json"],
    "dephase_fourier6": ["matrix", "dephase", "{dir}/fourier6.json"],
}


def _run(argv, directory) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.replace("{dir}", str(directory)) for a in argv])
    return code, buf.getvalue()


def _setup(directory) -> None:
    for argv in SETUP:
        code, _ = _run(argv, directory)
        if code != 0:
            raise RuntimeError(f"setup command failed with exit {code}: {argv}")
    directory = Path(directory)
    save(matrix_to_json(phase_twirl(fourier(6), TWIRL_ROWS, TWIRL_COLS)),
         directory / "twirled_fourier6.json")
    save(matrix_to_json(phase_twirl(fourier(9), TWIRL9_ROWS, TWIRL9_COLS)),
         directory / "twirled_fourier9.json")
    save(matrix_to_json(CHMatrix.from_turns(NOT_ORTHOGONAL_37)), directory / "not_orthogonal_37.json")


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    _setup(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(inputs_dir, name):
    want_exit = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))[name]
    want_out = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    code, out = _run(CASES[name], inputs_dir)
    assert code == want_exit
    assert out == want_out


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    with tempfile.TemporaryDirectory() as directory:
        _setup(directory)
        for name, argv in sorted(CASES.items()):
            exits[name], out = _run(argv, directory)
            (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
