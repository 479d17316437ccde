"""Complex Hadamard construction, validation, dephasing, classification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chswitch import matrices
from chswitch.errors import DomainError, LimitExceeded, MalformedMatrix
from chswitch.matrices import (
    Butson,
    CHMatrix,
    NotButson,
    classify_bh,
    dephase,
    f4_family,
    fourier,
    matrix_from_json,
    matrix_to_json,
    min_target_dimension,
    phase_twirl,
    sylvester_hadamard,
    validate_ch,
)
from chswitch.phaseutil import TAU, circular_distance
from chswitch.promise import build_qudit_gates

A_IRRATIONAL = (2 * math.pi / math.sqrt(2)) % math.pi


def test_fourier2_phases():
    m = fourier(2)
    assert m.rep == "exact"
    assert m.phases == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    assert m.radians()[1, 1] == pytest.approx(math.pi)


def test_validate_fourier2_ok():
    assert validate_ch(fourier(2)).ok


def test_validate_rejects_parallel_rows():
    m = CHMatrix.from_radians([[0.0, 0.0], [0.0, 0.0]])
    report = validate_ch(m)
    assert not report.ok
    assert report.max_row_pair_deviation == pytest.approx(2.0)


def test_validate_f4_float_tight_tolerance():
    report = validate_ch(f4_family(0.3), eps_unitary=1e-12)
    assert report.ok
    assert report.max_row_pair_deviation < 1e-12


@pytest.mark.parametrize(
    "m",
    [fourier(1), fourier(2), fourier(5), f4_family(0.1), f4_family(Fraction(1, 3)),
     sylvester_hadamard(0), sylvester_hadamard(3)],
    ids=["f1", "f2", "f5", "f4-float", "f4-exact", "syl0", "syl3"],
)
def test_generators_validate(m):
    assert validate_ch(m).ok


def test_exact_validation_catches_non_hadamard():
    # rational phases, unit entries, but rows not orthogonal
    m = CHMatrix.from_turns([[0, 0], [0, Fraction(1, 3)]])
    assert not validate_ch(m).ok


def test_columns_orthogonal_too():
    u = f4_family(1.0).to_complex()
    gram = u.conj().T @ u
    np.fill_diagonal(gram, 0.0)
    assert np.max(np.abs(gram)) < 1e-12


def test_dephase_fixed_point():
    m = fourier(3)
    result = dephase(m)
    assert result.matrix == m
    assert all(f == 0 for f in result.row_factors)
    assert all(f == 0 for f in result.col_factors)


def test_dephase_row_shift_recovered():
    base = fourier(2)
    shifted = phase_twirl(base, [0.0, Fraction(1, 4)], [0, 0])
    result = dephase(shifted)
    assert result.matrix == base
    # the factor undoing a +quarter-turn row shift is -1/4, stored mod 1
    assert result.row_factors[1] == Fraction(3, 4)


def test_dephase_random_twirl_roundtrip():
    rng = random.Random(7)
    base = f4_family(math.pi / 2)
    rows = [rng.uniform(0, TAU) for _ in range(4)]
    cols = [rng.uniform(0, TAU) for _ in range(4)]
    twirled = phase_twirl(base, rows, cols)
    result = dephase(twirled)
    for j in range(4):
        for k in range(4):
            assert circular_distance(
                result.matrix.radians()[j, k], base.radians()[j, k]
            ) < 1e-9
    # applying the returned factors to the twirled matrix reproduces the output
    redone = phase_twirl(twirled, result.row_factors, result.col_factors)
    for j in range(4):
        for k in range(4):
            assert circular_distance(
                redone.radians()[j, k], result.matrix.radians()[j, k]
            ) < 1e-9


def test_dephase_idempotent():
    m = phase_twirl(fourier(4), [0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 1.0, 1.5])
    once = dephase(m).matrix
    twice = dephase(once).matrix
    assert once == twice


@pytest.mark.parametrize("d", range(2, 13))
def test_classify_fourier(d):
    assert classify_bh(fourier(d)) == Butson(d)


def test_classify_f4_endpoints():
    assert classify_bh(f4_family(0.0)) == Butson(4)
    assert classify_bh(f4_family(math.pi / 2)) == Butson(2)


def test_classify_irrational_not_butson():
    cls = classify_bh(f4_family(A_IRRATIONAL), d_max=1000)
    assert isinstance(cls, NotButson)
    assert cls.witness == (1, 1)


def test_classify_exact_ignores_dmax():
    assert classify_bh(fourier(7), d_max=2) == Butson(7)


@pytest.mark.parametrize(
    "m, d_max, eps_phase",
    [
        (f4_family(0.7), 0, 1e-9),
        (f4_family(0.7), -3, 1e-9),
        (fourier(4), 0, 1e-9),
        (f4_family(0.7), 4096, 0.0),
        (f4_family(0.7), 4096, -1e-9),
        (f4_family(0.7), 4096, float("nan")),
        (CHMatrix.from_radians(fourier(4).radians()), 4096, float("nan")),
    ],
)
def test_classify_rejects_bad_bounds(m, d_max, eps_phase):
    with pytest.raises(DomainError):
        classify_bh(m, d_max, eps_phase)
    with pytest.raises(DomainError):
        min_target_dimension(m, d_max, eps_phase)
    with pytest.raises(DomainError):
        build_qudit_gates(m, 0, d_max=d_max, eps_phase=eps_phase)


def test_fourier4_equals_f4_at_zero():
    f = fourier(4)
    g = f4_family(Fraction(0))
    assert f.phases == g.phases


def test_f4_at_half_pi_is_real():
    m = f4_family(math.pi / 2)
    entries = np.round(m.to_complex().real, 12)
    assert np.all(np.abs(entries) == 1.0)
    assert np.max(np.abs(m.to_complex().imag)) < 1e-12


def test_f4_domain():
    with pytest.raises(DomainError):
        f4_family(math.pi)
    with pytest.raises(DomainError):
        f4_family(-0.1)
    with pytest.raises(DomainError):
        f4_family(Fraction(1, 2))


def test_sylvester_small():
    assert sylvester_hadamard(0).phases == ((Fraction(0),),)
    assert sylvester_hadamard(1).phases == fourier(2).phases
    m = sylvester_hadamard(2)
    assert m.p == 4
    assert validate_ch(m).ok
    assert classify_bh(m) == Butson(2)
    assert m.is_dephased()
    with pytest.raises(DomainError):
        sylvester_hadamard(-1)


def test_min_target_dimension():
    assert min_target_dimension(f4_family(math.pi / 2)) == 2
    assert min_target_dimension(fourier(5)) == 5
    assert min_target_dimension(f4_family(A_IRRATIONAL)) is None


@pytest.mark.parametrize("m", [fourier(3), fourier(4), sylvester_hadamard(2), f4_family(Fraction(1, 8))])
def test_multiples_of_complexity_are_admissible(m):
    d = classify_bh(m).complexity
    for mult in (1, 2, 3):
        dim = mult * d
        for row in range(m.p):
            for col in range(m.p):
                assert circular_distance(dim * m.radians()[row, col], 0.0) < 1e-9


def test_json_roundtrip_exact():
    m = fourier(5)
    assert matrix_from_json(matrix_to_json(m)) == m


def test_json_roundtrip_float():
    m = f4_family(0.7)
    back = matrix_from_json(matrix_to_json(m))
    assert back == m


def test_json_rejects_mixed_entries():
    obj = matrix_to_json(fourier(2))
    obj["phases"][0][0] = 0.0
    with pytest.raises(MalformedMatrix):
        matrix_from_json(obj)


def test_json_rejects_bad_shape():
    with pytest.raises(MalformedMatrix):
        matrix_from_json({"p": 2, "rep": "float", "phases": [[0.0, 0.0]]})


def test_matrix_rejects_nonsquare():
    with pytest.raises(MalformedMatrix):
        CHMatrix(None, ((0.0, 0.0),))


def test_exact_constructor_reduces_and_checks_its_grid():
    # exponents mod the order, then divided with it by their common factor
    assert CHMatrix(12, [[0, 0], [-18, 30]]) == CHMatrix(2, [[0, 0], [1, 1]])
    assert CHMatrix(12, [[0, 0], [-18, 30]]).order == 2
    assert CHMatrix(7, [[14]]) == CHMatrix(1, [[0]]) == fourier(1)
    for order, grid in [(0, [[0]]), (True, [[0]]), (2.0, [[0]]), (2, [[0.0]]), (None, [[0]]),
                        (2, [[Fraction(1, 2)]]), (2, [])]:
        with pytest.raises(MalformedMatrix):
            CHMatrix(order, grid)


def test_numpy_integers_build_the_same_exact_matrix():
    assert fourier(np.int64(6)) == fourier(6)
    half = Fraction(np.int64(1), np.int64(2))
    assert CHMatrix.from_turns([[np.int64(0), 0], [0, half]]) == fourier(2)


def test_fourier_rejects_zero_order():
    with pytest.raises(DomainError):
        fourier(0)


def test_matrix_order_bound_is_inclusive(monkeypatch):
    # a lowered bound exercises both sides of it without building large grids
    monkeypatch.setattr(matrices, "MAX_P", 8)
    assert fourier(8).p == 8 and sylvester_hadamard(3).p == 8
    assert matrix_from_json(matrix_to_json(fourier(8))) == fourier(8)
    with pytest.raises(LimitExceeded):
        fourier(9)
    with pytest.raises(LimitExceeded):
        sylvester_hadamard(4)
    with pytest.raises(LimitExceeded):
        matrix_from_json({"p": 9, "rep": "exact", "phases": []})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_from_radians_rejects_non_finite_phases(bad):
    with pytest.raises(MalformedMatrix):
        CHMatrix.from_radians([[0.0, bad], [0.0, 0.0]])


@pytest.mark.parametrize(
    "obj",
    [
        {"p": True, "rep": "exact", "phases": [[{"num": 0, "den": 1}]]},
        {"p": 1, "rep": "exact", "phases": [[{"num": True, "den": 2}]]},
        {"p": 1, "rep": "exact", "phases": [[{"num": 0, "den": True}]]},
    ],
)
def test_json_rejects_booleans_as_integers(obj):
    with pytest.raises(MalformedMatrix):
        matrix_from_json(obj)
