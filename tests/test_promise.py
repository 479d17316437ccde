"""Gate-set builders and promise verification round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chswitch.errors import (
    AmbiguousColumn,
    DimensionMismatch,
    DomainError,
    IncompatibleDimension,
    KindMismatch,
    NotButsonError,
    PromiseViolation,
)
from chswitch.gates import (
    QuditGate,
    pauli_x,
    pauli_z_power,
    phase_ratio,
    product_in_order,
    weyl_x,
)
from chswitch.matrices import f4_family, fourier, sylvester_hadamard
from chswitch.phaseutil import circular_distance
from chswitch.promise import (
    MINIMAL_CH4_PERMS,
    PermutationSet,
    PromiseInstance,
    build_cv_gates,
    build_minimal_ch4,
    build_qudit_gates,
    conjugate_gates,
    instance_from_json,
    instance_to_json,
    shift_permutations,
    verify_promise,
)
from chswitch.switch import run_protocol

A_IRRATIONAL = (2 * math.pi / math.sqrt(2)) % math.pi


def ratios_against_identity(gates, perm_set, eps=1e-9):
    pis = [product_in_order(gates, pm) for pm in perm_set.perms]
    return [phase_ratio(pis[j], pis[0], eps) for j in range(perm_set.p)]


# --- permutation sets -------------------------------------------------------

def test_shift_p2():
    assert shift_permutations(2, 2).perms == ((0, 1), (1, 0))


def test_shift_p4():
    assert shift_permutations(4, 4).perms == (
        (0, 1, 2, 3),
        (1, 0, 2, 3),
        (1, 2, 0, 3),
        (1, 2, 3, 0),
    )


def test_shift_prefix():
    assert shift_permutations(3, 4).perms == shift_permutations(4, 4).perms[:3]


def test_shift_domain():
    with pytest.raises(DomainError):
        shift_permutations(5, 4)
    with pytest.raises(DomainError):
        shift_permutations(1, 4)


def test_permutation_set_constraints():
    with pytest.raises(DomainError):
        PermutationSet(((1, 0), (0, 1)))  # identity must come first
    with pytest.raises(DomainError):
        PermutationSet(((0, 1), (0, 1)))  # distinct
    with pytest.raises(DomainError):
        PermutationSet(((0, 1), (1, 2)))  # not a permutation


# --- continuous-variable builder --------------------------------------------

def test_cv_column_zero_collapses():
    m = fourier(4)
    gates = build_cv_gates(m, 0, alpha=0.8)
    assert all(g.beta == 0.0 for g in gates[1:])
    ratios = ratios_against_identity(gates, shift_permutations(4, 4))
    assert all(r == pytest.approx(0.0) for r in ratios)


def test_cv_fourier3_matches_column():
    m = fourier(3)
    gates = build_cv_gates(m, 1, alpha=1.0)
    ratios = ratios_against_identity(gates, shift_permutations(3, 3))
    for j, r in enumerate(ratios):
        assert circular_distance(r, m.radians()[j, 1]) < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_cv_irrational_roundtrip(k):
    m = f4_family(A_IRRATIONAL)
    gates = build_cv_gates(m, k)
    inst = PromiseInstance(m, shift_permutations(4, 4), gates, k)
    assert verify_promise(inst) == k


def test_cv_gamma_freedom():
    # arbitrary gamma values must not move the promise column
    m = f4_family(1.234)
    gates = build_cv_gates(m, 2, alpha=0.5, gammas=[0.3, -1.0, 2.5])
    inst = PromiseInstance(m, shift_permutations(4, 4), gates)
    assert verify_promise(inst) == 2


def test_cv_rejects_zero_alpha():
    with pytest.raises(DomainError):
        build_cv_gates(fourier(2), 0, alpha=0.0)
    with pytest.raises(DomainError):
        build_cv_gates(fourier(2), 5)


# --- finite-dimensional builder ----------------------------------------------

def test_qudit_fourier2_is_x_z():
    gates = build_qudit_gates(fourier(2), 1)
    assert np.allclose(gates[0].matrix, pauli_x(2).matrix)
    assert np.allclose(gates[1].matrix, pauli_z_power(2, 1).matrix)
    pis = [product_in_order(gates, pm) for pm in shift_permutations(2, 2).perms]
    assert np.allclose(pis[1].matrix, -pis[0].matrix)


def test_qudit_fourier3_column2_profile():
    m = fourier(3)
    gates = build_qudit_gates(m, 2)
    ratios = ratios_against_identity(gates, shift_permutations(3, 3))
    omega_step = 2 * math.pi / 3
    for j, r in enumerate(ratios):
        assert circular_distance(r, (2 * j) * omega_step) < 1e-12


def test_qudit_f4_real_point_on_qubit():
    m = f4_family(math.pi / 2)
    gates = build_qudit_gates(m, 3, dim=2)
    assert gates[0].dim == 2
    inst = PromiseInstance(m, shift_permutations(4, 4), gates, 3)
    assert verify_promise(inst) == 3


def test_qudit_oversized_target():
    # any multiple of the complexity works
    m = fourier(2)
    gates = build_qudit_gates(m, 1, dim=4)
    inst = PromiseInstance(m, shift_permutations(2, 2), gates)
    assert verify_promise(inst) == 1


def test_qudit_rejects_non_butson():
    with pytest.raises(NotButsonError):
        build_qudit_gates(f4_family(A_IRRATIONAL), 1)


def test_qudit_rejects_incompatible_dim():
    with pytest.raises(IncompatibleDimension):
        build_qudit_gates(fourier(3), 1, dim=4)


def test_determinant_obstruction():
    # any finite-dimensional realization forces dim * phase = 0 mod 2*pi
    for m, dim in [(fourier(5), 5), (sylvester_hadamard(2), 2), (f4_family(Fraction(0)), 4)]:
        for k in range(m.p):
            gates = build_qudit_gates(m, k, dim=dim)
            for r in ratios_against_identity(gates, shift_permutations(m.p, m.p)):
                assert circular_distance(dim * r, 0.0) < 1e-9


# --- round trips across the generator families -------------------------------

@pytest.mark.parametrize("d", range(2, 7))
def test_roundtrip_fourier_qudit(d):
    m = fourier(d)
    ps = shift_permutations(d, d)
    for k in range(d):
        inst = PromiseInstance(m, ps, build_qudit_gates(m, k), k)
        assert verify_promise(inst) == k


@pytest.mark.parametrize("i", range(8))
def test_roundtrip_f4_cv_grid(i):
    a = i * math.pi / 8
    m = f4_family(a)
    ps = shift_permutations(4, 4)
    for k in range(4):
        inst = PromiseInstance(m, ps, build_cv_gates(m, k), k)
        assert verify_promise(inst) == k


@pytest.mark.parametrize("k", range(1, 4))
def test_roundtrip_sylvester_qubit(k):
    m = sylvester_hadamard(k)
    ps = shift_permutations(m.p, m.p)
    for col in range(m.p):
        inst = PromiseInstance(m, ps, build_qudit_gates(m, col, dim=2), col)
        assert verify_promise(inst) == col


# --- minimal three-gate solutions ---------------------------------------------

@pytest.mark.parametrize("a", [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
@pytest.mark.parametrize("k", range(4))
def test_minimal_ch4_roundtrip(a, k):
    gates, perms = build_minimal_ch4(a, k)
    inst = PromiseInstance(f4_family(a), perms, gates, k)
    assert verify_promise(inst) == k


def test_minimal_ch4_free_parameters():
    # the free parameters may be varied without moving the column
    for kwargs in [dict(alpha1=2.5, beta1=-0.7), dict(alpha1=-0.3, beta1=1.9)]:
        for k in (1, 2, 3):
            gates, perms = build_minimal_ch4(0.9, k, **kwargs)
            inst = PromiseInstance(f4_family(0.9), perms, gates)
            assert verify_promise(inst) == k
    gates, perms = build_minimal_ch4(math.pi / 2, 3, alpha1=1.7, beta1=2.2)
    inst = PromiseInstance(f4_family(math.pi / 2), perms, gates)
    assert verify_promise(inst) == 3


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 1e-7, -1e-7])
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("alpha1, beta1", [(1.0, 0.7), (-0.3, 1.9)])
def test_minimal_ch4_near_split(delta, k, alpha1, beta1):
    # next to a = pi/2 the promise holds and the gate parameters stay bounded
    a = math.pi / 2 + delta
    m = f4_family(a)
    gates, perms = build_minimal_ch4(a, k, alpha1=alpha1, beta1=beta1)
    assert verify_promise(PromiseInstance(m, perms, gates)) == k
    out = run_protocol(m, perms, gates)
    assert out.argmax == k and out.deterministic
    assert max(max(abs(g.beta), abs(g.gamma)) for g in gates) <= 30


def test_minimal_ch4_column0_products_all_equal():
    gates, perms = build_minimal_ch4(1.1, 0, beta1=0.5)
    pis = [product_in_order(gates, pm) for pm in perms.perms]
    assert all(phase_ratio(pi, pis[0]) == pytest.approx(0.0) for pi in pis)


def test_minimal_ch4_perm_set():
    assert MINIMAL_CH4_PERMS.perms == ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0))


def test_minimal_ch4_domain():
    with pytest.raises(DomainError):
        build_minimal_ch4(math.pi, 0)
    with pytest.raises(DomainError):
        build_minimal_ch4(0.3, 4)
    with pytest.raises(DomainError):
        build_minimal_ch4(0.3, 1, alpha1=0.0)
    with pytest.raises(DomainError):
        build_minimal_ch4(0.3, 0, alpha1=0.0)


# --- verification ---------------------------------------------------------------

def test_verify_commuting_pair_is_column_zero():
    m = fourier(2)
    gates = (pauli_x(2), pauli_x(2))
    inst = PromiseInstance(m, shift_permutations(2, 2), gates)
    assert verify_promise(inst) == 0


def test_verify_reports_violation():
    m = fourier(2)
    gates = (pauli_x(2), QuditGate(2, np.diag([1.0, np.exp(0.4j)])))
    inst = PromiseInstance(m, shift_permutations(2, 2), gates, claimed_column=1)
    with pytest.raises(PromiseViolation) as err:
        verify_promise(inst)
    assert err.value.payload["column"] == 1
    assert err.value.payload["j"] == 1


def test_verify_ambiguous_with_coarse_eps():
    m = fourier(2)
    inst = PromiseInstance(m, shift_permutations(2, 2), (pauli_x(2), pauli_z_power(2, 1)))
    with pytest.raises(AmbiguousColumn):
        verify_promise(inst, eps=10.0)


def test_conjugation_identity_and_hadamard():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    assert verify_promise(
        PromiseInstance(fourier(2), shift_permutations(2, 2), conjugate_gates(gates, QuditGate(2, np.eye(2))))
    ) == 1
    h = QuditGate(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    swapped = conjugate_gates(gates, h)
    assert np.allclose(swapped[0].matrix, pauli_z_power(2, 1).matrix)
    assert np.allclose(swapped[1].matrix, pauli_x(2).matrix)
    inst = PromiseInstance(fourier(2), shift_permutations(2, 2), swapped)
    assert verify_promise(inst) == 1
    with pytest.raises(KindMismatch):
        conjugate_gates((weyl_x(1.0),), h)
    with pytest.raises(KindMismatch):
        conjugate_gates(gates, weyl_x(1.0))
    with pytest.raises(DimensionMismatch):
        conjugate_gates(gates, QuditGate(3, np.eye(3)))


def test_conjugation_invariance_random():
    rng = np.random.default_rng(11)
    m = fourier(3)
    ps = shift_permutations(3, 3)
    gates = build_qudit_gates(m, 2)
    for _ in range(50):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        v = QuditGate(3, q * (np.diag(r) / np.abs(np.diag(r))))
        inst = PromiseInstance(m, ps, conjugate_gates(gates, v))
        assert verify_promise(inst) == 2


# --- instance plumbing -----------------------------------------------------------

def test_instance_rejects_undephased_matrix():
    from chswitch.errors import NotDephased
    from chswitch.matrices import phase_twirl

    twirled = phase_twirl(fourier(2), [0.0, 0.3], [0.0, 0.0])
    with pytest.raises(NotDephased):
        PromiseInstance(twirled, shift_permutations(2, 2), (pauli_x(2), pauli_z_power(2, 1)))


def test_instance_json_roundtrip():
    m = fourier(3)
    inst = PromiseInstance(m, shift_permutations(3, 3), build_qudit_gates(m, 1), 1)
    back = instance_from_json(instance_to_json(inst))
    assert back.matrix == inst.matrix
    assert back.perm_set == inst.perm_set
    assert back.claimed_column == 1
    assert verify_promise(back) == 1

    cv = PromiseInstance(m, shift_permutations(3, 3), build_cv_gates(m, 2), 2)
    assert verify_promise(instance_from_json(instance_to_json(cv))) == 2
