"""Displacement algebra, generalized Pauli relations, ordered products."""

import math
import random

import numpy as np
import pytest

from chswitch.errors import DimensionMismatch, DomainError, KindMismatch
from chswitch.gates import (
    QuditGate,
    WeylOp,
    pauli_x,
    pauli_z_power,
    phase_ratio,
    product_in_order,
    weyl_compose,
    weyl_x,
    weyl_z,
)
from chswitch.phaseutil import TAU, circular_distance
from chswitch.wire import gateset_from_json, gateset_to_json


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return QuditGate(dim, q * (np.diag(r) / np.abs(np.diag(r))))


def test_translations_commute():
    a = weyl_compose(weyl_x(0.7), weyl_x(-1.3))
    assert a.theta == 0.0
    assert a.beta == 0.0
    assert a.gamma == pytest.approx(0.6)


def test_zx_commutation_phase():
    # swapping Z_{beta,gamma} past X_alpha costs exactly alpha*beta
    rng = random.Random(1)
    for _ in range(200):
        alpha = rng.uniform(-3, 3)
        beta = rng.uniform(-3, 3)
        gamma = rng.uniform(-3, 3)
        zx = weyl_compose(weyl_z(beta, gamma), weyl_x(alpha))
        xz = weyl_compose(weyl_x(alpha), weyl_z(beta, gamma))
        diff = phase_ratio(zx, xz)
        assert diff is not None
        assert circular_distance(diff, alpha * beta) < 1e-12


def test_weyl_associativity():
    rng = random.Random(2)
    for _ in range(100):
        ops = [
            WeylOp(rng.uniform(0, TAU), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(3)
        ]
        left = weyl_compose(weyl_compose(ops[0], ops[1]), ops[2])
        right = weyl_compose(ops[0], weyl_compose(ops[1], ops[2]))
        assert circular_distance(left.theta, right.theta) < 1e-12
        assert left.beta == pytest.approx(right.beta)
        assert left.gamma == pytest.approx(right.gamma)


def test_pauli_qubit_matches_sigma():
    assert np.allclose(pauli_x(2).matrix, [[0, 1], [1, 0]])
    assert np.allclose(pauli_z_power(2, 1).matrix, [[1, 0], [0, -1]])


@pytest.mark.parametrize("dim", range(2, 8))
def test_clock_shift_commutation(dim):
    omega = np.exp(2j * np.pi / dim)
    zx = pauli_z_power(dim, 1).matrix @ pauli_x(dim).matrix
    xz = pauli_x(dim).matrix @ pauli_z_power(dim, 1).matrix
    assert np.max(np.abs(zx - omega * xz)) < 1e-12


@pytest.mark.parametrize("dim", range(2, 6))
def test_clock_shift_power_commutation(dim):
    omega = np.exp(2j * np.pi / dim)
    x = pauli_x(dim).matrix
    z = pauli_z_power(dim, 1).matrix
    for j in range(dim):
        for k in range(dim):
            lhs = np.linalg.matrix_power(z, j) @ np.linalg.matrix_power(x, k)
            rhs = omega ** (j * k) * (np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, j))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("dim", range(2, 9))
def test_pauli_order(dim):
    x = np.linalg.matrix_power(pauli_x(dim).matrix, dim)
    z = np.linalg.matrix_power(pauli_z_power(dim, 1).matrix, dim)
    assert np.max(np.abs(x - np.eye(dim))) < 1e-9
    assert np.max(np.abs(z - np.eye(dim))) < 1e-9


def test_pauli_unitary():
    for dim in range(2, 9):
        for gate in (pauli_x(dim), pauli_z_power(dim, 3)):
            m = gate.matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(dim))) < 1e-12


def test_pauli_rejects_small_dim():
    with pytest.raises(DomainError):
        pauli_x(1)
    with pytest.raises(DomainError):
        pauli_z_power(0, 1)


def test_product_identity_order():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    prod = product_in_order(gates, (0, 1))
    assert np.allclose(prod.matrix, pauli_z_power(2, 1).matrix @ pauli_x(2).matrix)


def test_product_swapped_order_anticommutes():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    fwd = product_in_order(gates, (0, 1))
    rev = product_in_order(gates, (1, 0))
    assert np.allclose(rev.matrix, -fwd.matrix)
    assert phase_ratio(fwd, rev) == pytest.approx(math.pi)


def test_product_matches_naive_fold():
    rng = np.random.default_rng(3)
    gates = tuple(random_unitary(3, rng) for _ in range(4))
    perm = (2, 0, 3, 1)
    expected = np.eye(3, dtype=complex)
    for idx in perm:
        expected = gates[idx].matrix @ expected
    assert np.allclose(product_in_order(gates, perm).matrix, expected)


def test_product_rejects_mixed_kinds():
    with pytest.raises(KindMismatch):
        product_in_order((pauli_x(2), weyl_x(1.0)), (0, 1))


def test_product_rejects_bad_perm():
    with pytest.raises(DomainError):
        product_in_order((pauli_x(2), pauli_z_power(2, 1)), (0, 0))


def test_phase_ratio_reflexive():
    g = pauli_z_power(5, 2)
    assert phase_ratio(g, g) == pytest.approx(0.0)
    w = WeylOp(0.3, 1.0, -1.0)
    assert phase_ratio(w, w) == pytest.approx(0.0)


def test_phase_ratio_antisymmetric():
    a = QuditGate(2, np.exp(0.77j) * pauli_x(2).matrix)
    b = pauli_x(2)
    fwd = phase_ratio(a, b)
    bwd = phase_ratio(b, a)
    assert circular_distance(fwd, -bwd) < 1e-12


def test_phase_ratio_random_unitaries_unrelated():
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert phase_ratio(random_unitary(3, rng), random_unitary(3, rng)) is None


def test_phase_ratio_weyl_mismatch_is_none():
    assert phase_ratio(weyl_z(1.0, 0.0), weyl_z(2.0, 0.0)) is None


def test_phase_ratio_dim_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        phase_ratio(pauli_x(2), pauli_x(3))


def test_gateset_json_roundtrip():
    weyl = (weyl_x(0.5), weyl_z(1.0, -2.0))
    assert gateset_from_json(gateset_to_json(weyl)) == weyl
    qudit = (pauli_x(3), pauli_z_power(3, 2))
    back = gateset_from_json(gateset_to_json(qudit))
    for orig, copy in zip(qudit, back):
        assert copy.dim == orig.dim
        assert np.allclose(copy.matrix, orig.matrix)


def test_qudit_identity():
    ident = QuditGate(4, np.eye(4))
    assert ident.matrix.dtype == complex and not ident.matrix.flags.writeable
    assert np.array_equal(ident.matrix, np.eye(4))
