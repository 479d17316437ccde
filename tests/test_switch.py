"""Switch action and the column-identification protocol."""

import math

import numpy as np
import pytest

from chswitch.errors import BranchMismatch, DomainError, NotDephased, ProtocolError, SizeMismatch
from chswitch.gates import QuditGate, WeylOp, pauli_x, pauli_z_power, product_in_order
from chswitch.matrices import f4_family, fourier, phase_twirl, sylvester_hadamard
from chswitch.promise import (
    PromiseInstance,
    build_cv_gates,
    build_minimal_ch4,
    build_qudit_gates,
    shift_permutations,
    verify_promise,
)
from chswitch.switch import apply_switch, run_protocol, sweep_columns


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return QuditGate(dim, q * (np.diag(r) / np.abs(np.diag(r))))


def test_switch_on_basis_control_applies_one_order():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    ps = shift_permutations(2, 2)
    rows = apply_switch(gates, ps, [1.0, 0.0])
    x, z = pauli_x(2).matrix, pauli_z_power(2, 1).matrix
    # row j is ordering j on the target: Z X |0> and X Z |0>
    assert rows.shape == (2, 2)
    assert np.allclose(rows[0], z @ x @ [1, 0])
    assert np.allclose(rows[1], x @ z @ [1, 0])
    # on the control |0>, branch 0 carries Z X |0> and branch 1 stays empty
    out = np.array([[1.0], [0.0]]) * rows
    assert np.allclose(out[0], z @ x @ [1, 0])
    assert np.allclose(out[1], 0.0)


def test_switch_uniform_control_branches_anticommute():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    ps = shift_permutations(2, 2)
    out = np.full((2, 1), 1 / math.sqrt(2)) * apply_switch(gates, ps, [1.0, 0.0])
    assert np.allclose(out[1], -out[0])
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_switch_cv_branches_share_displacement():
    m = fourier(3)
    gates = build_cv_gates(m, 1)
    ps = shift_permutations(3, 3)
    words = [product_in_order(gates, pm) for pm in ps.perms]
    betas = {round(op.beta, 12) for op in words}
    gammas = {round(op.gamma, 12) for op in words}
    assert len(betas) == 1 and len(gammas) == 1
    # the shared displacement leaves one phase per branch
    rows = apply_switch(gates, ps)
    assert rows.shape == (3, 1)
    assert np.allclose(rows[:, 0], [np.exp(1j * op.theta) for op in words])


def test_switch_size_mismatch():
    gates = (pauli_x(2), pauli_z_power(2, 1))
    with pytest.raises(SizeMismatch):
        run_protocol(fourier(3), shift_permutations(2, 2), gates)
    with pytest.raises(SizeMismatch):
        apply_switch(gates, shift_permutations(3, 3))
    with pytest.raises(SizeMismatch):
        apply_switch(gates, shift_permutations(2, 2), [1.0, 0.0, 0.0])


def test_switch_target_state_checks():
    ps = shift_permutations(2, 2)
    with pytest.raises(DomainError):
        apply_switch((pauli_x(2), pauli_z_power(2, 1)), ps, [1.0, 1.0])
    with pytest.raises(DomainError):
        run_protocol(fourier(2), ps, build_cv_gates(fourier(2), 1), psi=[1.0])


def test_protocol_anticommuting_pair():
    out = run_protocol(fourier(2), shift_permutations(2, 2), (pauli_x(2), pauli_z_power(2, 1)))
    assert out.argmax == 1
    assert out.distribution[1] >= 1 - 1e-9
    assert out.deterministic


def test_protocol_commuting_pair():
    out = run_protocol(fourier(2), shift_permutations(2, 2), (pauli_x(2), QuditGate(2, np.eye(2))))
    assert out.argmax == 0
    assert out.distribution[0] >= 1 - 1e-9


def test_protocol_cv_minimal_gate_set():
    gates, perms = build_minimal_ch4(0.77, 2)
    out = run_protocol(f4_family(0.77), perms, gates)
    assert out.argmax == 2
    assert out.distribution[2] >= 1 - 1e-9


def test_protocol_requires_dephased_matrix():
    twirled = phase_twirl(fourier(2), [0.0, 0.5], [0.0, 0.0])
    with pytest.raises(NotDephased):
        run_protocol(twirled, shift_permutations(2, 2), (pauli_x(2), pauli_z_power(2, 1)))


def test_protocol_norm_preserved_stage_by_stage():
    m = fourier(3)
    gates = build_qudit_gates(m, 1)
    ps = shift_permutations(3, 3)
    u = m.to_complex() / math.sqrt(3)
    joint = np.zeros((3, 3), dtype=complex)
    joint[0, 0] = 1.0
    for stage in range(3):
        if stage == 0:
            joint = u @ joint
            # the prepared branches are u[j, 0] |0>
            assert np.allclose(joint, u[:, :1] * np.eye(3)[0])
        elif stage == 1:
            joint = u[:, :1] * apply_switch(gates, ps)
        else:
            joint = u.conj().T @ joint
        assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(joint[1]) == pytest.approx(1.0, abs=1e-9)


def test_protocol_outcome_independent_of_target_state():
    m = fourier(4)
    gates = build_qudit_gates(m, 3)
    ps = shift_permutations(4, 4)
    rng = np.random.default_rng(21)
    reference = run_protocol(m, ps, gates).distribution
    for _ in range(20):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        out = run_protocol(m, ps, gates, psi=vec)
        assert np.allclose(out.distribution, reference, atol=1e-9)
        assert out.argmax == 3


def test_protocol_random_gates_not_deterministic():
    m = fourier(3)
    ps = shift_permutations(3, 3)
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(5):
        gates = tuple(random_unitary(3, rng) for _ in range(3))
        out = run_protocol(m, ps, gates)
        assert sum(out.distribution) == pytest.approx(1.0, abs=1e-9)
        hits += out.deterministic
    assert hits == 0


def test_protocol_cv_random_gates_not_deterministic():
    # ordered products of one gate set always share their displacement
    # (the components add commutatively), so arbitrary displacement gates
    # still measure; they just stop being deterministic
    rng = np.random.default_rng(8)
    m = fourier(3)
    ps = shift_permutations(3, 3)
    hits = 0
    for _ in range(5):
        gates = tuple(
            WeylOp(rng.uniform(0, 6.28), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(3)
        )
        out = run_protocol(m, ps, gates)
        assert sum(out.distribution) == pytest.approx(1.0, abs=1e-9)
        hits += out.deterministic
    assert hits == 0


def test_protocol_rejects_mismatched_branches():
    # the displacements add up to 1 in orderings 0 and 1, but ordering 2
    # sums -1e17 + 1 first and rounds the 1 away; branches with different
    # displacements cannot interfere
    gates = (WeylOp(0, 1e17, 0), WeylOp(0, -1e17, 0), WeylOp(0, 1, 0))
    with pytest.raises(BranchMismatch) as exc:
        run_protocol(fourier(3), shift_permutations(3, 3), gates)
    assert exc.value.payload == {"branch": 2}


def test_protocol_identity_gates_point_to_column_zero():
    m = fourier(4)
    gates = tuple(QuditGate(2, np.eye(2)) for _ in range(4))
    out = run_protocol(m, shift_permutations(4, 4), gates)
    assert out.argmax == 0
    assert out.distribution[0] >= 1 - 1e-9


def test_protocol_agrees_with_verification():
    cases = [
        (fourier(5), "qudit", None),
        (f4_family(0.9), "cv", None),
        (sylvester_hadamard(2), "qudit", 2),
    ]
    for m, target, dim in cases:
        ps = shift_permutations(m.p, m.p)
        for k in range(m.p):
            if target == "qudit":
                gates = build_qudit_gates(m, k, dim=dim)
            else:
                gates = build_cv_gates(m, k)
            inst = PromiseInstance(m, ps, gates)
            out = run_protocol(m, ps, gates)
            assert verify_promise(inst) == out.argmax == k


def test_sweep_columns_families():
    assert 0.0 <= sweep_columns(fourier(4), "qudit") < 1e-9
    assert 0.0 <= sweep_columns(f4_family(2.0), "cv") < 1e-9
    assert 0.0 <= sweep_columns(sylvester_hadamard(2), "qudit", dim=2) < 1e-9


def test_sweep_columns_raises_on_failure(monkeypatch):
    import chswitch.switch as sw

    # a builder stuck on column 0 must trip the sweep at column 1
    monkeypatch.setattr(
        sw, "build_qudit_gates", lambda m, k, dim=None: build_qudit_gates(m, 0, dim=dim)
    )
    with pytest.raises(ProtocolError):
        sw.sweep_columns(fourier(2), "qudit")

