"""Simulation of the (N, p)-switch and the column-identification protocol.

The switch applies, for each basis state |j> of a p-dimensional control,
the ordered product of the gates given by ordering j to the target:

    S (|j> (x) |psi>) = |j> (x) Pi_j |psi>.

The protocol sandwiches the switch between M/sqrt(p) and its inverse on
the control, starting from |0> (x) |psi|. When the gates satisfy the
promise for column k, the control ends in |k> exactly, so the full
outcome distribution is computed and reported rather than a sample.

Finite-dimensional targets are simulated with dense joint amplitudes;
the switch applies each ordering's gates one at a time to that branch's
target vector, O(N*D^2) per branch, and never forms the ordered product
as a matrix. Continuous-variable targets are never expanded: each
control branch carries a displacement word, the promise guarantees all
branches share a displacement, and the branch phases alone determine the
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BranchMismatch,
    DomainError,
    KindMismatch,
    NotDephased,
    ProtocolError,
    SizeMismatch,
)
from .gates import (
    Gate,
    WeylOp,
    gate_kind,
    product_in_order,
    weyl_compose,
    weyl_identity,
)
from .matrices import CHMatrix
from .promise import PermutationSet, build_cv_gates, build_qudit_gates, shift_permutations

DEFAULT_EPS_DET = 1e-9
_EPS_NORM = 1e-9
_EPS_DISPLACEMENT = 1e-9


@dataclass(frozen=True)
class SwitchOutcome:
    """Full measurement distribution on the control register."""

    distribution: tuple[float, ...]
    argmax: int
    deterministic: bool


@dataclass(frozen=True, eq=False)
class QuditJointState:
    """Control (x) target amplitudes as a (p, D) array."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex)
        if a.ndim != 2:
            raise SizeMismatch("joint state must be a (p, D) amplitude grid")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def p(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class CVJointState:
    """One (amplitude, displacement word) pair per control branch."""

    amps: tuple[complex, ...]
    ops: tuple[WeylOp, ...]

    def __post_init__(self):
        if len(self.amps) != len(self.ops):
            raise SizeMismatch("need one displacement word per branch amplitude")
        object.__setattr__(self, "amps", tuple(complex(a) for a in self.amps))

    @property
    def p(self) -> int:
        return len(self.amps)


JointState = QuditJointState | CVJointState


def qudit_product_state(control: Sequence[complex], target: Sequence[complex]) -> QuditJointState:
    c = np.asarray(control, dtype=complex)
    t = np.asarray(target, dtype=complex)
    return QuditJointState(np.outer(c, t))


def cv_control_state(control: Sequence[complex]) -> CVJointState:
    return CVJointState(tuple(control), (weyl_identity(),) * len(control))


def apply_switch(state: JointState, gates: Sequence[Gate], perm_set: PermutationSet) -> JointState:
    """Apply ordering j to the target component of every control branch."""
    if perm_set.p != state.p:
        raise SizeMismatch(f"{perm_set.p} orderings for a control of dimension {state.p}")
    kind = gate_kind(gates)
    if len(gates) != perm_set.n:
        raise SizeMismatch(f"{len(gates)} gates for orderings over {perm_set.n} slots")
    if isinstance(state, QuditJointState):
        if kind != "qudit":
            raise KindMismatch("dense joint state needs qudit gates")
        if gates[0].dim != state.amps.shape[1]:
            raise SizeMismatch(
                f"gate dimension {gates[0].dim} != target dimension {state.amps.shape[1]}"
            )
        rows = []
        for pm, vec in zip(perm_set.perms, state.amps):
            for idx in pm:
                vec = gates[idx].matrix @ vec
            rows.append(vec)
        return QuditJointState(np.array(rows))
    if kind != "weyl":
        raise KindMismatch("symbolic joint state needs displacement gates")
    ops = tuple(
        weyl_compose(product_in_order(gates, pm), op) for pm, op in zip(perm_set.perms, state.ops)
    )
    return CVJointState(state.amps, ops)


def _outcome(control_amps: np.ndarray, eps_det: float) -> SwitchOutcome:
    dist = np.abs(np.asarray(control_amps)) ** 2
    dist = dist / dist.sum()
    arg = int(np.argmax(dist))
    return SwitchOutcome(tuple(float(x) for x in dist), arg, bool(dist[arg] >= 1.0 - eps_det))


def run_protocol(
    m: CHMatrix,
    perm_set: PermutationSet,
    gates: Sequence[Gate],
    psi: Sequence[complex] | None = None,
    eps_det: float = DEFAULT_EPS_DET,
) -> SwitchOutcome:
    """Run prepare / switch / unprepare and measure the control.

    ``psi`` is the initial target state for finite-dimensional gates (the
    basis state |0> by default) and must be omitted for displacement
    gates, whose target stays symbolic. The matrix must be dephased,
    otherwise the all-ones control column the protocol relies on does not
    exist.
    """
    if not m.is_dephased():
        raise NotDephased("the protocol requires the matrix in dephased form")
    if perm_set.p != m.p:
        raise SizeMismatch(f"matrix order {m.p} != number of orderings {perm_set.p}")
    kind = gate_kind(gates)
    u = m.to_complex() / np.sqrt(m.p)

    if kind == "qudit":
        dim = gates[0].dim
        if psi is None:
            target = np.zeros(dim, dtype=complex)
            target[0] = 1.0
        else:
            target = np.asarray(psi, dtype=complex)
            if target.shape != (dim,):
                raise SizeMismatch(f"target state must have dimension {dim}")
            if abs(np.linalg.norm(target) - 1.0) > 1e-6:
                raise DomainError("target state must be normalized")
        joint = np.zeros((m.p, dim), dtype=complex)
        joint[0] = target
        joint = u @ joint
        joint = apply_switch(QuditJointState(joint), gates, perm_set).amps
        joint = u.conj().T @ joint
        return _outcome(np.linalg.norm(joint, axis=1), eps_det)

    if psi is not None:
        raise DomainError("displacement-gate targets are symbolic; do not pass psi")
    state = cv_control_state(u[:, 0])
    state = apply_switch(state, gates, perm_set)
    return cv_outcome(state, m, eps_det)


def cv_outcome(state: CVJointState, m: CHMatrix, eps_det: float = DEFAULT_EPS_DET) -> SwitchOutcome:
    """Invert the control preparation and measure a symbolic joint state.

    Only defined when every branch carries the same displacement (then the
    branch words differ by scalars and interfere like ordinary
    amplitudes). Orderings of one gate set always satisfy this, since the
    displacement components add up independently of the order; the check
    protects hand-built states.
    """
    if len(state.amps) != m.p:
        raise SizeMismatch(f"{len(state.amps)} branches for a control of dimension {m.p}")
    ref = state.ops[0]
    for j, op in enumerate(state.ops):
        if abs(op.beta - ref.beta) > _EPS_DISPLACEMENT or abs(op.gamma - ref.gamma) > _EPS_DISPLACEMENT:
            raise BranchMismatch(
                "control branches carry different target displacements; "
                "their interference depends on the unknown target state",
                branch=j,
            )
    amps = np.array([a * np.exp(1j * op.theta) for a, op in zip(state.amps, state.ops)])
    final = (m.to_complex() / np.sqrt(m.p)).conj().T @ amps
    return _outcome(final, eps_det)


def sample_outcome(outcome: SwitchOutcome, seed: int) -> int:
    """Draw one measurement result from the distribution (demonstration only)."""
    rng = np.random.default_rng(seed)
    return int(rng.choice(len(outcome.distribution), p=np.array(outcome.distribution)))


@dataclass(frozen=True)
class SweepRow:
    column: int
    argmax: int
    probability: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    worst_deviation: float


def sweep_columns(
    m: CHMatrix,
    target: str,
    dim: int | None = None,
    alpha: float = 1.0,
    eps_det: float = DEFAULT_EPS_DET,
) -> SweepReport:
    """Build gates for every column, run the protocol, demand recovery.

    ``target`` selects the builder: "qudit" (clock/shift, optional
    ``dim``) or "cv" (displacements with translation size ``alpha``).
    Raises :class:`ProtocolError` on the first column that is not
    recovered deterministically.
    """
    if target not in ("qudit", "cv"):
        raise DomainError(f"unknown target {target!r}")
    perm_set = shift_permutations(m.p, m.p)
    rows = []
    worst = 0.0
    for k in range(m.p):
        if target == "qudit":
            gates: Sequence[Gate] = build_qudit_gates(m, k, dim=dim)
        else:
            gates = build_cv_gates(m, k, alpha=alpha)
        out = run_protocol(m, perm_set, gates, eps_det=eps_det)
        prob = out.distribution[k]
        worst = max(worst, 1.0 - prob)
        rows.append(SweepRow(k, out.argmax, prob))
        if out.argmax != k or not out.deterministic:
            raise ProtocolError(
                f"column {k} not recovered deterministically (argmax {out.argmax}, "
                f"probability {prob})",
                column=k,
                argmax=out.argmax,
                probability=prob,
            )
    return SweepReport(tuple(rows), worst)
