"""Simulation of the (N, p)-switch and the column-identification protocol.

The switch applies, for each basis state |j> of a p-dimensional control,
the ordered product of the gates given by ordering j to the target:

    S (|j> (x) |psi>) = |j> (x) Pi_j |psi>.

The protocol sandwiches the switch between M/sqrt(p) and its inverse on
the control, starting from |0> (x) |psi>. When the gates satisfy the
promise for column k, the control ends in |k> exactly, so the full
outcome distribution is computed and reported rather than a sample.

Both target kinds take one path. :func:`apply_switch` returns one row
per control branch: the target after that branch's ordering. The
preparation puts amplitude u[j, 0] on branch j, and the switch acts on
each branch separately, so that amplitude factors out of the branch and
the protocol is u^dagger applied to the rows scaled by u[:, 0]. A qudit
row is the vector Pi_j psi, computed by applying the ordering's gates
one at a time, O(N*D^2) per branch, without forming the ordered product
as a matrix. A displacement row is the single phase e^{i*theta_j} of
the branch word: the target is never expanded, because every branch
carries the same displacement and only the phases interfere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BranchMismatch, DomainError, NotDephased, ProtocolError, SizeMismatch
from .gates import Gate, gate_kind, product_in_order
from .matrices import CHMatrix
from .promise import PermutationSet, build_cv_gates, build_qudit_gates, shift_permutations

DEFAULT_EPS_DET = 1e-9
_EPS_DISPLACEMENT = 1e-9


@dataclass(frozen=True)
class SwitchOutcome:
    """Full measurement distribution on the control register."""

    distribution: tuple[float, ...]
    argmax: int
    deterministic: bool


def apply_switch(
    gates: Sequence[Gate], perm_set: PermutationSet, psi: Sequence[complex] | None = None
) -> np.ndarray:
    """Target of every control branch; row j is ordering j applied to it.

    Qudit gates give a (p, D) array of the vectors Pi_j psi, with ``psi``
    the basis state |0> by default. Displacement gates give a (p, 1)
    array of the branch phases e^{i*theta_j}; their target is symbolic,
    so ``psi`` must be omitted, and every branch must carry the same
    displacement. Orderings of one gate set do in exact arithmetic, since
    the displacement components add up independently of the order; float
    sums of very different magnitudes may not, and raise
    :class:`BranchMismatch`.
    """
    kind = gate_kind(gates)
    if len(gates) != perm_set.n:
        raise SizeMismatch(f"{len(gates)} gates for orderings over {perm_set.n} slots")
    if kind == "weyl":
        if psi is not None:
            raise DomainError("displacement-gate targets are symbolic; do not pass psi")
        words = [product_in_order(gates, pm) for pm in perm_set.perms]
        ref = words[0]
        for j, op in enumerate(words):
            if (abs(op.beta - ref.beta) > _EPS_DISPLACEMENT
                    or abs(op.gamma - ref.gamma) > _EPS_DISPLACEMENT):
                raise BranchMismatch(
                    "control branches carry different target displacements; "
                    "their interference depends on the unknown target state",
                    branch=j,
                )
        return np.exp(1j * np.array([[op.theta] for op in words]))

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
    rows = np.empty((perm_set.p, dim), dtype=complex)
    for j, pm in enumerate(perm_set.perms):
        vec = target
        for idx in pm:
            vec = gates[idx].matrix @ vec
        rows[j] = vec
    return rows


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
    u = m.to_complex() / np.sqrt(m.p)
    # the switch acts on each branch separately, so the amplitude u[j, 0]
    # the preparation puts on branch j scales that branch's row as a whole
    final = u.conj().T @ (u[:, :1] * apply_switch(gates, perm_set, psi))
    return _outcome(np.linalg.norm(final, axis=1), eps_det)


def sweep_columns(
    m: CHMatrix,
    target: str,
    dim: int | None = None,
    eps_det: float = DEFAULT_EPS_DET,
) -> float:
    """Build gates for every column, run the protocol, demand recovery.

    ``target`` selects the builder: "qudit" (clock/shift, optional
    ``dim``) or "cv" (displacements of unit translation size).
    Returns the worst deviation 1 - P(k) over the columns k; raises
    :class:`ProtocolError` on the first column that is not recovered
    deterministically.
    """
    if target not in ("qudit", "cv"):
        raise DomainError(f"unknown target {target!r}")
    perm_set = shift_permutations(m.p, m.p)
    worst = 0.0
    for k in range(m.p):
        if target == "qudit":
            gates: Sequence[Gate] = build_qudit_gates(m, k, dim=dim)
        else:
            gates = build_cv_gates(m, k)
        out = run_protocol(m, perm_set, gates, eps_det=eps_det)
        prob = out.distribution[k]
        worst = max(worst, 1.0 - prob)
        if out.argmax != k or not out.deterministic:
            raise ProtocolError(
                f"column {k} not recovered deterministically (argmax {out.argmax}, "
                f"probability {prob})",
                column=k,
                argmax=out.argmax,
                probability=prob,
            )
    return worst
