"""Promise instances and gate-set synthesis.

A promise instance pairs a dephased complex Hadamard matrix of order p
with p permutations of N gates such that, for a single hidden column k,

    product(perm j) = M[j][k] * product(perm 0)   for every j.

The task solved elsewhere (see :mod:`chswitch.switch`) is recovering k.
This module builds gate sets realizing any chosen column: displacement
gates for arbitrary matrices, clock/shift gates for Butson matrices on a
compatible finite dimension, and the minimal three-gate solutions for the
order-4 family. It also verifies instances directly from the gate
algebra, which is the ground truth the protocol simulations are tested
against.

Permutations are written in application order (first entry acts first),
and ``perms[0]`` is always the identity order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    AmbiguousColumn,
    DimensionMismatch,
    DomainError,
    IncompatibleDimension,
    KindMismatch,
    MalformedInstance,
    NotButsonError,
    NotDephased,
    PromiseViolation,
    SizeMismatch,
)
from .gates import (
    Gate,
    QuditGate,
    WeylOp,
    check_permutation,
    gate_kind,
    gateset_from_json,
    gateset_to_json,
    pauli_x,
    pauli_z_power,
    phase_ratio,
    product_in_order,
    weyl_compose,
    weyl_x,
    weyl_z,
)
from .matrices import (
    Butson,
    CHMatrix,
    DEFAULT_D_MAX,
    DEFAULT_EPS_PHASE,
    classify_bh,
    f4_family,
    matrix_from_json,
    matrix_to_json,
)
from .phaseutil import circular_distance


@dataclass(frozen=True)
class PermutationSet:
    """Distinct gate orderings, the first being the identity order."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.perms:
            raise DomainError("permutation set cannot be empty")
        n = len(self.perms[0])
        perms = tuple(check_permutation(pm, n) for pm in self.perms)
        object.__setattr__(self, "perms", perms)
        if perms[0] != tuple(range(n)):
            raise DomainError("the first permutation must be the identity order")
        if len(set(perms)) != len(perms):
            raise DomainError("permutations must be distinct")
        # distinctness already forces p <= N!

    @property
    def n(self) -> int:
        return len(self.perms[0])

    @property
    def p(self) -> int:
        return len(self.perms)


def shift_permutations(p: int, n: int) -> PermutationSet:
    """Orders where gate 0 is delayed by one extra slot at a time.

    Order j applies gates 1..j first, then gate 0, then the rest:
    [1, 2, ..., j, 0, j+1, ..., n-1]. Requires p <= n since each delay
    needs a slot.
    """
    if p < 2:
        raise DomainError("need at least two orderings")
    if p > n:
        raise DomainError(f"shift family supports at most n={n} orderings, got p={p}")
    rest = list(range(1, n))
    perms = [tuple(range(n))]
    for j in range(1, p):
        perms.append(tuple(rest[:j] + [0] + rest[j:]))
    return PermutationSet(tuple(perms))


MINIMAL_CH4_PERMS = PermutationSet(((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)))


@dataclass(frozen=True)
class PromiseInstance:
    """A solvable problem: matrix, orderings, gates, optional known column."""

    matrix: CHMatrix
    perm_set: PermutationSet
    gates: tuple[Gate, ...]
    claimed_column: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.matrix.is_dephased():
            raise NotDephased("promise matrices must be in dephased form")
        if self.perm_set.p != self.matrix.p:
            raise SizeMismatch(
                f"matrix order {self.matrix.p} != number of orderings {self.perm_set.p}"
            )
        if len(self.gates) != self.perm_set.n:
            raise SizeMismatch(
                f"{len(self.gates)} gates for orderings over {self.perm_set.n} slots"
            )
        gate_kind(self.gates)
        if self.claimed_column is not None and not 0 <= self.claimed_column < self.matrix.p:
            raise DomainError(f"claimed column {self.claimed_column} out of range")


def _column_radians(m: CHMatrix, k: int) -> list[float]:
    return m.radians()[:, k].tolist()


def build_cv_gates(
    m: CHMatrix,
    k: int,
    alpha: float = 1.0,
    gammas: Sequence[float] | None = None,
) -> tuple[WeylOp, ...]:
    """Displacement gates realizing column ``k`` of a dephased matrix.

    Gate 0 is the translation X_alpha; gate j is a displacement whose x
    coefficient encodes the phase step of column k between rows j-1 and j.
    Under the shift orderings the products then differ from the identity
    order by exactly the column phases. Works for every dephased complex
    Hadamard matrix, Butson or not. ``gammas`` are free parameters (one
    per displacement gate) that do not affect the promise in exact
    arithmetic only: ordering phases sum float terms of size gamma*beta,
    so gammas near 1e7 round them by about 1e-9, which can fail the
    default ``verify_promise`` tolerance.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero")
    if not 0 <= k < m.p:
        raise DomainError(f"column {k} out of range for order {m.p}")
    if not m.is_dephased():
        raise NotDephased("the displacement construction needs a dephased matrix")
    if gammas is None:
        gammas = [0.0] * (m.p - 1)
    if len(gammas) != m.p - 1:
        raise SizeMismatch(f"need {m.p - 1} gamma values")
    col = _column_radians(m, k)
    gates = [weyl_x(alpha)]
    for j in range(1, m.p):
        # The product with gate 0 delayed j slots picks up
        # -alpha * (beta_1 + ... + beta_j), so the steps are negated to
        # make the total equal +phi_{jk}.
        beta_j = (col[j - 1] - col[j]) / alpha
        gates.append(weyl_z(beta_j, float(gammas[j - 1])))
    return tuple(gates)


def build_qudit_gates(
    m: CHMatrix,
    k: int,
    dim: int | None = None,
    d_max: int = DEFAULT_D_MAX,
    eps_phase: float = DEFAULT_EPS_PHASE,
) -> tuple[QuditGate, ...]:
    """Clock/shift gates realizing column ``k`` on a finite target.

    Requires the matrix to be Butson with complexity d dividing the target
    dimension (default: the complexity itself). Gate 0 is the shift X;
    gate j is a clock power encoding the column-k exponent step between
    rows j-1 and j, scaled into the target dimension.
    """
    cls = classify_bh(m, d_max=d_max, eps_phase=eps_phase)
    if not isinstance(cls, Butson):
        raise NotButsonError(
            f"matrix is not Butson up to d_max={d_max}; no finite-dimensional gates exist",
            witness=list(cls.witness),
        )
    d = cls.complexity
    # gates need dimension >= 2 even for a complexity-1 matrix
    target = max(d, 2) if dim is None else int(dim)
    if target % d:
        raise IncompatibleDimension(
            f"target dimension {target} is not a multiple of the complexity {d}"
        )
    if not 0 <= k < m.p:
        raise DomainError(f"column {k} out of range for order {m.p}")
    if not m.is_dephased():
        raise NotDephased("the clock/shift construction needs a dephased matrix")
    if m.order is not None:  # then d == m.order
        q = [row[k] for row in m.grid]
    else:
        q = [round(x * d / (2 * math.pi)) % d for x in _column_radians(m, k)]
    gates: list[QuditGate] = [pauli_x(target)]
    scale = target // d
    for j in range(1, m.p):
        # same sign flip as the displacement construction
        gates.append(pauli_z_power(target, ((q[j - 1] - q[j]) % d) * scale))
    return tuple(gates)


def build_minimal_ch4(
    a: float | Fraction,
    k: int,
    alpha1: float = 1.0,
    beta1: float = 0.0,
) -> tuple[tuple[WeylOp, WeylOp, WeylOp], PermutationSet]:
    """Three displacement gates solving the order-4 family promise.

    Gate i is X_{alpha_i} Z_{beta_i}. Reversing gates i < j multiplies a
    displacement product by exp(i*s_ij), s_ij = alpha_j*beta_i -
    alpha_i*beta_j, and the orderings (0,1,2), (1,0,2), (1,2,0), (2,1,0)
    reverse the pair 01, then also 02, then also 12. So column k with
    phases phi_1..phi_3 needs s01 = phi_1, s02 = phi_2 - phi_1 and
    s12 = phi_3 - phi_2, each mod 2*pi. With alpha_0 = 0 and ``alpha1``,
    ``beta1`` free: beta_0 = s01/alpha1, alpha_2 = s02*alpha1/s01 and
    beta_2 = (alpha_2*beta1 - s12)/alpha1. Taking s01 in [pi/2, 5*pi/2),
    and s02, s12 as raw differences of phases in [0, 2*pi), keeps
    |alpha_2| < 4|alpha1| and |beta_0| < 5*pi/(2|alpha1|) for every ``a``
    (radians, or turns as a ``Fraction``, as in :func:`f4_family`).
    """
    if k not in (0, 1, 2, 3):
        raise DomainError(f"column {k} out of range for order 4")
    if alpha1 == 0.0:
        raise DomainError("alpha1 must be nonzero")
    phi = f4_family(a).radians()[:, k]
    s01 = (phi[1] - math.pi / 2) % (2 * math.pi) + math.pi / 2
    s02, s12 = phi[2] - phi[1], phi[3] - phi[2]
    alpha2 = s02 * alpha1 / s01
    params = ((0.0, s01 / alpha1), (alpha1, beta1), (alpha2, (alpha2 * beta1 - s12) / alpha1))
    gates = tuple(weyl_compose(weyl_x(al), weyl_z(be, 0.0)) for al, be in params)
    return gates, MINIMAL_CH4_PERMS


def verify_promise(inst: PromiseInstance, eps: float = DEFAULT_EPS_PHASE) -> int:
    """Identify the unique column whose phases match all ordered products.

    Every column is tested rather than trusting ``claimed_column``, so a
    successful verification doubles as a falsification check. Raises
    :class:`PromiseViolation` when no column matches (reporting the first
    mismatch of the claimed, or else best, column) and
    :class:`AmbiguousColumn` when ``eps`` is too coarse to separate two
    columns.
    """
    pis = [product_in_order(inst.gates, pm) for pm in inst.perm_set.perms]
    ratios = [phase_ratio(pis[j], pis[0], eps) for j in range(inst.perm_set.p)]

    matches = []
    prefix_lengths = []
    for k in range(inst.matrix.p):
        col = _column_radians(inst.matrix, k)
        good = 0
        for j, r in enumerate(ratios):
            if r is None or circular_distance(r, col[j]) > eps:
                break
            good += 1
        prefix_lengths.append(good)
        if good == inst.matrix.p:
            matches.append(k)

    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise AmbiguousColumn(
            f"columns {matches} both match; eps={eps} is too coarse for this matrix",
            columns=matches,
        )
    report_k = inst.claimed_column
    if report_k is None:
        report_k = max(range(inst.matrix.p), key=lambda k: prefix_lengths[k])
    j = prefix_lengths[report_k]
    expected = _column_radians(inst.matrix, report_k)[j]
    got = ratios[j]
    raise PromiseViolation(
        f"no column matches; column {report_k} fails first at ordering {j} "
        f"(expected phase {expected}, got {got})",
        j=j,
        column=report_k,
        expected=expected,
        got=got,
    )


def conjugate_gates(gates: Sequence[Gate], v: QuditGate) -> tuple[QuditGate, ...]:
    """Replace every gate U by V U V^dagger; the promise column is unchanged."""
    if gate_kind(gates) != "qudit" or not isinstance(v, QuditGate):
        raise KindMismatch("conjugation is defined for qudit gates")
    if gates[0].dim != v.dim:
        raise DimensionMismatch(f"gate dimension {gates[0].dim} != conjugator dimension {v.dim}")
    return tuple(QuditGate(v.dim, v.matrix @ g.matrix @ v.matrix.conj().T) for g in gates)


# --- JSON wire format ------------------------------------------------------

def instance_to_json(inst: PromiseInstance) -> dict:
    return {
        "matrix": matrix_to_json(inst.matrix),
        "perms": [list(pm) for pm in inst.perm_set.perms],
        "gates": gateset_to_json(inst.gates),
        "claimed_column": inst.claimed_column,
    }


def instance_from_json(obj) -> PromiseInstance:
    if not isinstance(obj, dict):
        raise MalformedInstance("instance JSON must be an object")
    try:
        matrix = matrix_from_json(obj["matrix"])
        perm_set = PermutationSet(tuple(tuple(pm) for pm in obj["perms"]))
        gates = gateset_from_json(obj["gates"])
    except KeyError as exc:
        raise MalformedInstance(f"instance JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedInstance(f"instance JSON is malformed: {exc}") from exc
    claimed = obj.get("claimed_column")
    if claimed is not None and (isinstance(claimed, bool) or not isinstance(claimed, int)):
        raise MalformedInstance("claimed_column must be an integer or null")
    return PromiseInstance(matrix, perm_set, gates, claimed)


def save_instance(inst: PromiseInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh)
        fh.write("\n")


def load_instance(path) -> PromiseInstance:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise MalformedInstance(f"instance file is not JSON: {exc}") from exc
    return instance_from_json(obj)
