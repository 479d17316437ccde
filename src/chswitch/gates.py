"""Gate families and their exact phase algebra.

Two gate kinds are supported. Finite-dimensional generalized Pauli gates
are dense complex matrices built from the clock and shift construction.
Continuous-variable displacement words are never expanded in any function
space; they are kept in the normal form

    e^{i*theta} * e^{i*(beta*x + gamma*p)}

with the canonical commutator [x, p] = i*I, under which composition is
closed and proportionality of two words is decidable in O(1). The scalar
phase picked up by composition is fixed by the commutator and is what the
whole promise machinery rests on, so it gets its own consistency tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, DomainError, KindMismatch, MalformedInstance
from .phaseutil import normalize_radians


@dataclass(frozen=True)
class WeylOp:
    """Displacement word e^{i*theta} e^{i*(beta*x + gamma*p)} in normal form."""

    theta: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_radians(self.theta))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))


def weyl_x(alpha: float) -> WeylOp:
    """Position translation e^{-i*alpha*p}."""
    return WeylOp(0.0, 0.0, -float(alpha))


def weyl_z(beta: float, gamma: float = 0.0) -> WeylOp:
    """General displacement e^{i*(beta*x + gamma*p)}."""
    return WeylOp(0.0, beta, gamma)


def weyl_compose(a: WeylOp, b: WeylOp) -> WeylOp:
    """Operator product a*b, with b acting first.

    Both factors are exponentials of elements of the Heisenberg algebra,
    whose commutator is the scalar i*(gamma_a*beta_b - beta_a*gamma_b), so
    merging the exponentials costs exactly half that commutator as a
    global phase. The sign is pinned by the identity
    Z_{beta,gamma} X_alpha = e^{i*alpha*beta} X_alpha Z_{beta,gamma}.
    """
    phase = a.theta + b.theta + 0.5 * (a.gamma * b.beta - a.beta * b.gamma)
    return WeylOp(phase, a.beta + b.beta, a.gamma + b.gamma)


@dataclass(frozen=True, eq=False)
class QuditGate:
    """Dense unitary on a D-dimensional target."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"expected a {self.dim}x{self.dim} matrix, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def pauli_x(dim: int) -> QuditGate:
    """Shift gate X|j> = |j+1 mod D>."""
    if dim < 2:
        raise DomainError("generalized Pauli gates need dimension >= 2")
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        m[(j + 1) % dim, j] = 1.0
    return QuditGate(dim, m)


def pauli_z_power(dim: int, q: int) -> QuditGate:
    """Clock gate to the power q: Z^q|j> = omega^(q*j) |j> with omega = exp(2*pi*i/D)."""
    if dim < 2:
        raise DomainError("generalized Pauli gates need dimension >= 2")
    phases = np.exp(2j * np.pi * (q % dim) * np.arange(dim) / dim)
    return QuditGate(dim, np.diag(phases))


Gate = Union[WeylOp, QuditGate]


def check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{perm} is not a permutation of 0..{n - 1}")
    return perm


def gate_kind(gates: Sequence[Gate]) -> str:
    """'weyl' or 'qudit'; raises on an empty or mixed collection."""
    if not gates:
        raise KindMismatch("empty gate collection")
    if all(isinstance(g, WeylOp) for g in gates):
        return "weyl"
    if all(isinstance(g, QuditGate) for g in gates):
        dims = {g.dim for g in gates}
        if len(dims) > 1:
            raise DimensionMismatch(f"qudit gates of mixed dimensions {sorted(dims)}")
        return "qudit"
    raise KindMismatch("cannot mix displacement and qudit gates")


def product_in_order(gates: Sequence[Gate], perm: Sequence[int]) -> Gate:
    """Product of the gates applied in the order listed by ``perm``.

    ``perm[0]`` acts first, so the result is the operator product
    U[perm[-1]] ... U[perm[1]] U[perm[0]].

    Displacement words are folded in running (theta, beta, gamma) sums:
    each gate adds the :func:`weyl_compose` phase and displacement of one
    step, and only the final word is built, so the phase is reduced mod
    2*pi once instead of after every step.
    """
    kind = gate_kind(gates)
    perm = check_permutation(perm, len(gates))
    if kind == "weyl":
        theta = beta = gamma = 0.0
        for idx in perm:
            g = gates[idx]
            theta += g.theta + 0.5 * (g.gamma * beta - g.beta * gamma)
            beta += g.beta
            gamma += g.gamma
        return WeylOp(theta, beta, gamma)
    mat = gates[perm[0]].matrix
    for idx in perm[1:]:
        mat = gates[idx].matrix @ mat
    return QuditGate(gates[0].dim, mat)


def phase_ratio(a: Gate, b: Gate, eps: float = 1e-9) -> float | None:
    """Phase c (radians, mod 2*pi) with a = e^{i*c} * b, or None.

    None signals that the two operators are not proportional within
    ``eps``. For displacement words that means differing (beta, gamma);
    for matrices it is a max-entry deviation test after fixing the phase
    on the largest entry of b.
    """
    if isinstance(a, WeylOp) and isinstance(b, WeylOp):
        if abs(a.beta - b.beta) > eps or abs(a.gamma - b.gamma) > eps:
            return None
        return normalize_radians(a.theta - b.theta)
    if isinstance(a, QuditGate) and isinstance(b, QuditGate):
        if a.dim != b.dim:
            raise DimensionMismatch("phase_ratio needs gates of equal dimension")
        ref = np.unravel_index(np.argmax(np.abs(b.matrix)), b.matrix.shape)
        if abs(b.matrix[ref]) < 1e-12:
            return None
        c = a.matrix[ref] / b.matrix[ref]
        if abs(c) < 1e-12:
            return None
        c /= abs(c)
        if np.max(np.abs(a.matrix - c * b.matrix)) > eps:
            return None
        return normalize_radians(float(np.angle(c)))
    raise KindMismatch("phase_ratio needs two gates of the same kind")


# --- JSON wire format ------------------------------------------------------

def gateset_to_json(gates: Sequence[Gate]) -> dict:
    kind = gate_kind(gates)
    if kind == "weyl":
        return {
            "kind": "weyl",
            "gates": [{"theta": g.theta, "beta": g.beta, "gamma": g.gamma} for g in gates],
        }
    return {
        "kind": "qudit",
        "dim": gates[0].dim,
        "gates": [
            [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix]
            for g in gates
        ],
    }


def gateset_from_json(obj) -> tuple[Gate, ...]:
    if not isinstance(obj, dict) or "kind" not in obj or "gates" not in obj:
        raise KindMismatch("gate set JSON must carry 'kind' and 'gates'")
    try:
        if obj["kind"] == "weyl":
            return tuple(
                WeylOp(float(g["theta"]), float(g["beta"]), float(g["gamma"]))
                for g in obj["gates"]
            )
        if obj["kind"] == "qudit":
            dim = int(obj["dim"])
            out = []
            for rows in obj["gates"]:
                m = np.array([[complex(re, im) for re, im in row] for row in rows])
                out.append(QuditGate(dim, m))
            return tuple(out)
    except KeyError as exc:
        raise MalformedInstance(f"gate JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedInstance(f"gate JSON is malformed: {exc}") from exc
    raise KindMismatch(f"unknown gate kind {obj['kind']!r}")
