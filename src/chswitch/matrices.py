"""Complex Hadamard matrices stored as phase grids.

An order-p complex Hadamard matrix has unit-modulus entries
``M[j][k] = exp(i*phi[j][k])`` and satisfies ``M M^dagger = p*I``. Only
the phases are stored here, so unimodularity holds by construction. Two
homogeneous encodings are supported:

* ``"exact"``: each phase is a :class:`fractions.Fraction` in [0, 1)
  counting turns (entry = ``exp(2*pi*i*turn)``). Validation and Butson
  classification of these matrices are exact.
* ``"float"``: each phase is a float in radians, reduced to [0, 2*pi).

A matrix is Butson of complexity d when every entry is a d-th root of
unity; for the exact encoding the minimal d is simply the lcm of the turn
denominators. Exact orthogonality checks reduce to deciding whether an
integer combination of d-th roots of unity vanishes, which is done with
cyclotomic polynomial division rather than floating point.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, MalformedMatrix, SizeMismatch
from .phaseutil import TAU, circular_distance, normalize_radians, normalize_turn

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS_PHASE = 1e-9
DEFAULT_EPS_UNITARY = 1e-9
DEFAULT_D_MAX = 4096
# (d, entry) pairs per block of the float Butson scan: a 128 KiB float array
_SCAN_BLOCK = 2**14

PhaseEntry = Union[Fraction, float]


@dataclass(frozen=True)
class CHMatrix:
    """Square grid of unit-modulus entries, stored as phases.

    ``rep`` selects the encoding: every phase of an ``"exact"`` matrix is a
    ``Fraction`` in [0, 1) (fraction of a full turn), every phase of a
    ``"float"`` matrix is a float radian in [0, 2*pi). Mixed grids are
    rejected. Instances are immutable; build them through
    :meth:`from_turns`, :meth:`from_radians` or the generators below.
    """

    p: int
    rep: str
    phases: tuple[tuple[PhaseEntry, ...], ...]

    def __post_init__(self):
        if self.rep not in (EXACT, FLOAT):
            raise MalformedMatrix(f"unknown rep {self.rep!r}")
        if self.p < 1:
            raise MalformedMatrix("matrix order must be >= 1")
        if len(self.phases) != self.p or any(len(row) != self.p for row in self.phases):
            raise MalformedMatrix("phase grid is not square of the declared order")
        want = Fraction if self.rep == EXACT else float
        for row in self.phases:
            for entry in row:
                if type(entry) is not want:
                    raise MalformedMatrix(
                        f"{self.rep} matrix requires {want.__name__} phases, got {type(entry).__name__}"
                    )

    @classmethod
    def from_turns(cls, turns: Sequence[Sequence]) -> "CHMatrix":
        grid = tuple(tuple(normalize_turn(Fraction(t)) for t in row) for row in turns)
        return cls(len(grid), EXACT, grid)

    @classmethod
    def from_radians(cls, radians: Sequence[Sequence]) -> "CHMatrix":
        values = [[float(x) for x in row] for row in radians]
        if not all(math.isfinite(x) for row in values for x in row):
            raise MalformedMatrix("phases must be finite numbers")
        grid = tuple(tuple(normalize_radians(x) for x in row) for row in values)
        return cls(len(grid), FLOAT, grid)

    def phase_radians(self, j: int, k: int) -> float:
        entry = self.phases[j][k]
        if self.rep == EXACT:
            return float(entry) * TAU
        return entry

    def radians(self) -> np.ndarray:
        """All phases as a read-only float array of radians.

        Computed on the first call and kept on the instance, so every
        later call returns the same array; entry (j, k) equals
        :meth:`phase_radians` of (j, k).
        """
        cached = self.__dict__.get("_radians")
        if cached is None:
            cached = np.array([[float(x) for x in row] for row in self.phases])
            if self.rep == EXACT:
                cached *= TAU
            cached.setflags(write=False)
            object.__setattr__(self, "_radians", cached)
        return cached

    def to_complex(self) -> np.ndarray:
        """Dense complex matrix with entries exp(i*phi), read-only.

        Computed on the first call and kept on the instance like
        :meth:`radians`.
        """
        cached = self.__dict__.get("_complex")
        if cached is None:
            cached = np.exp(1j * self.radians())
            cached.setflags(write=False)
            object.__setattr__(self, "_complex", cached)
        return cached

    def is_dephased(self, eps_phase: float = DEFAULT_EPS_PHASE) -> bool:
        """Whether row 0 and column 0 carry zero phase."""
        if self.rep == EXACT:
            return all(self.phases[0][k] == 0 for k in range(self.p)) and all(
                self.phases[j][0] == 0 for j in range(self.p)
            )
        edge = [self.phases[0][k] for k in range(self.p)]
        edge += [self.phases[j][0] for j in range(self.p)]
        return all(circular_distance(x, 0.0) <= eps_phase for x in edge)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_row_pair_deviation: float


@dataclass(frozen=True)
class Butson:
    """Classification result: every entry is a root of unity of this order."""

    complexity: int


@dataclass(frozen=True)
class NotButson:
    """No admissible root-of-unity order was found; ``witness`` is the
    (row, col) of the offending entry."""

    witness: tuple[int, int]


BHClass = Union[Butson, NotButson]


# --- exact arithmetic on roots of unity ---------------------------------

def _poly_divmod(num: Sequence[int], den: Sequence[int]):
    """Long division of integer polynomials, coefficients lowest first.

    ``den`` must be monic so quotient and remainder stay integral.
    """
    num = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(num) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + deg]
        if c:
            quot[i] = c
            for k in range(deg + 1):
                num[i + k] -= c * den[k]
    return quot, num[:deg]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    coeffs: Sequence[int] = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            coeffs, rem = _poly_divmod(coeffs, _cyclotomic(d))
            assert not any(rem)
    return tuple(coeffs)


def _zeta_sum_is_zero(multiplicities, order: int) -> bool:
    """Whether ``sum_k m_k * zeta^{e_k}`` vanishes for the primitive
    ``order``-th root of unity zeta.

    Z[zeta] is Z[x] modulo the ``order``-th cyclotomic polynomial, so the
    sum is zero iff that polynomial divides the multiplicity polynomial.
    """
    poly = [0] * order
    for e, c in multiplicities:
        poly[e % order] += c
    _, rem = _poly_divmod(poly, _cyclotomic(order))
    return not any(rem)


def _exact_rows_orthogonal(m: CHMatrix) -> bool:
    order = math.lcm(*(ph.denominator for row in m.phases for ph in row))
    # entry (j, k) is zeta^expo[j][k] for the primitive order-th root zeta
    expo = [[ph.numerator * (order // ph.denominator) for ph in row] for row in m.phases]
    for j in range(m.p):
        for l in range(j + 1, m.p):
            # A common factor zeta^shift does not decide whether the row
            # product vanishes, and exponents that all share a factor step
            # with the order are roots of unity of the smaller order/step.
            shift = expo[j][0] - expo[l][0]
            diff = [(a - b - shift) % order for a, b in zip(expo[j], expo[l])]
            step = math.gcd(order, *diff)
            counts = Counter(e // step for e in diff)
            if not _zeta_sum_is_zero(counts.items(), order // step):
                return False
    return True


# --- core operations -----------------------------------------------------

def validate_ch(m: CHMatrix, eps_unitary: float = DEFAULT_EPS_UNITARY) -> ValidationReport:
    """Check the complex Hadamard property ``M M^dagger = p*I``.

    The diagonal holds structurally (entries are unimodular), so only the
    pairwise row inner products are examined. Exact matrices are decided
    exactly; float matrices pass when every off-diagonal modulus is at most
    ``eps_unitary * p``. The report always carries the worst numeric
    off-diagonal modulus.
    """
    if m.p == 1:
        return ValidationReport(True, 0.0)
    u = m.to_complex()
    gram = u @ u.conj().T
    np.fill_diagonal(gram, 0.0)
    deviation = float(np.max(np.abs(gram)))
    if m.rep == EXACT:
        ok = _exact_rows_orthogonal(m)
    else:
        ok = deviation <= eps_unitary * m.p
    return ValidationReport(ok, deviation)


@dataclass(frozen=True)
class DephaseResult:
    """Dephased matrix together with the diagonal phase factors applied.

    ``matrix`` equals ``D1 @ original @ D2`` where D1 (rows) and D2
    (columns) are the diagonal unitaries with phases ``row_factors`` and
    ``col_factors``. :func:`phase_twirl` with the negated factors undoes
    the transformation.
    """

    matrix: CHMatrix
    row_factors: tuple[PhaseEntry, ...]
    col_factors: tuple[PhaseEntry, ...]


def phase_twirl(m: CHMatrix, row_phases: Sequence, col_phases: Sequence) -> CHMatrix:
    """Multiply row j by exp(i*row_phases[j]) and column k by
    exp(i*col_phases[k]). Phases are turns for exact matrices, radians
    otherwise."""
    if len(row_phases) != m.p or len(col_phases) != m.p:
        raise SizeMismatch(f"need {m.p} row and column phases")
    if m.rep == EXACT:
        rows = [Fraction(r) for r in row_phases]
        cols = [Fraction(c) for c in col_phases]
        return CHMatrix.from_turns(
            [[m.phases[j][k] + rows[j] + cols[k] for k in range(m.p)] for j in range(m.p)]
        )
    rows = [float(r) for r in row_phases]
    cols = [float(c) for c in col_phases]
    return CHMatrix.from_radians(
        [[m.phases[j][k] + rows[j] + cols[k] for k in range(m.p)] for j in range(m.p)]
    )


def dephase(m: CHMatrix) -> DephaseResult:
    """Cast a complex Hadamard matrix into dephased form.

    Row phases are cleared first (subtract each row's column-0 phase),
    then column phases (subtract the resulting row-0 phase), which fixes a
    canonical output among the diagonally equivalent choices.
    """
    zero = Fraction(0) if m.rep == EXACT else 0.0
    row_factors = tuple(-m.phases[j][0] for j in range(m.p))
    col_factors = tuple(-(m.phases[0][k] - m.phases[0][0]) for k in range(m.p))
    out = phase_twirl(m, row_factors, col_factors)
    norm = normalize_turn if m.rep == EXACT else normalize_radians
    return DephaseResult(
        matrix=out,
        row_factors=tuple(norm(zero + r) for r in row_factors),
        col_factors=tuple(norm(zero + c) for c in col_factors),
    )


def classify_bh(
    m: CHMatrix,
    d_max: int = DEFAULT_D_MAX,
    eps_phase: float = DEFAULT_EPS_PHASE,
) -> BHClass:
    """Find the minimal root-of-unity order covering every entry.

    Exact matrices classify unconditionally (lcm of the turn
    denominators). Float matrices are scanned over d = 1..d_max; a
    ``NotButson`` verdict therefore means "not Butson up to d_max". The
    witness is the first entry (row-major) that is not within
    ``eps_phase`` of any admissible root of unity; when every entry is
    close to some root but no single d covers them all, it is the first
    entry not covered at d_max.

    The scan takes blocks of consecutive d values, at most
    ``_SCAN_BLOCK`` (d, entry) pairs at a time, with the same elementwise
    float operations as a scan one d at a time, so the verdict and the
    witness do not depend on the block size.
    """
    if d_max < 1:
        raise DomainError(f"d_max must be at least 1, got {d_max}")
    if not eps_phase > 0:  # also rejects NaN
        raise DomainError(f"eps_phase must be positive, got {eps_phase}")
    if m.rep == EXACT:
        return Butson(math.lcm(*(ph.denominator for row in m.phases for ph in row)))
    turns = (m.radians() / TAU).ravel()
    entry_ok = np.zeros(turns.shape, dtype=bool)
    step = max(1, _SCAN_BLOCK // turns.size)
    for first in range(1, d_max + 1, step):
        ds = np.arange(first, min(first + step, d_max + 1), dtype=float)[:, None]
        scaled = turns * ds
        err = np.abs(scaled - np.round(scaled)) * (TAU / ds)
        close = err <= eps_phase
        covered = close.all(axis=1)
        if covered.any():
            return Butson(first + int(np.argmax(covered)))
        entry_ok |= close.any(axis=0)
    bad = ~entry_ok if not entry_ok.all() else err[-1] > eps_phase
    j, k = divmod(int(np.flatnonzero(bad)[0]), m.p)
    return NotButson((j, k))


def min_target_dimension(
    m: CHMatrix,
    d_max: int = DEFAULT_D_MAX,
    eps_phase: float = DEFAULT_EPS_PHASE,
) -> int | None:
    """Least finite target dimension admitting promise gates for ``m``.

    Entries of any order-D realization must satisfy ``M[j][k]**D = 1``, so
    the matrix has to be Butson and the minimal dimension is its
    complexity; every multiple works as well. ``None`` means no finite
    dimension is admissible (up to ``d_max`` for float matrices) and a
    continuous-variable target is required.
    """
    cls = classify_bh(m, d_max=d_max, eps_phase=eps_phase)
    if isinstance(cls, Butson):
        return cls.complexity
    return None


# --- generators -----------------------------------------------------------

def fourier(d: int) -> CHMatrix:
    """Fourier matrix of order d with entries exp(2*pi*i*j*k/d), exact."""
    if d < 1:
        raise DomainError("fourier order must be >= 1")
    return CHMatrix.from_turns(
        [[Fraction((j * k) % d, d) for k in range(d)] for j in range(d)]
    )


def f4_family(a: Union[float, Fraction]) -> CHMatrix:
    """One-parameter family of order-4 complex Hadamard matrices.

    Rows are (1, 1, 1, 1), (1, i*e^{ia}, -1, -i*e^{ia}), (1, -1, 1, -1)
    and (1, -i*e^{ia}, -1, i*e^{ia}). At a = 0 this is the order-4 Fourier
    matrix; at a = pi/2 it is a real Hadamard matrix; at irrational a/pi
    it is not Butson of any order.

    ``a`` is radians when given as a float, a fraction of a full turn when
    given as a ``Fraction`` (producing an exact matrix). Must lie in
    [0, pi), i.e. turns in [0, 1/2).
    """
    if isinstance(a, Fraction):
        if not 0 <= a < Fraction(1, 2):
            raise DomainError("f4 parameter must lie in [0, 1/2) turns")
        t = a
        return CHMatrix.from_turns(
            [
                [0, 0, 0, 0],
                [0, Fraction(1, 4) + t, Fraction(1, 2), Fraction(3, 4) + t],
                [0, Fraction(1, 2), 0, Fraction(1, 2)],
                [0, Fraction(3, 4) + t, Fraction(1, 2), Fraction(1, 4) + t],
            ]
        )
    a = float(a)
    if not 0.0 <= a < math.pi:
        raise DomainError("f4 parameter must lie in [0, pi) radians")
    q = math.pi / 2.0
    return CHMatrix.from_radians(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, q + a, math.pi, 3 * q + a],
            [0.0, math.pi, 0.0, math.pi],
            [0.0, 3 * q + a, math.pi, q + a],
        ]
    )


def sylvester_hadamard(k: int) -> CHMatrix:
    """Real Hadamard matrix of order 2**k by the doubling construction."""
    if k < 0:
        raise DomainError("sylvester exponent must be >= 0")
    half = Fraction(1, 2)
    grid = [[Fraction(0)]]
    for _ in range(k):
        n = len(grid)
        grid = [
            [grid[j % n][l % n] + (half if j >= n and l >= n else 0) for l in range(2 * n)]
            for j in range(2 * n)
        ]
    return CHMatrix.from_turns(grid)


# --- JSON wire format ------------------------------------------------------

def matrix_to_json(m: CHMatrix) -> dict:
    if m.rep == EXACT:
        phases = [
            [{"num": t.numerator, "den": t.denominator} for t in row] for row in m.phases
        ]
    else:
        phases = [[float(x) for x in row] for row in m.phases]
    return {"p": m.p, "rep": m.rep, "phases": phases}


def matrix_from_json(obj) -> CHMatrix:
    if not isinstance(obj, dict):
        raise MalformedMatrix("matrix JSON must be an object")
    try:
        p = obj["p"]
        rep = obj["rep"]
        phases = obj["phases"]
    except (KeyError, TypeError) as exc:
        raise MalformedMatrix(f"matrix JSON missing field: {exc}") from exc
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise MalformedMatrix("p must be a positive integer")
    if not isinstance(phases, list) or len(phases) != p or any(
        not isinstance(row, list) or len(row) != p for row in phases
    ):
        raise MalformedMatrix("phases must be a p x p grid")
    if rep == EXACT:
        turns = []
        for row in phases:
            out = []
            for entry in row:
                if not isinstance(entry, dict) or set(entry) != {"num", "den"}:
                    raise MalformedMatrix("exact entries must be {num, den} objects")
                num, den = entry["num"], entry["den"]
                if any(isinstance(x, bool) or not isinstance(x, int) for x in (num, den)) or den < 1:
                    raise MalformedMatrix("exact entries need integer num and positive den")
                out.append(Fraction(num, den))
            turns.append(out)
        return CHMatrix.from_turns(turns)
    if rep == FLOAT:
        for row in phases:
            for entry in row:
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise MalformedMatrix("float entries must be numbers (radians)")
        return CHMatrix.from_radians(phases)
    raise MalformedMatrix(f"unknown rep {rep!r}")


def save_matrix(m: CHMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path) -> CHMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise MalformedMatrix(f"matrix file is not JSON: {exc}") from exc
    return matrix_from_json(obj)
