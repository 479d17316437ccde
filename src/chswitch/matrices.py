"""Complex Hadamard matrices stored as phase grids.

An order-p complex Hadamard matrix has unit-modulus entries
``M[j][k] = exp(i*phi[j][k])`` and satisfies ``M M^dagger = p*I``. Only
the phases are stored here, so unimodularity holds by construction. Two
encodings are supported:

* exact: a root-of-unity order n and a reduced integer exponent grid,
  entry (j, k) being ``exp(2*pi*i*grid[j][k]/n)``; n is the minimal order,
  so the matrix is Butson of complexity n. Validation is exact too.
* float: ``order`` is ``None`` and the grid holds radians in [0, 2*pi).

Turns (:class:`fractions.Fraction`) appear only at the edge: in
:meth:`CHMatrix.from_turns`, the ``phases`` view, the JSON format, the
phases :func:`phase_twirl` takes and the factors :func:`dephase` reports;
:func:`dephase` itself shifts the grid in its own units. Exact
orthogonality is decided on the float grams of the dephased grid's
Galois conjugates (see :func:`validate_ch`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, LimitExceeded, MalformedMatrix, SizeMismatch
from .phaseutil import TAU, circular_distance, normalize_radians

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS_PHASE = 1e-9
DEFAULT_EPS_UNITARY = 1e-9
DEFAULT_D_MAX = 4096
# Largest matrix order p that the generators and the JSON reader accept
# (printing Fourier-1024 takes about 4 s and 400 MB, Fourier-2048 21 s and 1.6 GB)
MAX_P = 1024
# Largest dephased root-of-unity order that exact validation decides: one
# float gram per unit a <= order/2 (about 4 s at 2**20 and p = 4)
MAX_EXACT_ORDER = 2**20
# (d, entry) pairs per block of the float Butson scan: a 128 KiB float array
_SCAN_BLOCK = 2**14

PhaseEntry = Union[Fraction, float]


@dataclass(frozen=True)
class CHMatrix:
    """Square grid of unit-modulus entries, stored as phases.

    An exact matrix has a positive int ``order`` n and a grid of int
    exponents, entry (j, k) being ``exp(2*pi*i*grid[j][k]/n)``; the
    constructor reduces the grid (exponents mod n, divided with n by their
    common factor), so equal matrices compare and hash equal and ``order``
    is the minimal root-of-unity order. A float matrix has ``order`` None
    and a grid of float radians in [0, 2*pi). Instances are immutable;
    build them through :meth:`from_turns`, :meth:`from_radians` or the
    generators below. ``radians()`` is computed once, at construction.
    """

    order: int | None
    grid: tuple[tuple, ...]

    def __post_init__(self):
        grid, order = tuple(tuple(row) for row in self.grid), self.order
        if not grid or any(len(row) != len(grid) for row in grid):
            raise MalformedMatrix("phase grid must be square with at least one row")
        if order is not None and (type(order) is not int or order < 1):
            raise MalformedMatrix(f"root-of-unity order must be a positive int, got {order!r}")
        want = float if order is None else int
        wrong = {type(entry) for row in grid for entry in row} - {want}
        if wrong:
            raise MalformedMatrix(
                f"{self.rep} matrix requires {want.__name__} phases, got {wrong.pop().__name__}"
            )
        if order is None:
            rad = np.array(grid, dtype=float)
        else:
            step = math.gcd(order, *(e for row in grid for e in row))
            grid = tuple(tuple((e % order) // step for e in row) for row in grid)
            order //= step
            # int true division rounds once, exactly as float(Fraction(e, order))
            rad = np.array([[e / order for e in row] for row in grid]) * TAU
        rad.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_radians", rad)

    @classmethod
    def from_turns(cls, turns: Sequence[Sequence]) -> "CHMatrix":
        fracs = [[Fraction(t) for t in row] for row in turns]
        order = math.lcm(*(t.denominator for row in fracs for t in row))
        # int(): a Fraction of numpy ints keeps a numpy numerator and denominator
        grid = [[int(t.numerator) * (order // int(t.denominator)) for t in row] for row in fracs]
        return cls(order, grid)

    @classmethod
    def from_radians(cls, radians: Sequence[Sequence]) -> "CHMatrix":
        values = [[float(x) for x in row] for row in radians]
        if not all(math.isfinite(x) for row in values for x in row):
            raise MalformedMatrix("phases must be finite numbers")
        return cls(None, [[normalize_radians(x) for x in row] for row in values])

    @property
    def p(self) -> int:
        return len(self.grid)

    @property
    def rep(self) -> str:
        return FLOAT if self.order is None else EXACT

    @property
    def phases(self) -> tuple[tuple[PhaseEntry, ...], ...]:
        """The grid as turns (``Fraction`` in [0, 1)) or as float radians."""
        if self.order is None:
            return self.grid
        return tuple(tuple(Fraction(e, self.order) for e in row) for row in self.grid)

    def radians(self) -> np.ndarray:
        """All phases as a read-only float array of radians, built at construction."""
        return self._radians

    def to_complex(self) -> np.ndarray:
        """Dense complex matrix with entries exp(i*phi), read-only; built
        on the first call and kept on the instance."""
        cached = self.__dict__.get("_complex")
        if cached is None:
            cached = np.exp(1j * self.radians())
            cached.setflags(write=False)
            object.__setattr__(self, "_complex", cached)
        return cached

    def is_dephased(self, eps_phase: float = DEFAULT_EPS_PHASE) -> bool:
        """Whether row 0 and column 0 carry zero phase."""
        edge = self.grid[0] + tuple(row[0] for row in self.grid)
        if self.order is not None:
            return not any(edge)
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


def _max_off_diagonal(u: np.ndarray) -> float:
    gram = u @ u.conj().T
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))


def _exact_rows_orthogonal(m: CHMatrix) -> bool:
    """The conjugate-gram test of :func:`validate_ch` on the dephased grid;
    dephasing keeps every modulus and lowers n to what the rows need."""
    d = dephase(m).matrix
    n = d.order
    if n > MAX_EXACT_ORDER:
        raise LimitExceeded(f"dephased root-of-unity order {n} exceeds the limit of {MAX_EXACT_ORDER}",
                            order=n, max_order=MAX_EXACT_ORDER)
    expo = np.array(d.grid, dtype=np.int64)
    # max(1, ...): an all-zero grid has n = 1 and still needs its a = 1 gram
    units = (a for a in range(1, max(1, n // 2) + 1) if math.gcd(a, n) == 1)
    return all(_max_off_diagonal(np.exp(1j * TAU / n * (a * expo % n))) < 0.5 for a in units)


# --- core operations -----------------------------------------------------

def validate_ch(m: CHMatrix, eps_unitary: float = DEFAULT_EPS_UNITARY) -> ValidationReport:
    """Check the complex Hadamard property ``M M^dagger = p*I``.

    The diagonal holds structurally (entries are unimodular), so only the
    pairwise row inner products are examined. Float matrices pass when
    every off-diagonal modulus is at most ``eps_unitary * p``. Exact ones
    are decided exactly: a nonzero row product s of n-th roots of unity has
    a nonzero integer norm, the product of its conjugates s(zeta^a) over
    the units a mod n, so some conjugate has modulus at least 1. Conjugate
    a of every row pair is an entry of the float gram of the grid a*e mod n
    (rounding error about 1e-12 for p <= MAX_P), and a, n - a give complex
    conjugate grams. So the rows are orthogonal exactly when every unit
    a <= n/2 leaves every off-diagonal modulus below 1/2. A dephased order
    above ``MAX_EXACT_ORDER`` that passes the a = 1 gram raises
    ``LimitExceeded``. The report carries the worst a = 1 modulus.
    """
    if m.p == 1:
        return ValidationReport(True, 0.0)
    deviation = _max_off_diagonal(m.to_complex())
    if m.order is not None:
        ok = deviation < 0.5 and _exact_rows_orthogonal(m)
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
    cast, build = (float, CHMatrix.from_radians) if m.order is None else (Fraction, CHMatrix.from_turns)
    rows = [cast(r) for r in row_phases]
    cols = [cast(c) for c in col_phases]
    return build(
        [[ph + rows[j] + cols[k] for k, ph in enumerate(row)] for j, row in enumerate(m.phases)]
    )


def dephase(m: CHMatrix) -> DephaseResult:
    """Cast a complex Hadamard matrix into dephased form.

    Row phases are cleared first (subtract each row's column-0 phase),
    then column phases (subtract the resulting row-0 phase), which fixes a
    canonical output among the diagonally equivalent choices. The grid is
    shifted in its own units, integer exponents or radians; an exact
    matrix that is already dephased comes back as it is.
    """
    grid, top = m.grid, m.grid[0]
    rows = [-row[0] for row in grid]
    cols = [-(t - top[0]) for t in top]
    if m.order is not None and not any(rows + cols):
        matrix = m
    else:
        shifted = [[e + rows[j] + cols[k] for k, e in enumerate(row)] for j, row in enumerate(grid)]
        matrix = CHMatrix.from_radians(shifted) if m.order is None else CHMatrix(m.order, shifted)
    if m.order is None:
        # + 0 reports a float factor of -0.0 as 0.0
        def factor(x): return normalize_radians(x + 0)
    else:
        def factor(x): return Fraction(x % m.order, m.order)
    return DephaseResult(matrix, tuple(map(factor, rows)), tuple(map(factor, cols)))


def classify_bh(
    m: CHMatrix,
    d_max: int = DEFAULT_D_MAX,
    eps_phase: float = DEFAULT_EPS_PHASE,
) -> BHClass:
    """Find the minimal root-of-unity order covering every entry.

    Exact matrices classify unconditionally: their reduced ``order`` is
    the complexity. Float matrices are scanned over d = 1..d_max; a
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
    if m.order is not None:
        return Butson(m.order)
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

def check_order(p: int) -> None:
    """Raise ``LimitExceeded`` for a matrix order above :data:`MAX_P`."""
    if p > MAX_P:
        raise LimitExceeded(f"matrix order {p} exceeds the limit of {MAX_P}", p=p, max_p=MAX_P)


def fourier(d: int) -> CHMatrix:
    """Fourier matrix of order d with entries exp(2*pi*i*j*k/d), exact."""
    if d < 1:
        raise DomainError("fourier order must be >= 1")
    check_order(d)
    d = operator.index(d)  # numpy ints too; the grid must hold Python ints
    return CHMatrix(d, [[(j * k) % d for k in range(d)] for j in range(d)])


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
    """Real Hadamard matrix of order 2**k: entry (j, l) is
    (-1)**popcount(j & l), the k-fold doubling [[H, H], [H, -H]]."""
    if k < 0:
        raise DomainError("sylvester exponent must be >= 0")
    if k >= MAX_P.bit_length():  # 2**k > MAX_P
        raise LimitExceeded(f"matrix order 2**{k} exceeds the limit of {MAX_P}", k=k, max_p=MAX_P)
    n = 2**k
    return CHMatrix(2, [[(j & l).bit_count() & 1 for l in range(n)] for j in range(n)])


# --- JSON wire format ------------------------------------------------------

def phase_to_json(x: PhaseEntry):
    """A turn as ``{"num", "den"}``, a radian as a float."""
    return {"num": x.numerator, "den": x.denominator} if isinstance(x, Fraction) else float(x)


def matrix_to_json(m: CHMatrix) -> dict:
    return {"p": m.p, "rep": m.rep, "phases": [[phase_to_json(x) for x in row] for row in m.phases]}


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
    check_order(p)
    if not isinstance(phases, list) or len(phases) != p or any(
        not isinstance(row, list) or len(row) != p for row in phases
    ):
        raise MalformedMatrix("phases must be a p x p grid")
    if rep == EXACT:
        for row in phases:
            for entry in row:
                if not isinstance(entry, dict) or set(entry) != {"num", "den"}:
                    raise MalformedMatrix("exact entries must be {num, den} objects")
                num, den = entry["num"], entry["den"]
                if any(isinstance(x, bool) or not isinstance(x, int) for x in (num, den)) or den < 1:
                    raise MalformedMatrix("exact entries need integer num and positive den")
        return CHMatrix.from_turns([[Fraction(e["num"], e["den"]) for e in row] for row in phases])
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
