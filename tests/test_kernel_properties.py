"""Property tests of the protocol-layer kernels against their plain forms.

Each kernel is checked against the straightforward formula it replaces,
kept here as the reference: the folded displacement product against a
``weyl_compose`` fold, the blocked Butson scan against a scan one d at a
time, the conjugate-gram orthogonality test against cyclotomic
polynomial division of each row pair's Fraction turns, the vector-wise
qudit switch against dense ordered products, the branch-row protocol
against the explicit joint state it factors, and the exponent-grid
radians against ``float(Fraction) * TAU``, the formula of the
Fraction-per-entry grid, and the dephase that shifts the grid in its own
units against factors read from the ``phases`` view and applied by
``phase_twirl``.
The JSON wire formats of gate sets and instances are checked to round
trip, and dephasing to forget phase twirls.
"""

import functools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chswitch.errors import LimitExceeded
from chswitch.gates import (
    QuditGate,
    WeylOp,
    gateset_from_json,
    gateset_to_json,
    product_in_order,
    weyl_compose,
)
from chswitch.matrices import (
    Butson,
    CHMatrix,
    NotButson,
    _exact_rows_orthogonal,
    classify_bh,
    dephase,
    f4_family,
    fourier,
    matrix_from_json,
    matrix_to_json,
    phase_twirl,
    sylvester_hadamard,
    validate_ch,
)
from chswitch.phaseutil import TAU, circular_distance, normalize_radians
from chswitch.promise import (
    PromiseInstance,
    build_cv_gates,
    build_minimal_ch4,
    build_qudit_gates,
    instance_from_json,
    instance_to_json,
    shift_permutations,
    verify_promise,
)
from chswitch.switch import apply_switch, run_protocol

FEW = settings(derandomize=True, max_examples=30, deadline=None)


# --- references: the formulas the kernels replace ----------------------------

def fold_weyl(gates, perm):
    out = gates[perm[0]]
    for idx in perm[1:]:
        out = weyl_compose(gates[idx], out)
    return out


def classify_one_d_at_a_time(m, d_max=4096, eps_phase=1e-9):
    turns = m.radians() / TAU
    entry_ok = np.zeros(turns.shape, dtype=bool)
    for d in range(1, d_max + 1):
        scaled = turns * d
        err = np.abs(scaled - np.round(scaled)) * (TAU / d)
        close = err <= eps_phase
        if close.all():
            return Butson(d)
        entry_ok |= close
    bad = ~entry_ok if not entry_ok.all() else err > eps_phase
    j, k = np.argwhere(bad)[0]
    return NotButson((int(j), int(k)))


def poly_divmod(num, den):
    """Long division of integer polynomials, coefficients lowest first;
    ``den`` is monic, so quotient and remainder stay integral."""
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


@functools.lru_cache(maxsize=256)
def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    coeffs = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            coeffs, rem = poly_divmod(coeffs, cyclotomic(d))
            assert not any(rem)
    return tuple(coeffs)


def zeta_sum_is_zero(multiplicities, order):
    """Whether sum_k m_k * zeta^{e_k} vanishes for a primitive order-th root
    of unity zeta: Z[zeta] is Z[x] modulo the order-th cyclotomic polynomial."""
    poly = [0] * order
    for e, c in multiplicities:
        poly[e % order] += c
    return not any(poly_divmod(poly, cyclotomic(order))[1])


def rows_orthogonal_on_fractions(m):
    """Each row pair decided by cyclotomic division, in the smallest field
    its turn differences need: a common factor zeta^shift does not decide
    whether the row product vanishes."""
    for j in range(m.p):
        for l in range(j + 1, m.p):
            shift = m.phases[j][0] - m.phases[l][0]
            diff = [(a - b - shift) % 1 for a, b in zip(m.phases[j], m.phases[l])]
            order = math.lcm(*(t.denominator for t in diff))
            if not zeta_sum_is_zero(Counter(int(t * order) for t in diff).items(), order):
                return False
    return True


def dephase_by_phase_twirl(m):
    """Dephased matrix and factors: turns or radians from ``phases``, applied by phase_twirl."""
    phases = m.phases
    rows = [-row[0] for row in phases]
    cols = [-(ph - phases[0][0]) for ph in phases[0]]
    norm = normalize_radians if m.order is None else (lambda t: t % 1)
    return phase_twirl(m, rows, cols), [norm(r + 0) for r in rows], [norm(c + 0) for c in cols]


def radians_from_fractions(m):
    """Radians as a grid of turn Fractions gave them: float(turn) * TAU."""
    out = np.array([[float(t) for t in row] for row in m.phases])
    out *= TAU
    return out


def switch_by_dense_products(amps, gates, perm_set):
    rows = []
    for pm, vec in zip(perm_set.perms, amps):
        mat = np.eye(len(vec), dtype=complex)
        for idx in pm:
            mat = gates[idx].matrix @ mat
        rows.append(mat @ vec)
    return np.array(rows)


def protocol_by_joint_state(m, perm_set, gates, psi):
    """Control distribution from the explicit joint state: M/sqrt(p) on the
    control of |0> (x) |psi>, each branch's ordered product, then the
    inverse preparation. A displacement target stays symbolic: a branch
    holds an amplitude and a word, and the words must share their
    displacement for the branches to interfere."""
    u = m.to_complex() / math.sqrt(m.p)
    if isinstance(gates[0], WeylOp):
        joint0 = np.zeros(m.p, dtype=complex)
        joint0[0] = 1.0
        words = [fold_weyl(gates, pm) for pm in perm_set.perms]
        assert all(abs(w.beta - words[0].beta) <= 1e-9 and abs(w.gamma - words[0].gamma) <= 1e-9
                   for w in words)
        joint = (u @ joint0) * np.exp(1j * np.array([w.theta for w in words]))
        amps = np.abs(u.conj().T @ joint)
    else:
        joint0 = np.zeros((m.p, len(psi)), dtype=complex)
        joint0[0] = psi
        joint = switch_by_dense_products(u @ joint0, gates, perm_set)
        amps = np.linalg.norm(u.conj().T @ joint, axis=1)
    dist = amps**2
    return dist / dist.sum()


def random_qudit_gates(rng, n, dim):
    gates = []
    for _ in range(n):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gates.append(QuditGate(dim, np.linalg.qr(z)[0]))
    return gates


# --- strategies ----------------------------------------------------------------

reals = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def weyl_words(draw):
    n = draw(st.integers(1, 9))
    gates = [WeylOp(draw(st.floats(0.0, 7.0)), draw(reals), draw(reals)) for _ in range(n)]
    return gates, draw(st.permutations(range(n)))


@st.composite
def turn_grids(draw, max_p=6, max_den=12):
    p = draw(st.integers(1, max_p))
    den = draw(st.integers(1, max_den))
    return [[Fraction(draw(st.integers(0, den - 1)), den) for _ in range(p)] for _ in range(p)]


@st.composite
def exact_hadamards(draw, dens=(1, 2, 3, 4, 6, 8)):
    """Exact complex Hadamard matrices, twirled by random exact phases."""
    family = draw(st.sampled_from(["fourier", "sylvester", "f4"]))
    if family == "fourier":
        m = fourier(draw(st.integers(1, 9)))
    elif family == "sylvester":
        m = sylvester_hadamard(draw(st.integers(0, 3)))
    else:
        den = draw(st.integers(1, 12))
        m = f4_family(Fraction(draw(st.integers(0, den - 1)), 2 * den))
    turns = st.builds(Fraction, st.integers(0, 12), st.sampled_from(dens))
    rows = draw(st.lists(turns, min_size=m.p, max_size=m.p))
    cols = draw(st.lists(turns, min_size=m.p, max_size=m.p))
    return phase_twirl(m, rows, cols)


@st.composite
def exponent_grids(draw, max_p=6):
    """Exact matrices straight from (order, grid), reduced or not; orders up
    to 10^13 and exponents outside [0, order) included."""
    p = draw(st.integers(1, max_p))
    order = draw(st.one_of(st.integers(1, 64), st.sampled_from([27720, 10**12 + 39]),
                           st.integers(1, 10**13)))
    expo = st.integers(-3 * order, 3 * order)
    return CHMatrix(order, [[draw(expo) for _ in range(p)] for _ in range(p)])


exact_matrices = st.one_of(
    exponent_grids(),
    st.builds(CHMatrix.from_turns, turn_grids(max_den=10**12 + 39)),
    exact_hadamards(dens=(1, 5, 7, 8, 9, 11, 27720, 10**12 + 39)),
)
float_matrices = st.integers(1, 5).flatmap(
    lambda p: st.lists(st.lists(reals, min_size=p, max_size=p), min_size=p, max_size=p)
).map(CHMatrix.from_radians)


# --- properties ------------------------------------------------------------------

@FEW
@given(weyl_words())
def test_folded_weyl_product_matches_compose_fold(word):
    gates, perm = word
    got, want = product_in_order(gates, perm), fold_weyl(gates, perm)
    assert abs(got.beta - want.beta) <= 1e-12
    assert abs(got.gamma - want.gamma) <= 1e-12
    assert circular_distance(got.theta, want.theta) <= 1e-9


@FEW
@given(st.integers(1, 24), st.integers(1, 4096))
def test_blocked_scan_matches_on_float_butson(d, d_max):
    m = CHMatrix.from_radians(fourier(d).radians())
    assert classify_bh(m, d_max=d_max) == classify_one_d_at_a_time(m, d_max=d_max)


@FEW
@given(turn_grids(max_p=9, max_den=60), st.integers(1, 4096),
       st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_blocked_scan_matches_on_rational_grids(turns, d_max, eps):
    m = CHMatrix.from_radians([[float(t) * TAU for t in row] for row in turns])
    assert classify_bh(m, d_max, eps) == classify_one_d_at_a_time(m, d_max, eps)


@FEW
@given(st.floats(0.01, math.pi - 0.01), st.integers(1, 4096))
def test_blocked_scan_matches_on_f4(a, d_max):
    m = f4_family(a)
    assert classify_bh(m, d_max=d_max) == classify_one_d_at_a_time(m, d_max=d_max)


SMALL_ORDERS = [[TAU / 7, TAU / 11], [TAU * 3 / 11, 0.0]]
LARGE_ORDERS = [[TAU / 4099, TAU / 4097], [0.0, 0.0]]


@pytest.mark.parametrize(
    "orders, d_max",
    [("small", d) for d in (1, 14, 50, 70, 76, 77, 1025)]
    + [("large", d) for d in (4096, 4097, 4098, 4099, 4100, 9000)],
)
def test_blocked_scan_witness_when_no_single_d_covers(orders, d_max):
    # Every entry is a root of unity of one of two coprime orders, so below
    # their product no d covers them all and the witness is the first entry
    # not covered at d_max itself; the large orders straddle a block edge.
    m = CHMatrix.from_radians(SMALL_ORDERS if orders == "small" else LARGE_ORDERS)
    assert classify_bh(m, d_max=d_max) == classify_one_d_at_a_time(m, d_max=d_max)


@FEW
@given(turn_grids())
def test_integer_orthogonality_matches_fractions_on_random_grids(turns):
    m = CHMatrix.from_turns(turns)
    assert _exact_rows_orthogonal(m) == rows_orthogonal_on_fractions(m)


@FEW
@given(exact_hadamards())
def test_integer_orthogonality_matches_fractions_on_hadamards(m):
    # small twirl denominators keep the reference's cyclotomic order low
    assert _exact_rows_orthogonal(m) is True
    assert rows_orthogonal_on_fractions(m) is True


@FEW
@given(exact_hadamards(dens=(5, 7, 8, 9, 11, 13)))
def test_twirls_of_any_order_stay_orthogonal(m):
    # the matrix's lcm order reaches 10^5 and more; each row pair is decided
    # in the much smaller cyclotomic field its own phase differences need
    assert _exact_rows_orthogonal(m) is True


def test_perturbed_twirl_is_not_orthogonal():
    rows = [Fraction(1, 8), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)] + [0] * 5
    turns = [list(r) for r in phase_twirl(fourier(9), rows, [Fraction(1, 13)] * 9).phases]
    assert _exact_rows_orthogonal(CHMatrix.from_turns(turns)) is True
    turns[2][3] += Fraction(1, 9)
    assert _exact_rows_orthogonal(CHMatrix.from_turns(turns)) is False


def kron_fourier(*orders):
    grid, order = [[0]], 1
    for d in orders:
        step = math.lcm(order, d)
        grid = [[e * (step // order) + (j * k % d) * (step // d) for e in row for k in range(d)]
                for row in grid for j in range(d)]
        order = step
    return CHMatrix(order, grid)


@pytest.mark.parametrize(
    "m, want",
    [
        # gram modulus 0.445 < 1/2; its conjugate zeta -> zeta^2 has 1.80
        (CHMatrix.from_turns([[0, 0], [0, Fraction(3, 7)]]), False),
        # order 1 after reduction: the a = 1 gram must still be taken
        (CHMatrix(1, [[0, 0], [0, 0]]), False),
        # 5th roots of unity: no order-3 complex Hadamard matrix
        (CHMatrix(5, [[0, 0, 0], [0, 1, 2], [0, 2, 1]]), False),
    ]
    + [
        (phase_twirl(kron_fourier(*orders), [Fraction(j, 11) for j in range(p)],
                     [Fraction(k * k, 13) for k in range(p)]), True)
        for orders, p in (((2, 3), 6), ((2, 5), 10), ((2, 2, 3), 12), ((3, 5), 15))
    ],
    ids=["turns_3_7", "order_1", "order_5_3x3", "kron_6", "kron_10", "kron_12", "kron_15"],
)
def test_conjugate_grams_match_cyclotomic_division(m, want):
    assert rows_orthogonal_on_fractions(m) is want
    assert _exact_rows_orthogonal(m) is want
    assert validate_ch(m).ok is want


@FEW
@given(exact_hadamards(), st.data())
def test_one_entry_perturbations_match_cyclotomic_division(m, data):
    j, k = data.draw(st.integers(0, m.p - 1)), data.draw(st.integers(0, m.p - 1))
    den = data.draw(st.integers(1, 12))
    turns = [list(row) for row in m.phases]
    turns[j][k] += Fraction(data.draw(st.integers(0, den - 1)), den)
    perturbed = CHMatrix.from_turns(turns)
    assert _exact_rows_orthogonal(perturbed) == rows_orthogonal_on_fractions(perturbed)


def test_first_gram_answers_at_any_order():
    # far from orthogonal, at an order past MAX_EXACT_ORDER: no conjugate is taken
    assert validate_ch(CHMatrix.from_turns([[0, 0], [0, Fraction(1, 2**70)]])).ok is False
    with pytest.raises(LimitExceeded):
        validate_ch(CHMatrix.from_turns([[0, 0], [0, Fraction(2**69 + 1, 2**70)]]))


@FEW
@given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_vector_switch_matches_dense_products(n, dim, seed):
    rng = np.random.default_rng(seed)
    gates = random_qudit_gates(rng, n, dim)
    perm_set = shift_permutations(n, n)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    control = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = apply_switch(gates, perm_set, psi)
    assert np.allclose(rows, switch_by_dense_products(np.tile(psi, (n, 1)), gates, perm_set),
                       atol=1e-12)
    # any control amplitudes scale the rows, as they scale the joint state
    got = control[:, None] * rows
    want = switch_by_dense_products(np.outer(control, psi), gates, perm_set)
    assert np.allclose(got, want, atol=1e-12)


@st.composite
def promise_instances(draw):
    family = draw(st.sampled_from(["fourier", "sylvester", "f4"]))
    if family == "fourier":
        m = fourier(draw(st.integers(2, 9)))
    elif family == "sylvester":
        m = sylvester_hadamard(draw(st.integers(1, 3)))
    else:
        den = draw(st.integers(1, 24))
        a = draw(st.one_of(st.floats(0.0, math.pi, exclude_max=True),
                           st.builds(Fraction, st.integers(0, den - 1), st.just(2 * den))))
        m = f4_family(a)
    k = draw(st.integers(0, m.p - 1))
    perm_set = shift_permutations(m.p, m.p)
    targets = ["qudit", "cv"] if m.rep == "exact" else ["cv"]
    target = draw(st.sampled_from(targets + ["minimal"] if family == "f4" else targets))
    if target == "qudit":
        gates = build_qudit_gates(m, k)
    elif target == "cv":
        gammas = draw(st.lists(reals, min_size=m.p - 1, max_size=m.p - 1))
        gates = build_cv_gates(m, k, alpha=draw(st.floats(0.5, 2.0)), gammas=gammas)
    else:
        gates, perm_set = build_minimal_ch4(a, k, alpha1=draw(st.floats(0.5, 2.0)),
                                            beta1=draw(reals))
    return PromiseInstance(m, perm_set, gates, k)


@FEW
@given(promise_instances())
def test_verify_promise_agrees_with_run_protocol(inst):
    column = verify_promise(inst)
    out = run_protocol(inst.matrix, inst.perm_set, inst.gates)
    assert column == out.argmax == inst.claimed_column
    assert out.deterministic


@st.composite
def protocol_runs(draw):
    """(matrix, orderings, gates, psi): promise instances, and the same
    matrices and orderings with random gates of the same kind."""
    inst = draw(promise_instances())
    gates = inst.gates
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qudit = isinstance(gates[0], QuditGate)
    if draw(st.booleans()):
        if qudit:
            gates = random_qudit_gates(rng, len(gates), gates[0].dim)
        else:
            gates = [WeylOp(*rng.uniform(-3.0, 3.0, 3)) for _ in gates]
    psi = None
    if qudit:
        psi = rng.standard_normal(gates[0].dim) + 1j * rng.standard_normal(gates[0].dim)
        psi /= np.linalg.norm(psi)
    return inst.matrix, inst.perm_set, tuple(gates), psi


@FEW
@given(protocol_runs())
def test_run_protocol_matches_joint_state(run):
    m, perm_set, gates, psi = run
    out = run_protocol(m, perm_set, gates, psi)
    assert np.allclose(out.distribution, protocol_by_joint_state(m, perm_set, gates, psi),
                       atol=1e-12)


weyl_gate_sets = st.lists(st.builds(WeylOp, st.floats(0.0, 7.0), reals, reals),
                          min_size=1, max_size=6)
qudit_gate_sets = st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1)).map(
    lambda t: random_qudit_gates(np.random.default_rng(t[2]), t[0], t[1])
)


@FEW
@given(st.one_of(weyl_gate_sets, qudit_gate_sets))
def test_gateset_json_round_trip(gates):
    back = gateset_from_json(json.loads(json.dumps(gateset_to_json(gates))))
    assert len(back) == len(gates)
    for g, b in zip(gates, back):
        assert type(b) is type(g)
        if isinstance(g, WeylOp):
            assert b == g
        else:
            assert b.dim == g.dim and np.array_equal(b.matrix, g.matrix)


@FEW
@given(promise_instances())
def test_instance_json_round_trip(inst):
    back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    assert back.matrix == inst.matrix
    assert back.perm_set == inst.perm_set
    assert back.claimed_column == inst.claimed_column
    assert verify_promise(back) == verify_promise(inst) == inst.claimed_column


@FEW
@given(st.one_of(exact_matrices, float_matrices), st.data())
def test_dephase_forgets_phase_twirls(m, data):
    exact = m.rep == "exact"
    phase = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60)) if exact else reals
    rows, cols = (data.draw(st.lists(phase, min_size=m.p, max_size=m.p)) for _ in range(2))
    got, want = dephase(phase_twirl(m, rows, cols)).matrix, dephase(m).matrix
    if exact:
        assert got == want
    else:
        pairs = zip(got.radians().ravel(), want.radians().ravel())
        assert max(circular_distance(x, y) for x, y in pairs) <= 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_dephase_matches_phase_twirl_route(exact, data):
    m = data.draw(exact_matrices if exact else float_matrices)
    phase = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60)) if exact else reals
    # a twirl of m or of its dephased form, with zero phases on none, one or
    # all rows or columns, so that row 0, column 0, both or neither stay zero
    if data.draw(st.booleans()):
        m = dephase_by_phase_twirl(m)[0]
    phases = st.lists(phase, min_size=m.p, max_size=m.p)
    twirl = st.one_of(st.just([0] * m.p), phases.map(lambda v: [0] + v[1:]), phases)
    m = phase_twirl(m, data.draw(twirl), data.draw(twirl))
    got = dephase(m)
    want, row_factors, col_factors = dephase_by_phase_twirl(m)
    assert got.matrix == want and got.matrix.radians().tobytes() == want.radians().tobytes()
    assert list(got.row_factors) == row_factors and list(got.col_factors) == col_factors
    assert got.matrix.is_dephased()


@FEW
@given(turn_grids())
def test_phase_arrays_are_read_only_and_computed_once(turns):
    m, twin = CHMatrix.from_turns(turns), CHMatrix.from_turns(turns)
    for arr, twin_arr in [(m.radians(), twin.radians()), (m.to_complex(), twin.to_complex())]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
        assert np.array_equal(arr, twin_arr)
    assert m.radians() is m.radians() and m.to_complex() is m.to_complex()
    assert m == twin and hash(m) == hash(twin)


@FEW
@given(exact_matrices)
def test_exact_grid_is_reduced_and_round_trips_through_turns(m):
    assert 0 <= min(map(min, m.grid)) and max(map(max, m.grid)) < m.order
    assert math.gcd(m.order, *(e for row in m.grid for e in row)) == 1
    assert classify_bh(m) == Butson(m.order)
    assert CHMatrix.from_turns(m.phases) == m


@FEW
@given(st.one_of(exact_matrices, float_matrices))
def test_json_round_trip(m):
    back = matrix_from_json(matrix_to_json(m))
    assert back == m and hash(back) == hash(m)


@FEW
@given(exact_matrices)
def test_exponent_radians_are_bit_identical_to_fraction_radians(m):
    assert m.radians().tobytes() == radians_from_fractions(m).tobytes()
