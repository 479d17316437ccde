"""Acceptance suite.

One test per release criterion, each printing a PASS line once its
assertions hold (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances are pinned here, not configurable.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from chswitch.gates import QuditGate, pauli_x, pauli_z_power, phase_ratio, product_in_order
from chswitch.matrices import Butson, NotButson, classify_bh, f4_family, fourier, sylvester_hadamard
from chswitch.phaseutil import circular_distance
from chswitch.promise import (
    MINIMAL_CH4_PERMS,
    PromiseInstance,
    build_cv_gates,
    build_minimal_ch4,
    build_qudit_gates,
    shift_permutations,
    verify_promise,
)
from chswitch.scs import census, scs_brute_oracle, scs_exact
from chswitch.switch import run_protocol

import pytest

from chswitch.errors import NotButsonError
from chswitch.gates import weyl_compose, weyl_x, weyl_z

A_IRRATIONAL = (2 * math.pi / math.sqrt(2)) % math.pi
EPS_DET = 1e-9


def ok(n, text):
    print(f"[acceptance] criterion {n}: PASS  {text}")


def test_criterion_1_commute_anticommute_base_case():
    m = fourier(2)
    ps = shift_permutations(2, 2)
    out = run_protocol(m, ps, (pauli_x(2), pauli_z_power(2, 1)))
    assert out.argmax == 1 and out.distribution[1] >= 1 - EPS_DET
    out0 = run_protocol(m, ps, (pauli_x(2), QuditGate(2, np.eye(2))))
    assert out0.argmax == 0 and out0.distribution[0] >= 1 - EPS_DET
    ok(1, "{X,Z} -> column 1, {X,I} -> column 0, probability >= 1 - 1e-9")


def test_criterion_2_column_recovery_sweep():
    t0 = time.perf_counter()
    checked = 0
    for d in range(2, 7):
        m = fourier(d)
        ps = shift_permutations(d, d)
        for k in range(d):
            out = run_protocol(m, ps, build_qudit_gates(m, k, dim=d))
            assert out.argmax == k and out.distribution[k] >= 1 - EPS_DET
            checked += 1
    for a in (0.0, math.pi / 7, math.pi / 3, math.pi / 2, A_IRRATIONAL):
        m = f4_family(a)
        ps = shift_permutations(4, 4)
        for k in range(4):
            out = run_protocol(m, ps, build_cv_gates(m, k))
            assert out.argmax == k and out.distribution[k] >= 1 - EPS_DET
            checked += 1
    m = sylvester_hadamard(2)
    ps = shift_permutations(4, 4)
    for k in range(4):
        out = run_protocol(m, ps, build_qudit_gates(m, k, dim=2))
        assert out.argmax == k and out.distribution[k] >= 1 - EPS_DET
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s, budget is 1s"
    ok(2, f"{checked} columns recovered deterministically in {elapsed * 1000:.0f} ms")


def test_criterion_3_minimal_ch4_solutions():
    for a in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        m = f4_family(a)
        for k in range(4):
            gates, perms = build_minimal_ch4(a, k)
            inst = PromiseInstance(m, perms, gates, k)
            assert verify_promise(inst) == k
            out = run_protocol(m, perms, gates)
            assert out.argmax == k and out.distribution[k] >= 1 - EPS_DET
    ok(3, "three-gate solutions verified and solved for 4 parameters x 4 columns, a = pi/2 included")


def test_criterion_4_butson_classification():
    assert classify_bh(f4_family(0.0)) == Butson(4)
    assert classify_bh(f4_family(math.pi / 2)) == Butson(2)
    cls = classify_bh(f4_family(A_IRRATIONAL), d_max=4096)
    assert isinstance(cls, NotButson)
    ok(4, "f4(0) -> Butson(4), f4(pi/2) -> Butson(2), irrational parameter -> NotButson up to 4096")


def test_criterion_5_dimension_constraint():
    checked = 0
    for d in range(2, 7):
        m = fourier(d)
        ps = shift_permutations(d, d)
        for k in range(d):
            gates = build_qudit_gates(m, k, dim=d)
            pis = [product_in_order(gates, pm) for pm in ps.perms]
            for j in range(d):
                r = phase_ratio(pis[j], pis[0])
                assert r is not None
                assert circular_distance(d * r, 0.0) < 1e-9
                checked += 1
    m = sylvester_hadamard(2)
    ps = shift_permutations(4, 4)
    for k in range(4):
        gates = build_qudit_gates(m, k, dim=2)
        pis = [product_in_order(gates, pm) for pm in ps.perms]
        for j in range(4):
            assert circular_distance(2 * phase_ratio(pis[j], pis[0]), 0.0) < 1e-9
            checked += 1
    with pytest.raises(NotButsonError):
        build_qudit_gates(f4_family(A_IRRATIONAL), 1)
    ok(5, f"dim * phase = 0 (mod 2*pi) on {checked} products; non-Butson matrix rejected")


def test_criterion_6_census_reference_numbers():
    t0 = time.perf_counter()
    r34 = census(3, 4)
    assert (r34.combos, r34.min_len, r34.max_len) == (10, 5, 6)
    assert r34.avg_len == Fraction(27, 5)
    assert float(r34.avg_qpg) == 1.8

    r36 = census(3, 6)
    assert r36.min_len == r36.max_len == 7
    assert r36.avg_qpg == Fraction(7, 3)
    assert round(float(r36.avg_qpg), 2) == 2.33

    r44 = census(4, 4)
    assert (r44.combos, r44.min_len, r44.max_len) == (1771, 6, 9)
    assert round(float(r44.avg_len), 2) == 7.43
    assert round(float(r44.avg_qpg), 2) == 1.86

    r424 = census(4, 24)
    assert r424.min_len == r424.max_len == 12
    assert r424.avg_qpg == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"census block took {elapsed:.1f}s, budget is 60s"
    ok(6, f"(3,4): 10/5/6/5.4 qpg 1.8; (3,6): 7 qpg 2.33; (4,4): 1771/6/9/7.43 qpg 1.86; "
          f"(4,24): 12 qpg 3  [{elapsed:.1f}s]")


def test_criterion_7_shift_family_cost_formula():
    for n in range(2, 7):
        length = scs_exact(shift_permutations(n, n).perms).length
        assert length == 2 * n - 1
        assert Fraction(length, n) == 2 - Fraction(1, n)
        assert Fraction(length, n) >= Fraction(3, 2)
    ok(7, "shift-family cost is 2N-1 and qpg = 2 - 1/N >= 3/2 for N = 2..6")


def test_criterion_8_advantage_not_monotone():
    shift4 = scs_exact(shift_permutations(4, 4).perms)
    minimal3 = scs_exact(MINIMAL_CH4_PERMS.perms)
    assert shift4.length == 7
    assert minimal3.length == 6
    qpg4 = Fraction(shift4.length, 4)
    qpg3 = Fraction(minimal3.length, 3)
    assert qpg4 == Fraction(7, 4) and qpg3 == 2
    assert qpg4 < qpg3
    ok(8, "same size-4 problem costs qpg 7/4 with 4 gates but 2 with 3 gates (7/4 < 6/3)")


def test_criterion_9_oracle_equivalence():
    ident3 = (0, 1, 2)
    others3 = [pm for pm in itertools.permutations(range(3)) if pm != ident3]
    subsets = 0
    for r in range(0, 6):
        for combo in itertools.combinations(others3, r):
            subset = (ident3,) + combo
            assert scs_exact(subset).length == scs_brute_oracle(subset, 9)
            subsets += 1
    assert subsets == 32

    rng = random.Random(424242)
    perms4 = list(itertools.permutations(range(4)))
    for _ in range(200):
        subset = rng.sample(perms4, rng.choice([2, 2, 3, 3, 4]))
        assert scs_exact(subset).length == scs_brute_oracle(subset, 12)
    ok(9, "solver matches the brute-force oracle on all 32 identity subsets of S3 "
          "and 200 seeded random subsets of S4")


def test_criterion_10_algebra_identities():
    rng = random.Random(99)
    for _ in range(1000):
        alpha = rng.uniform(-4, 4)
        beta = rng.uniform(-4, 4)
        gamma = rng.uniform(-4, 4)
        zx = weyl_compose(weyl_z(beta, gamma), weyl_x(alpha))
        xz = weyl_compose(weyl_x(alpha), weyl_z(beta, gamma))
        diff = phase_ratio(zx, xz)
        assert diff is not None and circular_distance(diff, alpha * beta) < 1e-12

    for dim in range(2, 6):
        omega = np.exp(2j * np.pi / dim)
        x = pauli_x(dim).matrix
        z = pauli_z_power(dim, 1).matrix
        for j in range(dim):
            for k in range(dim):
                lhs = np.linalg.matrix_power(z, j) @ np.linalg.matrix_power(x, k)
                rhs = omega ** (j * k) * (
                    np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, j)
                )
                assert np.max(np.abs(lhs - rhs)) < 1e-12
    ok(10, "displacement swap phase e^{i alpha beta} on 1000 triples; "
           "Z^j X^k = omega^{jk} X^k Z^j entrywise for D <= 5")


def test_supplementary_fixed_order_sweep_gate():
    # performance-goal sweep: exact anchors plus min/max monotonicity
    rows = {p: census(4, p) for p in (2, 3, 4, 24)}
    assert rows[4].min_len == 6 and rows[4].max_len == 9
    assert rows[24].min_len == 12
    for lo, hi in [(2, 3), (3, 4), (4, 24)]:
        assert rows[lo].min_len <= rows[hi].min_len
        assert rows[lo].max_len <= rows[hi].max_len
    sampled = census(4, 12, sample=100, seed=7)
    assert rows[4].min_len <= sampled.min_len <= sampled.max_len <= rows[24].max_len
    print("[acceptance] supplementary: PASS  fixed-order sweep anchors exact, min/max monotone")
