"""Exact supersequence solving and the combination census."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chswitch import scs
from chswitch.errors import BudgetExceeded, DomainError, LimitExceeded
from chswitch.promise import MINIMAL_CH4_PERMS, shift_permutations
from chswitch.scs import (
    CSV_HEADER,
    census,
    census_csv,
    census_sweep,
    is_supersequence,
    scs_brute_oracle,
    scs_exact,
)


def test_is_supersequence_basics():
    assert is_supersequence([0, 1, 2], [0, 2])
    assert not is_supersequence([0, 1, 2], [2, 0])
    assert is_supersequence([0, 1, 2], [])
    assert is_supersequence([0], [0])


def test_shift_family_witness_contains_all_orders():
    # the length-7 string covering all four shifted orders of four gates
    witness = [1, 2, 3, 0, 1, 2, 3]
    for pm in shift_permutations(4, 4).perms:
        assert is_supersequence(witness, pm)
    # the same statement read in product order (global reversal)
    for pm in shift_permutations(4, 4).perms:
        assert is_supersequence(witness[::-1], pm[::-1])


def test_single_permutation_is_its_own_scs():
    res = scs_exact([(2, 0, 1)])
    assert res.length == 3
    assert res.witness == (2, 0, 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_shift_family_cost(n):
    res = scs_exact(shift_permutations(n, n).perms)
    assert res.length == 2 * n - 1


def test_minimal_ch4_permutation_cost():
    res = scs_exact(MINIMAL_CH4_PERMS.perms)
    assert res.length == 6


def test_witness_validity_everywhere():
    rng = random.Random(17)
    perms4 = list(itertools.permutations(range(4)))
    for _ in range(50):
        subset = rng.sample(perms4, rng.randint(1, 5))
        res = scs_exact(subset)
        assert len(res.witness) == res.length
        for pm in subset:
            assert is_supersequence(res.witness, pm)


def test_length_bounds():
    rng = random.Random(23)
    perms4 = list(itertools.permutations(range(4)))
    for _ in range(30):
        subset = rng.sample(perms4, rng.randint(1, 6))
        res = scs_exact(subset)
        assert res.length >= 4
        if len(subset) == 1:
            assert res.length == 4
        else:
            assert res.length > 4


def test_adding_a_permutation_never_helps():
    rng = random.Random(31)
    perms4 = list(itertools.permutations(range(4)))
    for _ in range(20):
        subset = rng.sample(perms4, rng.randint(1, 5))
        extra = rng.choice(perms4)
        base = scs_exact(subset).length
        bigger = scs_exact(list(subset) + [extra]).length
        assert bigger >= base


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        scs_exact([tuple(range(7))])
    # but a raised cap admits it
    assert scs_exact([tuple(range(7))], n_max=7).length == 7
    # a census over more gates fails as the solver would, before n! is built
    for n in (7, 10, 2000):
        with pytest.raises(LimitExceeded) as want:
            scs_exact([tuple(range(n))])
        for run in (lambda: census(n, 2, sample=1), lambda: census(n, 10**9), lambda: census_sweep(n, [2])):
            with pytest.raises(LimitExceeded) as got:
                run()
            assert str(got.value) == str(want.value) and got.value.payload == want.value.payload


def test_rejects_non_permutations():
    with pytest.raises(DomainError):
        scs_exact([(0, 0, 1)])
    with pytest.raises(DomainError):
        scs_exact([])


def test_brute_oracle_small_cases():
    assert scs_brute_oracle([(0, 1), (1, 0)], 4) == 3
    assert scs_brute_oracle(shift_permutations(3, 3).perms, 9) == 5
    assert scs_brute_oracle([(1, 0, 2)], 5) == 3
    assert scs_brute_oracle([(0, 1), (1, 0)], 2) is None


def test_oracle_agreement_s3():
    ident = (0, 1, 2)
    others = [pm for pm in itertools.permutations(range(3)) if pm != ident]
    for r in range(0, 6):
        for combo in itertools.combinations(others, r):
            subset = (ident,) + combo
            assert scs_exact(subset).length == scs_brute_oracle(subset, 9)


def test_census_3_4():
    row = census(3, 4)
    assert (row.combos, row.min_len, row.max_len) == (10, 5, 6)
    assert row.avg_len == Fraction(27, 5)
    assert row.avg_qpg == Fraction(9, 5)


def test_census_3_6():
    row = census(3, 6)
    assert row.combos == 1
    assert row.min_len == row.max_len == 7
    assert row.avg_qpg == Fraction(7, 3)


def test_census_4_24():
    row = census(4, 24)
    assert row.combos == 1
    assert row.min_len == row.max_len == 12
    assert row.avg_qpg == 3


def test_census_rejects_bad_p():
    with pytest.raises(DomainError):
        census(3, 1)
    with pytest.raises(DomainError):
        census(3, 7)


def test_census_budget():
    with pytest.raises(BudgetExceeded) as err:
        census(4, 6, budget=10_000)
    assert err.value.payload["required"] == 33649
    # sampled mode sidesteps the budget
    row = census(4, 6, sample=50, seed=9)
    assert row.combos == 50
    assert row.mode == "sample"


def test_census_sample_reproducible():
    a = census(4, 8, sample=40, seed=123)
    b = census(4, 8, sample=40, seed=123)
    assert a == b


def test_census_deterministic_rerun():
    assert census(3, 4) == census(3, 4)
    assert census_csv([census(3, 4)]) == census_csv([census(3, 4)])


def test_census_sweep_n3_exact():
    rows = census_sweep(3, range(2, 7))
    assert [r.p for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.mode == "exhaustive" for r in rows)
    avg_by_p = {r.p: r.avg_len for r in rows}
    assert avg_by_p[4] == Fraction(27, 5)
    mins = [r.min_len for r in rows]
    maxs = [r.max_len for r in rows]
    assert mins == sorted(mins)
    assert maxs == sorted(maxs)


def test_census_sweep_falls_back_to_sampling():
    rows = census_sweep(4, [4, 6], sample_count=30, seed=1, budget=5000)
    assert rows[0].mode == "exhaustive"
    assert rows[1].mode == "sample"
    assert rows[1].combos == 30


def test_csv_schema():
    text = census_csv([census(3, 4)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "N,p,combos,mode,min_len,max_len,avg_len,min_qpg,max_qpg,avg_qpg,switch_qpg"
    fields = lines[1].split(",")
    assert fields[:6] == ["3", "4", "10", "exhaustive", "5", "6"]
    assert fields[6] == "5.400000"
    assert fields[9] == "1.800000"
    assert fields[10] == "1.000000"


# --- properties --------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def identity_sets(draw, n_max=4, p_max=6):
    """A set of orderings over n <= n_max symbols that contains the identity."""
    n = draw(st.integers(2, n_max))
    ident = tuple(range(n))
    others = [pm for pm in itertools.permutations(ident) if pm != ident]
    extra = draw(st.lists(st.sampled_from(others), max_size=p_max - 1, unique=True))
    return [ident] + extra


@PROPERTY
@given(identity_sets())
def test_exact_matches_brute_oracle(perms):
    assert scs_exact(perms).length == scs_brute_oracle(perms, len(perms) * len(perms[0]))


@PROPERTY
@given(identity_sets(n_max=5, p_max=8))
def test_witness_has_reported_length_and_covers_every_ordering(perms):
    res = scs_exact(perms)
    assert len(res.witness) == res.length
    assert all(is_supersequence(res.witness, pm) for pm in perms)


@PROPERTY
@given(identity_sets(n_max=5, p_max=8), st.data())
def test_length_invariant_under_relabeling_and_reversal(perms, data):
    n = len(perms[0])
    sigma = data.draw(st.permutations(range(n)))
    length = scs_exact(perms).length
    assert scs_exact([tuple(sigma[c] for c in pm) for pm in perms]).length == length
    assert scs_exact([pm[::-1] for pm in perms]).length == length


def _transform(sigma, flip, s):
    """s with every symbol c relabeled sigma[c], then reversed if flip."""
    out = tuple(sigma[c] for c in s)
    return out[::-1] if flip else out


def _symmetries(perms):
    """Every (relabeling, reversal) that maps the set onto itself."""
    target = set(perms)
    return [
        (sigma, flip)
        for sigma in itertools.permutations(range(len(perms[0])))
        for flip in (False, True)
        if {_transform(sigma, flip, pm) for pm in perms} == target
    ]


@PROPERTY
@given(identity_sets(), st.data())
def test_witness_is_equivariant_under_relabeling_and_reversal(perms, data):
    # Relabeling or reversing the set relabels or reverses the witness. A set
    # that some relabeling or reversal g maps onto itself may get the image
    # of its witness under such a g instead: exact equality is impossible
    # there, since for {01, 10} and the swap it would need w == swap(w).
    # Without such a g, `images` is just the witness, so equality is exact.
    n = len(perms[0])
    sigma = tuple(data.draw(st.permutations(range(n))))
    witness = scs_exact(perms).witness
    images = [_transform(g, g_flip, witness) for g, g_flip in _symmetries(perms)]
    relabeled = scs_exact([_transform(sigma, False, pm) for pm in perms]).witness
    assert relabeled in {_transform(sigma, False, w) for w in images}
    assert scs_exact([pm[::-1] for pm in perms]).witness in {w[::-1] for w in images}


def _empty_caches(monkeypatch):
    monkeypatch.setattr(scs, "_tables", {})
    monkeypatch.setattr(scs, "_orders", {})
    monkeypatch.setattr(scs, "_memo", {})


def test_result_does_not_depend_on_cache_state(monkeypatch):
    target = [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0), (1, 0, 3, 2), (0, 3, 2, 1)]
    _empty_caches(monkeypatch)
    cold = scs_exact(target)
    # Fresh tables and memo again, filled by other sets first, so the suffixes
    # of the target get other IDs than in the cold solve, and then by a
    # relabeled reversal of the target, so that its class is a memo hit.
    _empty_caches(monkeypatch)
    rng = random.Random(41)
    perms4 = list(itertools.permutations(range(4)))
    for _ in range(30):
        scs_exact(rng.sample(perms4, rng.randint(2, 8)))
    scs_exact([_transform((2, 0, 3, 1), True, pm) for pm in target])
    size = len(scs._memo)
    assert scs_exact(target) == cold
    assert len(scs._memo) == size


def test_memo_stays_within_its_cap(monkeypatch):
    cap = 8
    monkeypatch.setattr(scs, "_MAX_MEMO", cap)
    monkeypatch.setattr(scs, "_memo", {})
    rng = random.Random(43)
    perms4 = list(itertools.permutations(range(4)))
    sets = [rng.sample(perms4, rng.randint(2, 8)) for _ in range(40)]
    results = []
    for perms in sets:
        results.append(scs_exact(perms))
        assert len(scs._memo) <= cap
    classes = {scs._class_key(*scs._ranked(perms, scs.DEFAULT_N_MAX))[0] for perms in sets}
    assert len(classes) > 3 * cap
    monkeypatch.setattr(scs, "_memo", {})
    assert [scs_exact(perms) for perms in sets] == results


def test_order_table_cap_does_not_change_results(monkeypatch):
    rng = random.Random(47)
    sets = [
        rng.sample(list(itertools.permutations(range(n))), rng.randint(2, 6))
        for n in (3, 4, 5, 4, 5)
        for _ in range(12)
    ]
    _empty_caches(monkeypatch)
    cold = [scs_exact(perms) for perms in sets]
    _empty_caches(monkeypatch)
    monkeypatch.setattr(scs, "_MAX_ORDER_ENTRIES", 40)
    tables = []  # held, so that no two tables share an id
    for perms, expected in zip(sets, cold):
        assert scs_exact(perms) == expected
        tables.append(scs._orders[len(perms[0])])
    # A table past 40 entries is dropped at the next call, so the 60 sets
    # went through many tables.
    assert len({id(t) for t in tables}) > 10


@pytest.mark.parametrize("warm", [False, True])
def test_symbols_must_be_whole_numbers_cold_and_warm(monkeypatch, warm):
    _empty_caches(monkeypatch)
    if warm:  # the table then holds 01 and 10, and 1.0 finds them by lookup
        assert scs_exact([(0, 1), (1, 0)]).length == 3
    for bad in [[(0.5, 1.7), (1, 0)], [(0, 1), (1, 0.5)], [(0, float("nan"))], [("0", "1")]]:
        with pytest.raises(DomainError):
            scs_exact(bad)
    assert scs_exact([(1.0, 0.0), (0, 1)]) == scs_exact([(1, 0), (0, 1)])
    assert scs_exact([tuple(np.arange(3)), (2, 1, 0)]).length == 5


def test_class_key_carries_the_number_of_symbols(monkeypatch):
    # {01, 10} and {0123, 0132} have the same ranks, (0, 1).
    _empty_caches(monkeypatch)
    assert scs_exact([(0, 1), (1, 0)]).length == 3
    res = scs_exact([(0, 1, 2, 3), (0, 1, 3, 2)])
    assert res.length == 5
    assert is_supersequence(res.witness, (0, 1, 2, 3)) and is_supersequence(res.witness, (0, 1, 3, 2))


def _bytes_canonical(seqs):
    """The class representative as bytes, computed without the ordering table.

    Returns the flattened least relabeled set, the member x that was
    relabeled to the identity and whether every string was reversed first;
    of the 2p candidates the first least one wins.
    """
    ident = bytes(range(len(seqs[0])))
    given = [bytes(s) for s in seqs]
    best = None
    for strings, flip in ((given, False), ([s[::-1] for s in given], True)):
        for x in strings:
            to_ident = bytes.maketrans(x, ident)
            key = b"".join(sorted([s.translate(to_ident) for s in strings]))
            if best is None or key < best[0]:
                best = (key, x, flip)
    return best


@st.composite
def ordering_sets(draw, n_max=5, p_max=8):
    """A set of orderings over n <= n_max symbols, the identity not required."""
    n = draw(st.integers(2, n_max))
    return draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=p_max, unique=True))


@PROPERTY
@given(ordering_sets())
def test_class_key_matches_bytes_representative(perms):
    table, given_ranks = scs._ranked(perms, scs.DEFAULT_N_MAX)
    key, x, flip = scs._class_key(table, given_ranks)
    rep, old_x, old_flip = _bytes_canonical(scs._normalize_perms(perms))
    assert key[0] == len(perms[0])
    assert b"".join(bytes(table.perm[r]) for r in key[1:]) == rep
    assert (bytes(x), flip) == (old_x, old_flip)


def test_census_n4_matches_pinned_csv():
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "census_n4_p2-5.csv"
    assert census_csv(census_sweep(4, range(2, 6))) == pinned.read_text(encoding="utf-8")


def test_raised_n_max_solves_long_orderings():
    forward, backward = tuple(range(8)), tuple(reversed(range(8)))
    res = scs_exact([forward, backward], n_max=8)
    assert res.length == 2 * 8 - 1
    assert len(res.witness) == res.length
    assert is_supersequence(res.witness, forward) and is_supersequence(res.witness, backward)


def test_pairwise_lengths_past_one_byte():
    # Two-string SCS lengths here reach 259, past what a byte holds.
    forward, backward = range(130), reversed(range(130))
    res = scs_exact([forward, backward], n_max=200)
    assert res.length == 259
    assert len(res.witness) == res.length
    assert is_supersequence(res.witness, range(130))
    assert is_supersequence(res.witness, range(129, -1, -1))
