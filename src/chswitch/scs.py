"""Exact shortest-common-supersequence costs of ordering sets.

The best known fixed-order simulation of a switch over a set of gate
orderings queries as many gates as there are elements in the shortest
common supersequence (SCS) of the orderings, so exact SCS lengths are
exactly the query costs benchmarked here. Orderings are strings in
application order; SCS length is invariant under globally reversing all
strings, so the convention only shows in the witnesses.

The solver runs A* over canonical states. A state is the antichain of
remaining suffixes: suffixes already contained in another are dropped,
which both shrinks the space and makes memoization content-based. Each
suffix is an integer ID in a per-N table, so a state is one Python int
used as a bitset. The table is built lazily, only for the suffixes of the
orderings actually solved (never the N! of them), and is dropped between
solves once it outgrows every suffix over 6 symbols. Per ID it holds the
tail's ID, containment masks and the exact two-string SCS length with
every other ID, so advancing a state, re-canonicalizing it and its
heuristic are mask operations. The heuristic is the largest two-string
SCS among the remaining suffixes, which is admissible and consistent.
Certified optimality plus an independent brute-force oracle (iterative
deepening, used in tests) back every census number.

SCS length is also invariant under relabeling the symbols, so
:func:`scs_exact` solves one representative per class of sets under
relabeling and reversal: the lexicographically least set obtained by
relabeling one member to the identity, with or without reversing every
string first. Orderings are lexicographic ranks in a second lazy per-N
table, which holds their reversals and relabelings, so validation and
class keys are lookups. A bounded memo (``_MAX_MEMO`` classes, cleared
when full) keeps each representative's witness; the caller's witness is
that witness relabeled back and, if needed, reversed. The memo only ever
holds results of solving the representative, so no result depends on
what it holds. Census rows, whose combinations contain the identity,
fall into about 1/(2p) as many classes as combinations.

The census enumerates gate-ordering combinations that contain the
identity ordering, solves each one exactly, and aggregates with integer
sums so averages are exact rationals and results are independent of
enumeration order.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import BudgetExceeded, DomainError, LimitExceeded

DEFAULT_N_MAX = 6
DEFAULT_COMBO_BUDGET = 10_000
DEFAULT_SAMPLE_COUNT = 100_000

CSV_HEADER = "N,p,combos,mode,min_len,max_len,avg_len,min_qpg,max_qpg,avg_qpg,switch_qpg"


def is_supersequence(s: Sequence[int], t: Sequence[int]) -> bool:
    """Whether t is a (not necessarily contiguous) subsequence of s."""
    it = iter(s)
    return all(c in it for c in t)


@dataclass(frozen=True)
class ScsResult:
    length: int
    witness: tuple[int, ...]


def _symbol(c) -> int:
    """An ordering symbol as an int: 1, 1.0 and numpy ints pass, 0.5 does not."""
    try:
        if int(c) == c:
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"ordering symbol {c!r} is not an integer")


def _normalize_perms(perms: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    seqs = tuple(sorted({tuple(_symbol(c) for c in pm) for pm in perms}))
    if not seqs:
        raise DomainError("need at least one ordering")
    n = len(seqs[0])
    for s in seqs:
        if len(s) != n or sorted(s) != list(range(n)):
            raise DomainError(f"{s} is not a permutation of 0..{n - 1}")
    return seqs


# A table is dropped between solves once it holds more IDs than this. Every
# suffix of every ordering over N <= 6 symbols fits (1957 IDs at N = 6), so
# only solves over more symbols than the default n_max ever rebuild one.
_MAX_IDS = 2048


class _SuffixTable:
    """Integer IDs for the suffixes of orderings over n symbols, grown on demand.

    ID 0 is the empty suffix, which never enters a state. A suffix gets the
    next ID the first time a solve reaches it, after its tail. Per ID the
    table keeps:

    * ``tail[i]``, the ID of the suffix without its first symbol, and
      ``starts[c]``, the mask of IDs that begin with symbol c;
    * ``sup[i]``, the mask of IDs that hold suffix i as a proper subsequence;
    * ``scs[i][j]`` for every ``j <= i``, the exact SCS length of suffixes i
      and j, filled from the pairs of their tails by the two-string suffix
      recursion;
    * ``ge[i][v]``, the mask of IDs whose SCS length with suffix i is at
      least v, so that the heuristic walks each member's row upward instead
      of visiting every pair.
    """

    def __init__(self, n: int):
        self.n = n
        self.ids: dict[tuple[int, ...], int] = {(): 0}
        self.length = [0]
        self.head = [-1]
        self.tail = [0]
        self.starts = [0] * n
        self.sup = [0]
        self.scs = [array("H", [0])]
        self.ge = [[]]

    def pair(self, i: int, j: int) -> int:
        return self.scs[i][j] if i >= j else self.scs[j][i]

    def intern(self, s: tuple[int, ...]) -> int:
        """The ID of suffix s, giving IDs to it and its own suffixes as needed."""
        for k in range(len(s) - 1, -1, -1):
            if s[k:] not in self.ids:
                self._add(s[k:])
        return self.ids[s]

    def _add(self, s: tuple[int, ...]) -> None:
        i, ti = len(self.length), self.ids[s[1:]]
        n, bit, head = len(s), 1 << i, s[0]
        length, tail, sup, ge = self.length, self.tail, self.sup, self.ge
        row = array("H", [0]) * (i + 1)
        row[0] = row[i] = n
        my_ge = [-1] * (n + 1) + [0] * (2 * self.n - n + 1)
        my_sup = 0
        for j in range(1, i):
            tj = tail[j]
            if head == self.head[j]:
                v = 1 + self.pair(ti, tj)
            else:
                v = 1 + min(self.pair(ti, j), row[tj])
            row[j] = v
            lj = length[j]
            # An SCS as long as one of the two strings is that string itself.
            if v == lj:
                my_sup |= 1 << j
            elif v == n:
                sup[j] |= bit
            for w in range(n + 1, v + 1):
                my_ge[w] |= 1 << j
            for w in range(lj + 1, v + 1):
                ge[j][w] |= bit
        self.ids[s] = i
        self.length.append(n)
        self.head.append(head)
        self.tail.append(ti)
        self.starts[head] |= bit
        sup.append(my_sup)
        self.scs.append(row)
        ge.append(my_ge)


_tables: dict[int, _SuffixTable] = {}


def _table(n: int) -> _SuffixTable:
    table = _tables.get(n)
    if table is None or len(table.length) > _MAX_IDS:
        table = _tables[n] = _SuffixTable(n)
    return table


def _solve(seqs: tuple[tuple[int, ...], ...]) -> ScsResult:
    """A* over antichain states coded as bitsets of suffix IDs.

    Entries of equal f and g leave the heap in push order, so the witness
    does not depend on how a reused table happened to number the suffixes.
    """
    n = len(seqs[0])
    table = _table(n)
    ids = [table.intern(s) for s in seqs]
    start = sum(1 << i for i in ids)  # distinct orderings of equal length: an antichain
    tail, sup, starts, ge = table.tail, table.sup, table.starts, table.ge

    seen = {start: (0, start, -1)}  # state -> (g, parent, symbol)
    pushed = 0
    heap = [(max(table.pair(i, j) for i in ids for j in ids), 0, pushed, start)]
    while heap:
        f, g, _, state = heappop(heap)
        if g > seen[state][0]:
            continue
        if not state:
            symbols = []
            while state != start:
                _, state, c = seen[state]
                symbols.append(c)
            return ScsResult(g, tuple(reversed(symbols)))
        ng = g + 1
        # The bound, the largest SCS length of two members (one member twice
        # included), is consistent: no successor's is below this one's less 1.
        low_h = f - g - 1
        for c in range(n):
            moved = state & starts[c]
            if not moved:
                continue
            # The moved members advance to their tails. Only a tail can fall
            # below another member: the others were an antichain already.
            nxt = full = state ^ moved
            tails = []
            while moved:
                low = moved & -moved
                t = tail[low.bit_length() - 1]
                if t:
                    tails.append(t)
                    full |= 1 << t
                moved ^= low
            for t in tails:
                if not sup[t] & full:
                    nxt |= 1 << t
            old = seen.get(nxt)
            if old is None or ng < old[0]:
                seen[nxt] = (ng, state, c)
                h, rest = low_h, nxt
                while rest:
                    low = rest & -rest
                    row = ge[low.bit_length() - 1]
                    while row[h + 1] & nxt:
                        h += 1
                    rest ^= low
                pushed += 1
                heappush(heap, (ng + h, ng, pushed, nxt))
    raise AssertionError("search space exhausted without reaching the empty state")


# An ordering table is dropped between solves once it holds more orderings
# and relabel entries than this; all of those over 5 symbols fit.
_MAX_ORDER_ENTRIES = 1 << 15


class _OrderTable(dict):
    """Ordering of n symbols -> lexicographic rank (rank order is tuple order).

    Grown on demand, with ``perm``, ``rev`` and ``rows``, which map a rank
    to its ordering, to its reversal's rank and to its relabel row.
    ``size`` counts orderings and relabel entries.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n, self.size, self.perm, self.rev, self.rows = n, 0, {}, {}, {}

    def intern(self, s: tuple[int, ...]) -> int:
        """The rank of a valid ordering s, entering it and its reversal if new."""
        r = self.get(s)
        if r is None:
            r = self[s] = sum(
                sum(d < c for d in s[i + 1:]) * math.factorial(self.n - 1 - i) for i, c in enumerate(s)
            )
            self.perm[r], self.rows[r], self.size = s, _RelabelRow(self, s), self.size + 1
            self.rev[r] = self.intern(s[::-1])
        return r


class _RelabelRow(dict):
    """Rank y -> rank of y relabeled by x⁻¹, which turns ordering x into the identity."""

    def __init__(self, table: _OrderTable, x: tuple[int, ...]):
        super().__init__()
        self.table, self.inv = table, sorted(range(len(x)), key=x.__getitem__)

    def __missing__(self, y: int) -> int:
        self.table.size += 1
        r = self[y] = self.table.intern(tuple([self.inv[c] for c in self.table.perm[y]]))
        return r


_orders: dict[int, _OrderTable] = {}


def _order_table(n: int) -> _OrderTable:
    table = _orders.get(n)
    if table is None or table.size > _MAX_ORDER_ENTRIES:
        table = _orders[n] = _OrderTable(n)
    return table


def _ranked(perms: Iterable[Sequence[int]], n_max: int) -> tuple[_OrderTable, list[int]]:
    """The ordering table of a set and the sorted ranks of its distinct members.

    Known orderings are validated by lookup; any other input goes through
    :func:`_normalize_perms`, which raises the DomainErrors, first.
    """
    perms = tuple(perms)
    try:
        if len(perms[0]) <= n_max:
            table = _order_table(len(perms[0]))
            return table, sorted({table[pm] for pm in perms})
    except (IndexError, KeyError, TypeError):
        pass
    seqs = _normalize_perms(perms)
    n = len(seqs[0])
    if n > n_max:
        raise LimitExceeded(f"orderings over {n} symbols exceed n_max={n_max}", n=n, n_max=n_max)
    table = _order_table(n)
    return table, [table.intern(s) for s in seqs]


def _class_key(table: _OrderTable, given: list[int]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """The memo key of a set's class, from its sorted ranks, and the way back.

    The key is N, which tells equal ranks over different N apart, then the
    least of 2p candidates, the first least one winning: the sorted ranks of
    the set or of its reversal, relabeled so that one member x becomes the
    identity. Also returns x (symbol c of the representative is x[c]) and
    whether it was reversed.
    """
    flipped = [table.rev[r] for r in given]
    rows = table.rows
    cands = [sorted(map(rows[x].__getitem__, members)) for members in (given, flipped) for x in members]
    i = cands.index(min(cands))
    return (table.n, *cands[i]), table.perm[(given + flipped)[i]], i >= len(given)


# The memo is cleared once it holds this many classes: about 2-3 MB for
# sets of up to 10 orderings over N <= 5. The 1259 classes of the N = 4,
# p = 2..5 census sweep fit several times over.
_MAX_MEMO = 1 << 14

# class key -> the witness of its representative
_memo: dict[tuple[int, ...], tuple[int, ...]] = {}


def scs_exact(perms: Iterable[Sequence[int]], n_max: int = DEFAULT_N_MAX) -> ScsResult:
    """Certified-minimal common supersequence of a set of orderings.

    The witness is emitted in application order. Sets over more than
    ``n_max`` symbols are refused (search cost grows quickly).
    """
    table, given = _ranked(perms, n_max)
    if len(given) == 1:
        return ScsResult(table.n, table.perm[given[0]])
    key, x, flip = _class_key(table, given)
    witness = _memo.get(key)
    if witness is None:
        witness = _solve(tuple(table.perm[r] for r in key[1:])).witness
        if len(_memo) >= _MAX_MEMO:
            _memo.clear()
        _memo[key] = witness
    return ScsResult(len(witness), tuple(map(x.__getitem__, reversed(witness) if flip else witness)))


def scs_brute_oracle(perms: Iterable[Sequence[int]], l_max: int) -> int | None:
    """Independent SCS length by iterative-deepening enumeration.

    Tries every useful supersequence length L in increasing order and
    searches the strings of that length depth-first, with only the
    obvious feasibility cut (some string needs more symbols than remain).
    Deliberately shares nothing with :func:`scs_exact`. Returns None when
    no common supersequence of length at most ``l_max`` exists.
    """
    seqs = _normalize_perms(perms)
    n = len(seqs[0])
    start = (0,) * len(seqs)

    def found(state: tuple[int, ...], budget: int) -> bool:
        remaining = max(n - pos for pos in state)
        if remaining == 0:
            return True
        if remaining > budget:
            return False
        for c in range(n):
            nxt = tuple(
                pos + 1 if pos < n and seqs[i][pos] == c else pos
                for i, pos in enumerate(state)
            )
            if nxt != state and found(nxt, budget - 1):
                return True
        return False

    for length in range(n, l_max + 1):
        if found(start, length):
            return length
    return None


# --- census ----------------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    """Aggregate SCS statistics over combinations of p orderings of n gates.

    Sums are exact integers so ``avg_len`` is an exact rational;
    queries-per-gate (qpg) values are lengths divided by n.
    """

    n: int
    p: int
    combos: int
    mode: str
    min_len: int
    max_len: int
    sum_len: int

    @property
    def avg_len(self) -> Fraction:
        return Fraction(self.sum_len, self.combos)

    @property
    def min_qpg(self) -> Fraction:
        return Fraction(self.min_len, self.n)

    @property
    def max_qpg(self) -> Fraction:
        return Fraction(self.max_len, self.n)

    @property
    def avg_qpg(self) -> Fraction:
        return self.avg_len / self.n

    switch_qpg = 1


def _identity_combos(n: int, p: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    ident = tuple(range(n))
    others = [pm for pm in itertools.permutations(range(n)) if pm != ident]
    for extra in itertools.combinations(others, p - 1):
        yield (ident,) + extra


def _sampled_combos(n: int, p: int, count: int, seed: int):
    ident = tuple(range(n))
    others = [pm for pm in itertools.permutations(range(n)) if pm != ident]
    rng = random.Random(seed)
    for _ in range(count):
        yield (ident,) + tuple(rng.sample(others, p - 1))


def _aggregate(n: int, p: int, combos, mode: str) -> CensusRow:
    count = 0
    mn, mx = None, 0
    total = 0
    for combo in combos:
        length = scs_exact(combo).length
        count += 1
        mn = length if mn is None else min(mn, length)
        mx = max(mx, length)
        total += length
    return CensusRow(n, p, count, mode, mn, mx, total)


def census(
    n: int,
    p: int,
    sample: int | None = None,
    seed: int = 0,
    budget: int | None = DEFAULT_COMBO_BUDGET,
) -> CensusRow:
    """SCS statistics over combinations of p orderings containing the identity.

    Exhaustive mode (``sample=None``) enumerates all C(n!-1, p-1)
    combinations and refuses when that count exceeds ``budget`` (pass
    ``budget=None`` to lift the cap). Sample mode draws ``sample`` seeded
    uniform combinations instead.
    """
    if n < 2:
        raise DomainError("census needs at least 2 gates")
    if n > DEFAULT_N_MAX:
        raise LimitExceeded(f"orderings over {n} symbols exceed n_max={DEFAULT_N_MAX}",
                            n=n, n_max=DEFAULT_N_MAX)
    if not 2 <= p <= math.factorial(n):
        raise DomainError(f"p must lie in [2, {math.factorial(n)}] for n={n}")
    if sample is None:
        required = math.comb(math.factorial(n) - 1, p - 1)
        if budget is not None and required > budget:
            raise BudgetExceeded(
                f"exhaustive census of (n={n}, p={p}) needs {required} combinations "
                f"(budget {budget}); pass a sample count or raise the budget",
                required=required,
                budget=budget,
            )
        return _aggregate(n, p, _identity_combos(n, p), "exhaustive")
    if sample < 1:
        raise DomainError("sample count must be positive")
    return _aggregate(n, p, _sampled_combos(n, p, sample, seed), "sample")


def census_sweep(
    n: int,
    p_values: Iterable[int],
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    budget: int | None = DEFAULT_COMBO_BUDGET,
) -> list[CensusRow]:
    """One census row per p, exhaustive when affordable, sampled otherwise.

    Sampled rows use ``seed + p`` so the sweep is reproducible while rows
    stay independent.
    """
    rows = []
    for p in p_values:
        try:
            rows.append(census(n, p, budget=budget))
        except BudgetExceeded:
            rows.append(census(n, p, sample=sample_count, seed=seed + p))
    return rows


def census_csv(rows: Iterable[CensusRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.p},{r.combos},{r.mode},{r.min_len},{r.max_len},"
            f"{float(r.avg_len):.6f},{float(r.min_qpg):.6f},{float(r.max_qpg):.6f},"
            f"{float(r.avg_qpg):.6f},{float(r.switch_qpg):.6f}"
        )
    return "\n".join(lines) + "\n"

