"""Seeded inputs of the three workloads, and the sizes they run at.

Everything here is standard library only: the parent process generates
the inputs without importing the program, and each worker receives its
share as JSON. The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("census_exhaustive", "solve_random", "protocol_sweep")


class DuplicateInput(RuntimeError):
    """An input repeated within one interpreter, where program caches would hit."""


@dataclass(frozen=True)
class Size:
    census_argv: tuple[str, ...]
    census_pinned: str  # file under perfbench/pinned, captured at the seed commit
    solve_pass: tuple[tuple[int, int, int], ...]  # (n, p, how many sets) in every pass
    oracle_every: int  # one solve in this many is re-checked by the brute-force oracle
    qudit_fourier: range
    cv_fourier: range
    sylvester_k: int
    f4_matrices: int
    setup_probes: int
    trace_passes: dict
    max_passes: int


SIZES = {
    "full": Size(
        census_argv=("scs", "sweep", "--n", "4", "--p-min", "2", "--p-max", "5"),
        census_pinned="census_n4_p2-5.csv",
        # Half the sets over 4 symbols, half over 5, in the same mix in
        # every pass so that a run's figures do not hang on which p the
        # seed happened to draw. p stops at 22 for N = 4: the 23- and 24-
        # orderings sets number only 23 and 1, too few to stay distinct.
        solve_pass=tuple((4, p, 4) for p in range(8, 23)) + tuple((5, p, 12) for p in range(6, 11)),
        oracle_every=30,
        qudit_fourier=range(2, 21),
        cv_fourier=range(2, 29),
        sylvester_k=5,
        f4_matrices=5,
        setup_probes=4,
        trace_passes={"census_exhaustive": 1, "solve_random": 2, "protocol_sweep": 1},
        max_passes=64,
    ),
    # Tiny sizes for the benchmark's own smoke tests.
    "smoke": Size(
        census_argv=("scs", "sweep", "--n", "3", "--p-min", "2", "--p-max", "6"),
        census_pinned="census_n3_p2-6.csv",
        solve_pass=((3, 2, 1), (3, 3, 1), (4, 3, 1), (4, 4, 1)),
        oracle_every=1,
        qudit_fourier=range(2, 4),
        cv_fourier=range(2, 4),
        sylvester_k=2,
        f4_matrices=1,
        setup_probes=1,
        trace_passes={"census_exhaustive": 1, "solve_random": 1, "protocol_sweep": 1},
        max_passes=2,
    ),
}

# Warm-up inputs, disjoint from every timed input: the timed census rows and
# solves are over N >= 3 symbols, the warm-ups over N = 2; the protocol
# times Fourier, Sylvester and irrational order-4 matrices, and warms up
# on the exact order-4 matrix at a = 1/8 turn.
WARMUP_CENSUS_ARGV = ("scs", "census", "--n", "2", "--p", "2")
WARMUP_SOLVE = ((0, 1), (1, 0))
def check_distinct(keys, warmup_key) -> None:
    """Fail the run if an input repeats within one interpreter, or is the warm-up."""
    seen = {warmup_key}
    for key in keys:
        if key in seen:
            raise DuplicateInput(f"input {key!r} repeats within one interpreter")
        seen.add(key)


def solve_passes(seed: int, size: Size):
    """Endless passes of seeded ordering sets, each containing the identity.

    A set drawn before in the run is replaced by a fresh draw;
    :func:`check_distinct` re-checks every pass independently.
    """
    rng = random.Random(f"solve_random:{seed}")
    drawn = set()
    while True:
        sets = []
        for n, p, count in size.solve_pass:
            ident = tuple(range(n))
            others = [pm for pm in itertools.permutations(range(n)) if pm != ident]
            for _ in range(count):
                for _attempt in range(1000):
                    combo = (ident,) + tuple(sorted(rng.sample(others, p - 1)))
                    if combo not in drawn:
                        break
                else:
                    raise DuplicateInput(f"no fresh ordering set left for n={n}, p={p}")
                drawn.add(combo)
                sets.append(combo)
        rng.shuffle(sets)
        yield sets


def oracle_indices(seed: int, pass_index: int, count: int, every: int) -> list[int]:
    rng = random.Random(f"oracle:{seed}:{pass_index}")
    return sorted(rng.sample(range(count), max(1, count // every)))


def _unit_vector(rng: random.Random, dim: int) -> list[list[float]]:
    re = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    im = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(x * x for x in re) + sum(x * x for x in im))
    return [[x / norm for x in re], [x / norm for x in im]]


def protocol_groups(seed: int, pass_index: int, size: Size) -> list[dict]:
    """Matrices, each with the columns to recover and the gate parameters.

    Every column carries fresh seeded continuous parameters (the qudit
    target state, or the translation size and free displacement phases),
    so no column input repeats within a run even though the Fourier
    matrices recur from pass to pass.
    """
    rng = random.Random(f"protocol_sweep:{seed}:{pass_index}")
    groups = []

    def cv_column(k, p):
        return {"target": "cv", "k": k, "alpha": rng.uniform(0.5, 2.0),
                "gammas": [rng.uniform(-1.0, 1.0) for _ in range(p - 1)]}

    for d in sorted(set(size.qudit_fourier) | set(size.cv_fourier)):
        cols = []
        if d in size.qudit_fourier:
            cols += [{"target": "qudit", "k": k, "psi": _unit_vector(rng, d)} for k in range(d)]
        if d in size.cv_fourier:
            cols += [cv_column(k, d) for k in range(d)]
        groups.append({"matrix": ["fourier", d], "columns": cols})
    p = 2 ** size.sylvester_k
    groups.append({
        "matrix": ["sylvester", size.sylvester_k],
        "columns": [{"target": "qudit", "k": k, "psi": _unit_vector(rng, 2)} for k in range(p)],
    })
    for _ in range(size.f4_matrices):
        a = rng.uniform(0.05, 0.95) * math.pi  # irrational: NotButson after a full scan
        cols = [cv_column(k, 4) for k in range(4)]
        cols += [{"target": "minimal", "k": k, "a": a, "alpha1": rng.uniform(0.5, 2.0),
                  "beta1": rng.uniform(-1.0, 1.0)} for k in range(4)]
        groups.append({"matrix": ["f4", a], "columns": cols})
    return groups


def column_keys(groups) -> list[tuple]:
    return [
        ("column", json.dumps([g["matrix"], c], sort_keys=True))
        for g in groups
        for c in g["columns"]
    ]


WARMUP_KEYS = {
    "census_exhaustive": ("census",) + WARMUP_CENSUS_ARGV,
    "solve_random": ("solve", frozenset(WARMUP_SOLVE)),
    "protocol_sweep": column_keys([{"matrix": ["f4", "1/8"], "columns": [{"target": "qudit", "k": 1}]}])[0],
}


def passes(workload: str, seed: int, size: Size):
    """Successive passes of a run: (job fields, input keys, operations attempted).

    Each pass runs in its own interpreter. The census has one input, the
    sweep command, which every pass repeats in a fresh process; the other
    workloads draw fresh inputs for every pass, distinct across the run.
    """
    if workload == "census_exhaustive":
        pinned = (Path(__file__).resolve().parent / "pinned" / size.census_pinned).read_text()
        rows = len(pinned.splitlines()) - 1
        fields = {"argv": list(size.census_argv), "pinned": size.census_pinned}
        while True:
            yield fields, [("census",) + size.census_argv], rows
    elif workload == "solve_random":
        for i, sets in enumerate(solve_passes(seed, size)):
            oracle = oracle_indices(seed, i, len(sets), size.oracle_every)
            yield ({"sets": sets, "oracle": oracle},
                   [("solve", frozenset(combo)) for combo in sets], len(sets))
    else:
        for i in itertools.count():
            groups = protocol_groups(seed, i, size)
            keys = column_keys(groups)
            yield {"groups": groups}, keys, len(keys)
