"""Warm-up, timed section and output checks of each workload.

Imported by the worker after the program, so that ``setup_s`` holds the
program's import cost. The timed sections call the program through its
module attributes (``scs.scs_exact``, ``promise.verify_promise``, ...),
which is where :mod:`tracing` installs its wrappers.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from chswitch import cli, matrices, promise, scs, switch

import inputs

PINNED_DIR = Path(__file__).resolve().parent / "pinned"


class Timed(NamedTuple):
    seconds: float
    ops: int  # operations the rate counts: solves, or protocol columns
    latencies_ms: list[float]
    outputs: object  # whatever the check needs, kept in memory


class Workload(NamedTuple):
    warm_up: Callable[[], None]
    timed: Callable[[dict], Timed]
    check: Callable[[dict, object], tuple[int, list[str]]]  # -> (failed, errors)


def is_subsequence(t, s) -> bool:
    """Whether t occurs in s in order; independent of the program's own helper."""
    i = 0
    for c in s:
        if i < len(t) and t[i] == c:
            i += 1
    return i == len(t)


# --- census_exhaustive -------------------------------------------------------

def census_warm_up() -> None:
    with redirect_stdout(io.StringIO()):
        cli.main(list(inputs.WARMUP_CENSUS_ARGV))


def census_timed(job) -> Timed:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(list(job["argv"]))
    except Exception as exc:  # a crash of the command fails every row
        code = repr(exc)
    seconds = time.perf_counter() - t0
    pinned = (PINNED_DIR / job["pinned"]).read_text(encoding="utf-8")
    solves = sum(int(row.split(",")[2]) for row in pinned.splitlines()[1:])
    return Timed(seconds, solves, [seconds * 1e3], (code, buf.getvalue()))


def census_failures(code, got: str, pinned: str) -> tuple[int, list[str]]:
    """Failed rows of a captured census CSV against the pinned one."""
    want = pinned.splitlines()
    if code != 0:
        return len(want) - 1, [f"command exited with {code}"]
    have = got.splitlines()
    if have[:1] != want[:1]:
        return len(want) - 1, [f"header {have[:1]} != {want[:1]}"]
    errors = [
        f"row {i}: {have[i] if i < len(have) else None!r} != {want[i]!r}"
        for i in range(1, len(want))
        if i >= len(have) or have[i] != want[i]
    ]
    if not errors and got != pinned:
        errors.append("output differs from the pinned CSV outside its rows")
    return len(errors), errors


def census_check(job, outputs) -> tuple[int, list[str]]:
    pinned = (PINNED_DIR / job["pinned"]).read_text(encoding="utf-8")
    return census_failures(*outputs, pinned)


# --- solve_random ------------------------------------------------------------

def solve_warm_up() -> None:
    scs.scs_exact(inputs.WARMUP_SOLVE)


def solve_timed(job) -> Timed:
    sets = [tuple(map(tuple, combo)) for combo in job["sets"]]
    results, latencies = [], []
    t0 = time.perf_counter()
    for combo in sets:
        t = time.perf_counter()
        try:
            results.append(scs.scs_exact(combo))
        except Exception as exc:
            results.append(exc)
        latencies.append((time.perf_counter() - t) * 1e3)
    seconds = time.perf_counter() - t0
    return Timed(seconds, len(sets), latencies, (sets, results))


def solve_failures(sets, results, oracle_idx) -> tuple[int, list[str]]:
    """Witness checks on every solve, brute-force oracle on a subsample."""
    errors = []
    for i, (combo, r) in enumerate(zip(sets, results)):
        if isinstance(r, Exception):
            errors.append(f"set {i}: raised {r!r}")
        elif len(r.witness) != r.length:
            errors.append(f"set {i}: witness of length {len(r.witness)} reported as {r.length}")
        elif not all(is_subsequence(pm, r.witness) for pm in combo):
            errors.append(f"set {i}: witness {r.witness} misses an ordering")
        elif i in oracle_idx:
            try:
                oracle = scs.scs_brute_oracle(combo, r.length)
            except Exception as exc:
                oracle = repr(exc)
            if oracle != r.length:
                errors.append(f"set {i}: oracle length {oracle} != solver length {r.length}")
    return len(errors), errors


def solve_check(job, outputs) -> tuple[int, list[str]]:
    return solve_failures(*outputs, set(job["oracle"]))


# --- protocol_sweep ----------------------------------------------------------

def _column(m, perm_set, col) -> bool:
    """Build gates, verify the promise and run the switch for one column."""
    k = col["k"]
    psi = None
    if col["target"] == "qudit":
        gates = promise.build_qudit_gates(m, k)
        psi = col["psi"]
    elif col["target"] == "cv":
        gates = promise.build_cv_gates(m, k, alpha=col["alpha"], gammas=col["gammas"])
    else:
        gates, perm_set = promise.build_minimal_ch4(
            col["a"], k, alpha1=col["alpha1"], beta1=col["beta1"]
        )
    found = promise.verify_promise(promise.PromiseInstance(m, perm_set, gates, k))
    out = switch.run_protocol(m, perm_set, gates, psi)
    return found == k and out.argmax == k and out.deterministic


def _matrix(spec):
    family, param = spec
    if family == "fourier":
        return matrices.fourier(param)
    if family == "sylvester":
        return matrices.sylvester_hadamard(param)
    return matrices.f4_family(param)


def protocol_warm_up() -> None:
    m = matrices.f4_family(Fraction(1, 8))
    perm_set = promise.shift_permutations(m.p, m.p)
    _column(m, perm_set, {"target": "qudit", "k": 1, "psi": None})


def protocol_timed(job) -> Timed:
    groups = job["groups"]
    for g in groups:  # input conversion stays outside the timed section
        for col in g["columns"]:
            if col["target"] == "qudit":
                re, im = col["psi"]
                col["psi"] = np.array(re) + 1j * np.array(im)
    latencies, ok, errors = [], [], []
    t0 = time.perf_counter()
    for g in groups:
        family = g["matrix"][0]
        try:
            m = _matrix(g["matrix"])
            # A user picks the target from the classification: the irrational
            # order-4 matrices end a full scan to d_max as NotButson.
            good = matrices.validate_ch(m).ok and (
                isinstance(matrices.classify_bh(m), matrices.NotButson) == (family == "f4")
            )
            perm_set = promise.shift_permutations(m.p, m.p)
        except Exception as exc:
            good = False
            errors.append(f"{g['matrix']}: raised {exc!r}")
        else:
            if not good:
                errors.append(f"{g['matrix']}: not a valid matrix of the expected class")
        for col in g["columns"]:
            t = time.perf_counter()
            try:
                ok.append(good and _column(m, perm_set, col))
            except Exception as exc:
                ok.append(False)
                errors.append(f"{g['matrix']} column {col['k']} ({col['target']}): {exc!r}")
            latencies.append((time.perf_counter() - t) * 1e3)
    seconds = time.perf_counter() - t0
    return Timed(seconds, len(ok), latencies, (ok, errors))


def protocol_check(job, outputs) -> tuple[int, list[str]]:
    ok, errors = outputs
    failed = ok.count(False)
    return failed, errors or ([f"{failed} columns not recovered"] if failed else [])


WORKLOADS = {
    "census_exhaustive": Workload(census_warm_up, census_timed, census_check),
    "solve_random": Workload(solve_warm_up, solve_timed, solve_check),
    "protocol_sweep": Workload(protocol_warm_up, protocol_timed, protocol_check),
}
