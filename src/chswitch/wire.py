"""The JSON edge: the codecs of every file the toolkit reads or writes.

Every reader decodes through the same field helpers: a number is a JSON
number, never a string or a boolean; ``p``, ``num``, ``den``, ``dim``,
ordering entries and ``claimed_column`` are integers; reals are finite.
Qudit gates must be unitary, or the target could vanish and the outcome
be 0/0. A reader raises the error of its document: ``MalformedMatrix``
(also for the matrix of an instance), ``MalformedInstance``
(``KindMismatch`` for a missing or unknown gate kind) or, for a target
state, ``DomainError``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, KindMismatch, MalformedInstance, MalformedMatrix
from .gates import Gate, QuditGate, WeylOp, gate_kind
from .matrices import DEFAULT_EPS_UNITARY, EXACT, FLOAT, CHMatrix, PhaseEntry, check_order
from .promise import PermutationSet, PromiseInstance


def save(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def load(path, error):
    """One JSON document; a file that does not decode raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise error(f"{path} is not JSON: {exc}") from exc


def _get(obj, key, error):
    if not isinstance(obj, dict) or key not in obj:
        raise error(f"expected a JSON object with field {key!r}")
    return obj[key]


def _list(x, error, what, length=None) -> list:
    if not isinstance(x, list) or length is not None and len(x) != length:
        raise error(f"{what} must be a list" + ("" if length is None else f" of {length} items"))
    return x


def _int(x, error, what, low=None) -> int:
    if type(x) is not int or low is not None and x < low:  # type(): a bool is no int here
        raise error(f"{what} must be an integer" + ("" if low is None else f" >= {low}"))
    return x


def _real(x, error, what) -> float:
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:  # exact for huge ints
        raise error(f"{what} must be a finite number")
    return float(x)


def _pair(x, error, what) -> complex:
    re, im = _list(x, error, what, 2)
    return complex(_real(re, error, what), _real(im, error, what))


def phase_to_json(x: PhaseEntry):
    """A turn as ``{"num", "den"}``, a radian as a float."""
    return {"num": x.numerator, "den": x.denominator} if isinstance(x, Fraction) else float(x)


def matrix_to_json(m: CHMatrix) -> dict:
    return {"p": m.p, "rep": m.rep, "phases": [[phase_to_json(x) for x in row] for row in m.phases]}


def _turn(entry) -> Fraction:
    if not isinstance(entry, dict) or set(entry) != {"num", "den"}:
        raise MalformedMatrix("exact entries must be {num, den} objects")
    return Fraction(_int(entry["num"], MalformedMatrix, "num"),
                    _int(entry["den"], MalformedMatrix, "den", low=1))


def matrix_from_json(obj) -> CHMatrix:
    err = MalformedMatrix
    p, rep, phases = (_get(obj, key, err) for key in ("p", "rep", "phases"))
    check_order(_int(p, err, "p", low=1))
    rows = [_list(row, err, "a phase row", p) for row in _list(phases, err, "phases", p)]
    if rep == EXACT:
        return CHMatrix.from_turns([[_turn(e) for e in row] for row in rows])
    if rep == FLOAT:
        return CHMatrix.from_radians([[_real(x, err, "a float phase") for x in row] for row in rows])
    raise err(f"unknown rep {rep!r}")


def gateset_to_json(gates: Sequence[Gate]) -> dict:
    if gate_kind(gates) == "weyl":
        return {"kind": "weyl",
                "gates": [{"theta": g.theta, "beta": g.beta, "gamma": g.gamma} for g in gates]}
    return {"kind": "qudit", "dim": gates[0].dim, "gates": [
        [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix] for g in gates]}


def _qudit_gate(dim: int, rows) -> QuditGate:
    err = MalformedInstance
    grid = [[_pair(z, err, "a gate entry") for z in _list(row, err, "a gate row")]
            for row in _list(rows, err, "a qudit gate")]
    if any(len(row) != len(grid[0]) for row in grid):
        raise err("gate rows must have equal length")
    u = QuditGate(dim, grid)
    if not np.allclose(u.matrix @ u.matrix.conj().T, np.eye(dim), rtol=0, atol=DEFAULT_EPS_UNITARY):
        raise err("qudit gates must be unitary")
    return u


def gateset_from_json(obj) -> tuple[Gate, ...]:
    kind, gates = (_get(obj, key, KindMismatch) for key in ("kind", "gates"))
    err = MalformedInstance
    if kind == "weyl":
        return tuple(WeylOp(*(_real(_get(g, key, err), err, key) for key in ("theta", "beta", "gamma")))
                     for g in _list(gates, err, "gates"))
    if kind == "qudit":
        dim = _int(_get(obj, "dim", err), err, "dim")
        return tuple(_qudit_gate(dim, g) for g in _list(gates, err, "gates"))
    raise KindMismatch(f"unknown gate kind {kind!r}")


def instance_to_json(inst: PromiseInstance) -> dict:
    return {"matrix": matrix_to_json(inst.matrix), "perms": [list(pm) for pm in inst.perm_set.perms],
            "gates": gateset_to_json(inst.gates), "claimed_column": inst.claimed_column}


def instance_from_json(obj) -> PromiseInstance:
    err = MalformedInstance
    matrix = matrix_from_json(_get(obj, "matrix", err))
    perm_set = PermutationSet(tuple(
        tuple(_int(i, err, "an ordering entry") for i in _list(pm, err, "an ordering"))
        for pm in _list(_get(obj, "perms", err), err, "perms")))
    gates = gateset_from_json(_get(obj, "gates", err))
    claimed = obj.get("claimed_column")
    if claimed is not None:
        _int(claimed, err, "claimed_column")
    return PromiseInstance(matrix, perm_set, gates, claimed)


def psi_from_json(obj) -> list[complex]:
    """A qudit target state: a list of real numbers or ``[re, im]`` pairs."""
    return [_pair(x, DomainError, "a psi entry") if isinstance(x, list)
            else complex(_real(x, DomainError, "a psi entry")) for x in _list(obj, DomainError, "psi")]
