"""Command-line entry point.

Subcommands mirror the library layout: ``matrix`` (generation,
validation, classification), ``promise`` (gate-set building and
verification), ``switch`` (protocol runs and sweeps) and ``scs``
(supersequence solving, census, sweep). Outputs are machine-readable
JSON on stdout (``--pretty`` for humans) or CSV for census tables;
domain errors become one JSON object on stderr with a stable ``code``
field and exit status 1, and so does a file that cannot be read or
written (code ``io_error``). Usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import matrices, promise, scs, switch, wire
from .errors import ChswitchError, DomainError, MalformedInstance, MalformedMatrix
from .gates import QuditGate
from .matrices import Butson, CHMatrix

DEFAULT_SEED = 0
# error code of a file that cannot be read or written
IO_ERROR = "io_error"


def _tolerance(text: str) -> float:
    """A tolerance flag: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """An integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _budget(text: str) -> int | None:
    """``--budget``: a non-negative combination count, or ``unlimited``."""
    if text == "unlimited":
        return None
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0 or 'unlimited', got {text!r}")
    return value


def _turn(text: str) -> Fraction:
    """``--a-turn``: an exact fraction of a turn written ``num/den``."""
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected num/den with integers and den != 0, got {text!r}"
        ) from None


def _radian_list(text: str) -> list[float]:
    """``--a`` of ``switch sweep``: comma-separated radian values."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _perm_strings(text: str) -> list[tuple[int, ...]]:
    """``--perms``: comma-separated orderings written as digit strings."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(tuple(int(ch) for ch in token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"ordering {token!r} is not a string of digits") from None
    return out


class _UsageError(Exception):
    """A combination of arguments that no parser ``type=`` can reject alone."""


def _emit(obj, args) -> None:
    print(json.dumps(obj, indent=2 if args.pretty else None, sort_keys=True))


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, (list, tuple)):
        return [_round_floats(x, digits) for x in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    return obj


def _parse_a(args) -> float | Fraction:
    if args.a_turn is not None:
        return args.a_turn
    if args.a is None:
        raise DomainError("this family needs --a (radians) or --a-turn (num/den of a turn)")
    return args.a


def _read_matrix(path) -> CHMatrix:
    return wire.matrix_from_json(wire.load(path, MalformedMatrix))


def _build_matrix(args) -> CHMatrix:
    if args.family == "f4":
        return matrices.f4_family(_parse_a(args))
    if args.family == "fourier":
        if args.d is None:
            raise DomainError("fourier needs --d")
        return matrices.fourier(args.d)
    if args.k is None:
        raise DomainError("sylvester needs --k")
    return matrices.sylvester_hadamard(args.k)


# --- matrix ---------------------------------------------------------------

def cmd_matrix_gen(args) -> int:
    m = _build_matrix(args)
    if args.out:
        wire.save(wire.matrix_to_json(m), args.out)
        _emit({"written": args.out, "p": m.p, "rep": m.rep}, args)
    else:
        _emit(wire.matrix_to_json(m), args)
    return 0


def cmd_matrix_validate(args) -> int:
    report = matrices.validate_ch(_read_matrix(args.matrix), args.eps_unitary)
    _emit({"ok": report.ok, "max_row_pair_deviation": round(report.max_row_pair_deviation, 15)}, args)
    return 0


def cmd_matrix_classify(args) -> int:
    cls = matrices.classify_bh(_read_matrix(args.matrix), args.d_max, args.eps_phase)
    if isinstance(cls, Butson):
        _emit({"butson": cls.complexity}, args)
    else:
        _emit({"butson": None, "witness": list(cls.witness), "d_max": args.d_max}, args)
    return 0


def cmd_matrix_dephase(args) -> int:
    result = matrices.dephase(_read_matrix(args.matrix))
    matrix = wire.matrix_to_json(result.matrix)
    payload = {"row_factors": [wire.phase_to_json(x) for x in result.row_factors],
               "col_factors": [wire.phase_to_json(x) for x in result.col_factors]}
    if args.out:
        wire.save(matrix, args.out)
        payload["written"] = args.out
    else:
        payload["matrix"] = matrix
    _emit(_round_floats(payload), args)
    return 0


def cmd_matrix_mindim(args) -> int:
    d = matrices.min_target_dimension(_read_matrix(args.matrix), args.d_max, args.eps_phase)
    _emit({"min_dimension": d, "cv_required": d is None}, args)
    return 0


# --- promise ---------------------------------------------------------------

def cmd_promise_build(args) -> int:
    if args.target == "minimal":
        a = _parse_a(args)
        gates, perm_set = promise.build_minimal_ch4(a, args.column, alpha1=args.alpha)
        matrix = matrices.f4_family(a)
    else:
        if not args.matrix:
            raise DomainError("--matrix is required for qudit and cv targets")
        matrix = _read_matrix(args.matrix)
        perm_set = promise.shift_permutations(matrix.p, matrix.p)
        if args.target == "qudit":
            gates = promise.build_qudit_gates(
                matrix, args.column, dim=args.dim, d_max=args.d_max, eps_phase=args.eps_phase
            )
        else:
            gates = promise.build_cv_gates(matrix, args.column, alpha=args.alpha)
    inst = promise.PromiseInstance(matrix, perm_set, gates, args.column)
    if args.out:
        wire.save(wire.instance_to_json(inst), args.out)
        _emit({"written": args.out, "column": args.column, "gates": len(gates)}, args)
    else:
        _emit(_round_floats(wire.instance_to_json(inst)), args)
    return 0


def cmd_promise_verify(args) -> int:
    inst = wire.instance_from_json(wire.load(args.instance, MalformedInstance))
    column = promise.verify_promise(inst, args.eps_phase)
    _emit({"column": column, "claimed_column": inst.claimed_column}, args)
    return 0


# --- switch ----------------------------------------------------------------

def cmd_switch_run(args) -> int:
    inst = wire.instance_from_json(wire.load(args.instance, MalformedInstance))
    psi = wire.psi_from_json(wire.load(args.psi, DomainError)) if args.psi else None
    if args.random_psi is not None:  # --psi and --random-psi are mutually exclusive
        if not isinstance(inst.gates[0], QuditGate):
            raise DomainError("--random-psi applies to qudit instances only")
        rng = np.random.default_rng(args.random_psi)
        dim = inst.gates[0].dim
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = vec / np.linalg.norm(vec)
    outcome = switch.run_protocol(inst.matrix, inst.perm_set, inst.gates, psi, args.eps_det)
    _emit({"distribution": [round(x, 12) for x in outcome.distribution], "argmax": outcome.argmax,
           "deterministic": outcome.deterministic}, args)
    return 0


def cmd_switch_sweep(args) -> int:
    if args.family == "fourier":
        matrices.check_order(args.dmax)  # before sweeping the orders below it
        cases = (("d", d, matrices.fourier(d)) for d in range(2, args.dmax + 1))
    elif args.family == "f4":
        if not args.a:
            raise DomainError("f4 sweep needs --a with comma-separated radian values")
        cases = (("a", a, matrices.f4_family(a)) for a in args.a)
    else:
        cases = (("k", args.k, matrices.sylvester_hadamard(args.k)),)
    reports = []
    for key, value, m in cases:
        worst = switch.sweep_columns(m, args.target, dim=args.dim, eps_det=args.eps_det)
        reports.append({"family": args.family, key: value, "worst_deviation": worst})
    _emit(_round_floats({"target": args.target, "sweeps": reports}), args)
    return 0


# --- scs ---------------------------------------------------------------------

def cmd_scs_solve(args) -> int:
    result = scs.scs_exact(args.perms, n_max=args.n_max)
    payload = {"length": result.length, "qpg": round(result.length / len(args.perms[0]), 12)}
    if args.witness:
        payload["witness"] = "".join(str(c) for c in result.witness)
        payload["witness_order"] = "application"
    _emit(payload, args)
    return 0


def _write_csv(text: str, args, summary: dict) -> None:
    """CSV to ``--out`` (then ``summary`` as JSON on stdout), or to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(summary, args)
    else:
        sys.stdout.write(text)


def cmd_scs_census(args) -> int:
    row = scs.census(args.n, args.p, sample=args.sample, seed=args.seed, budget=args.budget)
    _write_csv(scs.census_csv([row]), args, {"written": args.out, "combos": row.combos})
    return 0


def cmd_scs_sweep(args) -> int:
    if args.p_min > args.p_max:
        raise _UsageError(f"--p-min {args.p_min} exceeds --p-max {args.p_max}")
    rows = scs.census_sweep(
        args.n,
        range(args.p_min, args.p_max + 1),
        sample_count=args.sample,
        seed=args.seed,
        budget=args.budget,
    )
    _write_csv(scs.census_csv(rows), args, {"written": args.out, "rows": len(rows)})
    return 0


# --- parser ------------------------------------------------------------------

# Shared options and the tolerances, each declared, defaulted and validated
# once; a subcommand registers by name only the ones it reads.
_OPTIONS = {
    "--eps-phase": dict(type=_tolerance, default=matrices.DEFAULT_EPS_PHASE,
                        help="phase tolerance in radians (Butson scan, promise checks)"),
    "--eps-unitary": dict(type=_tolerance, default=matrices.DEFAULT_EPS_UNITARY,
                          help="tolerance on the row-pair orthogonality of M M^dagger = p*I"),
    "--eps-det": dict(type=_tolerance, default=switch.DEFAULT_EPS_DET,
                      help="an outcome is deterministic when its probability is >= 1 - eps-det"),
    "--d-max": dict(type=_int_at_least(1), default=matrices.DEFAULT_D_MAX,
                    help="largest root-of-unity order scanned for float matrices"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--budget": dict(type=_budget, default=scs.DEFAULT_COMBO_BUDGET,
                     help="max exhaustive combinations, or 'unlimited'"),
    "--pretty": dict(action="store_true", help="indent JSON output"),
}


def _add_options(sub, *names) -> None:
    for name in (*names, "--pretty"):
        sub.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chswitch",
        description="Complex Hadamard promise problems: matrices, gates, switch protocol, query census.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    mat = top.add_parser("matrix", help="generate / validate / classify matrices").add_subparsers(
        dest="cmd", required=True
    )
    gen = mat.add_parser("gen")
    gen.add_argument("--family", required=True, choices=["fourier", "f4", "sylvester"])
    gen.add_argument("--d", type=int)
    gen.add_argument("--a", type=float, help="f4 parameter in radians, [0, pi)")
    gen.add_argument("--a-turn", type=_turn,
                     help="f4 parameter as an exact fraction of a turn, e.g. 1/4")
    gen.add_argument("--k", type=int, help="sylvester doubling exponent")
    gen.add_argument("--out")
    _add_options(gen)
    gen.set_defaults(func=cmd_matrix_gen)
    for name, fn, with_out, options in [
        ("validate", cmd_matrix_validate, False, ["--eps-unitary"]),
        ("classify", cmd_matrix_classify, False, ["--d-max", "--eps-phase"]),
        ("dephase", cmd_matrix_dephase, True, []),
        ("mindim", cmd_matrix_mindim, False, ["--d-max", "--eps-phase"]),
    ]:
        sub = mat.add_parser(name)
        sub.add_argument("matrix", help="matrix JSON path")
        if with_out:
            sub.add_argument("--out")
        _add_options(sub, *options)
        sub.set_defaults(func=fn)

    pr = top.add_parser("promise", help="build / verify promise instances").add_subparsers(
        dest="cmd", required=True
    )
    build = pr.add_parser("build")
    build.add_argument("--matrix", help="matrix JSON path (qudit/cv targets)")
    build.add_argument("--column", type=int, required=True)
    build.add_argument("--target", required=True, choices=["qudit", "cv", "minimal"])
    build.add_argument("--dim", type=int, help="target dimension (qudit)")
    build.add_argument("--alpha", type=float, default=1.0, help="translation size (cv/minimal)")
    build.add_argument("--a", type=float, help="f4 parameter (minimal target)")
    build.add_argument("--a-turn", type=_turn,
                       help="f4 parameter as a fraction of a turn (minimal target)")
    build.add_argument("--out")
    _add_options(build, "--d-max", "--eps-phase")
    build.set_defaults(func=cmd_promise_build)
    verify = pr.add_parser("verify")
    verify.add_argument("--instance", required=True)
    _add_options(verify, "--eps-phase")
    verify.set_defaults(func=cmd_promise_verify)

    sw = top.add_parser("switch", help="run the protocol / sweep columns").add_subparsers(
        dest="cmd", required=True
    )
    run_p = sw.add_parser("run")
    run_p.add_argument("--instance", required=True)
    psi = run_p.add_mutually_exclusive_group()
    psi.add_argument("--psi", help="JSON target state ([re, im] pairs), qudit only")
    psi.add_argument("--random-psi", type=int, help="seed for a random target state")
    _add_options(run_p, "--eps-det")
    run_p.set_defaults(func=cmd_switch_run)
    sweep_p = sw.add_parser("sweep")
    sweep_p.add_argument("--family", required=True, choices=["fourier", "f4", "sylvester"])
    sweep_p.add_argument("--dmax", type=_int_at_least(2), default=6, help="fourier orders 2..dmax")
    sweep_p.add_argument("--a", type=_radian_list, help="comma-separated f4 parameters in radians")
    sweep_p.add_argument("--k", type=int, default=2, help="sylvester exponent")
    sweep_p.add_argument("--target", required=True, choices=["qudit", "cv"])
    sweep_p.add_argument("--dim", type=int)
    _add_options(sweep_p, "--eps-det")
    sweep_p.set_defaults(func=cmd_switch_sweep)

    sc = top.add_parser("scs", help="supersequence solving and census").add_subparsers(
        dest="cmd", required=True
    )
    solve = sc.add_parser("solve")
    solve.add_argument("--perms", required=True, type=_perm_strings,
                       help='comma-separated orderings, e.g. "012,102,120"')
    solve.add_argument("--witness", action="store_true")
    solve.add_argument("--n-max", type=int, default=scs.DEFAULT_N_MAX)
    _add_options(solve)
    solve.set_defaults(func=cmd_scs_solve)
    cen = sc.add_parser("census")
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--p", type=int, required=True)
    cen.add_argument("--sample", type=_int_at_least(1),
                     help="sampled mode with this many combinations")
    cen.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_options(cen, "--seed", "--budget")
    cen.set_defaults(func=cmd_scs_census)
    swp = sc.add_parser("sweep")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--p-min", type=int, required=True)
    swp.add_argument("--p-max", type=int, required=True)
    swp.add_argument("--sample", type=_int_at_least(1), default=scs.DEFAULT_SAMPLE_COUNT,
                     help="sample count for over-budget rows")
    swp.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_options(swp, "--seed", "--budget")
    swp.set_defaults(func=cmd_scs_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except ChswitchError as exc:
        payload = {"code": exc.code, "message": str(exc)}
        payload.update(exc.payload)
    except OSError as exc:
        payload = {"code": IO_ERROR, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
