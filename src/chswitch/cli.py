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
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrices, promise, scs, switch
from .errors import ChswitchError, DomainError
from .matrices import Butson, CHMatrix

DEFAULT_SEED = 0
# error code of a file that cannot be read or written
IO_ERROR = "io_error"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, budgets and reproducibility knobs shared by subcommands."""

    eps_phase: float = matrices.DEFAULT_EPS_PHASE
    eps_unitary: float = matrices.DEFAULT_EPS_UNITARY
    eps_det: float = switch.DEFAULT_EPS_DET
    d_max: int = matrices.DEFAULT_D_MAX
    budget: int | None = scs.DEFAULT_COMBO_BUDGET
    seed: int = DEFAULT_SEED
    pretty: bool = False

    def __post_init__(self):
        for name in ("eps_phase", "eps_unitary", "eps_det"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


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


def _config(args) -> RunConfig:
    return RunConfig(
        eps_phase=getattr(args, "eps_phase", matrices.DEFAULT_EPS_PHASE),
        eps_unitary=getattr(args, "eps_unitary", matrices.DEFAULT_EPS_UNITARY),
        eps_det=getattr(args, "eps_det", switch.DEFAULT_EPS_DET),
        d_max=getattr(args, "d_max", matrices.DEFAULT_D_MAX),
        budget=getattr(args, "budget", scs.DEFAULT_COMBO_BUDGET),
        seed=getattr(args, "seed", DEFAULT_SEED),
        pretty=getattr(args, "pretty", False),
    )


def _emit(obj, cfg: RunConfig, path=None) -> None:
    text = json.dumps(obj, indent=2 if cfg.pretty else None, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, (list, tuple)):
        return [_round_floats(x, digits) for x in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    return obj


def _parse_a(args) -> float | Fraction:
    if getattr(args, "a_turn", None) is not None:
        return args.a_turn
    if getattr(args, "a", None) is None:
        raise DomainError("this family needs --a (radians) or --a-turn (num/den of a turn)")
    return float(args.a)


def _build_matrix(args) -> CHMatrix:
    family = args.family
    if family == "fourier":
        if args.d is None:
            raise DomainError("fourier needs --d")
        return matrices.fourier(args.d)
    if family == "f4":
        return matrices.f4_family(_parse_a(args))
    if family == "sylvester":
        if args.k is None:
            raise DomainError("sylvester needs --k")
        return matrices.sylvester_hadamard(args.k)
    raise DomainError(f"unknown family {family!r}")


# --- matrix ---------------------------------------------------------------

def cmd_matrix_gen(args) -> int:
    cfg = _config(args)
    m = _build_matrix(args)
    if args.out:
        matrices.save_matrix(m, args.out)
        _emit({"written": args.out, "p": m.p, "rep": m.rep}, cfg)
    else:
        _emit(matrices.matrix_to_json(m), cfg)
    return 0


def cmd_matrix_validate(args) -> int:
    cfg = _config(args)
    report = matrices.validate_ch(matrices.load_matrix(args.matrix), cfg.eps_unitary)
    _emit(
        {"ok": report.ok, "max_row_pair_deviation": round(report.max_row_pair_deviation, 15)},
        cfg,
    )
    return 0


def cmd_matrix_classify(args) -> int:
    cfg = _config(args)
    cls = matrices.classify_bh(matrices.load_matrix(args.matrix), cfg.d_max, cfg.eps_phase)
    if isinstance(cls, Butson):
        _emit({"butson": cls.complexity}, cfg)
    else:
        _emit({"butson": None, "witness": list(cls.witness), "d_max": cfg.d_max}, cfg)
    return 0


def cmd_matrix_dephase(args) -> int:
    cfg = _config(args)
    result = matrices.dephase(matrices.load_matrix(args.matrix))
    if args.out:
        matrices.save_matrix(result.matrix, args.out)
    payload = {
        "matrix": matrices.matrix_to_json(result.matrix),
        "row_factors": [_factor_json(x) for x in result.row_factors],
        "col_factors": [_factor_json(x) for x in result.col_factors],
    }
    if args.out:
        payload["written"] = args.out
        del payload["matrix"]
    _emit(_round_floats(payload), cfg)
    return 0


def _factor_json(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return float(x)


def cmd_matrix_mindim(args) -> int:
    cfg = _config(args)
    d = matrices.min_target_dimension(matrices.load_matrix(args.matrix), cfg.d_max, cfg.eps_phase)
    _emit({"min_dimension": d, "cv_required": d is None}, cfg)
    return 0


# --- promise ---------------------------------------------------------------

def cmd_promise_build(args) -> int:
    cfg = _config(args)
    if args.target == "minimal":
        a = _parse_a(args)
        gates, perm_set = promise.build_minimal_ch4(a, args.column, alpha1=args.alpha)
        matrix = matrices.f4_family(a)
    else:
        if not args.matrix:
            raise DomainError("--matrix is required for qudit and cv targets")
        matrix = matrices.load_matrix(args.matrix)
        perm_set = promise.shift_permutations(matrix.p, matrix.p)
        if args.target == "qudit":
            gates = promise.build_qudit_gates(
                matrix, args.column, dim=args.dim, d_max=cfg.d_max, eps_phase=cfg.eps_phase
            )
        elif args.target == "cv":
            gates = promise.build_cv_gates(matrix, args.column, alpha=args.alpha)
        else:
            raise DomainError(f"unknown target {args.target!r}")
    inst = promise.PromiseInstance(matrix, perm_set, gates, args.column)
    if args.out:
        promise.save_instance(inst, args.out)
        _emit({"written": args.out, "column": args.column, "gates": len(gates)}, cfg)
    else:
        _emit(_round_floats(promise.instance_to_json(inst)), cfg)
    return 0


def cmd_promise_verify(args) -> int:
    cfg = _config(args)
    inst = promise.load_instance(args.instance)
    column = promise.verify_promise(inst, cfg.eps_phase)
    _emit({"column": column, "claimed_column": inst.claimed_column}, cfg)
    return 0


# --- switch ----------------------------------------------------------------

def cmd_switch_run(args) -> int:
    cfg = _config(args)
    inst = promise.load_instance(args.instance)
    psi = None
    if args.psi:
        with open(args.psi, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
                psi = [complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in raw]
            except (ValueError, TypeError, IndexError) as exc:
                raise DomainError(f"psi must be a JSON list of numbers or [re, im] pairs: {exc}") from exc
    elif args.random_psi is not None:
        from .gates import QuditGate

        if not isinstance(inst.gates[0], QuditGate):
            raise DomainError("--random-psi applies to qudit instances only")
        rng = np.random.default_rng(args.random_psi)
        dim = inst.gates[0].dim
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = vec / np.linalg.norm(vec)
    outcome = switch.run_protocol(inst.matrix, inst.perm_set, inst.gates, psi, cfg.eps_det)
    payload = {
        "distribution": [round(x, 12) for x in outcome.distribution],
        "argmax": outcome.argmax,
        "deterministic": outcome.deterministic,
    }
    if args.sample is not None:
        payload["sample"] = switch.sample_outcome(outcome, args.sample)
    _emit(payload, cfg)
    return 0


def cmd_switch_sweep(args) -> int:
    cfg = _config(args)
    reports = []
    if args.family == "fourier":
        dmax = args.dmax or 6
        for d in range(2, dmax + 1):
            m = matrices.fourier(d)
            rep = switch.sweep_columns(m, args.target, dim=args.dim, eps_det=cfg.eps_det)
            reports.append({"family": "fourier", "d": d, "worst_deviation": rep.worst_deviation})
    elif args.family == "f4":
        if not args.a:
            raise DomainError("f4 sweep needs --a with comma-separated radian values")
        for a in args.a:
            m = matrices.f4_family(a)
            rep = switch.sweep_columns(m, args.target, dim=args.dim, eps_det=cfg.eps_det)
            reports.append({"family": "f4", "a": a, "worst_deviation": rep.worst_deviation})
    elif args.family == "sylvester":
        k = args.k if args.k is not None else 2
        m = matrices.sylvester_hadamard(k)
        rep = switch.sweep_columns(m, args.target, dim=args.dim, eps_det=cfg.eps_det)
        reports.append({"family": "sylvester", "k": k, "worst_deviation": rep.worst_deviation})
    else:
        raise DomainError(f"unknown family {args.family!r}")
    _emit(_round_floats({"target": args.target, "sweeps": reports, "all_deterministic": True}), cfg)
    return 0


# --- scs ---------------------------------------------------------------------

def cmd_scs_solve(args) -> int:
    cfg = _config(args)
    result = scs.scs_exact(args.perms, n_max=args.n_max)
    payload = {"length": result.length, "qpg": round(result.length / len(args.perms[0]), 12)}
    if args.witness:
        payload["witness"] = "".join(str(c) for c in result.witness)
        payload["witness_order"] = "application"
    _emit(payload, cfg)
    return 0


def cmd_scs_census(args) -> int:
    cfg = _config(args)
    row = scs.census(args.n, args.p, sample=args.sample, seed=cfg.seed, budget=cfg.budget)
    text = scs.census_csv([row])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out, "combos": row.combos}, cfg)
    else:
        sys.stdout.write(text)
    return 0


def cmd_scs_sweep(args) -> int:
    cfg = _config(args)
    if args.p_min > args.p_max:
        raise _UsageError(f"--p-min {args.p_min} exceeds --p-max {args.p_max}")
    rows = scs.census_sweep(
        args.n,
        range(args.p_min, args.p_max + 1),
        sample_count=args.sample or scs.DEFAULT_SAMPLE_COUNT,
        seed=cfg.seed,
        budget=cfg.budget,
    )
    text = scs.census_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out, "rows": len(rows)}, cfg)
    else:
        sys.stdout.write(text)
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(sub, *, tolerances=True, seed=False, budget=False):
    if tolerances:
        sub.add_argument("--eps-phase", type=float, default=matrices.DEFAULT_EPS_PHASE)
        sub.add_argument("--eps-unitary", type=float, default=matrices.DEFAULT_EPS_UNITARY)
        sub.add_argument("--eps-det", type=float, default=switch.DEFAULT_EPS_DET)
        sub.add_argument("--d-max", type=int, default=matrices.DEFAULT_D_MAX)
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if budget:
        sub.add_argument("--budget", type=_budget, default=scs.DEFAULT_COMBO_BUDGET,
                         help="max exhaustive combinations, or 'unlimited'")
    sub.add_argument("--pretty", action="store_true", help="indent JSON output")


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
    _add_common(gen)
    gen.set_defaults(func=cmd_matrix_gen)
    for name, fn, with_out in [
        ("validate", cmd_matrix_validate, False),
        ("classify", cmd_matrix_classify, False),
        ("dephase", cmd_matrix_dephase, True),
        ("mindim", cmd_matrix_mindim, False),
    ]:
        sub = mat.add_parser(name)
        sub.add_argument("matrix", help="matrix JSON path")
        if with_out:
            sub.add_argument("--out")
        _add_common(sub)
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
    _add_common(build)
    build.set_defaults(func=cmd_promise_build)
    verify = pr.add_parser("verify")
    verify.add_argument("--instance", required=True)
    _add_common(verify)
    verify.set_defaults(func=cmd_promise_verify)

    sw = top.add_parser("switch", help="run the protocol / sweep columns").add_subparsers(
        dest="cmd", required=True
    )
    run_p = sw.add_parser("run")
    run_p.add_argument("--instance", required=True)
    run_p.add_argument("--psi", help="JSON target state ([re, im] pairs), qudit only")
    run_p.add_argument("--random-psi", type=int, help="seed for a random target state")
    run_p.add_argument("--sample", type=int, help="also draw one measurement with this seed")
    _add_common(run_p)
    run_p.set_defaults(func=cmd_switch_run)
    sweep_p = sw.add_parser("sweep")
    sweep_p.add_argument("--family", required=True, choices=["fourier", "f4", "sylvester"])
    sweep_p.add_argument("--dmax", type=int, help="fourier orders 2..dmax")
    sweep_p.add_argument("--a", type=_radian_list, help="comma-separated f4 parameters in radians")
    sweep_p.add_argument("--k", type=int, help="sylvester exponent")
    sweep_p.add_argument("--target", required=True, choices=["qudit", "cv"])
    sweep_p.add_argument("--dim", type=int)
    _add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_switch_sweep)

    sc = top.add_parser("scs", help="supersequence solving and census").add_subparsers(
        dest="cmd", required=True
    )
    solve = sc.add_parser("solve")
    solve.add_argument("--perms", required=True, type=_perm_strings,
                       help='comma-separated orderings, e.g. "012,102,120"')
    solve.add_argument("--witness", action="store_true")
    solve.add_argument("--n-max", type=int, default=scs.DEFAULT_N_MAX)
    _add_common(solve, tolerances=False)
    solve.set_defaults(func=cmd_scs_solve)
    cen = sc.add_parser("census")
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--p", type=int, required=True)
    cen.add_argument("--sample", type=int, help="sampled mode with this many combinations")
    cen.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_common(cen, tolerances=False, seed=True, budget=True)
    cen.set_defaults(func=cmd_scs_census)
    swp = sc.add_parser("sweep")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--p-min", type=int, required=True)
    swp.add_argument("--p-max", type=int, required=True)
    swp.add_argument("--sample", type=int, help="sample count for over-budget rows")
    swp.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_common(swp, tolerances=False, seed=True, budget=True)
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
