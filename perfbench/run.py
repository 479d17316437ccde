"""Benchmark of the chswitch toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is census_exhaustive, solve_random, protocol_sweep, or all. Every
pass of a workload runs in a fresh interpreter (worker.py), one after
another, with the program taken from ``src/`` of this checkout. With
``--trace 0`` a run measures passes until their timed sections add up to
S seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed number of passes twice, untraced and traced, and reports the
per-layer metrics and the tracing overhead. A table with units and sample
counts goes to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of a traced
run are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_BUDGET_S = 165.0  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# The names the table prints for the generic metrics, per workload.
ALIASES = {
    "census_exhaustive": {"ops_per_s": "solves_per_s", "op_p50_ms": "sweep_p50_ms",
                          "op_p90_ms": "sweep_p90_ms"},
    "solve_random": {"ops_per_s": "solves_per_s", "op_p50_ms": "solve_p50_ms",
                     "op_p90_ms": "solve_p90_ms"},
    "protocol_sweep": {"ops_per_s": "columns_per_s", "op_p50_ms": "column_p50_ms",
                       "op_p90_ms": "column_p90_ms"},
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; no JSON line is printed."""


class Workers:
    """Starts worker interpreters one at a time, all within the run's budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, job: dict) -> dict | None:
        """The worker's result, or None if it crashed or ran out of time."""
        timeout = self.remaining()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(job),
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
                env=self.env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"worker for {job['workload']} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker for {job['workload']} exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])


def _job(workload, fields, trace=False, setup_only=False) -> dict:
    return dict(fields, workload=workload, trace=trace, setup_only=setup_only)


def measure(workers: Workers, workload: str, seed: int, seconds: float, size: inputs.Size):
    """Untraced passes until their timed sections reach ``seconds``."""
    probe = _job(workload, {}, setup_only=True)
    if workers.run(probe) is None:  # also compiles the program's bytecode once
        raise BenchError("the program does not import; see the worker's error above")
    setups = []
    for _ in range(size.setup_probes):
        r = workers.run(probe)
        if r is not None:
            setups.append(r["setup_s"])

    done, attempted, failed, longest = [], 0, 0, 0.0
    for index, (fields, keys, count) in enumerate(inputs.passes(workload, seed, size)):
        timed = sum(r["timed_s"] for r in done)
        if index >= size.max_passes or (index and timed >= seconds):
            break
        if index and workers.remaining() < 2 * longest:
            break
        inputs.check_distinct(keys, inputs.WARMUP_KEYS[workload])
        attempted += count
        started = time.monotonic()
        r = workers.run(_job(workload, fields))
        longest = max(longest, time.monotonic() - started)
        if r is None:
            failed += count
            continue
        done.append(r)
        failed += r["failed"]
        print(f"{workload} pass {index}: {r['ops']} ops in {r['timed_s']:.4f} s", flush=True)
        for err in r["errors"]:
            print(f"{workload}: {err}", file=sys.stderr)
    if not done:
        raise BenchError(f"no pass of {workload} completed")

    setups += [r["setup_s"] for r in done]
    latencies = [x for r in done for x in r["latencies_ms"]]
    ops = sum(r["ops"] for r in done)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(r["timed_s"] for r in done),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
    }
    samples = {
        "setup_s": len(setups),
        "ops_per_s": ops,
        "op_p50_ms": len(latencies),
        "op_p90_ms": len(latencies),
        "peak_rss_mb": len(done),
    }
    return metrics, samples, attempted, failed, []


def trace(workers: Workers, workload: str, seed: int, size: inputs.Size):
    """The same passes untraced, then traced; per-layer metrics from the spans."""
    spans, counts, walls = [], {}, {False: 0.0, True: 0.0}
    attempted, failed = 0, 0
    jobs = inputs.passes(workload, seed, size)
    for index in range(size.trace_passes[workload]):
        fields, _, count = next(jobs)
        for traced in (False, True):
            attempted += count
            r = workers.run(_job(workload, fields, trace=traced))
            if r is None:
                raise BenchError(f"{'traced' if traced else 'untraced'} pass {index} failed")
            walls[traced] += r["timed_s"]
            failed += r["failed"]
            for err in r["errors"]:
                print(f"{workload}: {err}", file=sys.stderr)
            if traced:
                offset = len(spans)
                spans += [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in r["spans"]]
                for key, value in r["counts"].items():
                    counts[key] = counts.get(key, 0) + value

    metrics = tracing.layer_metrics(spans, counts)
    overhead = walls[True] - walls[False]
    metrics.update({
        "trace.traced_wall_s": walls[True],
        "trace.untraced_wall_s": walls[False],
        "trace.overhead_s": overhead,
        "trace.spans": len(spans),
    })
    errors = tracing.nesting_errors(metrics, abs(overhead) + 1e-6)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": spans, "counts": counts}, fh)
    return metrics, {}, attempted, failed + len(errors), errors


def _print_table(workload, metrics, samples, units, attempted, failed) -> None:
    alias = ALIASES[workload]
    print(f"# {workload}")
    for name, value in metrics.items():
        label = alias.get(name, name)
        shown = f"{label} [{name}]" if label != name else name
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {shown:<44} {value:>16.6f} {units[name]:<6} {count}")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6f} {'1':<6} n={attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chswitch" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'chswitch'}", file=sys.stderr)
        return 1

    size = inputs.SIZES[args.size]
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    workers = Workers(RUN_BUDGET_S * len(names))
    results, total_attempted, total_failed, all_errors = {}, 0, 0, []
    try:
        for name in names:
            if args.trace:
                out = trace(workers, name, args.seed, size)
            else:
                out = measure(workers, name, args.seed, args.seconds, size)
            metrics, samples, attempted, failed, errors = out
            units = {m: E2E_UNITS.get(m) or tracing.unit_of(m) for m in metrics}
            _print_table(name, metrics, samples, units, attempted, failed)
            for err in errors:
                print(f"{name}: {err}", file=sys.stderr)
            prefix = f"{name}." if len(names) > 1 else ""
            for m, value in metrics.items():
                results[prefix + m] = {"value": value, "unit": units[m]}
            total_attempted += attempted
            total_failed += failed
            all_errors += errors
    except (BenchError, inputs.DuplicateInput) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = total_failed == 0 and not all_errors
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
