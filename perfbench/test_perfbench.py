"""Smoke tests of the benchmark itself, at tiny sizes; no timing is asserted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chswitch import promise, scs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = inputs.SIZES["smoke"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_end_to_end_schema(workload):
    metrics = result(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_benchmark_lists_its_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == inputs.WORKLOADS


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    metrics = result(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == units("per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    switch_side = [k for k in value if k.split(".")[0] in ("gates", "promise", "switch")]
    scs_side = [k for k in value if k.startswith("scs.")]
    if workload == "protocol_sweep":
        assert all(value[k] == 0 for k in scs_side)
        assert all(value[k] > 0 for k in switch_side)
    else:
        assert all(value[k] == 0 for k in switch_side)
        assert value["scs.scs_exact.calls"] > 0
    if workload == "census_exhaustive":
        assert value["scs.census.solve_ratio"] == 1.0
        assert value["cli.main.busy_s"] > value["scs.census.busy_s"] > value["scs.scs_exact.busy_s"]


def test_wrong_pinned_csv_fails_rows():
    job = {"argv": list(SMOKE.census_argv), "pinned": SMOKE.census_pinned}
    code, got = workloads.census_timed(job).outputs
    pinned = (workloads.PINNED_DIR / SMOKE.census_pinned).read_text()
    assert workloads.census_failures(code, got, pinned)[0] == 0
    wrong = pinned.replace("3,4,10,exhaustive,5,6,5.400000", "3,4,10,exhaustive,5,6,5.500000")
    assert wrong != pinned
    assert workloads.census_failures(code, got, wrong)[0] == 1
    assert workloads.census_failures(1, "", pinned)[0] == len(pinned.splitlines()) - 1


def test_corrupted_witness_fails():
    sets = next(inputs.solve_passes(5, SMOKE))
    results = [scs.scs_exact(combo) for combo in sets]
    assert workloads.solve_failures(sets, results, set(range(len(sets))))[0] == 0
    r = results[0]
    corruptions = [
        scs.ScsResult(r.length, r.witness[:-1]),  # length disagrees with witness
        scs.ScsResult(r.length, (0,) * r.length),  # not a supersequence
        scs.ScsResult(r.length + 1, r.witness + (0,)),  # valid but not minimal: oracle only
    ]
    for bad in corruptions:
        assert workloads.solve_failures(sets, [bad] + results[1:], {0})[0] == 1, bad


def test_duplicate_input_fails_the_run():
    keys = [("solve", frozenset(c)) for c in next(inputs.solve_passes(5, SMOKE))]
    inputs.check_distinct(keys, inputs.WARMUP_KEYS["solve_random"])
    with pytest.raises(inputs.DuplicateInput):
        inputs.check_distinct(keys + keys[:1], inputs.WARMUP_KEYS["solve_random"])
    with pytest.raises(inputs.DuplicateInput):
        inputs.check_distinct(keys, keys[0])


def test_inputs_are_seeded_and_distinct_across_passes():
    full = inputs.SIZES["full"]
    a, b = inputs.solve_passes(7, full), inputs.solve_passes(7, full)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    flat = [c for sets in first for c in sets]
    assert len(set(flat)) == len(flat)
    cols = inputs.column_keys(inputs.protocol_groups(7, 0, full))
    assert len(cols) == 686
    assert not set(cols) & set(inputs.column_keys(inputs.protocol_groups(7, 1, full)))


def test_tracer_restores_the_program():
    before = promise.product_in_order
    tracer = tracing.Tracer()
    tracer.install()
    assert promise.product_in_order is not before
    tracer.uninstall()
    assert promise.product_in_order is before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "solve_random", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
