"""Spans around calls into the program's public functions, kept in memory.

The program is not edited: :class:`Tracer` replaces each traced function,
in every ``chswitch`` module namespace that holds it, by a wrapper that
records a span (name, start, end, parent) and restores the originals on
:meth:`Tracer.uninstall`. Spans nest through the call stack, because the
program calls its own functions through the patched module globals.
:func:`layer_metrics` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

from stats import percentile

# span name -> the functions it covers, as (module, qualified name)
LAYERS = {
    "scs.scs_exact": [("chswitch.scs", "scs_exact")],
    "scs.census": [("chswitch.scs", "census")],
    "cli.main": [("chswitch.cli", "main")],
    "matrices.gen": [
        ("chswitch.matrices", "fourier"),
        ("chswitch.matrices", "f4_family"),
        ("chswitch.matrices", "sylvester_hadamard"),
    ],
    "matrices.validate_ch": [("chswitch.matrices", "validate_ch")],
    "matrices.classify_bh": [("chswitch.matrices", "classify_bh")],
    "matrices.to_complex": [("chswitch.matrices", "CHMatrix.to_complex")],
    "gates.product_in_order": [("chswitch.gates", "product_in_order")],
    "gates.phase_ratio": [("chswitch.gates", "phase_ratio")],
    "promise.build_gates": [
        ("chswitch.promise", "build_qudit_gates"),
        ("chswitch.promise", "build_cv_gates"),
        ("chswitch.promise", "build_minimal_ch4"),
    ],
    "promise.verify_promise": [("chswitch.promise", "verify_promise")],
    "switch.run_protocol": [("chswitch.switch", "run_protocol")],
    "switch.apply_switch": [("chswitch.switch", "apply_switch")],
}


def _count_flops(counts, args, kwargs, result):
    """Real flops of the dense products, computed from the shapes, not measured.

    A complex D x D product costs 8 D^3 real flops and an ordering of N
    gates takes N - 1 of them; displacement words cost none.
    """
    gates = args[0] if args else kwargs["gates"]
    if hasattr(gates[0], "dim"):  # a qudit gate; displacement words have no dimension
        counts["gates.product_in_order.flops_computed"] += 8 * (len(gates) - 1) * gates[0].dim ** 3


def _count_combos(counts, args, kwargs, result):
    counts["scs.census.combos"] += result.combos


COUNTERS = {"gates.product_in_order": _count_flops, "scs.census": _count_combos}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {"gates.product_in_order.flops_computed": 0, "scs.census.combos": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "chswitch"]
        for name, targets in LAYERS.items():
            for module, qualname in targets:
                owner = sys.modules[module]
                if "." in qualname:  # a method: patch it on its class only
                    cls_name, attr = qualname.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics from spans and counts (units as in BENCHMARK.json).

    ``busy_s`` sums the spans of a name that are not nested in a span of
    the same name; ``self_s`` is each span's duration minus the time its
    direct child spans cover (children never overlap: calls are nested).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    exact_us = []
    exact_in_census = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        ancestry = [spans[a][0] for a in _ancestors(spans, i)]
        if name not in ancestry:
            busy[name] += end - start
        self_time[name] += end - start - child_time[i]
        if name == "scs.scs_exact":
            exact_us.append((end - start) * 1e6)
            exact_in_census += "scs.census" in ancestry
    combos = counts.get("scs.census.combos", 0)
    return {
        "scs.scs_exact.calls": calls["scs.scs_exact"],
        "scs.scs_exact.busy_s": busy["scs.scs_exact"],
        "scs.scs_exact.p50_us": percentile(exact_us, 50) if exact_us else 0.0,
        "scs.scs_exact.p90_us": percentile(exact_us, 90) if exact_us else 0.0,
        "scs.census.calls": calls["scs.census"],
        "scs.census.busy_s": busy["scs.census"],
        "scs.census.self_s": self_time["scs.census"],
        "scs.census.solve_ratio": exact_in_census / combos if combos else 0.0,
        "cli.main.busy_s": busy["cli.main"],
        "cli.main.self_s": self_time["cli.main"],
        "matrices.gen.busy_s": busy["matrices.gen"],
        "matrices.validate_ch.busy_s": busy["matrices.validate_ch"],
        "matrices.classify_bh.calls": calls["matrices.classify_bh"],
        "matrices.classify_bh.busy_s": busy["matrices.classify_bh"],
        "matrices.to_complex.calls": calls["matrices.to_complex"],
        "matrices.to_complex.busy_s": busy["matrices.to_complex"],
        "gates.product_in_order.calls": calls["gates.product_in_order"],
        "gates.product_in_order.busy_s": busy["gates.product_in_order"],
        "gates.product_in_order.flops_computed": counts.get("gates.product_in_order.flops_computed", 0),
        "gates.phase_ratio.calls": calls["gates.phase_ratio"],
        "gates.phase_ratio.busy_s": busy["gates.phase_ratio"],
        "promise.build_gates.calls": calls["promise.build_gates"],
        "promise.build_gates.busy_s": busy["promise.build_gates"],
        "promise.verify_promise.busy_s": busy["promise.verify_promise"],
        "promise.verify_promise.self_s": self_time["promise.verify_promise"],
        "switch.run_protocol.calls": calls["switch.run_protocol"],
        "switch.run_protocol.busy_s": busy["switch.run_protocol"],
        "switch.run_protocol.self_s": self_time["switch.run_protocol"],
        "switch.apply_switch.busy_s": busy["switch.apply_switch"],
    }


def nesting_errors(m: dict[str, float], tolerance_s: float) -> list[str]:
    """Self-check of the census nesting: cli.main > scs.census > scs.scs_exact.

    Each parent's busy time must equal its self time plus its child
    layer's busy time; a gap means another traced layer sits in between,
    or a child ran outside its parent.
    """
    errors = []
    for parent, child in (("cli.main", "scs.census"), ("scs.census", "scs.scs_exact")):
        if not m[f"{parent}.busy_s"]:
            continue
        gap = m[f"{parent}.busy_s"] - m[f"{parent}.self_s"] - m[f"{child}.busy_s"]
        if abs(gap) > tolerance_s:
            errors.append(f"{parent}.busy_s - {parent}.self_s - {child}.busy_s = {gap:.6f} s "
                          f"exceeds the tracing overhead {tolerance_s:.6f} s")
    return errors


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops_computed"):
        return "flop"
    if name.endswith("_ratio"):
        return "ratio"
    raise KeyError(f"no unit for metric {name!r}")
