"""Per-layer metrics of a traced run.

Times and counts are means per traced op (per call for the
``eval.<kind>_ms`` and ``serve.<class>_ms`` latencies); ratios are over
the whole traced run.  A workload reports 0 for a layer its ops never
enter.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from .tracer import END, NAME, OP, OP_ID, START, Tracer

#: every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("parse.calls", "count"), ("parse.busy_ms", "ms"),
    ("compile.calls", "count"), ("compile.busy_ms", "ms"),
    ("compile.decisions", "count"), ("compile.propagations", "count"),
    ("compile.clause_visits", "count"), ("compile.cache_hits", "count"),
    ("compile.component_splits", "count"),
    ("lower.busy_ms", "ms"),
    ("store.write_ms", "ms"), ("store.write_bytes", "B"),
    ("store.read_ms", "ms"), ("store.mmap_hit_ratio", "ratio"),
    ("store.cert_hits", "count"), ("store.misses", "count"),
    ("store.corrupt", "count"),
    ("kernel.build_ms", "ms"), ("codegen.first_touch_ms", "ms"),
    ("codegen.compiles", "count"), ("codegen.source_hit_ratio", "ratio"),
    ("codegen.fallbacks", "count"),
    ("eval.count_ms", "ms"), ("eval.wmc_ms", "ms"),
    ("eval.wmc_batch_ms", "ms"), ("eval.mpe_ms", "ms"),
    ("eval.marginals_ms", "ms"), ("eval.batch_rows", "rows"),
    ("proof.compile_ms", "ms"), ("proof.check_ms", "ms"),
    ("proof.steps", "count"), ("proof.proved_ratio", "ratio"),
    ("limits.bounds_ms", "ms"), ("limits.decisions", "count"),
    ("facade.unattributed_ms", "ms"),
    ("serve.query_ms", "ms"), ("serve.dup_compile_ms", "ms"),
    ("serve.cold_compile_ms", "ms"), ("serve.bounds_ms", "ms"),
    ("serve.overhead_ms", "ms"), ("serve.cached_ratio", "ratio"),
    ("serve.rejected", "count"), ("serve.errors", "count"),
    ("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio"),
)

EVAL_KINDS = ("count", "wmc", "wmc_batch", "mpe", "marginals")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead_ratio(latencies: Iterable[Tuple[bool, str, float]]) -> float:
    """Median latency of the traced ops over that of the untraced ops
    of the same run, per op class (the coin picks both halves from one
    mix), combined as a geometric mean weighted by class size."""
    halves: Dict[str, Tuple[List[float], List[float]]] = defaultdict(
        lambda: ([], []))
    for was_traced, kind, latency in latencies:
        halves[kind][0 if was_traced else 1].append(latency)
    logs = weight = 0.0
    for traced, plain in halves.values():
        if traced and plain:
            size = len(traced) + len(plain)
            logs += size * math.log(statistics.median(traced) /
                                    statistics.median(plain))
            weight += size
    return math.exp(logs / weight) if weight else 0.0


def coverage_p1(tracer: Tracer) -> float:
    """The span coverage that 99% of traced ops reach or beat: robust
    to the rare op whose glue a garbage-collector pause lands in."""
    shares = tracer.coverages()
    return shares[len(shares) // 100] if shares else 0.0


def _first_touch_ms(tracer: Tracer) -> float:
    """Per op: the first query on a fresh kernel minus the op's later
    query of the same forward pass on the now-compiled kernel."""
    per_op: Dict[int, Dict[str, float]] = defaultdict(dict)
    for span in tracer.spans:
        if span[NAME] in ("codegen.first_touch", "eval.wmc"):
            per_op[span[OP_ID]][span[NAME]] = span[END] - span[START]
    gaps = [max(0.0, d["codegen.first_touch"] - d.get("eval.wmc", 0.0))
            for d in per_op.values() if "codegen.first_touch" in d]
    return 1e3 * sum(gaps) / len(gaps) if gaps else 0.0


def span_layers(tracer: Tracer,
                latencies: Sequence[Tuple[bool, str, float]]
                ) -> Dict[str, float]:
    """Per-layer metrics of in-process ops traced call by call."""
    ops = tracer.calls().get(OP, 0)
    own = tracer.self_times()
    total = tracer.totals()
    calls = tracer.calls()
    counters = tracer.counters

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def busy_ms(name: str) -> float:
        return 1e3 * per_op(own.get(name, 0.0))

    out: Dict[str, float] = {
        "parse.calls": per_op(calls.get("parse", 0)),
        "parse.busy_ms": busy_ms("parse"),
        "compile.calls": per_op(calls.get("compile", 0)),
        "compile.busy_ms": busy_ms("compile"),
        "lower.busy_ms": busy_ms("lower"),
        "store.write_ms": busy_ms("store.write"),
        "store.write_bytes": per_op(counters["store.write_bytes"]),
        "store.read_ms": busy_ms("store.read"),
        "store.mmap_hit_ratio": _ratio(
            counters["store.artifact_mmap_hits"],
            counters["store.artifact_hits"]),
        "store.cert_hits": per_op(counters["store.artifact_cert_hits"]),
        "store.misses": per_op(counters["store.artifact_misses"]),
        "store.corrupt": per_op(counters["store.artifact_corrupt"]),
        "kernel.build_ms": busy_ms("kernel.build"),
        "codegen.first_touch_ms": _first_touch_ms(tracer),
        "codegen.compiles": per_op(counters["codegen_compiles"]),
        "codegen.source_hit_ratio": _ratio(
            counters["codegen_source_hits"], counters["codegen_compiles"]),
        "codegen.fallbacks": per_op(counters["codegen_fallbacks"]),
        "eval.batch_rows": _ratio(counters["eval.batch_rows"],
                                  calls.get("eval.wmc_batch", 0)),
        "facade.unattributed_ms": busy_ms(OP),
        "trace.coverage": coverage_p1(tracer),
        "trace.overhead_ratio": overhead_ratio(latencies),
    }
    for name in ("decisions", "propagations", "clause_visits",
                 "cache_hits", "component_splits"):
        out["compile." + name] = per_op(counters["compile." + name])
    for kind in EVAL_KINDS:
        span = "eval." + kind
        out[span + "_ms"] = 1e3 * _ratio(total.get(span, 0.0),
                                         calls.get(span, 0))
    return out


def complete(metrics: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; 0 where not measured."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
