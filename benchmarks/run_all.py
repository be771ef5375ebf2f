"""Benchmark driver: figures, engine speed scenarios, regression gate.

Runs every ``bench_*.py`` figure reproduction (each as a pytest
subprocess, timed), then the engine speed scenarios.  Paths that
``perfbench`` already times end to end (compilation, warm store
loads, certification, serving) have no scenario here.  The search
scenario times the one component search (:mod:`repro.sat.search`) in
absolute seconds; the others measure each optimised path *paired* in
one process against its baseline:

* ``sharp_sat`` — exact #SAT on a random 3-CNF (``ModelCounter``),
  checked against counting on the compiled circuit;
* ``batched_wmc`` — many weighted model counts on one compiled
  circuit answered by **one** batched numpy pass
  (``weighted_model_count_batch``) vs the scalar kernel loop;
* ``batched_marginals`` — per-evidence posterior marginals through
  ``WmcPipeline.marginals_batch`` vs the scalar ``marginals`` loop;
* ``psdd_marginals`` — all-variable PSDD marginals by the single
  upward+downward pass vs one kernel ``marginal`` per variable;
* ``classifier_scoring`` — scoring a dataset through the batched
  classifier paths (binarized net + random forest) vs the per-instance
  Python loops;
* ``anytime_bounds`` — the anytime counter (:mod:`repro.limits`):
  certified lower/upper bounds under growing node budgets, recording
  the bounds-quality-vs-budget curve and checking every interval
  brackets the exact count;
* ``codegen_kernel`` — scalar WMC / #SAT through the per-circuit
  levelized numpy evaluator (:mod:`repro.ir.codegen`) vs the
  interpreted kernel loops on one large compiled circuit;
* ``minimize`` — the certified pass pipeline on Tseitin-heavy
  circuits: node reduction, and repeated WMC on the optimized vs the
  unoptimized circuit;
* ``proof_overhead`` — proof-logged compilation
  (``DnnfCompiler(proof=True)``): the same CNFs compiled with and
  without equivalence-trace emission (the acceptance gate wants the
  overhead within 2×), plus the independent checker's replay
  throughput; every trace must come back ``PROVED`` with the exact
  model count;
* ``explain_throughput`` — sufficient-reason enumeration on compiled
  Decision-DNNF (:mod:`repro.explain.implicants`: reasons/sec and
  median inter-reason delay) plus dataset-scale sufficiency
  verification: the two-pass batched kernel check vs one scalar
  ``wmc`` per term.

Every scenario runs under a per-scenario wall-clock budget
(``--scenario-timeout``, ambient :class:`repro.limits.Budget` scope):
a hung scenario fails with ``BudgetExceeded`` and is recorded as a
failure instead of stalling the driver; figure subprocesses get the
same bound via ``subprocess`` timeouts.

Each scenario records wall times (and, when it has a baseline, the
speedup), the operation counters of the optimised engine, and an
agreement check of its result against an independent one.
Everything is serialised to ``BENCH_<timestamp>.json``; if an earlier
``BENCH_*.json`` exists, the run is compared against the most
recent one and slowdowns beyond the noise threshold are flagged as
regressions.  Regressions make the driver exit non-zero (status 2), so
the gate is scriptable; ``--advisory`` restores the warn-only
behaviour for noisy shared machines.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--quick]
        [--skip-figures] [--output-dir DIR] [--advisory]
        [--scenario-timeout SECONDS]

``--quick`` shrinks the scenario instances (and is what the
``tier2_bench``-marked smoke test runs); the committed baseline should
come from a full run.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import random
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.compile.dnnf_compiler import DnnfCompiler  # noqa: E402
from repro.limits import Budget, BudgetExceeded  # noqa: E402
from repro.logic.cnf import Cnf  # noqa: E402
from repro.nnf import queries  # noqa: E402
from repro.sat.counter import ModelCounter  # noqa: E402

SCHEMA = "repro-bench/1"
# wall-time ratio above which a comparison counts as a regression
NOISE_THRESHOLD = 1.25

# scenarios faster than this (seconds) on both sides are below the
# scheduler-noise floor: a few ms of jitter trips any ratio gate, so
# the comparison only judges timings with signal in them
MIN_GATE_SECONDS = 0.05


def random_3cnf(n: int, m: int, seed: int) -> Cnf:
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v * rng.choice([1, -1]) for v in vs))
    return Cnf(clauses, num_vars=n)


# -- figure benchmarks ---------------------------------------------------------
def run_figures(quick: bool, timeout: float | None = None):
    """Run every bench_*.py as its own pytest process, timed.

    ``timeout`` bounds each subprocess; a figure that exceeds it is
    killed and recorded as failed (not hung).
    """
    results = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    files = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))
    for path in files:
        name = os.path.basename(path)
        start = time.perf_counter()
        timed_out = False
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", path, "-q",
                 "--no-header"],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                timeout=timeout)
            passed = proc.returncode == 0
        except subprocess.TimeoutExpired:
            proc, passed, timed_out = None, False, True
        elapsed = time.perf_counter() - start
        results.append({
            "file": name,
            "seconds": round(elapsed, 3),
            "passed": passed,
            "timed_out": timed_out,
        })
        status = "ok" if passed else ("TIMEOUT" if timed_out else "FAIL")
        print(f"  figure {name:45s} {elapsed:7.2f}s  {status}")
        if proc is not None and proc.returncode != 0:
            print(proc.stdout[-2000:])
    return results


# -- engine speed scenarios ----------------------------------------------------
def scenario_sharp_sat(quick: bool):
    """#SAT on a random 3-CNF (n>=60 in the full run), checked against
    counting on the compiled circuit."""
    n, m, seed = (50, 130, 42) if quick else (60, 150, 42)
    cnf = random_3cnf(n, m, seed)
    counter = ModelCounter()
    start = time.perf_counter()
    count = counter.count(cnf)
    end = time.perf_counter()
    root = DnnfCompiler(store=None).compile(cnf)
    return {
        "instance": {"n": n, "m": m, "seed": seed, "count": count},
        "optimized_s": round(end - start, 4),
        "agree": count == queries.model_count(root, range(1, n + 1)),
        "counters": {"optimized": counter.stats.as_dict()},
    }


def scenario_batched_wmc(quick: bool):
    """K weighted model counts: one numpy batch vs the scalar kernel loop."""
    import numpy as np
    n, m, seed = (45, 110, 9)
    vectors = 40 if quick else 200
    cnf = random_3cnf(n, m, seed)
    root = DnnfCompiler().compile(cnf)
    rng = random.Random(1)
    weight_vectors = []
    for _ in range(vectors):
        weights = {}
        for v in range(1, n + 1):
            p = rng.random()
            weights[v], weights[-v] = p, 1.0 - p
        weight_vectors.append(weights)
    from repro.perf import Counter
    stats = Counter()
    queries.weighted_model_count(root, weight_vectors[0])  # build kernel
    start = time.perf_counter()
    batched = queries.weighted_model_count_batch(root, weight_vectors,
                                                 stats=stats)
    mid = time.perf_counter()
    scalar = [queries.weighted_model_count(root, w)
              for w in weight_vectors]
    end = time.perf_counter()
    agree = bool(np.allclose(batched, scalar, rtol=1e-9))
    return {
        "instance": {"n": n, "m": m, "seed": seed, "vectors": vectors,
                     "circuit_nodes": root.node_count()},
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3),
        "agree": agree,
        "counters": {"optimized": stats.as_dict()},
    }


def scenario_batched_marginals(quick: bool):
    """Per-evidence posterior marginals: marginals_batch vs scalar loop."""
    from repro.bayesnet.examples import random_network
    from repro.wmc.pipeline import WmcPipeline
    num_vars = 10 if quick else 12
    vectors = 20 if quick else 200
    network = random_network(num_vars, rng=random.Random(12))
    pipeline = WmcPipeline(network)
    rng = random.Random(3)
    names = network.variables
    evidence = []
    for _ in range(vectors):
        chosen = rng.sample(names, rng.randint(1, 3))
        evidence.append({name: rng.randint(0, 1) for name in chosen})
    pipeline.marginals(evidence[0])  # build the AC + kernel untimed
    start = time.perf_counter()
    batched = pipeline.marginals_batch(evidence)
    mid = time.perf_counter()
    scalar = [pipeline.marginals(e) for e in evidence]
    end = time.perf_counter()
    agree = all(
        abs(batched[j][name][state] - scalar[j][name][state]) <= 1e-9
        for j in range(vectors)
        for name in scalar[j]
        for state in scalar[j][name])
    return {
        "instance": {"num_vars": num_vars, "vectors": vectors,
                     "circuit_nodes": pipeline.circuit.node_count()},
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3),
        "agree": agree,
        "counters": {},
    }


def scenario_psdd_marginals(quick: bool):
    """All-variable PSDD marginals: one derivative pass vs |vars|
    kernel evaluations of ``marginal`` (one per variable)."""
    from repro.psdd import psdd_from_sdd
    from repro.psdd.queries import marginal, variable_marginals
    from repro.sdd import compile_cnf_sdd
    n, m, seed = (12, 22, 4) if quick else (16, 30, 4)
    repeats = 5 if quick else 20
    cnf = random_3cnf(n, m, seed)
    sdd, _manager = compile_cnf_sdd(cnf)
    psdd = psdd_from_sdd(sdd)
    marginal(psdd, {})  # lower the PSDD and build its kernel untimed
    start = time.perf_counter()
    for _ in range(repeats):
        new = variable_marginals(psdd)
    mid = time.perf_counter()
    for _ in range(repeats):
        old = {v: marginal(psdd, {v: True})
               for v in sorted(psdd.variables())}
    end = time.perf_counter()
    agree = set(new) == set(old) and \
        all(abs(new[v] - old[v]) <= 1e-9 for v in new)
    return {
        "instance": {"n": n, "m": m, "seed": seed, "repeats": repeats,
                     "psdd_size": psdd.size()},
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3),
        "agree": agree,
        "counters": {},
    }


def scenario_classifier_scoring(quick: bool):
    """Dataset scoring: batched classifier passes vs per-instance loops."""
    import numpy as np
    from repro.classifiers import BinarizedNeuralNetwork, RandomForest
    count = 400 if quick else 2000
    rng = random.Random(7)
    num_features = 25
    features = list(range(1, num_features + 1))
    instances = [{v: rng.random() < 0.5 for v in features}
                 for _ in range(count)]
    labels = [sum(x.values()) >= num_features // 2 for x in instances]
    net = BinarizedNeuralNetwork(
        [[[rng.choice((-1, 1)) for _ in features] for _ in range(8)],
         [[rng.choice((-1, 1)) for _ in range(8)]]],
        [[rng.randint(0, 12) - 0.5 for _ in range(8)],
         [rng.randint(0, 4) - 0.5]], features)
    forest = RandomForest.fit(instances[:200], labels[:200],
                              num_trees=7, rng=random.Random(5))
    start = time.perf_counter()
    net_batch = net.forward_batch(instances)
    forest_batch = forest.decide_batch(instances)
    mid = time.perf_counter()
    net_loop = [net.forward(x) for x in instances]
    forest_loop = [forest.decide(x) for x in instances]
    end = time.perf_counter()
    agree = list(net_batch) == net_loop and \
        list(forest_batch) == forest_loop
    return {
        "instance": {"instances": count, "features": num_features,
                     "forest_trees": len(forest.trees)},
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3),
        "agree": agree,
        "counters": {},
    }


def scenario_anytime_bounds(quick: bool):
    """Bounds-quality-vs-budget curve of the anytime counter: certified
    (lower, upper) intervals under growing node budgets, every one
    checked against the exact count; the unbudgeted anytime run must
    come back exact and is timed against ModelCounter."""
    from repro.limits import anytime_count
    n, m, seed = (30, 78, 21) if quick else (40, 104, 21)
    cnf = random_3cnf(n, m, seed)
    counter = ModelCounter()
    start = time.perf_counter()
    exact = counter.count(cnf)
    mid = time.perf_counter()
    full = anytime_count(cnf)
    sound = full.exact and full.lower == exact
    curve = []
    for cap in (1, 4, 16, 64, 256, 1024):
        result = anytime_count(cnf, Budget(max_nodes=cap))
        sound = sound and result.lower <= exact <= result.upper
        curve.append({
            "max_nodes": cap,
            "lower": result.lower,
            "upper": result.upper,
            "exact": result.exact,
            # interval width as a fraction of the trivial 2^n interval:
            # 1.0 means the budget bought nothing, 0.0 a point answer
            "width_fraction": round(
                float(result.upper - result.lower) / float(1 << n), 6),
            "elapsed_s": round(result.elapsed_s, 5),
        })
    return {
        "instance": {"n": n, "m": m, "seed": seed, "count": exact},
        "optimized_s": round(full.elapsed_s, 4),
        "legacy_s": round(mid - start, 4),
        "speedup": round((mid - start) / max(full.elapsed_s, 1e-9), 3),
        "agree": sound,
        "curve": curve,
        "counters": {"optimized": {"decisions": full.decisions}},
    }


def scenario_codegen_kernel(quick: bool):
    """Scalar WMC / #SAT through the levelized-evaluator backend
    (:mod:`repro.ir.codegen`) vs the interpreted kernel loops, on one
    large compiled circuit.  The plan is built once, untimed (it is
    cached on the kernel); the timed region is pure evaluation.  52
    variables keeps exact #SAT inside the float64 passes'
    exact-integer range (2^52)."""
    n, m, seed = (52, 128, 2)
    reps = 5 if quick else 25
    cnf = random_3cnf(n, m, seed)
    root = DnnfCompiler().compile(cnf)
    from repro.nnf.queries import get_kernel
    kernel = get_kernel(root)
    rng = random.Random(1)
    weight_vectors = []
    for _ in range(reps):
        weights = {}
        for v in range(1, n + 1):
            p = rng.random()
            weights[v], weights[-v] = p, 1.0 - p
        weight_vectors.append(weights)
    saved_backend = os.environ.get("REPRO_BACKEND")
    try:
        os.environ["REPRO_BACKEND"] = "codegen"
        kernel.wmc(weight_vectors[0])  # warm: build the plan
        start = time.perf_counter()
        codegen_values = [kernel.wmc(w) for w in weight_vectors]
        for _ in range(reps):
            kernel._model_count = None  # defeat the memo: time the pass
            codegen_count = kernel.model_count()
        mid = time.perf_counter()
        codegen_stats = kernel._codegen.stats.as_dict()
        os.environ["REPRO_BACKEND"] = "interp"
        interp_values = [kernel.wmc(w) for w in weight_vectors]
        for _ in range(reps):
            kernel._model_count = None
            interp_count = kernel.model_count()
        end = time.perf_counter()
    finally:
        if saved_backend is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = saved_backend
    agree = codegen_count == interp_count and all(
        abs(a - b) <= 1e-9 * max(1.0, abs(b))
        for a, b in zip(codegen_values, interp_values))
    return {
        "instance": {"n": n, "m": m, "seed": seed, "reps": reps,
                     "circuit_nodes": kernel.n,
                     "count": codegen_count},
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3),
        "agree": agree,
        "counters": {"optimized": codegen_stats},
    }


def scenario_minimize(quick: bool):
    """The certified optimization pass pipeline on Tseitin-heavy CNFs.

    Random nested formulas are Tseitin-encoded (half the variables are
    auxiliaries), compiled to Decision-DNNF, then pushed through the
    default pass pipeline (const-fold, CSE, Tseitin-auxiliary
    pruning).  Columns: node count before/after (the acceptance gate
    wants >= 30% reduction), repeated-WMC query time on the optimized
    vs the unoptimized circuit (deleted nodes are free speed — query
    cost is linear in circuit size), the one-off pipeline cost, and
    ``agree`` checking the 2^k-corrected counts and WMC against the
    unoptimized circuit on every instance.
    """
    from repro.ir import facade
    from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
    from repro.ir.kernel import ir_kernel
    from repro.ir.lower import nnf_to_ir
    from repro.ir.passes import PassManager
    from repro.logic.formula import And, Iff, Lit, Not, Or
    from repro.logic.tseitin import tseitin

    instances = 6 if quick else 12
    depth = 4 if quick else 5
    num_vars = 8 if quick else 10
    vectors = 40 if quick else 150
    rng = random.Random(29)

    def formula(d):
        if d == 0 or rng.random() < 0.25:
            lit = Lit(rng.randint(1, num_vars))
            return Not(lit) if rng.random() < 0.5 else lit
        op = rng.choice([And, Or, Iff])
        if op is Iff:
            return Iff(formula(d - 1), formula(d - 1))
        return op(*[formula(d - 1) for _ in range(rng.randint(2, 3))])

    pairs = []  # (base ir, optimized result, aux count)
    optimize_cost = 0.0
    agree = True
    nodes_before = nodes_after = 0
    for _ in range(instances):
        cnf, _root = tseitin(formula(depth), num_vars=num_vars)
        root = DnnfCompiler(store=None).compile(cnf)
        ir = nnf_to_ir(root,
                       flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
        start = time.perf_counter()
        result = PassManager(aux_vars=cnf.aux_vars).run(ir)
        optimize_cost += time.perf_counter() - start
        nodes_before += result.before_nodes
        nodes_after += result.after_nodes
        base_count = facade.query_ir(
            ir, "count", num_vars=cnf.num_vars)["result"]
        opt_count = facade.query_ir(
            result.ir, "count", num_vars=cnf.num_vars,
            forgotten=result.forgotten)["result"]
        agree = agree and base_count == opt_count
        pairs.append((ir, result, cnf))

    def weight_vector(n, seed):
        vrng = random.Random(seed)
        weights = {}
        for v in range(1, n + 1):
            weights[v] = vrng.uniform(0.2, 1.0)
            weights[-v] = vrng.uniform(0.2, 1.0)
        return weights

    # repeated WMC: the query-many side of pay-once economics — the
    # same weight vectors on the optimized vs the unoptimized circuit
    batches = [
        (ir, result, [weight_vector(cnf.num_vars, i)
                      for i in range(vectors)])
        for ir, result, cnf in pairs]
    start = time.perf_counter()
    opt_values = []
    for ir, result, vecs in batches:
        kernel = ir_kernel(result.ir)
        for weights in vecs:
            opt_values.append(kernel.wmc(weights))
    mid = time.perf_counter()
    base_values = []
    for ir, result, vecs in batches:
        kernel = ir_kernel(ir)
        for weights in vecs:
            base_values.append(kernel.wmc(weights))
    end = time.perf_counter()
    # aux weights are not 1.0 in the timing vectors, so those WMCs are
    # not comparable across base/optimized; spot-check agreement with
    # unit auxiliary weights on the first instance instead
    ir0, result0, cnf0 = pairs[0]
    aux0 = set(cnf0.aux_vars)
    wrng = random.Random(97)
    w0 = {}
    for v in range(1, cnf0.num_vars + 1):
        if v in aux0:
            w0[v] = w0[-v] = 1.0
        else:
            w0[v] = wrng.uniform(0.2, 1.0)
            w0[-v] = wrng.uniform(0.2, 1.0)
    base_wmc = facade.query_ir(ir0, "wmc", weights=w0,
                               num_vars=cnf0.num_vars)["result"]
    opt_wmc = facade.query_ir(result0.ir, "wmc", weights=w0,
                              num_vars=cnf0.num_vars,
                              forgotten=result0.forgotten)["result"]
    agree = agree and abs(base_wmc - opt_wmc) <= 1e-9 * max(
        1.0, abs(base_wmc))

    node_reduction = (1.0 - nodes_after / nodes_before) \
        if nodes_before else 0.0
    return {
        "instance": {"instances": instances, "depth": depth,
                     "num_vars": num_vars, "vectors": vectors,
                     "aux_vars": sum(len(c.aux_vars)
                                     for _, _, c in pairs)},
        "nodes_before": nodes_before,
        "nodes_after": nodes_after,
        "node_reduction": round(node_reduction, 4),
        "optimize_cost_s": round(optimize_cost, 4),
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3)
        if (mid - start) else 0.0,
        "agree": agree,
        "counters": {
            "forgotten": sum(len(r.forgotten) for _, r, _ in pairs),
            "pipelines_changed": sum(1 for _, r, _ in pairs
                                     if r.changed),
        },
    }


def scenario_proof_overhead(quick: bool):
    """Proof-logged compilation vs plain compilation, plus checker
    replay.  Three instances are summed to keep single-run jitter out
    of the overhead ratio; ``optimized_s`` is the proof-logged side
    (the new feature under measurement), ``legacy_s`` the plain
    compile, so ``speedup`` < 1 *is* the emission overhead.  Each
    compiler first compiles a fourth instance untimed, and the timed
    compiles alternate plain and proof-logged per instance, so neither
    side alone pays the process's first compile.  ``agree`` demands
    every trace replays to ``PROVED`` with the exact model count and
    the summed overhead stays within the 2× acceptance bound.
    ``counters`` sum the three timed compiles on each side, as
    ``trace_lines`` does (a compile clears its compiler's ``stats``)."""
    from repro.perf import Counter
    from repro.proof import check_proof
    n, m = (35, 84) if quick else (45, 110)
    seeds = (11, 12, 13)
    instances = [random_3cnf(n, m, seed) for seed in seeds]
    full = range(1, n + 1)

    plain = DnnfCompiler(store=None)
    logged = DnnfCompiler(store=None, proof=True)
    warm_up = random_3cnf(n, m, 10)
    plain.compile(warm_up)
    logged.compile(warm_up)
    plain_s = proof_s = 0.0
    plain_counts, logged_counts, traces = [], [], []
    plain_stats, logged_stats = Counter(), Counter()
    for cnf in instances:
        tick = time.perf_counter()
        root = plain.compile(cnf)
        plain_s += time.perf_counter() - tick
        plain_stats.merge(plain.stats)
        plain_counts.append(queries.model_count(root, full))
        tick = time.perf_counter()
        root = logged.compile(cnf)
        proof_s += time.perf_counter() - tick
        logged_stats.merge(logged.stats)
        logged_counts.append(queries.model_count(root, full))
        traces.append(logged.last_proof)

    check_start = time.perf_counter()
    results = [check_proof(cnf.to_dimacs(), trace)
               for cnf, trace in zip(instances, traces)]
    check_s = time.perf_counter() - check_start

    overhead = proof_s / max(plain_s, 1e-9)
    steps = sum(result.steps for result in results)
    agree = (all(result.verdict == "PROVED" for result in results)
             and [result.model_count for result in results]
             == plain_counts == logged_counts
             and overhead <= 2.0)
    return {
        "instance": {"n": n, "m": m, "seeds": list(seeds),
                     "trace_lines": sum(t.count("\n") for t in traces)},
        "optimized_s": round(proof_s, 4),
        "legacy_s": round(plain_s, 4),
        "speedup": round(plain_s / max(proof_s, 1e-9), 3),
        "overhead_ratio": round(overhead, 3),
        "check_s": round(check_s, 4),
        "checker_steps_per_s": round(steps / max(check_s, 1e-9), 1),
        "agree": agree,
        "counters": {"optimized": logged_stats.as_dict(),
                     "legacy": plain_stats.as_dict()},
    }


def scenario_explain_throughput(quick: bool):
    """Sufficient-reason enumeration plus dataset-scale verification.

    Random 3-CNFs compile to Decision-DNNF; satisfying instances are
    discovered with one ``evaluate_batch`` sweep per circuit; the
    prime-implicant enumerator (:mod:`repro.explain.implicants`)
    lists every sufficient reason of every decision, timing the
    inter-reason delay.  The enumerated reasons — plus their
    one-literal-short strict subsets, which minimality says must all
    be refuted — are then verified as one dataset: optimized is the
    two-pass batched sufficiency check (``evaluate_batch`` +
    0/1-weight ``wmc_batch``), legacy is the same check one scalar
    ``kernel.wmc`` at a time.  Extra columns: ``reasons_per_s``
    (enumeration throughput) and ``p50_delay_ms`` (median delay
    between consecutive reasons).  ``agree`` wants batch == scalar,
    every reason confirmed sufficient, every strict subset refuted.
    """
    import numpy as np

    from repro.analyze.gate import gate_scope
    from repro.explain.implicants import (check_sufficient_batch,
                                          iter_sufficient_reasons)
    from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
    from repro.ir.kernel import ir_kernel
    from repro.ir.lower import nnf_to_ir
    from repro.perf.instrument import Counter

    # few circuits, many decisions each: the verification batch is
    # per circuit, so width (rows per batch) is what the numpy route
    # gets paid for
    circuits = 3 if quick else 5
    n, clause_ratio = (10, 2.4) if quick else (13, 2.3)
    per_circuit = 16 if quick else 56
    samples = 512 if quick else 2048
    rng = random.Random(61)
    stats = Counter()

    jobs = []  # (ir, kernel, mentioned, instance)
    for i in range(circuits):
        cnf = random_3cnf(n, int(n * clause_ratio), seed=1000 + i)
        root = DnnfCompiler(store=None).compile(cnf)
        ir = nnf_to_ir(root,
                       flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
        kernel = ir_kernel(ir)
        mentioned = sorted(kernel.varsets[kernel.n - 1]) \
            if kernel.n else []
        if not mentioned:
            continue
        assignment = {
            v: np.array([rng.random() < 0.5 for _ in range(samples)])
            for v in mentioned}
        sat = kernel.evaluate_batch(assignment)
        picked = 0
        for j in range(samples):
            if picked >= per_circuit:
                break
            if bool(sat[j]):
                jobs.append((ir, kernel, mentioned,
                             {v: bool(assignment[v][j])
                              for v in mentioned}))
                picked += 1

    # enumeration: every reason of every decision, delays recorded
    delays = []
    dataset = {}  # id(ir) -> (ir, kernel, mentioned, rows)
    total_reasons = 0
    enum_start = time.perf_counter()
    for ir, kernel, mentioned, inst in jobs:
        rows = dataset.setdefault(
            id(ir), (ir, kernel, mentioned, []))[3]
        last = time.perf_counter()
        for reason in iter_sufficient_reasons(ir, inst, stats=stats):
            now = time.perf_counter()
            delays.append(now - last)
            last = now
            total_reasons += 1
            term = sorted(reason, key=abs)
            rows.append((inst, term, True))
            if term:
                # a strict subset of a subset-minimal implicant can
                # never be an implicant
                rows.append((inst, term[1:], False))
    enum_elapsed = time.perf_counter() - enum_start

    def scalar_check(kernel, mentioned, inst, term):
        term_set = set(term)
        decision = kernel.evaluate({v: inst[v] for v in mentioned})
        weights = {}
        for v in mentioned:
            weights[v] = 0.0 if -v in term_set else 1.0
            weights[-v] = 0.0 if v in term_set else 1.0
        with gate_scope("repair"):
            count = kernel.wmc(weights)
        free = sum(1 for v in mentioned
                   if v not in term_set and -v not in term_set)
        return count == (float(2 ** free) if decision else 0.0)

    start = time.perf_counter()
    batch_verdicts = []
    for ir, _kernel, _mentioned, rows in dataset.values():
        batch_verdicts.extend(check_sufficient_batch(
            ir, [inst for inst, _t, _e in rows],
            [term for _i, term, _e in rows], stats=stats))
    mid = time.perf_counter()
    scalar_verdicts = []
    for _ir, kernel, mentioned, rows in dataset.values():
        for inst, term, _expected in rows:
            scalar_verdicts.append(
                scalar_check(kernel, mentioned, inst, term))
    end = time.perf_counter()

    expected = [e for _i, _t, e in
                (row for _, _, _, rows in dataset.values()
                 for row in rows)]
    agree = batch_verdicts == scalar_verdicts == expected
    delays_ms = sorted(d * 1000.0 for d in delays)
    p50_delay_ms = delays_ms[len(delays_ms) // 2] if delays_ms else 0.0
    return {
        "instance": {"circuits": circuits, "num_vars": n,
                     "decisions": len(jobs),
                     "checks": len(batch_verdicts)},
        "reasons": total_reasons,
        "reasons_per_s": round(total_reasons /
                               max(enum_elapsed, 1e-9), 2),
        "p50_delay_ms": round(p50_delay_ms, 4),
        "optimized_s": round(mid - start, 4),
        "legacy_s": round(end - mid, 4),
        "speedup": round((end - mid) / (mid - start), 3)
        if (mid - start) else 0.0,
        "agree": agree,
        "counters": {
            "explain_probes": int(stats["explain_probes"]),
            "explain_evals": int(stats["explain_evals"]),
        },
    }


SCENARIOS = {
    "sharp_sat": scenario_sharp_sat,
    "batched_wmc": scenario_batched_wmc,
    "batched_marginals": scenario_batched_marginals,
    "psdd_marginals": scenario_psdd_marginals,
    "classifier_scoring": scenario_classifier_scoring,
    "anytime_bounds": scenario_anytime_bounds,
    "codegen_kernel": scenario_codegen_kernel,
    "minimize": scenario_minimize,
    "proof_overhead": scenario_proof_overhead,
    "explain_throughput": scenario_explain_throughput,
}


# -- comparison against the previous baseline ----------------------------------
def previous_baseline(output_dir: str, current: str):
    paths = [p for p in sorted(glob.glob(os.path.join(output_dir,
                                                      "BENCH_*.json")))
             if os.path.abspath(p) != os.path.abspath(current)]
    if not paths:
        return None, None
    path = paths[-1]
    try:
        with open(path) as handle:
            return os.path.basename(path), json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None, None


#: drift estimation needs at least this many signalful samples — below
#: that a median is dominated by individual scenarios and a genuinely
#: regressed run could normalize its own regression away
MIN_DRIFT_SAMPLES = 4

#: drift correction is clamped to this factor either way; a "drift"
#: beyond it is not host noise, it is something real
MAX_DRIFT = 2.0


def host_drift(report, baseline):
    """Median wall-clock ratio over timing-signalful scenarios.

    A different machine (or a loaded one) shifts *every* scenario by
    roughly the same factor; a real regression shifts one or a few.
    The median over all signalful scenarios estimates the uniform
    host-drift component, which the gate then divides out — so a
    uniform 1.3× slower host does not trip 13 scenarios, and a real
    2× regression on one path is still 2×/median visible.
    Returns 1.0 when fewer than ``MIN_DRIFT_SAMPLES`` samples exist.
    """
    ratios = []
    for name, result in report["scenarios"].items():
        old = baseline.get("scenarios", {}).get(name)
        if old and old.get("optimized_s", 0) > 0 and (
                result["optimized_s"] >= MIN_GATE_SECONDS or
                old["optimized_s"] >= MIN_GATE_SECONDS):
            ratios.append(result["optimized_s"] / old["optimized_s"])
    if len(ratios) < MIN_DRIFT_SAMPLES:
        return 1.0
    ratios.sort()
    mid = len(ratios) // 2
    median = ratios[mid] if len(ratios) % 2 else \
        (ratios[mid - 1] + ratios[mid]) / 2.0
    return min(MAX_DRIFT, max(1.0 / MAX_DRIFT, median))


def compare(report, baseline):
    """Flag wall-time regressions vs the previous BENCH_*.json,
    normalized by the estimated uniform host drift."""
    regressions = []
    if baseline.get("quick") != report["quick"]:
        return {"baseline_quick": baseline.get("quick"),
                "comparable": False, "regressions": []}
    drift = host_drift(report, baseline)
    old_figures = {f["file"]: f for f in baseline.get("figures", [])}
    for fig in report["figures"]:
        old = old_figures.get(fig["file"])
        if old and old["seconds"] > 0:
            ratio = fig["seconds"] / old["seconds"] / drift
            if ratio > NOISE_THRESHOLD:
                regressions.append({"what": fig["file"],
                                    "ratio": round(ratio, 2)})
    for name, result in report["scenarios"].items():
        old = baseline.get("scenarios", {}).get(name)
        if old and old.get("optimized_s", 0) > 0:
            ratio = result["optimized_s"] / old["optimized_s"] / drift
            if ratio > NOISE_THRESHOLD and (
                    result["optimized_s"] >= MIN_GATE_SECONDS or
                    old["optimized_s"] >= MIN_GATE_SECONDS):
                regressions.append({"what": f"scenario:{name}",
                                    "ratio": round(ratio, 2)})
    return {"comparable": True, "drift": round(drift, 4),
            "regressions": regressions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenario instances (smoke test)")
    parser.add_argument("--skip-figures", action="store_true",
                        help="run only the engine speed scenarios")
    parser.add_argument("--output-dir", default=REPO_ROOT,
                        help="where BENCH_<timestamp>.json is written")
    parser.add_argument("--advisory", action="store_true",
                        help="warn on regressions instead of exiting "
                             "non-zero (for noisy machines)")
    parser.add_argument("--scenario-timeout", type=float, default=300.0,
                        help="per-scenario wall-clock budget in seconds "
                             "(ambient Budget scope; also bounds each "
                             "figure subprocess)")
    args = parser.parse_args(argv)

    report = {
        "schema": SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": args.quick,
        "python": platform.python_version(),
        "figures": [],
        "scenarios": {},
    }
    if not args.skip_figures:
        print("== figure benchmarks ==")
        report["figures"] = run_figures(args.quick,
                                        timeout=args.scenario_timeout)
    print("== engine speed scenarios ==")
    for name, scenario in SCENARIOS.items():
        # free what earlier scenarios left behind now, not inside this
        # one's timed regions: circuits are cyclic garbage (nodes point
        # at their manager), so only a full collection reclaims them
        gc.collect()
        try:
            # ambient scope: every budget-aware engine the scenario
            # touches shares this one wall-clock allowance
            with Budget(deadline_s=args.scenario_timeout).scope():
                result = scenario(args.quick)
        except BudgetExceeded as error:
            result = {"agree": False, "optimized_s": 0, "legacy_s": 0,
                      "speedup": 0, "budget_exceeded": str(error),
                      "counters": {}}
        report["scenarios"][name] = result
        line = f"  {name:15s} optimized {result['optimized_s']:8.3f}s"
        if "legacy_s" in result:
            line += (f"  legacy {result['legacy_s']:8.3f}s"
                     f"  speedup {result['speedup']:5.2f}x")
        line += f"  agree={result['agree']}"
        print(line)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    os.makedirs(args.output_dir, exist_ok=True)
    out_path = os.path.join(args.output_dir, f"BENCH_{stamp}.json")
    base_name, baseline = previous_baseline(args.output_dir, out_path)
    flagged = []
    if baseline is not None:
        report["comparison"] = {"against": base_name,
                                **compare(report, baseline)}
        flagged = report["comparison"]["regressions"]
        drift = report["comparison"].get("drift")
        if drift is not None and abs(drift - 1.0) > 0.01:
            print(f"host drift estimate {drift}x "
                  "(ratios normalized by it)")
        if flagged:
            print(f"!! {len(flagged)} regression(s) vs {base_name}:")
            for item in flagged:
                print(f"   {item['what']}: {item['ratio']}x slower")
        elif report["comparison"]["comparable"]:
            print(f"no regressions vs {base_name}")
        else:
            print(f"previous baseline {base_name} not comparable "
                  "(quick/full mismatch)")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    failed = [f["file"] for f in report["figures"] if not f["passed"]]
    disagree = [n for n, r in report["scenarios"].items() if not r["agree"]]
    if failed or disagree:
        print(f"FAILURES: figures={failed} disagreements={disagree}")
        return 1
    if flagged and not args.advisory:
        # scriptable gate: timing regressions past NOISE_THRESHOLD fail
        # the run (use --advisory on noisy shared machines)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
