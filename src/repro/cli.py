"""Command-line interface: ``python -m repro <command>``.

Mirrors the classic knowledge-compiler workflow (C2D/DSHARP-style):

* ``count FILE.cnf`` — exact model count (d-DNNF based);
* ``sat FILE.cnf`` — satisfiability;
* ``compile FILE.cnf [-o out.nnf] [--format nnf|sdd]`` — compile to
  canonical circuit files (c2d ``.nnf``, or libsdd ``.sdd`` +
  ``.vtree``), optionally through the content-addressed artifact
  store (``--cache-dir``, or ``$REPRO_CACHE_DIR``);
* ``query FILE.cnf --query count|sat|wmc|mpe|marginals`` — compile
  (store-backed) and answer a query over the header's variables
  ``1..num_vars`` in one call, through the same
  :func:`repro.ir.facade.query_ir` the server answers with;
* ``sdd FILE.cnf [--vtree balanced|right-linear|left-linear]`` —
  compile to an SDD and report size statistics;
* ``enumerate FILE.cnf [--limit N]`` — print models;
* ``explain FILE.cnf --instance "1,-2,3" [--all|--smallest|--limit
  N]`` — compile and enumerate the sufficient reasons (prime
  implicants) of the decision on the instance; under ``--timeout`` /
  ``--max-nodes`` the enumeration degrades to the reasons found so
  far (``c partial`` + exit code 3) instead of failing;
* ``check FILE.nnf|FILE.sdd [--expect PROPS]`` — statically verify the
  tractability properties of a circuit file (exit code 4 plus
  ``c witness`` diagnostics naming the offending node on violation);
  with ``--proof``, FILE is a DIMACS CNF and the independent checker
  replays its stored (or ``--trace``) equivalence trace instead —
  ``s PROVED`` on success, exit code 5 on ``s REFUTED``;
* ``optimize FILE.nnf|FILE.cnf [--passes P1,P2]`` — shrink a circuit
  through the certified optimization pass pipeline
  (``docs/optimization.md``); ``compile --optimize`` and
  ``query --optimize`` run the same pipeline inline;
* ``cache gc [--max-age-days N] [--dry-run]`` — sweep the artifact
  store for orphaned sidecars and stale quarantines;
* ``serve [--port N --workers N --cache-dir DIR]`` — run the
  compile/query HTTP service (``docs/serving.md``);
* ``bench-load --port N`` — drive a duplicate-heavy load burst at a
  running ``serve`` and print the latency/hit-rate report.

``query --gate strict|repair|trust|proved`` selects the property gate
mode (default ``$REPRO_GATE`` or ``trust``): ``strict`` refuses
queries whose required properties are not certified (exit code 4 with
the witness), ``repair`` auto-smooths when smoothness is the only
shortfall, and ``proved`` additionally demands a verified equivalence
proof for the circuit (see ``docs/static-analysis.md`` and
``docs/proofs.md``).

Exit codes: 0 success; 1 unsatisfiable (``sat``) or load-test
failure; 2 usage/input error; 3 budget exceeded; 4 property
violation — a circuit *property* (smoothness, determinism, ...) is
falsified or uncertified; 5 refuted proof — the independent checker
rejected an *equivalence* trace, meaning the compiled circuit cannot
be trusted to match its CNF at all.

``compile`` and ``query`` take resource budgets: ``--timeout SECONDS``
and ``--max-nodes N`` bound the run (exit code 3 with the partial
state as ``c partial`` comments on stderr when exceeded),
``query --anytime`` degrades count/wmc to certified lower/upper bounds
instead of failing, and ``compile --restarts N`` retries over
diversified variable orders/vtrees with exponentially growing budgets
(see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from .analyze.gate import PropertyViolation
from .compile.dnnf_compiler import DnnfCompiler
from .ir.codegen import resolve_backend
from .limits.budget import Budget, BudgetExceeded
from .logic.cnf import Cnf
from .nnf.io import to_nnf_format
from .nnf.queries import model_count
from .perf import format_stats
from .sat.dpll import is_satisfiable
from .sdd.compiler import compile_cnf_sdd
from .sdd.queries import model_count as sdd_model_count
from .vtree.construct import vtree_from_order

__all__ = ["main"]

#: exit code for a budget-bounded run that ran out of budget
EXIT_BUDGET = 3

#: exit code for a property violation (``check`` failure, or a gated
#: query refused in strict/repair/proved mode)
EXIT_VIOLATION = 4

#: exit code for a refuted equivalence proof: the independent checker
#: rejected the compiler's trace, so the circuit itself is suspect —
#: a strictly worse condition than a falsified property (exit 4),
#: which at least concerns the circuit the compiler really built
EXIT_REFUTED = 5


def _load(path: str) -> Cnf:
    with open(path) as handle:
        return Cnf.from_dimacs(handle.read())


def _budget(args: argparse.Namespace) -> Optional[Budget]:
    """The Budget described by --timeout / --max-nodes (None if unset)."""
    timeout = getattr(args, "timeout", None)
    max_nodes = getattr(args, "max_nodes", None)
    if timeout is None and max_nodes is None:
        return None
    return Budget(deadline_s=timeout, max_nodes=max_nodes)


def _store(args: argparse.Namespace):
    """The artifact store selected by --cache-dir / $REPRO_CACHE_DIR."""
    from .ir.store import ArtifactStore, default_store
    if getattr(args, "cache_dir", None):
        return ArtifactStore(args.cache_dir)
    return default_store()


def _print_store_stats(store) -> None:
    if store is not None:
        print(format_stats(store.stats))
        print(f"c artifact-hit-rate {store.hit_rate():.2f}")


def _cmd_count(args: argparse.Namespace) -> int:
    cnf = _load(args.file)
    compiler = DnnfCompiler(use_components=not args.no_components,
                            use_cache=not args.no_cache)
    circuit = compiler.compile(cnf)
    count = model_count(circuit, range(1, cnf.num_vars + 1))
    print(f"s mc {count}")
    if args.verbose:
        print(f"c decisions {compiler.decisions}")
        print(f"c cache-hits {compiler.cache_hits}")
        print(f"c circuit-edges {circuit.edge_count()}")
    if args.stats:
        print(format_stats(compiler.stats))
    return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    cnf = _load(args.file)
    satisfiable = is_satisfiable(cnf)
    print("s SATISFIABLE" if satisfiable else "s UNSATISFIABLE")
    return 0 if satisfiable else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    cnf = _load(args.file)
    store = _store(args)
    proof = bool(getattr(args, "proof", False))
    if proof and (args.restarts or args.format == "sdd"):
        raise ValueError("--proof needs a single-shot --format nnf "
                         "compile (no --restarts, no sdd)")
    if args.restarts:
        return _compile_restarts(args, cnf, store)
    if args.format == "sdd":
        return _compile_sdd_files(args, cnf, store)
    optimize = ((args.passes or True) if getattr(args, "optimize",
                                                 False) else None)
    compiler = DnnfCompiler(store=store, budget=_budget(args),
                            optimize=optimize, proof=proof)
    try:
        circuit = compiler.compile(cnf)
    except BudgetExceeded:
        # the exit-3 path still reports where the budget went —
        # load tests attribute cost from these counters
        if args.stats:
            print(format_stats(compiler.stats))
            _print_store_stats(store)
        raise
    if compiler.optimize_report is not None:
        report = compiler.optimize_report
        print(f"c optimize passes {','.join(report['passes'])}")
        print(f"c optimize nodes {report['before_nodes']} -> "
              f"{report['after_nodes']}")
        if compiler.forgotten_vars:
            print("c optimize forgotten " + " ".join(
                str(v) for v in sorted(compiler.forgotten_vars)))
    text = to_nnf_format(circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"c wrote {args.output} "
              f"({circuit.node_count()} nodes, "
              f"{circuit.edge_count()} edges)")
    else:
        sys.stdout.write(text)
    exit_code = _report_proof(compiler, cnf, store) if proof else 0
    if args.stats:
        print(format_stats(compiler.stats))
        _print_store_stats(store)
    return exit_code


def _report_proof(compiler: DnnfCompiler, cnf: Cnf, store) -> int:
    """Verify a ``--proof`` compile's equivalence trace with the
    independent checker and print the verdict lines."""
    from .proof import check_proof
    if store is not None:
        from .analyze.proofs import verify_stored_proof
        key = compiler.artifact_key_for(cnf)
        result = verify_stored_proof(store, key, cnf.to_dimacs())
    else:
        result = check_proof(cnf.to_dimacs(), compiler.last_proof or "")
    print(f"c proof steps {result.steps}")
    if result.verdict == "PROVED":
        suffix = f" mc {result.model_count}" \
            if result.model_count is not None else ""
        print("s PROVED" + suffix)
        return 0
    print(f"c proof reason {result.reason}", file=sys.stderr)
    if result.verdict == "INCOMPLETE":
        print("s INCOMPLETE")
        return EXIT_BUDGET
    print("s REFUTED")
    return EXIT_REFUTED


def _compile_restarts(args: argparse.Namespace, cnf: Cnf, store) -> int:
    """--restarts N: the budgeted retry driver instead of a single shot."""
    from .limits.restarts import compile_with_restarts
    result = compile_with_restarts(
        cnf, format=args.format, attempts=args.restarts,
        deadline_s=args.timeout, max_nodes=args.max_nodes, store=store,
        minimize=getattr(args, "optimize", False),
        passes=getattr(args, "passes", None) or None)
    for record in result.attempts:
        print(f"c attempt {record['attempt']} {record['strategy']} "
              f"{record['outcome']}")
    print(f"c winner attempt {result.winner} (size {result.size})")
    if result.optimize is not None:
        print(f"c optimize passes "
              f"{','.join(result.optimize['passes'])}")
        if result.forgotten_vars:
            print("c optimize forgotten " + " ".join(
                str(v) for v in sorted(result.forgotten_vars)))
    if args.format == "sdd":
        from .ir.serialize import write_sdd_file, write_vtree_text
        text = write_sdd_file(result.root)
    else:
        text = to_nnf_format(result.root)
    if args.output:
        base = args.output
        if args.format == "sdd":
            if base.endswith(".sdd"):
                base = base[:-4]
            with open(base + ".sdd", "w") as handle:
                handle.write(text)
            with open(base + ".vtree", "w") as handle:
                handle.write(write_vtree_text(result.manager.vtree))
            print(f"c wrote {base}.sdd + {base}.vtree")
        else:
            with open(base, "w") as handle:
                handle.write(text)
            print(f"c wrote {base} ({result.size} nodes)")
    else:
        sys.stdout.write(text)
    return 0


def _compile_sdd_files(args: argparse.Namespace, cnf: Cnf, store) -> int:
    from .ir.serialize import write_sdd_file, write_vtree_text
    if cnf.num_vars == 0:
        print("c empty formula")
        return 0
    vtree = vtree_from_order(range(1, cnf.num_vars + 1), args.vtree)
    root, manager = compile_cnf_sdd(cnf, vtree=vtree, store=store,
                                    budget=_budget(args))
    sdd_text = write_sdd_file(root)
    vtree_text = write_vtree_text(manager.vtree)
    if args.output:
        base = args.output
        if base.endswith(".sdd"):
            base = base[:-4]
        with open(base + ".sdd", "w") as handle:
            handle.write(sdd_text)
        with open(base + ".vtree", "w") as handle:
            handle.write(vtree_text)
        print(f"c wrote {base}.sdd + {base}.vtree "
              f"(size {root.size()}, {root.node_count()} nodes)")
    else:
        sys.stdout.write(sdd_text)
    if args.stats:
        print(format_stats(manager.stats))
        _print_store_stats(store)
    return 0


def _parse_weights(specs, num_vars: int) -> Dict[int, float]:
    """Literal weights from repeated ``LIT=W`` options; unspecified
    literals weigh 1.0.

    Rejects malformed specs and literals outside ``±1..num_vars`` with
    a one-line error naming the offending spec (a silently accepted
    out-of-range weight would simply never be read by the query).
    """
    weights: Dict[int, float] = {}
    for var in range(1, num_vars + 1):
        weights[var] = weights[-var] = 1.0
    for spec in specs or ():
        lit_text, _, value_text = spec.partition("=")
        try:
            literal = int(lit_text)
            value = float(value_text)
        except ValueError:
            raise ValueError(f"bad weight spec {spec!r} (want LIT=W)")
        if literal == 0 or abs(literal) > num_vars:
            raise ValueError(
                f"bad weight spec {spec!r}: literal {literal} outside "
                f"1..{num_vars} (or its negation)")
        weights[literal] = value
    return weights


def _parse_pass_list(args: argparse.Namespace):
    """The --passes option as a tuple (None = default pipeline)."""
    from .ir.passes import parse_passes
    raw = getattr(args, "passes", None)
    return parse_passes(raw) if raw else None


def _optimize_circuit_ir(args: argparse.Namespace, ir, aux_vars):
    """Run the pass pipeline for an --optimize CLI flag, print the
    ``c optimize`` audit lines and return the PipelineResult."""
    from .ir.passes import optimize_ir
    result = optimize_ir(ir, _parse_pass_list(args), aux_vars=aux_vars,
                         budget=_budget(args))
    print(f"c optimize passes {','.join(result.passes)}")
    print(f"c optimize nodes {result.before_nodes} -> "
          f"{result.after_nodes} "
          f"(reduction {result.reduction:.2%})")
    if result.forgotten:
        print("c optimize forgotten "
              + " ".join(str(v) for v in sorted(result.forgotten)))
    if result.budget_hit:
        print("c optimize budget-hit (partial pipeline kept)")
    return result


def _cmd_optimize(args: argparse.Namespace) -> int:
    """``repro optimize FILE``: shrink a circuit (or compile-then-
    shrink a CNF) through the certified pass pipeline."""
    from .ir.serialize import ir_from_nnf_text, ir_to_nnf_text
    if args.file.endswith(".nnf"):
        with open(args.file) as handle:
            ir = ir_from_nnf_text(handle.read())
        aux_vars: Sequence[int] = ()
    else:
        from .ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
        from .ir.lower import nnf_to_ir
        cnf = _load(args.file)
        store = _store(args)
        compiler = DnnfCompiler(store=store, budget=_budget(args))
        circuit = compiler.compile(cnf)
        ir = nnf_to_ir(circuit,
                       flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
        aux_vars = sorted(cnf.aux_vars)
    result = _optimize_circuit_ir(args, ir, aux_vars)
    text = ir_to_nnf_text(result.ir)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"c wrote {args.output} ({result.after_nodes} nodes)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    """``repro cache gc``: sweep the artifact store for orphaned and
    stale sidecar files and report the bytes reclaimed."""
    import time
    store = _store(args)
    if store is None:
        print("c no cache directory (--cache-dir or $REPRO_CACHE_DIR)")
        return 2
    report = store.gc(now=time.time(),
                      max_corrupt_age_days=args.max_age_days,
                      dry_run=args.dry_run)
    mode = " (dry-run)" if report["dry_run"] else ""
    print(f"c gc scanned {report['scanned']}")
    print(f"c gc removed {report['removed']}{mode}")
    print(f"c gc reclaimed-bytes {report['reclaimed_bytes']}{mode}")
    for name, entry in sorted(report["by_class"].items()):
        print(f"c gc class {name} {entry['files']} files "
              f"{entry['bytes']} bytes")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if getattr(args, "gate", None):
        from .analyze.gate import gate_scope
        with gate_scope(args.gate):
            return _run_query(args)
    return _run_query(args)


def _run_query(args: argparse.Namespace) -> int:
    """Compile (store-backed) and answer through
    :func:`repro.ir.facade.query_ir` over ``1..num_vars``; with
    ``--optimize`` on the pass-minimized circuit, whose forgotten
    Tseitin auxiliaries leave the scope (the 2^k correction), so every
    answer matches the unoptimized one over the variables it names."""
    from .ir import facade
    from .ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
    from .ir.kernel import ir_kernel
    from .ir.lower import nnf_to_ir
    cnf = _load(args.file)
    store = _store(args)
    weights = _parse_weights(args.weight, cnf.num_vars)
    if args.anytime:
        return _query_anytime(args, cnf, weights)
    compiler = DnnfCompiler(store=store, budget=_budget(args))
    try:
        circuit = compiler.compile(cnf)
    except BudgetExceeded:
        # counters must reach the exit-3 timeout path too, so load
        # tests can attribute where the budget went (there is no
        # kernel yet — only compiler + store counters exist)
        if args.stats:
            print(format_stats(compiler.stats))
            _print_store_stats(store)
        raise
    ir = nnf_to_ir(circuit,
                   flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
    forgotten: Sequence[int] = ()
    if args.optimize:
        result = _optimize_circuit_ir(args, ir, sorted(cnf.aux_vars))
        ir, forgotten = result.ir, result.forgotten
    out = facade.query_ir(ir, args.query, num_vars=cnf.num_vars,
                          weights=weights, forgotten=forgotten)
    if args.query == "count":
        print(f"s mc {out['result']}")
    elif args.query == "sat":
        print("s SATISFIABLE" if out["result"] else "s UNSATISFIABLE")
    elif args.query == "wmc":
        print(f"s wmc {out['result']}")
    elif args.query == "mpe":
        literals = " ".join(var if state else f"-{var}"
                            for var, state in out["model"].items())
        print(f"v {literals} 0")
        print(f"s mpe {out['result']}")
    else:  # marginals
        for var, (neg, pos) in out["result"].items():
            print(f"c marginal {var} {pos} {neg}")
        print(f"s mc {out['count']}")
    if args.stats:
        print(format_stats(compiler.stats))
        _print_store_stats(store)
        _print_backend_stats(ir_kernel(ir))
    return 0


def _print_backend_stats(kernel) -> None:
    """Evaluator-backend counters for ``repro query --stats``: which
    backend answered, builds and fallbacks, and the build-vs-eval time
    split (see docs/performance.md)."""
    print(f"c backend {resolve_backend()}")
    compiled = getattr(kernel, "_codegen", None)
    stats = getattr(compiled, "stats", None)
    if stats is not None and stats:
        print(format_stats(stats))


def _query_anytime(args: argparse.Namespace, cnf: Cnf,
                   weights: Dict[int, float]) -> int:
    """--anytime: certified bounds under the budget instead of an
    exception; exact (and indistinguishable from the normal path) when
    the budget survives."""
    from .limits.anytime import anytime_count, anytime_wmc
    if args.query not in ("count", "wmc"):
        raise ValueError(
            f"--anytime supports count and wmc, not {args.query!r}")
    budget = _budget(args)
    if args.query == "count":
        result = anytime_count(cnf, budget)
    else:
        result = anytime_wmc(cnf, weights, budget)
    print(f"c anytime lower {result.lower}")
    print(f"c anytime upper {result.upper}")
    print(f"c anytime reason {result.reason or 'complete'}")
    print(f"c anytime decisions {result.decisions}")
    if result.exact:
        label = "mc" if args.query == "count" else "wmc"
        print(f"s {label} {result.lower}")
    else:
        print(f"s bounds {result.lower} {result.upper}")
    return 0


def _cmd_sdd(args: argparse.Namespace) -> int:
    cnf = _load(args.file)
    if cnf.num_vars == 0:
        print("c empty formula")
        return 0
    vtree = vtree_from_order(range(1, cnf.num_vars + 1), args.vtree)
    root, manager = compile_cnf_sdd(cnf, vtree=vtree)
    print(f"c vtree {args.vtree}")
    print(f"c sdd-size {root.size()}")
    print(f"c sdd-nodes {root.node_count()}")
    print(f"s mc {sdd_model_count(root)}")
    if args.stats:
        print(format_stats(manager.stats))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    cnf = _load(args.file)
    from .sat.dpll import enumerate_models
    printed = 0
    for model in enumerate_models(cnf):
        literals = " ".join(str(v if model[v] else -v)
                            for v in sorted(model))
        print(f"v {literals} 0")
        printed += 1
        if args.limit and printed >= args.limit:
            break
    print(f"c {printed} models printed")
    return 0


def _parse_instance(spec: str) -> Dict[int, bool]:
    """``"1,-2,3"`` (commas or spaces) -> {1: True, 2: False, 3: True}."""
    instance: Dict[int, bool] = {}
    for part in spec.replace(",", " ").split():
        lit = int(part)
        if lit == 0:
            raise ValueError("instance literals must be non-zero")
        var = abs(lit)
        if var in instance and instance[var] != (lit > 0):
            raise ValueError(
                f"contradictory instance literals for variable {var}")
        instance[var] = lit > 0
    if not instance:
        raise ValueError("empty instance; pass literals like "
                         '--instance "1,-2,3"')
    return instance


def _cmd_explain(args: argparse.Namespace) -> int:
    """Compile and enumerate sufficient reasons of the decision.

    One budget covers compile + enumeration: a budget that dies in
    the compiler exits 3 via the usual path, while one that dies in
    the (natively anytime) enumeration prints the reasons found so
    far, a ``c partial`` marker, and still exits 3.
    """
    from .ir import facade
    from .ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
    from .ir.lower import nnf_to_ir
    cnf = _load(args.file)
    instance = _parse_instance(args.instance)
    store = _store(args)
    budget = _budget(args)
    compiler = DnnfCompiler(store=store, budget=budget)
    circuit = compiler.compile(cnf)
    ir = nnf_to_ir(circuit,
                   flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
    out = facade.explain_ir(ir, instance, limit=args.limit,
                            smallest=args.smallest, budget=budget)
    print("s decision 1")
    if args.smallest:
        reasons = [out["smallest"]] if out["smallest"] is not None \
            else []
    else:
        reasons = out["reasons"]
    for reason in reasons:
        literals = " ".join(str(lit) for lit in reason)
        print(f"v {literals} 0" if literals else "v 0")
    print(f"s reasons {len(reasons)} "
          + ("complete" if out["complete"] else "partial"))
    if args.stats:
        print(f"c probes {out['probes']}")
        print(format_stats(compiler.stats))
    partial = out.get("partial")
    if partial is not None:
        print(f"c partial reason {partial['reason']}", file=sys.stderr)
        return EXIT_BUDGET
    return 0


#: default --expect per circuit format
_CHECK_DEFAULTS = {"nnf": "decomposable,deterministic,smooth",
                   "sdd": "decomposable,deterministic,structured",
                   "obdd": "obdd"}


def _check_proof_file(args: argparse.Namespace) -> int:
    """``repro check FILE.cnf --proof``: replay an equivalence trace
    against the DIMACS with the independent checker.

    The trace comes from ``--trace PATH`` or, by default, from the
    artifact store's ``.proof`` sidecar for the CNF's content key
    (which also memoises the verdict and quarantines on refutation).
    """
    cnf = _load(args.file)
    if args.trace:
        from .proof import check_proof
        with open(args.trace) as handle:
            trace = handle.read()
        result = check_proof(cnf.to_dimacs(), trace,
                             budget=_budget(args))
    else:
        from .analyze.proofs import verify_stored_proof
        from .ir import facade
        store = _store(args)
        if store is None:
            raise ValueError(
                "no trace source: pass --trace PATH or a store via "
                "--cache-dir / $REPRO_CACHE_DIR")
        ticket = facade.compile_ticket(cnf.to_dimacs())
        result = verify_stored_proof(store, ticket.key, ticket.dimacs,
                                     budget=_budget(args))
    print(f"c proof steps {result.steps}")
    if result.verdict == "PROVED":
        suffix = f" mc {result.model_count}" \
            if result.model_count is not None else ""
        print("s PROVED" + suffix)
        return 0
    print(f"c proof reason {result.reason}", file=sys.stderr)
    if result.line is not None:
        print(f"c proof witness-line {result.line}", file=sys.stderr)
    if result.verdict == "INCOMPLETE":
        print("s INCOMPLETE")
        return EXIT_BUDGET
    print("s REFUTED")
    return EXIT_REFUTED


def _cmd_check(args: argparse.Namespace) -> int:
    """Statically verify a circuit file's tractability properties."""
    if getattr(args, "proof", False):
        return _check_proof_file(args)
    from .analyze import (PROPERTY_FLAGS, VERIFIED, certify,
                          verify_obdd_ir)
    fmt = args.format
    if fmt == "auto":
        fmt = "sdd" if args.file.endswith(".sdd") else "nnf"
    vtree = None
    if fmt == "sdd":
        from .ir.lower import sdd_to_ir
        from .ir.serialize import read_sdd_file
        vtree_path = args.vtree_file
        if vtree_path is None:
            base = args.file[:-4] if args.file.endswith(".sdd") \
                else args.file
            vtree_path = base + ".vtree"
        with open(args.file) as handle:
            sdd_text = handle.read()
        with open(vtree_path) as handle:
            vtree_text = handle.read()
        root, manager = read_sdd_file(sdd_text, vtree_text)
        ir = sdd_to_ir(root)
        vtree = manager.vtree
    else:
        from .ir.serialize import ir_from_nnf_text
        with open(args.file) as handle:
            ir = ir_from_nnf_text(handle.read(), flags=0)
    expected = [name.strip() for name in
                (args.expect or _CHECK_DEFAULTS[fmt]).split(",")
                if name.strip()]
    known = set(PROPERTY_FLAGS) | {"obdd", "wellformed"}
    for name in expected:
        if name not in known:
            raise ValueError(f"unknown property {name!r}; expected "
                             f"one of {sorted(known)}")
    order = None
    if args.var_order:
        order = [int(v) for v in args.var_order.split(",")]

    flag_mask = 0
    for name in expected:
        flag_mask |= PROPERTY_FLAGS.get(name, 0)
    cert = certify(ir, flags=flag_mask, vtree=vtree,
                   max_vars=args.max_vars)
    reports = dict(cert.reports)
    if "obdd" in expected:
        reports["obdd"] = verify_obdd_ir(ir, order=order)

    failed = []
    for name in dict.fromkeys(["wellformed"] + expected):
        report = reports.get(name)
        if report is None:
            continue
        print(f"c check {name} {report.status} {report.method}")
        if report.witness is not None:
            print(f"c witness {report.witness.format()}")
        if report.status != VERIFIED:
            failed.append(name)
    if failed:
        print(f"s VIOLATION {' '.join(failed)}")
        return EXIT_VIOLATION
    print("s CERTIFIED " + " ".join(expected))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compilation service until SIGINT/SIGTERM."""
    from .serve.app import ServerConfig, run_server
    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir, max_pending=args.max_pending,
        default_deadline_s=args.default_deadline,
        verify=not args.no_verify)
    return run_server(config)


def _cmd_bench_load(args: argparse.Namespace) -> int:
    """Fire one duplicate-heavy burst at a running server and print
    the latency/hit-rate report as JSON."""
    import json as _json
    from .serve.loadgen import run_load
    report = run_load(
        args.host, args.port, distinct=args.distinct,
        duplicates=args.duplicates, queries=args.queries,
        threads=args.threads, num_vars=args.num_vars,
        num_clauses=args.num_clauses, seed=args.seed,
        deadline_s=args.timeout)
    report.pop("server_stats", None)
    print(_json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["server_5xx"] == 0 else 1


def _add_budget_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock budget; exceeding it exits with code 3 "
             "(or degrades to bounds under --anytime)")
    subparser.add_argument(
        "--max-nodes", type=int, metavar="N",
        help="search-node budget (decisions / apply calls); exceeding "
             "it exits with code 3 (or degrades under --anytime)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tractable-circuit toolkit (SAT, #SAT, compilation)",
        epilog="exit codes: 0 ok; 1 unsat; 2 usage/input error; "
               "3 budget exceeded; 4 property violation (a circuit "
               "property such as smoothness or determinism is "
               "falsified or uncertified); 5 refuted proof (the "
               "compiler-independent checker rejected an equivalence "
               "trace — the circuit itself is suspect)")
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser("count", help="exact model count")
    count.add_argument("file")
    count.add_argument("--no-components", action="store_true",
                       help="disable component decomposition")
    count.add_argument("--no-cache", action="store_true",
                       help="disable component caching")
    count.add_argument("-v", "--verbose", action="store_true")
    count.add_argument("--stats", action="store_true",
                       help="print perf counters (propagations, cache "
                            "hits, ...) as DIMACS comments")
    count.set_defaults(func=_cmd_count)

    sat = commands.add_parser("sat", help="decide satisfiability")
    sat.add_argument("file")
    sat.set_defaults(func=_cmd_sat)

    compile_cmd = commands.add_parser(
        "compile", help="compile to circuit files (c2d .nnf, or "
                        "libsdd .sdd/.vtree with --format sdd)")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("-o", "--output")
    compile_cmd.add_argument("--format", default="nnf",
                             choices=["nnf", "sdd"],
                             help="artifact format (default nnf)")
    compile_cmd.add_argument("--vtree", default="balanced",
                             choices=["balanced", "right-linear",
                                      "left-linear"],
                             help="vtree shape for --format sdd")
    compile_cmd.add_argument("--cache-dir",
                             help="content-addressed compilation cache "
                                  "directory (default $REPRO_CACHE_DIR)")
    compile_cmd.add_argument("--stats", action="store_true",
                             help="print compiler + artifact-store "
                                  "perf counters")
    _add_budget_flags(compile_cmd)
    compile_cmd.add_argument(
        "--restarts", type=int, default=0, metavar="N",
        help="budgeted retry driver: up to N attempts over diversified "
             "variable orders/vtrees, doubling --timeout/--max-nodes "
             "each attempt")
    compile_cmd.add_argument(
        "--optimize", action="store_true",
        help="run the certified circuit-optimization pass pipeline "
             "after the compile (with --restarts: attempts compete on "
             "optimized sizes)")
    compile_cmd.add_argument(
        "--passes", metavar="P1,P2,...",
        help="pass pipeline for --optimize (default "
             "const-fold,cse,tseitin-prune)")
    compile_cmd.add_argument(
        "--proof", action="store_true",
        help="emit an equivalence trace during the compile and verify "
             "it with the independent checker: prints s PROVED (with "
             "the proved model count) or s REFUTED (exit code 5; the "
             "stored artifact is quarantined)")
    compile_cmd.set_defaults(func=_cmd_compile)

    optimize_cmd = commands.add_parser(
        "optimize", help="shrink a circuit (.nnf) or compile-then-"
                         "shrink a CNF through the certified pass "
                         "pipeline")
    optimize_cmd.add_argument("file", help=".nnf circuit or DIMACS CNF")
    optimize_cmd.add_argument("-o", "--output")
    optimize_cmd.add_argument(
        "--passes", metavar="P1,P2,...",
        help="comma-separated pass pipeline (default "
             "const-fold,cse,tseitin-prune)")
    optimize_cmd.add_argument("--cache-dir",
                              help="artifact store for the CNF "
                                   "compile step (default "
                                   "$REPRO_CACHE_DIR)")
    _add_budget_flags(optimize_cmd)
    optimize_cmd.set_defaults(func=_cmd_optimize)

    cache = commands.add_parser(
        "cache", help="artifact-store maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     required=True)
    cache_gc = cache_sub.add_parser(
        "gc", help="sweep the store for orphaned sidecars "
                   "(.csr/.proof/.cert without a live artifact, "
                   "stale .corrupt quarantines, tmp files) and "
                   "the .gen.py sources and variant .csr twins "
                   "older stores wrote")
    cache_gc.add_argument("--cache-dir",
                          help="store directory (default "
                               "$REPRO_CACHE_DIR)")
    cache_gc.add_argument("--max-age-days", type=float, default=7.0,
                          metavar="N",
                          help="reap .corrupt quarantines older than "
                               "N days (default 7)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without "
                               "deleting anything")
    cache_gc.set_defaults(func=_cmd_cache_gc)

    query = commands.add_parser(
        "query", help="compile (store-backed) and answer a query")
    query.add_argument("file")
    query.add_argument("--query", default="count",
                       choices=["count", "sat", "wmc", "mpe",
                                "marginals"])
    query.add_argument("--weight", action="append", metavar="LIT=W",
                       help="literal weight for wmc/mpe (repeatable; "
                            "unset literals weigh 1.0; use "
                            "--weight=-2=0.4 for negative literals)")
    query.add_argument("--cache-dir",
                       help="content-addressed compilation cache "
                            "directory (default $REPRO_CACHE_DIR)")
    query.add_argument("--stats", action="store_true",
                       help="print compiler + artifact-store + "
                            "evaluator-backend counters")
    _add_budget_flags(query)
    query.add_argument(
        "--anytime", action="store_true",
        help="for count/wmc: return certified lower/upper bounds when "
             "the budget expires instead of failing")
    query.add_argument(
        "--gate", choices=["trust", "strict", "repair", "proved"],
        help="property-gate mode (default $REPRO_GATE or trust): "
             "strict refuses uncertified circuits with exit code 4, "
             "repair auto-smooths when possible, proved additionally "
             "requires a verified equivalence proof")
    query.add_argument(
        "--optimize", action="store_true",
        help="answer on the pass-minimized circuit (its forgotten "
             "Tseitin auxiliaries leave the query's variables, so "
             "results match the unoptimized path on the rest)")
    query.add_argument(
        "--passes", metavar="P1,P2,...",
        help="pass pipeline for --optimize (default "
             "const-fold,cse,tseitin-prune)")
    query.set_defaults(func=_cmd_query)

    sdd = commands.add_parser("sdd", help="compile to an SDD")
    sdd.add_argument("file")
    sdd.add_argument("--vtree", default="balanced",
                     choices=["balanced", "right-linear", "left-linear"])
    sdd.add_argument("--stats", action="store_true",
                     help="print apply-cache perf counters")
    sdd.set_defaults(func=_cmd_sdd)

    enumerate_cmd = commands.add_parser("enumerate",
                                        help="list models (DIMACS v lines)")
    enumerate_cmd.add_argument("file")
    enumerate_cmd.add_argument("--limit", type=int, default=0)
    enumerate_cmd.set_defaults(func=_cmd_enumerate)

    explain = commands.add_parser(
        "explain", help="sufficient reasons (prime implicants) of "
                        "the decision on an instance")
    explain.add_argument("file")
    explain.add_argument("--instance", required=True, metavar="LITS",
                         help="the instance as comma/space-separated "
                              'literals, e.g. "1,-2,3" (spell it '
                              "--instance=-1,2 when the first literal "
                              "is negative)")
    scope = explain.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true",
                       help="every sufficient reason (default)")
    scope.add_argument("--smallest", action="store_true",
                       help="one minimum-cardinality reason")
    scope.add_argument("--limit", type=int, metavar="N",
                       help="stop after N reasons")
    explain.add_argument("--cache-dir",
                         help="artifact store directory "
                              "(default $REPRO_CACHE_DIR)")
    explain.add_argument("--stats", action="store_true",
                         help="print probe and compiler counters")
    _add_budget_flags(explain)
    explain.set_defaults(func=_cmd_explain)

    check = commands.add_parser(
        "check", help="statically verify a circuit file's properties "
                      "(exit 4 + c witness lines on violation), or "
                      "with --proof replay a compilation's "
                      "equivalence trace (exit 5 on refutation)")
    check.add_argument("file", help="circuit file (.nnf, or .sdd with "
                                    "a sibling/--vtree-file .vtree); "
                                    "a DIMACS CNF with --proof")
    check.add_argument("--proof", action="store_true",
                       help="treat FILE as a DIMACS CNF and verify "
                            "its equivalence trace with the "
                            "compiler-independent checker: exit 0 + "
                            "s PROVED, or exit 5 + s REFUTED with "
                            "the first bad trace line")
    check.add_argument("--trace", metavar="PATH",
                       help="explicit .proof trace file for --proof "
                            "(default: the store's sidecar for the "
                            "CNF's content key)")
    check.add_argument("--cache-dir",
                       help="artifact store holding the .proof "
                            "sidecar for --proof (default "
                            "$REPRO_CACHE_DIR)")
    check.add_argument("--format", default="auto",
                       choices=["auto", "nnf", "sdd", "obdd"],
                       help="circuit format (auto: by extension; obdd "
                            "checks OBDD discipline on a .nnf file)")
    check.add_argument("--expect", metavar="PROPS",
                       help="comma-separated properties to require "
                            f"(defaults per format: {_CHECK_DEFAULTS})")
    check.add_argument("--vtree-file", metavar="FILE",
                       help="vtree file for --format sdd (default: "
                            "the .sdd path with extension .vtree)")
    check.add_argument("--var-order", metavar="V1,V2,...",
                       help="explicit variable order for --format obdd")
    check.add_argument("--max-vars", type=int, default=16, metavar="N",
                       help="per-gate brute-force budget for the "
                            "determinism check (default 16)")
    check.set_defaults(func=_cmd_check)

    serve = commands.add_parser(
        "serve", help="run the compile/query HTTP service "
                      "(POST /compile, POST /query, GET /stats)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral; the bound "
                            "port is printed as 'c serve listening')")
    serve.add_argument("--workers", type=int, default=2,
                       help="compile/query worker processes "
                            "(0 = in-process threads)")
    serve.add_argument("--cache-dir",
                       help="shared artifact-store directory "
                            "(default: a private temp dir)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="admission control: queued+running worker "
                            "jobs before answering 429")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request budget when the client sends "
                            "none; expiring compiles degrade to "
                            "certified bounds")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip artifact verification on warm loads")
    serve.set_defaults(func=_cmd_serve)

    bench_load = commands.add_parser(
        "bench-load", help="drive a duplicate-heavy load burst at a "
                           "running repro serve and report p50/p99 "
                           "latency, rps, and hit rates as JSON")
    bench_load.add_argument("--host", default="127.0.0.1")
    bench_load.add_argument("--port", type=int, required=True)
    bench_load.add_argument("--distinct", type=int, default=4,
                            help="distinct CNF instances")
    bench_load.add_argument("--duplicates", type=int, default=8,
                            help="concurrent compile copies per "
                                 "instance (the dedup pressure)")
    bench_load.add_argument("--queries", type=int, default=64,
                            help="warm queries after the compile burst")
    bench_load.add_argument("--threads", type=int, default=8,
                            help="concurrent client threads")
    bench_load.add_argument("--num-vars", type=int, default=24)
    bench_load.add_argument("--num-clauses", type=int, default=60)
    bench_load.add_argument("--seed", type=int, default=0)
    bench_load.add_argument("--timeout", type=float,
                            metavar="SECONDS",
                            help="per-request deadline sent with each "
                                 "request")
    bench_load.set_defaults(func=_cmd_bench_load)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command validates $REPRO_BACKEND, whether or not it
        # reaches a kernel (a misspelt value must not pass unnoticed)
        resolve_backend()
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BudgetExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        for key in sorted(error.partial):
            print(f"c partial {key} {error.partial[key]}",
                  file=sys.stderr)
        return EXIT_BUDGET
    except PropertyViolation as error:
        print(f"error: {error}", file=sys.stderr)
        for witness in error.witnesses:
            print(f"c witness {witness.format()}", file=sys.stderr)
        return EXIT_VIOLATION
