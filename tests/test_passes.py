"""Tests for the certified circuit-optimization pass manager.

The heart of the suite is randomized certification: hundreds of small
(≤12-variable) circuits pushed through every pass and through random
pipelines, with the optimized circuit's counts and weighted counts
checked against brute-force truth tables (``Cnf.model_count``) and the
seed's NNF walkers (``tests/oracles``) — including the 2^k Tseitin
correction, where forgetting k functionally-determined auxiliaries
divides the widened count by exactly 2^k.
"""

import random

import pytest

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.ir import facade
from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC, FLAG_SMOOTH
from repro.ir.kernel import ir_kernel
from repro.ir.lower import nnf_to_ir
from repro.ir.passes import (COUNT_ONLY_PASSES, DEFAULT_PASSES,
                             PASS_NAMES, PassManager, certified_equivalent,
                             forget_vars, optimize_ir,
                             parse_passes, pipeline_signature, smooth_ir)
from repro.ir.store import ArtifactStore
from repro.logic.cnf import Cnf
from repro.logic.formula import And, Iff, Lit, Not, Or
from repro.logic.tseitin import tseitin
from repro.analyze.gate import gate_scope
from tests.oracles import nnf_walkers


def random_cnf(rng, max_vars=8):
    n = rng.randint(3, max_vars)
    m = rng.randint(n, 3 * n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in vs))
    return Cnf(clauses, num_vars=n)


def random_formula(rng, num_vars, depth=3):
    if depth == 0 or rng.random() < 0.3:
        lit = Lit(rng.randint(1, num_vars))
        return Not(lit) if rng.random() < 0.5 else lit
    op = rng.choice([And, Or, Iff])
    if op is Iff:
        return Iff(random_formula(rng, num_vars, depth - 1),
                   random_formula(rng, num_vars, depth - 1))
    children = [random_formula(rng, num_vars, depth - 1)
                for _ in range(rng.randint(2, 3))]
    return op(*children)


def random_weights(rng, variables):
    weights = {}
    for v in variables:
        weights[v] = rng.uniform(0.1, 1.0)
        weights[-v] = rng.uniform(0.1, 1.0)
    return weights


def pruned_formula():
    """A formula whose Tseitin encoding is known to shrink under the
    default pipeline (31 -> 19 nodes, auxiliaries 5..8 forgotten)."""
    return Or(And(Lit(1), Lit(2)), And(Lit(3), Not(Lit(1))),
              And(Lit(2), Lit(4)))


def compile_ir(cnf):
    root = DnnfCompiler().compile(cnf)
    return nnf_to_ir(root,
                     flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)


def formula_count(formula, num_vars):
    """Brute-force model count of ``formula`` over vars 1..num_vars.

    Equal to the Tseitin CNF's model count over *all* its variables
    (auxiliaries are functionally determined), but 2^|aux| cheaper to
    enumerate.
    """
    from repro.logic.formula import iter_assignments
    return sum(1 for asg in iter_assignments(range(1, num_vars + 1))
               if formula.evaluate(asg))


def corrected_count(ir, num_vars, forgotten):
    """The optimized circuit's count widened to ``num_vars`` with the
    forgotten auxiliaries excluded (the production 2^k correction)."""
    with gate_scope("trust"):
        raw = ir_kernel(ir).model_count()
    absent = (set(range(1, num_vars + 1)) - set(ir.variables())
              - set(forgotten))
    return raw << len(absent)


# -- randomized certification: every pass, plain CNFs ------------------------

def test_every_pass_preserves_counts_on_random_cnfs():
    """200 random CNF circuits x every registered pass: the corrected
    model count equals brute-force enumeration."""
    rng = random.Random(2024)
    for trial in range(200):
        cnf = random_cnf(rng)
        ir = compile_ir(cnf)
        truth = cnf.model_count()
        name = PASS_NAMES[trial % len(PASS_NAMES)]
        result = optimize_ir(ir, (name,), seed=trial)
        assert corrected_count(result.ir, cnf.num_vars,
                               result.forgotten) == truth
        assert result.after_nodes <= result.before_nodes or \
            name == "smooth"


def test_random_pipelines_match_truth_and_legacy_walkers():
    """150 random CNFs x random pipelines: count vs brute force and
    WMC vs the seed's dict-per-call walker on the unoptimized circuit
    (no IR, no kernel)."""
    rng = random.Random(77)
    for trial in range(150):
        cnf = random_cnf(rng)
        root = DnnfCompiler().compile(cnf)
        ir = nnf_to_ir(root,
                       flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
        k = rng.randint(1, len(PASS_NAMES))
        passes = tuple(rng.sample(list(PASS_NAMES), k))
        result = optimize_ir(ir, passes, seed=trial)
        assert corrected_count(result.ir, cnf.num_vars,
                               result.forgotten) == cnf.model_count()
        variables = range(1, cnf.num_vars + 1)
        weights = random_weights(rng, variables)
        legacy = nnf_walkers.weighted_model_count(root, weights,
                                                  variables)
        out = facade.query_ir(result.ir, "wmc",
                              num_vars=cnf.num_vars, weights=weights,
                              forgotten=result.forgotten)
        assert out["result"] == pytest.approx(legacy)


# -- Tseitin pruning and the 2^k correction ----------------------------------

def test_tseitin_prune_2k_correction():
    """150 random Tseitin encodings: pruning forgets exactly the k
    recorded auxiliaries, the corrected count equals the formula's
    model count, and the *naive* widened count is 2^k times it."""
    rng = random.Random(4242)
    pruned_hits = 0
    for trial in range(150):
        num_vars = rng.randint(3, 6)
        formula = random_formula(rng, num_vars)
        cnf, _ = tseitin(formula, num_vars=num_vars)
        truth = formula_count(formula, num_vars)
        ir = compile_ir(cnf)
        result = optimize_ir(ir, DEFAULT_PASSES, aux_vars=cnf.aux_vars,
                             seed=trial)
        assert result.forgotten <= cnf.aux_vars
        assert corrected_count(result.ir, cnf.num_vars,
                               result.forgotten) == truth
        if result.forgotten:
            pruned_hits += 1
            k = len(result.forgotten)
            with gate_scope("trust"):
                raw = ir_kernel(result.ir).model_count()
            naive_absent = (set(range(1, cnf.num_vars + 1))
                            - set(result.ir.variables()))
            naive = raw << len(naive_absent)
            assert naive == truth << k
    assert pruned_hits > 50  # pruning actually fires


def test_tseitin_prune_shrinks_circuits():
    rng = random.Random(99)
    total_before = total_after = 0
    for trial in range(20):
        formula = random_formula(rng, 5, depth=4)
        cnf, _ = tseitin(formula, num_vars=5)
        ir = compile_ir(cnf)
        result = optimize_ir(ir, aux_vars=cnf.aux_vars, seed=trial)
        total_before += result.before_nodes
        total_after += result.after_nodes
    assert total_after < total_before


# -- smoothing round-trips ---------------------------------------------------

def test_desmooth_smooth_roundtrip():
    rng = random.Random(5)
    for trial in range(50):
        cnf = random_cnf(rng, max_vars=6)
        ir = compile_ir(cnf)
        smoothed = smooth_ir(ir)
        assert smoothed.has_flag(FLAG_SMOOTH)
        r1 = optimize_ir(smoothed, ("desmooth",), seed=trial)
        r2 = optimize_ir(r1.ir, ("smooth",), seed=trial)
        truth = cnf.model_count()
        for candidate in (smoothed, r1.ir, r2.ir):
            assert corrected_count(candidate, cnf.num_vars,
                                   frozenset()) == truth
        assert r2.ir.has_flag(FLAG_SMOOTH) or not r1.changed


def test_count_only_pipeline_desmooths():
    f = Or(And(Lit(1), Lit(2)), And(Lit(3), Not(Lit(1))))
    cnf, _ = tseitin(f, num_vars=3)
    ir = smooth_ir(compile_ir(cnf))
    result = optimize_ir(ir, COUNT_ONLY_PASSES, aux_vars=cnf.aux_vars)
    assert corrected_count(result.ir, cnf.num_vars,
                           result.forgotten) == formula_count(f, 3)
    assert result.after_nodes <= ir.n


# -- the certification gate itself -------------------------------------------

def test_gate_rejects_unsound_forgetting():
    """Forgetting a non-auxiliary variable changes the count; the
    certification gate must say so."""
    cnf = Cnf([(1, 2), (-1, 3)], num_vars=3)
    ir = compile_ir(cnf)
    candidate, dropped = forget_vars(ir, frozenset([1]))
    reason = certified_equivalent(ir, candidate)
    assert reason is not None


def test_gate_accepts_identity():
    cnf = Cnf([(1, 2), (2, 3)], num_vars=3)
    ir = compile_ir(cnf)
    assert certified_equivalent(ir, ir) is None


def test_pass_manager_rejections_keep_original():
    """A rewrite the gate rejects (here: a forced bogus forget via the
    raw pass function) never replaces the circuit inside the manager;
    statuses record what happened."""
    cnf = Cnf([(1, 2), (-2, 3), (3, 1)], num_vars=3)
    ir = compile_ir(cnf)
    manager = PassManager(DEFAULT_PASSES, aux_vars=())
    result = manager.run(ir)
    # no aux declared: tseitin-prune must not forget anything
    assert result.forgotten == frozenset()
    assert corrected_count(result.ir, cnf.num_vars,
                           frozenset()) == cnf.model_count()
    assert {r.status for r in result.reports} <= {
        "applied", "no-change", "not-smaller", "rejected", "budget"}


def test_parse_passes_and_signature():
    assert parse_passes(None) == DEFAULT_PASSES
    assert parse_passes("cse, const-fold") == ("cse", "const-fold")
    with pytest.raises(ValueError):
        parse_passes("not-a-pass")
    sig = pipeline_signature(DEFAULT_PASSES)
    assert sig == pipeline_signature(list(DEFAULT_PASSES))
    assert sig != pipeline_signature(("cse",))


def test_param_circuits_are_not_optimized():
    from repro.ir.core import IrBuilder
    builder = IrBuilder()
    p = builder.param(0)
    lit = builder.literal(1)
    root = builder.raw_and((p, lit))
    ir = builder.finish(root)
    result = PassManager().run(ir)
    assert result.ir is ir
    assert not result.changed


# -- budget degradation ------------------------------------------------------

def test_budget_exhaustion_degrades_not_errors():
    from repro.limits.budget import Budget
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    ir = compile_ir(cnf)
    budget = Budget(max_nodes=1)  # expires on the first pass
    result = PassManager(aux_vars=cnf.aux_vars).run(ir, budget=budget)
    assert result.budget_hit
    assert corrected_count(result.ir, cnf.num_vars,
                           result.forgotten) == formula_count(formula, 4)


# -- store variants and gc ---------------------------------------------------

def test_store_variant_roundtrip_and_smallest(tmp_path):
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    store = ArtifactStore(str(tmp_path))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    report = facade.optimize_artifact(store, ticket.key,
                                      aux_vars=cnf.aux_vars)
    assert report is not None and not report["cached"]
    again = facade.optimize_artifact(store, ticket.key,
                                     aux_vars=cnf.aux_vars)
    assert again["cached"]
    assert again["after_nodes"] == report["after_nodes"]
    smallest = store.load_smallest(ticket.key)
    assert smallest is not None
    ir, info = smallest
    if report["after_nodes"] < report["before_nodes"]:
        assert ir.n == report["after_nodes"]
        assert info["signature"] == report["signature"]
    # the served answers agree between base and optimized variant
    base = facade.query_artifact(store, ticket.key, "count",
                                 num_vars=ticket.num_vars)
    opt = facade.query_artifact(store, ticket.key, "count",
                                num_vars=ticket.num_vars,
                                optimize=True)
    assert base["result"] == opt["result"] == formula_count(formula, 4)


def test_store_gc_reaps_orphans_and_spares_live_files(tmp_path):
    cnf = Cnf([(1, 2), (-1, 3)], num_vars=3)
    store = ArtifactStore(str(tmp_path))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    facade.optimize_artifact(store, ticket.key)
    # plant orphans in a sharded location the scanner visits
    orphan_csr = store.path_for("f" * 64, "csr")
    orphan_csr.parent.mkdir(parents=True, exist_ok=True)
    orphan_csr.write_bytes(b"junk")
    tmp_file = store.path_for("a" * 64, "nnf.tmp")
    tmp_file.parent.mkdir(parents=True, exist_ok=True)
    tmp_file.write_text("partial")
    now = 2_000_000_000.0
    dry = store.gc(now=now, dry_run=True)
    real = store.gc(now=now)
    assert dry["removed"] == real["removed"] >= 2
    assert dry["reclaimed_bytes"] == real["reclaimed_bytes"] > 0
    assert not orphan_csr.exists() and not tmp_file.exists()
    # live base + variant survive and still answer
    assert store.load_nnf(ticket.key) is not None
    assert facade.query_artifact(store, ticket.key, "count",
                                 num_vars=ticket.num_vars,
                                 optimize=True) is not None


def test_store_variant_is_text_only_and_gc_reaps_old_csr_twins(tmp_path):
    """A variant is its ``.opt-<sig>.nnf`` text (``load_variant``
    parses nothing else); a ``.opt-<sig>.csr`` twin an older store
    wrote is reaped as ``orphan_variant`` and the variant still
    serves."""
    cnf, _ = tseitin(pruned_formula(), num_vars=4)
    store = ArtifactStore(str(tmp_path))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    report = facade.optimize_artifact(store, ticket.key,
                                      aux_vars=cnf.aux_vars)
    signature = report["signature"]
    variant = store.path_for(ticket.key, f"opt-{signature}.nnf")
    twin = store.path_for(ticket.key, f"opt-{signature}.csr")
    assert variant.exists() and not twin.exists()
    blob = b"an older store's variant twin"
    twin.write_bytes(blob)
    report = store.gc(now=0.0)
    assert report["by_class"] == {
        "orphan_variant": {"files": 1, "bytes": len(blob)}}
    assert variant.exists() and not twin.exists()
    ir, info = store.load_smallest(ticket.key)
    assert info["signature"] == signature
    assert facade.query_ir(ir, "count", num_vars=ticket.num_vars,
                           forgotten=info["forgotten"])["result"] == \
        formula_count(pruned_formula(), 4)


def test_store_gc_reaps_generated_sources(tmp_path):
    """Stores written before evaluators were built in-process hold
    ``.gen.py`` sources under the circuit's IR digest, which the
    certificate once vouched for; nothing reads them now, so gc
    reaps every one."""
    cnf = Cnf([(1, 2), (-1, 3), (2, -3)], num_vars=3)
    store = ArtifactStore(str(tmp_path))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    ir = store.load_nnf(ticket.key)
    source = store.path_for(ir.digest(), "gen.py")
    source.parent.mkdir(parents=True, exist_ok=True)
    source.write_text("# repro-codegen/2 sha256:00\n")
    dry = store.gc(now=0.0, dry_run=True)
    assert dry["by_class"]["orphan_gen"]["files"] == 1
    assert source.exists()
    real = store.gc(now=0.0)
    assert real["by_class"] == dry["by_class"]
    assert not source.exists()
    assert facade.query_artifact(store, ticket.key, "count",
                                 num_vars=3)["result"] == 3


# -- aux-variable metadata ---------------------------------------------------

def test_tseitin_records_aux_vars():
    f = Or(And(Lit(1), Lit(2)), Lit(3))
    cnf, root = tseitin(f, num_vars=3)
    assert cnf.aux_vars == frozenset(range(4, cnf.num_vars + 1))
    assert cnf.original_vars() == frozenset([1, 2, 3])
    assert abs(root) in cnf.aux_vars


def test_aux_vars_roundtrip_dimacs():
    cnf = Cnf([(1, 4), (-4, 2)], num_vars=4, aux_vars=[4])
    text = cnf.to_dimacs()
    assert "c p show 1 2 3 0" in text
    back = Cnf.from_dimacs(text)
    assert back.aux_vars == frozenset([4])
    assert back == cnf and hash(back) == hash(cnf)
    plain = Cnf([(1, 4), (-4, 2)], num_vars=4)
    assert plain != cnf  # metadata forks equality (and content keys)
    assert "show" not in plain.to_dimacs()


def test_aux_vars_survive_condition_and_extend():
    cnf = Cnf([(1, 4), (-4, 2)], num_vars=4, aux_vars=[4])
    assert cnf.condition({1: True}).aux_vars == frozenset([4])
    assert cnf.extend([(3,)]).aux_vars == frozenset([4])
    with pytest.raises(ValueError):
        Cnf([(1,)], num_vars=1, aux_vars=[5])  # aux outside 1..n


# -- compile-layer integration -----------------------------------------------

def test_dnnf_compiler_optimize_hook(tmp_path):
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    store = ArtifactStore(str(tmp_path))
    cold = DnnfCompiler(store=store, optimize=True)
    root_cold = cold.compile(cnf)
    assert cold.optimize_report is not None
    warm = DnnfCompiler(store=store, optimize=True)
    root_warm = warm.compile(cnf)
    assert warm.optimize_report.get("cached") is True
    assert root_cold.node_count() == root_warm.node_count()
    ir = nnf_to_ir(root_warm,
                   flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
    assert corrected_count(ir, cnf.num_vars, warm.forgotten_vars) == \
        formula_count(formula, 4)


def test_restarts_minimize():
    from repro.limits.restarts import compile_with_restarts
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    plain = compile_with_restarts(cnf, attempts=3, keep_smallest=True)
    result = compile_with_restarts(cnf, attempts=3, minimize=True)
    assert result.optimize is not None
    assert result.size <= plain.size
    ir = nnf_to_ir(result.root,
                   flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
    assert corrected_count(ir, cnf.num_vars, result.forgotten_vars) \
        == formula_count(formula, 4)


def test_sdd_minimize_cross_checks():
    from repro.ir.lower import sdd_to_ir
    from repro.sdd.compiler import compile_cnf_sdd
    rng = random.Random(31)
    cnf = random_cnf(rng, max_vars=6)
    base, _ = compile_cnf_sdd(cnf, store=None)
    mini, _ = compile_cnf_sdd(cnf, store=None, minimize=True)
    with gate_scope("trust"):
        assert ir_kernel(sdd_to_ir(mini)).model_count() == \
            ir_kernel(sdd_to_ir(base)).model_count()
    assert sdd_to_ir(mini).n <= sdd_to_ir(base).n


# -- serve-layer threading ---------------------------------------------------

def test_protocol_optimize_flag():
    from repro.serve.protocol import (ProtocolError,
                                      parse_compile_request,
                                      parse_query_request)
    req = parse_compile_request(
        b'{"dimacs": "p cnf 1 1\\n1 0\\n", "optimize": true}')
    assert req.optimize is True
    req = parse_query_request(b'{"key": "k", "optimize": true}')
    assert req.optimize is True
    assert parse_query_request(b'{"key": "k"}').optimize is False
    with pytest.raises(ProtocolError):
        parse_compile_request(
            b'{"dimacs": "p cnf 1 1\\n1 0\\n", "optimize": "yes"}')
    with pytest.raises(ProtocolError):
        parse_query_request(b'{"key": "k", "optimize": 1}')


def test_worker_pool_optimized_query(tmp_path):
    from repro.serve.pool import init_worker, run_compile, run_query
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    init_worker(str(tmp_path))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    payload = ticket.as_wire()
    payload["optimize"] = True
    payload["deadline_s"] = 30.0
    reply = run_compile(payload)
    assert reply["status"] == "ok"
    base = run_query({"key": ticket.key, "query": "count",
                      "num_vars": ticket.num_vars})
    opt = run_query({"key": ticket.key, "query": "count",
                     "num_vars": ticket.num_vars, "optimize": True})
    assert base["status"] == opt["status"] == "ok"
    assert base["result"] == opt["result"] == str(formula_count(formula, 4))


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def tseitin_cnf_file(tmp_path):
    formula = pruned_formula()
    cnf, _ = tseitin(formula, num_vars=4)
    path = tmp_path / "tseitin.cnf"
    path.write_text(cnf.to_dimacs())
    return str(path), formula_count(formula, 4)


def test_cli_optimize_command(tseitin_cnf_file, tmp_path, capsys):
    from repro.cli import main
    path, _ = tseitin_cnf_file
    out_path = tmp_path / "out.nnf"
    assert main(["optimize", path, "-o", str(out_path),
                 "--cache-dir", str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out
    assert "c optimize passes" in out
    assert out_path.exists()
    from repro.ir.serialize import ir_from_nnf_text
    ir_from_nnf_text(out_path.read_text())  # parses back


def test_cli_query_optimize_matches_baseline(tseitin_cnf_file,
                                             tmp_path, capsys):
    from repro.cli import main
    path, expected = tseitin_cnf_file
    store = str(tmp_path / "store")
    assert main(["query", path, "--query", "count",
                 "--cache-dir", store]) == 0
    baseline = capsys.readouterr().out
    assert main(["query", path, "--query", "count", "--optimize",
                 "--cache-dir", store]) == 0
    optimized = capsys.readouterr().out
    base_mc = [l for l in baseline.splitlines()
               if l.startswith("s mc")]
    opt_mc = [l for l in optimized.splitlines()
              if l.startswith("s mc")]
    assert base_mc == opt_mc
    assert f"s mc {expected}" in optimized


def test_cli_compile_optimize(tseitin_cnf_file, tmp_path, capsys):
    from repro.cli import main
    path, _ = tseitin_cnf_file
    out_path = tmp_path / "opt.nnf"
    assert main(["compile", path, "--optimize", "-o", str(out_path),
                 "--cache-dir", str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out
    assert "c optimize nodes" in out


def test_cli_cache_gc(tmp_path, capsys):
    from repro.cli import main
    store_dir = tmp_path / "store"
    store = ArtifactStore(str(store_dir))
    orphan = store.path_for("b" * 64, "csr")
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"junk")
    assert main(["cache", "gc", "--cache-dir", str(store_dir),
                 "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "c gc removed 1 (dry-run)" in out
    assert orphan.exists()
    assert main(["cache", "gc", "--cache-dir", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "c gc removed 1" in out
    assert not orphan.exists()
