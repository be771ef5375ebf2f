"""Property-based suite for the flattened IR core.

Three properties, each over hundreds of random circuits:

* **cross-check** — every family's IR-kernel query path agrees with
  the seed's per-family walker in ``tests/oracles`` (model count,
  WMC, MPE, batch WMC) — in total well over 500 random circuits;
* **round-trip** — the canonical serializations (c2d ``.nnf``, libsdd
  ``.sdd``/``.vtree``) are byte-stable under write∘read and preserve
  model counts;
* **freshness** — the content-addressed store returns results
  identical to a cold compile, and kernel memos never serve stale
  values (parameter updates, conditioning, explicit invalidation).
"""

import random

import pytest

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.ir import CircuitIR, ir_kernel, nnf_to_ir, psdd_to_ir
from repro.ir.serialize import (ir_from_nnf_text, ir_to_nnf_text,
                                read_sdd_file, read_vtree_text,
                                write_sdd_file, write_vtree_text)
from repro.logic.cnf import Cnf
from repro.nnf import queries
from repro.nnf.queries import get_kernel
from repro.perf.instrument import Counter
from tests.oracles import (nnf_walkers, obdd_walkers, psdd_walkers,
                           sdd_walkers, weighted_models)


def random_cnf(rng, max_vars=7):
    n = rng.randint(3, max_vars)
    m = rng.randint(n, 3 * n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf(clauses, num_vars=n)


def random_weights(rng, variables):
    weights = {}
    for v in variables:
        weights[v] = rng.uniform(0.1, 1.0)
        weights[-v] = rng.uniform(0.1, 1.0)
    return weights


# -- cross-checks: IR kernel vs the seed's walkers ---------------------------

def test_nnf_kernel_matches_legacy_walkers():
    """200 random d-DNNFs: count, WMC, MPE and batch WMC through the
    IR kernel equal the seed's recursive walkers."""
    rng = random.Random(1405)
    for _ in range(200):
        cnf = random_cnf(rng)
        root = DnnfCompiler().compile(cnf)
        variables = range(1, cnf.num_vars + 1)
        weights = random_weights(rng, variables)

        assert queries.model_count(root, variables) == \
            nnf_walkers.model_count(root, variables)
        assert queries.weighted_model_count(root, weights, variables) \
            == pytest.approx(nnf_walkers.weighted_model_count(
                root, weights, variables))

        value, model = queries.mpe(root, weights, variables)
        legacy_value, _ = nnf_walkers.mpe(root, weights, variables)
        assert value == pytest.approx(legacy_value)
        # the argmax may differ under ties, but its weight may not:
        # complete the traceback model greedily and re-score it
        if value != float("-inf"):
            full = dict(model)
            for var in variables:
                if var not in full:
                    full[var] = weights[var] >= weights[-var]
            assert _model_weight(full, weights) == pytest.approx(value)

        maps = [random_weights(rng, variables) for _ in range(3)]
        batch = queries.weighted_model_count_batch(root, maps, variables)
        for j, column in enumerate(maps):
            assert batch[j] == pytest.approx(
                nnf_walkers.weighted_model_count(root, column,
                                                 variables))


def _model_weight(model, weights):
    value = 1.0
    for var, positive in model.items():
        value *= weights[var if positive else -var]
    return value


def test_obdd_kernel_matches_legacy_walkers():
    """100 random OBDDs: IR-backed count/WMC equal the seed passes."""
    from repro.obdd import ops
    rng = random.Random(2711)
    for _ in range(100):
        cnf = random_cnf(rng, max_vars=6)
        node, manager = ops.compile_cnf_obdd(cnf)
        variables = range(1, cnf.num_vars + 1)
        weights = random_weights(rng, variables)
        assert ops.model_count(node, variables) == \
            obdd_walkers.model_count(node, variables)
        assert ops.weighted_model_count(node, weights, variables) == \
            pytest.approx(obdd_walkers.weighted_model_count(
                node, weights, variables))


def test_sdd_kernel_matches_legacy_walkers():
    """100 random SDDs: IR-backed count/WMC equal the seed's
    plan-based passes."""
    from repro.sdd import queries as sdd_queries
    from repro.sdd.compiler import compile_cnf_sdd
    rng = random.Random(3307)
    for _ in range(100):
        cnf = random_cnf(rng, max_vars=6)
        root, manager = compile_cnf_sdd(cnf)
        weights = random_weights(rng, manager.vtree.variables)
        assert sdd_queries.model_count(root) == \
            sdd_walkers.model_count(root)
        assert sdd_queries.weighted_model_count(root, weights) == \
            pytest.approx(sdd_walkers.weighted_model_count(
                root, weights))


def test_psdd_kernel_matches_legacy_walker():
    """60 random PSDDs (random structure + random evidence): the
    parameterised IR path equals the seed's recursive marginal."""
    from repro.psdd import psdd_from_sdd
    from repro.psdd.queries import marginal
    from repro.sdd.compiler import compile_cnf_sdd
    rng = random.Random(4211)
    built = 0
    while built < 60:
        cnf = random_cnf(rng, max_vars=5)
        root, manager = compile_cnf_sdd(cnf)
        if root.is_false or root.is_true:
            continue
        psdd = psdd_from_sdd(root)
        built += 1
        variables = sorted(manager.vtree.variables)
        picked = rng.sample(variables, rng.randint(0, len(variables)))
        evidence = {v: rng.random() < 0.5 for v in picked}
        assert marginal(psdd, evidence) == \
            pytest.approx(psdd_walkers.marginal(psdd, evidence))


def test_ac_kernel_matches_evaluate():
    """40 random arithmetic circuits: the lowered IR mentions every
    listed variable, and its WMC equals weighted model counting by
    enumeration."""
    from repro.wmc.arithmetic_circuit import ArithmeticCircuit
    rng = random.Random(5903)
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=6)
        root = DnnfCompiler().compile(cnf)
        variables = list(range(1, cnf.num_vars + 1))
        ac = ArithmeticCircuit(root, variables)
        weights = random_weights(rng, variables)
        ir = ac.to_ir()
        if not ir.variables():  # unsatisfiable: the circuit is ⊥
            assert ir_kernel(ir).wmc(weights) == 0.0
            continue
        assert ir.variables() == set(variables)
        assert ir_kernel(ir).wmc(weights) == pytest.approx(
            weighted_models.wmc(weighted_models.models(root, variables),
                                weights))


# -- to_ir() coverage: every family lowers ----------------------------------

def test_every_family_lowers_to_circuit_ir():
    from repro.obdd import ops as obdd_ops
    from repro.psdd import psdd_from_sdd
    from repro.sdd.compiler import compile_cnf_sdd
    from repro.wmc.arithmetic_circuit import ArithmeticCircuit
    cnf = Cnf([(1, 2), (-1, 3), (2, -3)], num_vars=3)

    nnf_root = DnnfCompiler().compile(cnf)
    assert isinstance(nnf_root.to_ir(), CircuitIR)

    obdd_root, _ = obdd_ops.compile_cnf_obdd(cnf)
    assert isinstance(obdd_root.to_ir(), CircuitIR)

    sdd_root, _ = compile_cnf_sdd(cnf)
    assert isinstance(sdd_root.to_ir(), CircuitIR)

    psdd = psdd_from_sdd(sdd_root)
    psdd_ir, params = psdd.to_ir()
    assert isinstance(psdd_ir, CircuitIR)
    assert params and all(isinstance(p, float) for p in params)

    ac = ArithmeticCircuit(nnf_root, [1, 2, 3])
    assert isinstance(ac.to_ir(), CircuitIR)

    # every lowering agrees on the model count (same formula)
    reference = queries.model_count(nnf_root, [1, 2, 3])
    for ir in (obdd_root.to_ir(), sdd_root.to_ir()):
        kernel = ir_kernel(ir)
        count = kernel.model_count() << (3 - len(ir.variables()))
        assert count == reference


# -- canonical serialization round-trips ------------------------------------

def test_nnf_text_roundtrip_byte_stable():
    """write∘read is the identity on .nnf texts, and counts survive."""
    rng = random.Random(6113)
    for _ in range(30):
        cnf = random_cnf(rng)
        root = DnnfCompiler().compile(cnf)
        ir = nnf_to_ir(root)
        text = ir_to_nnf_text(ir)
        parsed = ir_from_nnf_text(text)
        assert ir_to_nnf_text(parsed) == text
        assert ir_kernel(parsed).model_count() == \
            ir_kernel(ir).model_count()
        assert parsed.flags == ir.flags


def test_nnf_text_roundtrip_preserves_dead_nodes():
    """Files may contain unreferenced nodes (c2d emits them); the
    reader must keep them so the write-back is byte-identical."""
    text = "nnf 5 4 2\nL 1\nL -1\nL 2\nA 2 0 2\nA 2 1 2\n"
    parsed = ir_from_nnf_text(text)
    assert parsed.n == 5
    assert ir_to_nnf_text(parsed) == text
    assert ir_kernel(parsed).model_count() == 1


def test_nnf_text_rejects_malformed():
    for bad in ("", "nnf 1 0 0\n", "nnf 1 0 1\nX 1\n",
                "nnf 2 1 1\nL 1\nA 1 5\n",
                "nnf 2 0 1\nL 1\n"):
        with pytest.raises(ValueError):
            ir_from_nnf_text(bad)


def test_sdd_file_roundtrip_byte_stable():
    """write∘read is the identity on .sdd/.vtree texts, and counts
    survive the rebuild."""
    from repro.sdd import queries as sdd_queries
    from repro.sdd.compiler import compile_cnf_sdd
    rng = random.Random(7411)
    done = 0
    while done < 20:
        cnf = random_cnf(rng, max_vars=6)
        root, manager = compile_cnf_sdd(cnf)
        if root.is_false or root.is_true:
            continue
        done += 1
        sdd_text = write_sdd_file(root)
        vtree_text = write_vtree_text(manager.vtree)
        assert write_vtree_text(read_vtree_text(vtree_text)) == vtree_text
        reread, manager2 = read_sdd_file(sdd_text, vtree_text)
        assert write_sdd_file(reread) == sdd_text
        assert sdd_queries.model_count(reread) == \
            sdd_queries.model_count(root)


# -- the content-addressed store --------------------------------------------

def test_store_warm_equals_cold(tmp_path):
    from repro.ir.store import ArtifactStore
    rng = random.Random(8117)
    cnf = random_cnf(rng)
    variables = range(1, cnf.num_vars + 1)
    weights = random_weights(rng, variables)

    cold_root = DnnfCompiler(store=None).compile(cnf)
    store = ArtifactStore(tmp_path)
    miss_compiler = DnnfCompiler(store=store)
    miss_compiler.compile(cnf)
    assert store.stats["artifact_misses"] == 1
    assert store.stats["artifact_writes"] == 1

    hit_compiler = DnnfCompiler(store=store)
    warm_root = hit_compiler.compile(cnf)
    assert store.stats["artifact_hits"] == 1
    assert hit_compiler.stats["artifact_cache_hits"] == 1
    assert store.hit_rate() == pytest.approx(0.5)

    assert queries.model_count(warm_root, variables) == \
        queries.model_count(cold_root, variables)
    assert queries.weighted_model_count(warm_root, weights, variables) \
        == pytest.approx(queries.weighted_model_count(
            cold_root, weights, variables))


def test_store_key_separates_configs(tmp_path):
    from repro.ir.store import artifact_key
    dimacs = Cnf([(1, 2)], num_vars=2).to_dimacs()
    base = artifact_key(dimacs, "dnnf", {"propagator": "watched"})
    assert base == artifact_key(dimacs, "dnnf", {"propagator": "watched"})
    assert base != artifact_key(dimacs, "dnnf", {"propagator": "legacy"})
    assert base != artifact_key(dimacs, "sdd", {"propagator": "watched"})
    assert base != artifact_key(dimacs + "\nc x", "dnnf",
                                {"propagator": "watched"})


# -- kernel freshness (memo staleness regressions) ---------------------------

def test_conditioning_does_not_poison_memos():
    """The seed's walker cached per-(node, query) values that a
    conditioned query could leave stale; the kernel keeps weighted
    passes un-memoised, so an interleaved condition_evaluate must not
    change later counts."""
    cnf = Cnf([(1, 2, 3), (-1, 2), (-2, 3), (1, -3)], num_vars=3)
    root = DnnfCompiler().compile(cnf)
    variables = [1, 2, 3]
    weights = {v: 0.5 for v in variables}
    weights.update({-v: 0.5 for v in variables})
    before = queries.model_count(root, variables)
    queries.condition_evaluate(root, {1: True}, weights)
    queries.condition_evaluate(root, {1: False, 2: True}, weights)
    assert queries.model_count(root, variables) == before
    assert queries.weighted_model_count(root, weights, variables) == \
        pytest.approx(before * 0.5 ** 3)


def test_psdd_parameter_update_is_reflected():
    """θ updates mutate PSDD nodes in place; the structural IR is
    cached but parameters are re-read per query — learning must never
    serve stale marginals."""
    from repro.logic import VarMap, parse, to_cnf
    from repro.psdd import learn_parameters, psdd_from_sdd
    from repro.psdd.queries import marginal
    from repro.sdd.compiler import compile_cnf_sdd
    vm = VarMap()
    f = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    root, _ = compile_cnf_sdd(to_cnf(f))
    psdd = psdd_from_sdd(root)

    ir_before, params_before = psdd_to_ir(psdd)
    before = marginal(psdd, {1: True})

    data = [({1: True, 2: True, 3: True, 4: True}, 5),
            ({1: True, 2: False, 3: True, 4: False}, 3),
            ({1: False, 2: True, 3: False, 4: False}, 2)]
    learn_parameters(psdd, data)

    ir_after, params_after = psdd_to_ir(psdd)
    assert ir_after is ir_before  # structure cache survives updates
    assert params_after != params_before  # parameters do not
    after = marginal(psdd, {1: True})
    assert after != pytest.approx(before)
    assert after == pytest.approx(psdd_walkers.marginal(psdd, {1: True}))


@pytest.mark.parametrize("ir_first", [True, False])
def test_get_kernel_and_ir_kernel_share_one_kernel(ir_first):
    """Either call order yields one kernel for a root's interned IR,
    so a count through one is a memo hit through the other."""
    rng = random.Random(1808 + ir_first)
    cnf = Cnf([tuple(v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, 10), 3))
               for _ in range(12)], num_vars=9)
    root = DnnfCompiler().compile(cnf)
    nnf_to_ir(root)._kernel = None  # no kernel on the interned IR yet
    if ir_first:
        first = ir_kernel(nnf_to_ir(root))
        second = get_kernel(root)
    else:
        first = get_kernel(root)
        second = ir_kernel(nnf_to_ir(root))
    assert first is second
    counted, memoised = Counter(), Counter()
    count = first.model_count(counted)
    assert counted["kernel_memo_hits"] == 0
    assert second.model_count(memoised) == count
    assert memoised["kernel_memo_hits"] == 1


def test_kernel_invalidate_drops_pure_memos():
    cnf = Cnf([(1, 2), (-1, 2, 3)], num_vars=3)
    root = DnnfCompiler().compile(cnf)
    kernel = get_kernel(root)
    count = kernel.model_count()
    assert kernel._model_count == count
    kernel.sat()
    kernel.invalidate()
    assert kernel._model_count is None
    assert kernel._sat is None
    assert kernel._derivatives is None
    assert kernel.model_count() == count


def test_interned_irs_share_kernels_and_memos():
    """Structurally identical circuits intern to one IR object, so the
    kernel (and its memoised count) is computed once."""
    cnf = Cnf([(1, 2), (-2, 3)], num_vars=3)
    ir_a = nnf_to_ir(DnnfCompiler().compile(cnf))
    ir_b = nnf_to_ir(DnnfCompiler().compile(cnf))
    assert ir_a is ir_b
    assert ir_kernel(ir_a) is ir_kernel(ir_b)
