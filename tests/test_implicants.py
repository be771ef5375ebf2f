"""Tests for the Decision-DNNF prime-implicant enumerator
(``repro.explain.implicants``) and its facade / serve / CLI plumbing.

The heart is randomized certification: ≥500 random circuits where the
IR enumerator must agree exactly with the ground truth in
``tests/oracles`` (the brute-force OBDD reasons and the reason-circuit
antichain), plus the anytime contract (budget expiry degrades, never
lies), the hardness boundary on tractable families, forgotten-auxiliary
exclusion, and the query-gate discipline.
"""

import json
import random

import pytest

from repro.analyze.gate import PropertyViolation, gate_scope
from repro.compile import compile_cnf
from repro.compile.dnnf_compiler import DnnfCompiler
from repro.explain import (check_necessary_batch, check_sufficient_batch,
                           iter_sufficient_reasons, necessary_literals,
                           reason_graph, sufficient_reasons)
from repro.ir import facade
from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
from repro.ir.lower import nnf_to_ir, obdd_to_ir
from repro.limits import Budget, BudgetExceeded
from repro.logic import Cnf
from repro.logic.formula import And, Lit, Not, Or
from repro.logic.tseitin import tseitin
from repro.obdd import ObddManager, compile_cnf_obdd
from repro.perf.instrument import Counter
from tests.oracles.reason_circuit import (reason_circuit_ddnnf,
                                          reason_prime_implicants)
from tests.oracles.sufficient import (all_sufficient_reasons,
                                      is_sufficient_reason)


def random_cnf(rng, max_vars=8):
    n = rng.randint(2, max_vars)
    m = rng.randint(1, int(2.5 * n))
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), min(width, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in vs))
    return Cnf(clauses, num_vars=n)


def satisfying_instance(cnf, rng, tries=12):
    for _ in range(tries):
        instance = {v: rng.random() < 0.5
                    for v in range(1, cnf.num_vars + 1)}
        if cnf.evaluate(instance):
            return instance
    return None


def compile_ir(cnf):
    root = DnnfCompiler().compile(cnf)
    return nnf_to_ir(root,
                     flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)


def reason_intersection(reasons):
    """The necessary literals by definition: those in every reason."""
    common = frozenset.intersection(*reasons) if reasons else frozenset()
    return sorted(common, key=abs)


# -- randomized certification against the OBDD ground truth -------------------

def test_enumerator_matches_obdd_route_on_500_circuits():
    """≥500 random positive-decision circuits: the IR enumerator, the
    OBDD brute force, and the ddnnf reason-circuit antichain all
    agree exactly; so do the necessary-literal sets."""
    rng = random.Random(20260808)
    checked = 0
    for trial in range(4000):
        if checked >= 500:
            break
        cnf = random_cnf(rng)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        obdd, _manager = compile_cnf_obdd(cnf)
        expected = set(all_sufficient_reasons(obdd, instance))
        ddnnf = compile_cnf(cnf)
        ir = nnf_to_ir(ddnnf)
        out = sufficient_reasons(ir, instance)
        assert out["complete"] and out["decision"]
        assert {frozenset(r) for r in out["reasons"]} == expected
        # the reason-circuit antichain route agrees too
        antichain = reason_prime_implicants(
            reason_circuit_ddnnf(ddnnf, instance))
        assert set(antichain) == expected
        # necessary literals = intersection of all reasons
        assert necessary_literals(ir, instance) == \
            reason_intersection(list(expected))
        checked += 1
    assert checked >= 500


def test_reasons_are_sorted_and_unique():
    rng = random.Random(5)
    for _ in range(30):
        cnf = random_cnf(rng, max_vars=6)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        out = sufficient_reasons(compile_ir(cnf), instance)
        reasons = [tuple(r) for r in out["reasons"]]
        assert len(set(reasons)) == len(reasons)
        # repo convention: (size, abs-ordered literal list)
        keyed = [(len(r), list(r)) for r in reasons]
        assert keyed == sorted(keyed)


def test_reason_graph_keeps_only_reachable_nodes():
    """72 random Decision-DNNF decisions: every node of the reason
    graph is reachable from its root, so ``size`` (what each probe
    walks and charges to the budget) counts exactly those, and every
    reason still triggers the graph."""
    rng = random.Random(27)
    built = 0
    while built < 72:
        cnf = random_cnf(rng)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        ir = compile_ir(cnf)
        graph = reason_graph(ir, instance)
        reachable = set()
        stack = [graph.root]
        while stack:
            idx = stack.pop()
            if idx not in reachable:
                reachable.add(idx)
                stack.extend(graph.children[idx])
        assert graph.size == len(reachable) == len(graph.kinds)
        for reason in sufficient_reasons(ir, instance)["reasons"]:
            assert graph.evaluate(set(reason))
        built += 1


# -- delay on the tractable fragment ------------------------------------------

def test_polynomial_delay_on_conjunction():
    """f = x1 ∧ ... ∧ xn has one reason (the full term); the whole
    enumeration is n+1 probes of one greedy pass each."""
    n = 12
    cnf = Cnf([(v,) for v in range(1, n + 1)], num_vars=n)
    instance = {v: True for v in range(1, n + 1)}
    stats = Counter()
    out = sufficient_reasons(compile_ir(cnf), instance, stats=stats)
    assert out["reasons"] == [list(range(1, n + 1))]
    assert out["probes"] == n + 1
    # each probe is at most 1 + n monotone evaluations
    assert stats["explain_evals"] <= (n + 1) * (n + 1)


def test_polynomial_delay_on_disjunction():
    """f = x1 ∨ ... ∨ xn has n singleton reasons; each emission costs
    one probe and pushes one successor — n+1 probes total."""
    n = 12
    cnf = Cnf([tuple(range(1, n + 1))], num_vars=n)
    instance = {v: True for v in range(1, n + 1)}
    stats = Counter()
    out = sufficient_reasons(compile_ir(cnf), instance, stats=stats)
    assert out["reasons"] == [[v] for v in range(1, n + 1)]
    assert out["probes"] <= n + 1


def test_first_reason_is_one_probe():
    """Delay to the first reason is a single greedy pass regardless
    of how many reasons exist."""
    rng = random.Random(11)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=7)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        ir = compile_ir(cnf)
        stats = Counter()
        first = next(iter_sufficient_reasons(ir, instance,
                                             stats=stats), None)
        assert first is not None
        assert stats["explain_probes"] == 1


# -- anytime budget governance ------------------------------------------------

def test_budget_expiry_degrades_to_valid_partial():
    """An expired budget yields the reasons found so far — each one a
    true minimal sufficient reason — plus a structured partial
    marker; it never raises and never fabricates."""
    rng = random.Random(99)
    exercised_partial = False
    for _ in range(25):
        cnf = random_cnf(rng, max_vars=8)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        ir = compile_ir(cnf)
        obdd, _m = compile_cnf_obdd(cnf)
        for cap in (1, 64, 512, 4096):
            out = sufficient_reasons(ir, instance,
                                     budget=Budget(max_nodes=cap))
            for reason in out["reasons"]:
                assert is_sufficient_reason(obdd, instance, reason)
            if not out["complete"]:
                exercised_partial = True
                assert out["partial"]["reason"] == "nodes"
                assert out["partial"]["budget"]["max_nodes"] == cap
    assert exercised_partial


def test_iterator_stops_silently_on_ambient_budget():
    cnf = Cnf([tuple(range(1, 9))], num_vars=8)
    instance = {v: True for v in range(1, 9)}
    ir = compile_ir(cnf)
    with Budget(max_nodes=1).scope():
        got = list(iter_sufficient_reasons(ir, instance))
    assert got == []  # expired before the first probe — no raise


def test_limit_stops_early_without_partial():
    cnf = Cnf([tuple(range(1, 7))], num_vars=6)
    instance = {v: True for v in range(1, 7)}
    out = sufficient_reasons(compile_ir(cnf), instance, limit=2)
    assert len(out["reasons"]) == 2
    assert not out["complete"]
    assert "partial" not in out


def test_necessary_literals_budget_raises():
    """necessary_literals is a complete check, not anytime."""
    cnf = Cnf([(1, 2), (3, 4)], num_vars=4)
    instance = {1: True, 2: False, 3: True, 4: True}
    ir = compile_ir(cnf)
    with pytest.raises(BudgetExceeded):
        necessary_literals(ir, instance, budget=Budget(max_nodes=1))


# -- constants, negative decisions, malformed inputs --------------------------

def test_constant_true_has_empty_reason():
    ir = compile_ir(Cnf([], num_vars=2))
    out = sufficient_reasons(ir, {1: True, 2: False})
    assert out["reasons"] == [[]] and out["complete"]
    obdd, _m = compile_cnf_obdd(Cnf([], num_vars=2))
    assert all_sufficient_reasons(obdd, {1: True, 2: False}) == \
        [frozenset()]


def test_constant_false_is_negative_decision():
    cnf = Cnf([(1,), (-1,)], num_vars=1)
    ir = compile_ir(cnf)
    with pytest.raises(ValueError, match="negative decision"):
        sufficient_reasons(ir, {1: True})
    # the OBDD route explains the complement: the empty reason
    obdd, _m = compile_cnf_obdd(cnf)
    assert all_sufficient_reasons(obdd, {1: True}) == [frozenset()]


def test_negative_decision_via_complement_circuit():
    """The documented negative-decision route: compile the complement
    (here by negating the OBDD and lowering it — an OBDD is a
    Decision-DNNF) and enumerate on that; matches the OBDD ground
    truth, which explains negative decisions through f̄ directly."""
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        if checked >= 25:
            break
        cnf = random_cnf(rng, max_vars=6)
        instance = {v: rng.random() < 0.5
                    for v in range(1, cnf.num_vars + 1)}
        if cnf.evaluate(instance):
            continue
        obdd, manager = compile_cnf_obdd(cnf)
        if obdd.is_terminal:
            continue
        expected = set(all_sufficient_reasons(obdd, instance))
        complement_ir = obdd_to_ir(manager.negate(obdd))
        out = sufficient_reasons(complement_ir, instance)
        assert {frozenset(r) for r in out["reasons"]} == expected
        checked += 1
    assert checked >= 25


def test_guard_permuted_decision_gate_on_ir():
    """IR-level twin of the is_decision_node regression: the guard
    may be any conjunct of a branch."""
    from repro.nnf.node import NnfManager
    manager = NnfManager()
    gate = manager.disjoin(
        manager.conjoin(manager.literal(1), manager.literal(3)),
        manager.conjoin(manager.literal(2), manager.literal(-3)))
    assert [c.literal for c in gate.children[0].children] == [1, 3]
    ir = nnf_to_ir(gate)
    out = sufficient_reasons(ir, {1: True, 2: True, 3: True})
    assert out["reasons"] == [[1, 2], [1, 3]]


def test_missing_instance_variables_rejected():
    ir = compile_ir(Cnf([(1, 2), (3,)], num_vars=3))
    with pytest.raises(ValueError, match=r"variables \[2, 3\]"):
        sufficient_reasons(ir, {1: True})


def test_non_decision_circuit_rejected():
    from repro.nnf.node import NnfManager
    manager = NnfManager()
    tangled = manager.disjoin(manager.literal(1), manager.literal(2))
    ir = nnf_to_ir(tangled)
    with pytest.raises(ValueError, match="Decision-DNNF"):
        sufficient_reasons(ir, {1: True, 2: True})


def test_strict_gate_refuses_uncertified_circuit():
    """Under the strict gate a non-deterministic circuit is refused
    with a PropertyViolation before any enumeration runs."""
    from repro.nnf.node import NnfManager
    manager = NnfManager()
    tangled = manager.disjoin(manager.literal(1), manager.literal(2))
    ir = nnf_to_ir(tangled)
    with gate_scope("strict"):
        with pytest.raises(PropertyViolation):
            sufficient_reasons(ir, {1: True, 2: True})
    with gate_scope("strict"):
        ok = compile_ir(Cnf([(1, 2)], num_vars=2))
        out = sufficient_reasons(ok, {1: True, 2: False})
        assert out["complete"]


# -- forgotten Tseitin auxiliaries --------------------------------------------

def pruned_formula():
    """A formula whose Tseitin encoding shrinks under the default
    pipeline with every auxiliary forgotten (same fixture as
    test_passes)."""
    return Or(And(Lit(1), Lit(2)), And(Lit(3), Not(Lit(1))),
              And(Lit(2), Lit(4)))


def test_forgotten_auxiliaries_never_in_reasons():
    from repro.ir.passes import optimize_ir
    formula = pruned_formula()
    cnf, _root = tseitin(formula)
    ir = compile_ir(cnf)
    result = optimize_ir(ir, aux_vars=sorted(cnf.aux_vars))
    assert result.forgotten, "fixture must actually forget auxiliaries"
    # every auxiliary left the circuit: reasons are over user vars
    assert set(result.ir.variables()) <= \
        set(range(1, 5)), "fixture must prune all auxiliaries"
    instance = {1: True, 2: True, 3: False, 4: False}
    out = sufficient_reasons(result.ir, instance,
                             forgotten=result.forgotten)
    assert out["complete"]
    aux = set(cnf.aux_vars)
    for reason in out["reasons"]:
        assert not {abs(lit) for lit in reason} & aux
    # the pruned circuit is the projection onto user variables, so
    # the reasons match the formula's own OBDD exactly
    m = ObddManager([1, 2, 3, 4])
    f = (m.literal(1) & m.literal(2)) | \
        (m.literal(3) & m.literal(-1)) | \
        (m.literal(2) & m.literal(4))
    assert {frozenset(r) for r in out["reasons"]} == \
        set(all_sufficient_reasons(f, instance))


def test_count_oracle_fallback_on_guardless_variant():
    """Forgetting a guard auxiliary can leave a disjoint or-gate with
    no complementary literal pair.  Enumeration then falls back to
    the counting oracle — and must still match the OBDD of the
    projection on every instance, positive or negative."""
    import itertools
    from repro.ir.passes import optimize_ir
    formula = pruned_formula()
    cnf, _root = tseitin(formula)
    result = optimize_ir(compile_ir(cnf), aux_vars=sorted(cnf.aux_vars))
    m = ObddManager([1, 2, 3, 4])
    f = (m.literal(1) & m.literal(2)) | \
        (m.literal(3) & m.literal(-1)) | \
        (m.literal(2) & m.literal(4))
    fallbacks = 0
    for bits in itertools.product([False, True], repeat=4):
        instance = dict(zip([1, 2, 3, 4], bits))
        if formula.evaluate(instance):
            out = sufficient_reasons(result.ir, instance,
                                     forgotten=result.forgotten)
            fallbacks += out["oracle"] == "count"
            assert out["complete"]
            assert {frozenset(r) for r in out["reasons"]} == \
                set(all_sufficient_reasons(f, instance))
            assert necessary_literals(
                result.ir, instance,
                forgotten=result.forgotten) == reason_intersection(
                    [frozenset(r) for r in out["reasons"]])
        else:
            with pytest.raises(ValueError, match="negative decision"):
                sufficient_reasons(result.ir, instance,
                                   forgotten=result.forgotten)
    assert fallbacks > 0, "fixture must actually exercise the fallback"


def test_count_oracle_budget_degrades():
    """The counting fallback keeps the anytime contract: expiry mid-
    enumeration yields only verified reasons and a partial marker."""
    from repro.ir.passes import optimize_ir
    formula = pruned_formula()
    cnf, _root = tseitin(formula)
    result = optimize_ir(compile_ir(cnf), aux_vars=sorted(cnf.aux_vars))
    instance = {1: True, 2: True, 3: True, 4: True}
    full = sufficient_reasons(result.ir, instance,
                              forgotten=result.forgotten)
    assert full["oracle"] == "count" and full["complete"]
    n = result.ir.n
    saw_partial = False
    for cap in (n, 8 * n, 64 * n):
        out = sufficient_reasons(result.ir, instance,
                                 forgotten=result.forgotten,
                                 budget=Budget(max_nodes=cap))
        truth = {frozenset(r) for r in full["reasons"]}
        assert {frozenset(r) for r in out["reasons"]} <= truth
        if not out["complete"]:
            saw_partial = True
            assert out["partial"]["reason"] == "nodes"
    assert saw_partial


def test_leaked_forgotten_variable_rejected():
    ir = compile_ir(Cnf([(1, 2)], num_vars=2))
    with pytest.raises(ValueError, match="forgotten"):
        sufficient_reasons(ir, {1: True, 2: True}, forgotten=[2])


# -- batched dataset checks ---------------------------------------------------

def test_batched_checks_agree_with_scalar():
    """Random mixed-decision datasets: the two-pass numpy route gives
    exactly the OBDD oracle's answers for sufficiency and necessity
    (the intersection of the brute-force reasons)."""
    rng = random.Random(7)
    total = 0
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=7)
        ir = compile_ir(cnf)
        obdd, _m = compile_cnf_obdd(cnf)
        n = cnf.num_vars
        instances, terms, literals = [], [], []
        for _ in range(16):
            inst = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            instances.append(inst)
            tvars = rng.sample(range(1, n + 1), rng.randint(0, n))
            terms.append([(v if inst[v] else -v)
                          if rng.random() < 0.8
                          else (-v if inst[v] else v) for v in tvars])
            lv = rng.randint(1, n)
            literals.append((lv if inst[lv] else -lv)
                            if rng.random() < 0.8
                            else (-lv if inst[lv] else lv))
        got = check_sufficient_batch(ir, instances, terms)
        want = [is_sufficient_reason(obdd, inst, t,
                                     check_minimal=False)
                for inst, t in zip(instances, terms)]
        assert got == want
        gotn = check_necessary_batch(ir, instances, literals)
        for inst, lit, value in zip(instances, literals, gotn):
            # a non-instance literal is in no reason: never necessary
            assert value == (lit in reason_intersection(
                all_sufficient_reasons(obdd, inst)))
        total += len(instances)
    assert total >= 500


def test_batched_check_validates_shapes():
    ir = compile_ir(Cnf([(1, 2)], num_vars=2))
    with pytest.raises(ValueError, match="instances"):
        check_sufficient_batch(ir, [{1: True, 2: True}], [])
    assert check_sufficient_batch(ir, [], []) == []
    with pytest.raises(ValueError, match="does not assign"):
        check_sufficient_batch(ir, [{1: True}], [[1]])


def test_batched_check_on_enumerated_reasons():
    """Every enumerated reason passes the batched sufficiency check;
    dropping any literal from a singleton-free reason fails it."""
    rng = random.Random(13)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=6)
        instance = satisfying_instance(cnf, rng)
        if instance is None:
            continue
        ir = compile_ir(cnf)
        reasons = sufficient_reasons(ir, instance)["reasons"]
        if not reasons:
            continue
        instances = [instance] * len(reasons)
        assert all(check_sufficient_batch(ir, instances, reasons))
        shrunk = [r[:-1] for r in reasons if r]
        if shrunk:
            got = check_sufficient_batch(
                ir, [instance] * len(shrunk), shrunk)
            assert not any(got)  # minimality: strict subsets fail


# -- facade / serve / CLI plumbing --------------------------------------------

def test_explain_artifact_roundtrip(tmp_path):
    store_dir = str(tmp_path / "store")
    from repro.ir.store import ArtifactStore
    store = ArtifactStore(store_dir)
    ticket = facade.compile_ticket("p cnf 3 2\n1 2 0\n-1 3 0\n")
    facade.compile_to_store(ticket, store)
    out = facade.explain_artifact(store, ticket.key,
                                  {1: True, 2: False, 3: True})
    assert out["query"] == "explain"
    assert out["reasons"] == [[1, 3]] and out["complete"]
    assert facade.explain_artifact(store, "missing",
                                   {1: True}) is None


def test_explain_artifact_optimized_variant(tmp_path):
    """optimize=True explains on the pruned variant; forgotten
    auxiliaries are excluded and the instance need not assign them."""
    from repro.ir.store import ArtifactStore
    cnf, _root = tseitin(pruned_formula())
    store = ArtifactStore(str(tmp_path / "store"))
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    report = facade.optimize_artifact(store, ticket.key,
                                      aux_vars=sorted(cnf.aux_vars))
    assert report and report["forgotten_vars"]
    instance = {1: True, 2: True, 3: False, 4: False}
    out = facade.explain_artifact(store, ticket.key, instance,
                                  optimize=True)
    assert out["complete"]
    aux = set(cnf.aux_vars)
    for reason in out["reasons"]:
        assert not {abs(lit) for lit in reason} & aux


def test_serve_explain_roundtrip(tmp_path):
    """Protocol parse → worker dispatch → anytime degradation, all
    through the serve entry points (thread-pool worker path)."""
    from repro.serve import pool
    from repro.serve.protocol import ProtocolError, parse_query_request
    from repro.ir.store import ArtifactStore
    root = str(tmp_path / "store")
    pool.init_worker(root)
    store = ArtifactStore(root)
    ticket = facade.compile_ticket("p cnf 3 2\n1 2 0\n-1 3 0\n")
    facade.compile_to_store(ticket, store)

    body = json.dumps({"key": ticket.key, "query": "explain",
                       "instance": {"1": True, "2": False,
                                    "3": True}}).encode()
    request = parse_query_request(body)
    assert request.query == "explain"
    assert request.instance == {1: True, 2: False, 3: True}
    payload = {"key": request.key, "query": request.query,
               "num_vars": request.num_vars, "weights": None,
               "weight_batch": None, "deadline_s": request.deadline_s,
               "optimize": request.optimize,
               "instance": {str(v): s
                            for v, s in request.instance.items()},
               "limit": request.limit, "smallest": request.smallest}
    reply = pool.run_query(payload)
    assert reply["status"] == "ok"
    assert reply["reasons"] == [[1, 3]] and reply["complete"]

    # negative decision → invalid (400), not a crash
    bad = dict(payload, instance={"1": False, "2": False, "3": True})
    assert pool.run_query(bad)["status"] == "invalid"

    # unknown key → not_found (404)
    missing = dict(payload, key="deadbeef")
    assert pool.run_query(missing)["status"] == "not_found"

    # malformed protocol bodies → ProtocolError (400)
    with pytest.raises(ProtocolError, match="instance"):
        parse_query_request(json.dumps(
            {"key": "k", "query": "explain"}).encode())
    with pytest.raises(ProtocolError, match="only valid"):
        parse_query_request(json.dumps(
            {"key": "k", "query": "count",
             "instance": {"1": True}}).encode())
    with pytest.raises(ProtocolError, match="boolean"):
        parse_query_request(json.dumps(
            {"key": "k", "query": "explain",
             "instance": {"1": 1}}).encode())


def test_cli_explain(tmp_path, capsys):
    from repro.cli import main
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert main(["explain", str(cnf_path), "--instance", "1,-2,3",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "s decision 1" in out
    assert "v 1 3 0" in out
    assert "s reasons 1 complete" in out
    # negative decision: structured error, exit 2
    assert main(["explain", str(cnf_path), "--instance=-1,-2,3",
                 "--cache-dir", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert "negative decision" in err


def test_cli_explain_smallest_and_budget(tmp_path, capsys):
    from repro.cli import main
    cnf_path = tmp_path / "g.cnf"
    cnf_path.write_text("p cnf 4 2\n1 2 0\n3 4 0\n")
    assert main(["explain", str(cnf_path), "--instance", "1,2,3,4",
                 "--smallest",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "s reasons 1 complete" in out
