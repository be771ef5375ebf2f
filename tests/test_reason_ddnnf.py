"""Tests for the Decision-DNNF reason-circuit oracle (its two
computations of the reasons must agree with each other and with the
IR enumerator) and the NNF → OBDD bridge."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.compile import compile_cnf
from repro.explain import sufficient_reasons
from repro.ir.lower import nnf_to_ir
from repro.logic import Cnf, iter_assignments
from repro.obdd import (ObddManager, compile_cnf_obdd, compile_nnf_obdd,
                        model_count)
from tests.oracles.reason_circuit import (reason_circuit_ddnnf,
                                          reason_prime_implicants)
from tests.oracles.sufficient import all_sufficient_reasons


def cnfs(max_var=5, max_clauses=7):
    literal = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return st.lists(clause, min_size=1, max_size=max_clauses).map(
        lambda cs: Cnf(cs, num_vars=max_var))


@settings(max_examples=80, deadline=None)
@given(cnfs(), st.integers(0, 31))
def test_ddnnf_reasons_match_obdd_route(cnf, bits):
    instance = {v: bool((bits >> (v - 1)) & 1)
                for v in range(1, cnf.num_vars + 1)}
    if not cnf.evaluate(instance):
        return  # the ddnnf construction covers positive triggers
    obdd, _m = compile_cnf_obdd(cnf)
    if obdd.is_terminal:
        return
    ddnnf = compile_cnf(cnf)
    circuit = reason_circuit_ddnnf(ddnnf, instance)
    expected = set(all_sufficient_reasons(obdd, instance))
    assert set(reason_prime_implicants(circuit)) == expected
    out = sufficient_reasons(nnf_to_ir(ddnnf), instance)
    assert {frozenset(r) for r in out["reasons"]} == expected


def test_ddnnf_reasons_reject_unsatisfied_instance():
    cnf = Cnf([(1,), (2,)], num_vars=2)
    ddnnf = compile_cnf(cnf)
    with pytest.raises(ValueError):
        reason_circuit_ddnnf(ddnnf, {1: False, 2: True})


def test_ddnnf_reason_on_multi_component_circuit():
    # two independent components force a real and-decomposition
    cnf = Cnf([(1, 2), (3, 4)], num_vars=4)
    ddnnf = compile_cnf(cnf)
    instance = {1: True, 2: False, 3: True, 4: True}
    circuit = reason_circuit_ddnnf(ddnnf, instance)
    reasons = set(reason_prime_implicants(circuit))
    # component reasons combine: {1} × {3}, {1} × {4}
    assert reasons == {frozenset({1, 3}), frozenset({1, 4})}


@settings(max_examples=60, deadline=None)
@given(cnfs())
def test_nnf_to_obdd_bridge(cnf):
    root = compile_cnf(cnf)
    manager = ObddManager(range(1, cnf.num_vars + 1))
    node = compile_nnf_obdd(root, manager)
    for a in iter_assignments(range(1, cnf.num_vars + 1)):
        assert node.evaluate(a) == cnf.evaluate(a)
    assert model_count(node) == cnf.model_count()


# -- regression: decision-gate guards in arbitrary conjunct positions ---------

def permuted_decision_gate():
    """(1 ∧ 3) ∨ (2 ∧ ¬3): the guard ±3 is the *second* conjunct of
    each branch — compilers and hand-built figures order freely."""
    from repro.nnf.node import NnfManager
    manager = NnfManager()
    first = manager.conjoin(manager.literal(1), manager.literal(3))
    second = manager.conjoin(manager.literal(2), manager.literal(-3))
    return manager, manager.disjoin(first, second)


def test_is_decision_node_guard_not_first():
    """is_decision_node used to require the guard literal in child
    position 0 (regression)."""
    from repro.nnf.properties import is_decision_dnnf, is_decision_node
    _manager, gate = permuted_decision_gate()
    assert [c.literal for c in gate.children[0].children] == [1, 3]
    assert is_decision_node(gate) == 3
    assert is_decision_dnnf(gate)


def test_reason_ddnnf_guard_not_first():
    """reason_circuit_ddnnf extracts guard/rest wherever the guard
    sits, matching the OBDD route (regression)."""
    _manager, gate = permuted_decision_gate()
    instance = {1: True, 2: True, 3: True}
    circuit = reason_circuit_ddnnf(gate, instance)
    manager = ObddManager([1, 2, 3])
    obdd = (manager.literal(1) & manager.literal(3)) | \
        (manager.literal(2) & manager.literal(-3))
    assert set(reason_prime_implicants(circuit)) == \
        set(all_sufficient_reasons(obdd, instance)) == \
        {frozenset({1, 2}), frozenset({1, 3})}
