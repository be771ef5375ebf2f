"""Tests for the DPLL solver and the component-caching model counter."""

from hypothesis import given, settings, strategies as st

from repro.logic import Cnf, exactly_one
from repro.sat import (ModelCounter, count_models, enumerate_models,
                       is_satisfiable, solve)
from repro.sat.dpll import unit_propagate


# -- random CNF strategy -------------------------------------------------------

def cnfs(max_var=5, max_clauses=8, max_clause_len=3):
    literal = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=max_clause_len).map(tuple)
    return st.lists(clause, min_size=0, max_size=max_clauses).map(
        lambda cs: Cnf(cs, num_vars=max_var))


def test_unit_propagation_chains():
    assignment = {}
    reduced = unit_propagate([(1,), (-1, 2), (-2, 3)], assignment)
    assert reduced == []
    assert assignment == {1: True, 2: True, 3: True}


def test_unit_propagation_conflict():
    assignment = {}
    assert unit_propagate([(1,), (-1,)], assignment) is None


def test_solve_simple():
    cnf = Cnf([(1, 2), (-1, 2), (1, -2)])
    model = solve(cnf)
    assert model is not None
    assert cnf.evaluate(model)


def test_solve_unsat():
    cnf = Cnf([(1, 2), (-1, 2), (1, -2), (-1, -2)])
    assert solve(cnf) is None
    assert not is_satisfiable(cnf)


def test_solve_with_assumptions():
    cnf = Cnf([(1, 2)])
    model = solve(cnf, assumptions=[-1])
    assert model is not None and model[2] is True
    assert solve(cnf, assumptions=[-1, -2]) is None


def test_solve_with_conflicting_assumptions():
    cnf = Cnf([(1, 2)])
    assert solve(cnf, assumptions=[1, -1]) is None


def test_solve_returns_complete_model():
    cnf = Cnf([(1,)], num_vars=3)
    model = solve(cnf)
    assert set(model) == {1, 2, 3}


def test_enumerate_models_matches_bruteforce():
    cnf = Cnf([(1, 2), (-2, 3)], num_vars=3)
    expected = {tuple(sorted(m.items())) for m in cnf.models()}
    got = {tuple(sorted(m.items())) for m in enumerate_models(cnf)}
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(cnfs())
def test_solver_agrees_with_bruteforce(cnf):
    brute = cnf.model_count()
    assert is_satisfiable(cnf) == (brute > 0)
    model = solve(cnf)
    if brute > 0:
        assert cnf.evaluate(model)
    else:
        assert model is None


@settings(max_examples=120, deadline=None)
@given(cnfs())
def test_counter_agrees_with_bruteforce(cnf):
    assert count_models(cnf) == cnf.model_count()


@settings(max_examples=60, deadline=None)
@given(cnfs())
def test_counter_optimisation_invariance(cnf):
    """Counts are invariant to the optimisation switches (ABL2 safety)."""
    reference = count_models(cnf, use_components=True, use_cache=True)
    assert count_models(cnf, use_components=False,
                        use_cache=True) == reference
    assert count_models(cnf, use_components=True,
                        use_cache=False) == reference
    assert count_models(cnf, use_components=False,
                        use_cache=False) == reference


@settings(max_examples=60, deadline=None)
@given(cnfs())
def test_enumeration_agrees_with_bruteforce(cnf):
    expected = {tuple(sorted(m.items())) for m in cnf.models()}
    got = {tuple(sorted(m.items())) for m in enumerate_models(cnf)}
    assert got == expected
    assert len(list(enumerate_models(cnf))) == len(expected)


def test_count_with_free_variables():
    cnf = Cnf([(1,)], num_vars=10)
    assert count_models(cnf) == 2 ** 9


def test_count_empty_cnf():
    assert count_models(Cnf([], num_vars=4)) == 16


def test_count_empty_clause():
    assert count_models(Cnf([()], num_vars=4)) == 0


def test_component_counting_multiplies():
    # two independent exactly-one groups: 3 * 3 = 9 models
    clauses = exactly_one([1, 2, 3]) + exactly_one([4, 5, 6])
    cnf = Cnf(clauses, num_vars=6)
    counter = ModelCounter()
    assert counter.count(cnf) == 9


def test_cache_is_used_on_repeated_components():
    # chain structure produces repeated subproblems
    clauses = [(i, i + 1) for i in range(1, 12)]
    cnf = Cnf(clauses, num_vars=12)
    counter = ModelCounter()
    count = counter.count(cnf)
    assert count == cnf.model_count()
    assert counter.cache_hits > 0


def test_counter_statistics_reset_between_runs():
    cnf = Cnf([(1, 2), (-1, 2)], num_vars=2)
    counter = ModelCounter()
    counter.count(cnf)
    first_decisions = counter.decisions
    counter.count(cnf)
    assert counter.decisions == first_decisions
