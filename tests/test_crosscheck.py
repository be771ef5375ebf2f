"""Property-based cross-checks for the hot-path engines.

Every optimised engine introduced by the performance layer is compared,
on random 3-CNFs of up to 14 variables, against (a) the seed
implementation it replaced (``tests/oracles``) and (b) brute-force
enumeration:

* watched-literal ``unit_propagate`` vs the seed rescan loop — residual
  clause lists and implied assignments must be *identical*;
* ``solve`` (iterative watched solver) vs the seed recursive DPLL — SAT
  verdicts agree and returned models actually satisfy the formula;
* the one component search in every configuration vs brute force:
  ``ModelCounter`` counts, counting on the compiled Decision-DNNF
  (with and without components, cache or a priority order) and the
  anytime intervals, exact unbudgeted and bracketing under caps;
* dense-array kernel queries vs the seed's NNF walkers
  (``tests/oracles/nnf_walkers.py``).

Plus a regression test that per-circuit kernel memoisation survives
conditioned queries (conditioning must not poison cached pure results).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.limits import Budget, anytime_count
from repro.logic.cnf import Cnf
from repro.nnf import queries
from repro.nnf.transform import smooth
from repro.perf import Counter
from repro.sat import ModelCounter, solve, unit_propagate
from tests.oracles import dpll as seed_dpll
from tests.oracles import nnf_walkers


def cnfs(max_var=14, max_clauses=24):
    literal = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return st.lists(clause, min_size=0, max_size=max_clauses).map(
        lambda cs: Cnf(cs, num_vars=max_var))


def brute_force_count(cnf):
    total = 0
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
               for clause in cnf.clauses):
            total += 1
    return total


@settings(max_examples=60, deadline=None)
@given(cnfs(max_var=8, max_clauses=16))
def test_watched_propagation_matches_legacy(cnf):
    """The watched engine must be a drop-in for the rescan loop: same
    residual, same implied assignment, same conflict verdict."""
    watched_assignment, legacy_assignment = {}, {}
    watched = unit_propagate(list(cnf.clauses), watched_assignment)
    legacy = seed_dpll.unit_propagate(list(cnf.clauses),
                                      legacy_assignment)
    if legacy is None:
        assert watched is None
    else:
        assert watched == legacy
        assert watched_assignment == legacy_assignment


@settings(max_examples=60, deadline=None)
@given(cnfs(max_var=10, max_clauses=20))
def test_solvers_agree(cnf):
    fast = solve(cnf)
    slow = seed_dpll.solve(cnf)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert cnf.evaluate(fast)
        assert cnf.evaluate(slow)


@settings(max_examples=40, deadline=None)
@given(cnfs(max_var=14, max_clauses=24),
       st.permutations(list(range(1, 15))))
def test_counters_and_compiler_agree_with_brute_force(cnf, priority):
    """The one search read through all three algebras — counts, the
    compiled circuit, anytime intervals — agrees with brute force in
    every configuration."""
    expected = brute_force_count(cnf)
    full = range(1, cnf.num_vars + 1)
    for cache_mode in ("hash", "exact"):
        counter = ModelCounter(cache_mode=cache_mode)
        assert counter.count(cnf) == expected
    for config in ({}, {"use_components": False}, {"use_cache": False},
                   {"priority": priority}):
        root = DnnfCompiler(**config).compile(cnf)
        assert queries.model_count(root, full) == expected, config
    exact = anytime_count(cnf)
    assert exact.lower == exact.upper == expected
    for cap in (1, 5, 25):
        bounds = anytime_count(cnf, Budget(max_nodes=cap))
        assert bounds.lower <= expected <= bounds.upper, cap


@settings(max_examples=40, deadline=None)
@given(cnfs(max_var=10, max_clauses=18),
       st.randoms(use_true_random=False))
def test_kernel_queries_match_legacy_queries(cnf, rng):
    root = DnnfCompiler().compile(cnf)
    full = range(1, cnf.num_vars + 1)
    assert queries.is_satisfiable_dnnf(root) == \
        nnf_walkers.is_satisfiable_dnnf(root)
    assert queries.model_count(root, full) == \
        nnf_walkers.model_count(root, full)
    weights = {}
    for var in full:
        p = rng.random()
        weights[var], weights[-var] = p, 1.0 - p
    fast = queries.weighted_model_count(root, weights, full)
    slow = nnf_walkers.weighted_model_count(root, weights, full)
    assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))
    # two variables past the header: wider than any compiled circuit
    wider = range(1, cnf.num_vars + 3)
    for var in wider[cnf.num_vars:]:
        weights[var], weights[-var] = 0.25, 0.75
    for scope in (full, wider):
        fast_mpe = queries.mpe(root, weights, scope)
        slow_mpe = nnf_walkers.mpe(root, weights, scope)
        # both report -inf on unsatisfiable circuits; -inf - -inf is nan
        assert fast_mpe[0] == slow_mpe[0] or \
            abs(fast_mpe[0] - slow_mpe[0]) <= 1e-9 * max(1.0, slow_mpe[0])
        assert set(fast_mpe[1]) == set(slow_mpe[1])
    smoothed = smooth(root)
    for scope in (None, full, wider):
        assert queries.marginal_counts(smoothed, scope) == \
            nnf_walkers.marginal_counts(smoothed, scope)


def test_kernel_memo_survives_conditioning():
    """Regression: a conditioned (evidence-weighted) query between two
    pure queries must not corrupt the per-circuit memo."""
    cnf = Cnf([(1, 2, 3), (-1, 2), (-2, 4), (3, -4), (1, -3, 4)],
              num_vars=4)
    root = DnnfCompiler().compile(cnf)
    smoothed = smooth(root)
    weights = {v: 0.5 for v in range(1, 5)}
    weights.update({-v: 0.5 for v in range(1, 5)})
    before = queries.model_count(smoothed)
    conditioned = queries.condition_evaluate(smoothed, {1: True}, weights)
    stats = Counter()
    after = queries.model_count(smoothed, stats=stats)
    assert after == before
    assert stats["kernel_memo_hits"] == 1
    assert 0.0 <= conditioned <= 1.0


def test_counter_reentrant_under_nested_counts():
    """One ModelCounter instance serves interleaved counts without the
    calls clobbering each other's cache or statistics."""
    counter = ModelCounter()
    a = Cnf([(1, 2), (-1, 2), (2, 3)], num_vars=3)
    b = Cnf([(1,), (2, 3), (-2, -3)], num_vars=3)
    count_a, count_b = counter.count(a), counter.count(b)
    assert count_a == brute_force_count(a)
    assert count_b == brute_force_count(b)
    # stats reflect the most recently completed call
    decisions_b = counter.decisions
    counter.count(b)
    assert counter.decisions == decisions_b
