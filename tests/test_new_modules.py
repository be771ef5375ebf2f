"""Tests for CNF generators, subset spaces and PSDD EM."""

import math
import random

import pytest

from repro.logic import (iter_assignments, pair_biconditionals,
                         parity_chain, pigeonhole, random_kcnf)
from repro.psdd import (em_learn, incomplete_log_likelihood,
                        learn_parameters, log_likelihood, marginal,
                        psdd_from_sdd)
from repro.sat import count_models, is_satisfiable
from repro.sdd import compile_cnf_sdd, model_count
from repro.spaces import SubsetSpace, exactly_k_sdd
from repro.sdd import SddManager
from repro.vtree import balanced_vtree


# -- generators -------------------------------------------------------------------

def test_random_kcnf_shape():
    rng = random.Random(0)
    cnf = random_kcnf(10, 20, k=3, rng=rng)
    assert cnf.num_vars == 10
    assert len(cnf) == 20
    for clause in cnf:
        assert len(clause) == 3
        assert len({abs(l) for l in clause}) == 3
    with pytest.raises(ValueError):
        random_kcnf(2, 5, k=3)


def test_pigeonhole_unsat():
    for holes in (1, 2, 3):
        assert not is_satisfiable(pigeonhole(holes))
    with pytest.raises(ValueError):
        pigeonhole(0)


def test_parity_chain_counts():
    for n in (1, 2, 3, 5):
        cnf = parity_chain(n)
        # aux variables are determined, so the count is 2^(n-1)
        assert count_models(cnf) == 2 ** (n - 1)
        # and models restricted to x have odd parity
        for model in cnf.models():
            parity = sum(model[v] for v in range(1, n + 1)) % 2
            assert parity == 1


def test_pair_biconditionals_counts():
    for pairs in (1, 2, 4):
        cnf = pair_biconditionals(pairs)
        assert count_models(cnf) == 2 ** pairs


# -- subset spaces ------------------------------------------------------------------

def test_exactly_k_counts():
    manager = SddManager(balanced_vtree(range(1, 7)))
    for k in range(0, 7):
        node = exactly_k_sdd(manager, range(1, 7), k)
        assert model_count(node) == math.comb(6, k)
    with pytest.raises(ValueError):
        exactly_k_sdd(manager, range(1, 7), 9)


def test_exactly_k_sdd_size_is_linear():
    """The DP gives O(n·k) circuits on the right-linear vtree that
    matches its order — the [77] tractability claim."""
    from repro.vtree import right_linear_vtree
    sizes = []
    for n in (8, 12, 16):
        manager = SddManager(right_linear_vtree(range(1, n + 1)))
        node = exactly_k_sdd(manager, range(1, n + 1), 3)
        sizes.append(node.size())
    # arithmetic (linear) growth: equal increments for equal n steps
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1]
    assert sizes[2] <= 8 * 16  # well within O(n·k)


def test_subset_space_roundtrip():
    space = SubsetSpace(6, 2)
    assignment = space.subset_assignment([2, 5])
    assert space.assignment_subset(assignment) == [2, 5]
    assert space.sdd.evaluate(assignment)
    with pytest.raises(ValueError):
        space.subset_assignment([1])
    with pytest.raises(ValueError):
        space.subset_assignment([1, 9])
    bad = {v: v <= 3 for v in space.variables()}  # 3 items, not 2
    assert not space.sdd.evaluate(bad)
    with pytest.raises(ValueError):
        space.assignment_subset(bad)


def test_subset_space_learning():
    space = SubsetSpace(5, 2)
    psdd = space.psdd()
    data = [(space.subset_assignment([1, 2]), 6),
            (space.subset_assignment([1, 3]), 3),
            (space.subset_assignment([4, 5]), 1)]
    learn_parameters(psdd, data)
    total = sum(psdd.probability(a)
                for a in iter_assignments(space.variables())
                if space.sdd.evaluate(a))
    assert total == pytest.approx(1.0)
    # item 1 appears in 9 of 10 observed subsets
    assert marginal(psdd, {1: True}) == pytest.approx(0.9)


# -- EM for incomplete data ------------------------------------------------------------

def _enrollment_psdd():
    from repro.logic import VarMap, parse, to_cnf
    vm = VarMap()
    f = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    root, _m = compile_cnf_sdd(to_cnf(f))
    return psdd_from_sdd(root)


def test_em_matches_closed_form_on_complete_data():
    data = [({1: True, 2: True, 3: True, 4: True}, 6),
            ({1: True, 2: True, 3: False, 4: False}, 54),
            ({1: True, 2: False, 3: True, 4: False}, 10),
            ({1: False, 2: True, 3: False, 4: False}, 30)]
    closed = _enrollment_psdd()
    learn_parameters(closed, data)
    em = _enrollment_psdd()
    trace = em_learn(em, data, iterations=50, alpha=0.0)
    assert trace[-1] == pytest.approx(log_likelihood(closed, data))


def test_em_is_monotone_on_incomplete_data():
    psdd = _enrollment_psdd()
    data = [({1: True, 2: True}, 20), ({3: False}, 10),
            ({1: False, 4: False}, 8), ({2: True, 4: True}, 5)]
    trace = em_learn(psdd, data, iterations=40, alpha=0.01)
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9
    # trace entries are computed before each M-step, so the final
    # parameters can only be at least as good as the last entry
    assert incomplete_log_likelihood(psdd, data) >= trace[-1] - 1e-9


def test_em_improves_over_uniform_start():
    psdd = _enrollment_psdd()
    data = [({1: True, 2: True}, 15), ({1: True, 3: False}, 10)]
    before = incomplete_log_likelihood(psdd, data)
    em_learn(psdd, data, iterations=25, alpha=0.01)
    after = incomplete_log_likelihood(psdd, data)
    assert after > before


def _active_parameters(psdd, assignment):
    """``(node id, k)`` of every θ a complete ``assignment`` reads: at
    each decision on its path the element whose prime holds, at each
    Bernoulli its value (``k = 1`` for X, ``0`` for ¬X)."""
    used = []
    stack = [psdd]
    while stack:
        node = stack.pop()
        if node.is_bernoulli:
            used.append((node.id, int(assignment[abs(node.literal)])))
        elif node.is_decision:
            for k, (prime, sub, _theta) in enumerate(node.elements):
                if prime.contains(assignment):
                    used.append((node.id, k))
                    stack.extend((prime, sub))
                    break
    return used


def test_em_step_sets_brute_force_expected_counts():
    """One EM iteration with ``alpha=0`` sets every θ to its normalized
    expected count: each completion x of a partial example e adds
    count(e) · Pr(x) / Pr(e) to every θ on x's path."""
    psdd = _enrollment_psdd()
    rng = random.Random(7)
    for node in psdd.descendants():
        if node.is_bernoulli:
            node.theta = rng.uniform(0.2, 0.8)
        elif node.is_decision:
            shares = [rng.uniform(0.2, 1.0) for _ in node.elements]
            for element, share in zip(node.elements, shares):
                element[2] = share / sum(shares)
    data = [({1: True, 2: True}, 20), ({3: False}, 10),
            ({1: False, 4: False}, 8), ({2: True, 4: True}, 5), ({}, 3)]
    expected = {}
    brute_log_likelihood = 0.0
    for evidence, count in data:
        completions = [x for x in iter_assignments([1, 2, 3, 4])
                       if all(x[v] == value
                              for v, value in evidence.items())]
        p_evidence = sum(psdd.probability(x) for x in completions)
        brute_log_likelihood += count * math.log(p_evidence)
        for x in completions:
            share = count * psdd.probability(x) / p_evidence
            if share:
                for key in _active_parameters(psdd, x):
                    expected[key] = expected.get(key, 0.0) + share
    before = [node.theta if node.is_bernoulli
              else [element[2] for element in node.elements]
              for node in psdd.descendants() if not node.is_literal]

    trace = em_learn(psdd, data, iterations=1, alpha=0.0)

    assert trace == [pytest.approx(brute_log_likelihood, rel=1e-12)]
    checked = 0
    for node in psdd.descendants():
        if node.is_decision:
            counts = [expected.get((node.id, k), 0.0)
                      for k in range(len(node.elements))]
            for element, count in zip(node.elements, counts):
                assert element[2] == pytest.approx(count / sum(counts),
                                                   rel=1e-12)
                checked += 1
        elif node.is_bernoulli:
            neg = expected.get((node.id, 0), 0.0)
            pos = expected.get((node.id, 1), 0.0)
            assert node.theta == pytest.approx(pos / (neg + pos),
                                               rel=1e-12)
            checked += 1
    after = [node.theta if node.is_bernoulli
             else [element[2] for element in node.elements]
             for node in psdd.descendants() if not node.is_literal]
    assert checked > 5 and after != before


def test_em_rejects_impossible_evidence():
    psdd = _enrollment_psdd()
    # P=0, L=0 violates (P | L): marginal 0
    with pytest.raises(ValueError):
        em_learn(psdd, [({1: False, 2: False}, 1)], iterations=2)


def test_em_with_fully_observed_and_missing_mixture():
    psdd = _enrollment_psdd()
    data = [({1: True, 2: True, 3: True, 4: True}, 5),
            ({1: True}, 10), ({2: True, 3: False}, 3)]
    trace = em_learn(psdd, data, iterations=30, alpha=0.05)
    assert trace[-1] >= trace[0]
    total = sum(psdd.probability(a) for a in iter_assignments([1, 2, 3, 4]))
    assert total == pytest.approx(1.0)
