"""Tests for PSDDs: construction, semantics, learning, queries, sampling."""

import math
import random

import pytest

from repro.logic import Cnf, VarMap, iter_assignments, parse, to_cnf
from repro.sdd import SddManager, compile_cnf_sdd, compile_formula_sdd
from repro.psdd import (entropy, kl_divergence, learn_parameters,
                        log_likelihood, marginal, mpe, psdd_from_sdd,
                        sample, sample_dataset, support_size,
                        variable_marginals)
from repro.vtree import balanced_vtree, right_linear_vtree

P, L, A, K = 1, 2, 3, 4  # variable numbering of the Fig 15 constraint


def enrollment_psdd():
    """The paper's running example: compile the Fig 15 constraint."""
    vm = VarMap()
    f = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    root, manager = compile_cnf_sdd(to_cnf(f))
    return psdd_from_sdd(root), f


def enrollment_data():
    rows = [((1, 1, 1, 1), 6), ((1, 1, 1, 0), 10), ((1, 0, 1, 1), 4),
            ((1, 0, 1, 0), 54), ((0, 1, 1, 1), 8), ((0, 0, 1, 1), 4),
            ((0, 0, 1, 0), 114), ((1, 1, 0, 0), 10), ((1, 0, 0, 0), 30)]
    return [({L: bool(l), K: bool(k), P: bool(p), A: bool(a)}, c)
            for (l, k, p, a), c in rows]


def test_support_is_constraint_models():
    psdd, f = enrollment_psdd()
    assert support_size(psdd) == 9
    for assignment in iter_assignments([1, 2, 3, 4]):
        assert psdd.contains(assignment) == f.evaluate(assignment)


def test_initial_distribution_normalized():
    """Even before learning, probabilities sum to 1 over the support and
    vanish off it (the Fig 14 semantics)."""
    psdd, f = enrollment_psdd()
    total = 0.0
    for assignment in iter_assignments([1, 2, 3, 4]):
        p = psdd.probability(assignment)
        if not f.evaluate(assignment):
            assert p == 0.0
        total += p
    assert total == pytest.approx(1.0)


def test_learning_normalizes_and_respects_support():
    psdd, f = enrollment_psdd()
    data = enrollment_data()
    learn_parameters(psdd, data)
    total = sum(psdd.probability(a) for a in iter_assignments([1, 2, 3, 4]))
    assert total == pytest.approx(1.0)
    for assignment in iter_assignments([1, 2, 3, 4]):
        if not f.evaluate(assignment):
            assert psdd.probability(assignment) == 0.0


def test_learning_rejects_invalid_examples():
    psdd, _f = enrollment_psdd()
    invalid = {P: False, L: False, A: False, K: False}  # violates P|L
    with pytest.raises(ValueError):
        learn_parameters(psdd, [(invalid, 1)])


def test_learning_rejects_negative_counts():
    psdd, _f = enrollment_psdd()
    valid = {P: True, L: True, A: True, K: True}
    with pytest.raises(ValueError):
        learn_parameters(psdd, [(valid, -1)])


def test_learned_marginals_match_empirical():
    """Single-variable marginals of the ML fit match the data exactly
    on this structure (checked numerically elsewhere to be the true ML)."""
    psdd, _f = enrollment_psdd()
    data = enrollment_data()
    learn_parameters(psdd, data)
    total = sum(c for _a, c in data)
    marginals = variable_marginals(psdd)
    for var in (P, L, A, K):
        empirical = sum(c for a, c in data if a[var]) / total
        assert marginals[var] == pytest.approx(empirical)


def test_ml_is_optimal_against_perturbations():
    """Perturbing any learned parameter cannot improve the likelihood."""
    psdd, _f = enrollment_psdd()
    data = enrollment_data()
    learn_parameters(psdd, data)
    best = log_likelihood(psdd, data)
    rng = random.Random(1)
    for _ in range(20):
        node = rng.choice([n for n in psdd.descendants()
                           if n.is_decision and len(n.elements) > 1])
        saved = [e[2] for e in node.elements]
        noise = [max(t + rng.uniform(-0.05, 0.05), 1e-6) for t in saved]
        scale = sum(noise)
        for e, t in zip(node.elements, noise):
            e[2] = t / scale
        assert log_likelihood(psdd, data) <= best + 1e-9
        for e, t in zip(node.elements, saved):
            e[2] = t


def test_structural_expressiveness_limit_documented():
    """The compressed SDD structure cannot always reproduce the
    empirical distribution — ML fits within the structure (the paper:
    maximum likelihood 'under the chosen vtree')."""
    psdd, _f = enrollment_psdd()
    data = enrollment_data()
    learn_parameters(psdd, data)
    total = sum(c for _a, c in data)
    exact = [abs(psdd.probability(a) - c / total) < 1e-9
             for a, c in data]
    # marginals match (see above) but at least some joint entries differ
    assert not all(exact)


def test_laplace_smoothing():
    psdd, f = enrollment_psdd()
    # train on a single example; smoothing keeps other support points alive
    example = {P: True, L: True, A: True, K: True}
    learn_parameters(psdd, [(example, 5)], alpha=1.0)
    for assignment in iter_assignments([1, 2, 3, 4]):
        if f.evaluate(assignment):
            assert psdd.probability(assignment) > 0.0


def test_marginal_query_against_enumeration():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data())
    for evidence in ({P: True}, {L: False}, {A: True, K: False},
                     {P: True, L: True, A: False}):
        brute = sum(psdd.probability(a)
                    for a in iter_assignments([1, 2, 3, 4])
                    if all(a[v] == val for v, val in evidence.items()))
        assert marginal(psdd, evidence) == pytest.approx(brute)


def test_mpe_against_enumeration():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data())
    inst, p = mpe(psdd)
    brute = max(iter_assignments([1, 2, 3, 4]), key=psdd.probability)
    assert p == pytest.approx(psdd.probability(brute))
    assert psdd.probability(inst) == pytest.approx(p)


def test_mpe_with_evidence():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data())
    inst, p = mpe(psdd, {A: True})
    assert inst[A] is True
    brute = max((a for a in iter_assignments([1, 2, 3, 4]) if a[A]),
                key=psdd.probability)
    assert p == pytest.approx(psdd.probability(brute))


def test_mpe_of_evidence_a_certain_bernoulli_rules_out():
    """Zero-probability evidence answers ``(evidence, 0.0)`` however it
    is ruled out, here by a θ = 1 Bernoulli rather than by a literal
    node, and an answer with mass still holds every evidence
    variable."""
    root, _manager = compile_cnf_sdd(Cnf([(1, 2)], num_vars=3))
    psdd = psdd_from_sdd(root)
    (bernoulli,) = [node for node in psdd.descendants()
                    if node.is_bernoulli and abs(node.literal) == 3]
    bernoulli.theta = 1.0
    assert mpe(psdd, {3: False}) == ({3: False}, 0.0)
    assert mpe(psdd, {3: False, 9: True}) == ({3: False, 9: True}, 0.0)
    model, p = mpe(psdd, {3: True, 9: True})
    assert p == pytest.approx(0.5)
    assert model[3] is True and model[9] is True
    assert psdd.probability(model) == pytest.approx(p)


def test_entropy_against_enumeration():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data(), alpha=0.5)
    brute = 0.0
    for assignment in iter_assignments([1, 2, 3, 4]):
        p = psdd.probability(assignment)
        if p > 0:
            brute -= p * math.log(p)
    assert entropy(psdd) == pytest.approx(brute)


def test_kl_divergence_against_enumeration():
    psdd_p, _f = enrollment_psdd()
    learn_parameters(psdd_p, enrollment_data(), alpha=1.0)
    # KL requires shared structure: clone p and train on skewed data
    psdd_q = psdd_p.clone()
    data_q = [(a, c * (2 if a[P] else 1)) for a, c in enrollment_data()]
    learn_parameters(psdd_q, data_q, alpha=1.0)
    kl = kl_divergence(psdd_p, psdd_q)
    brute = 0.0
    for assignment in iter_assignments([1, 2, 3, 4]):
        pp = psdd_p.probability(assignment)
        qq = psdd_q.probability(assignment)
        if pp > 0:
            brute += pp * math.log(pp / qq)
    assert kl == pytest.approx(brute)
    assert kl > 0


def test_clone_is_independent():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data())
    copy = psdd.clone()
    before = psdd.probability({P: True, L: True, A: True, K: True})
    learn_parameters(copy, [({P: True, L: True, A: True, K: True}, 1)])
    assert psdd.probability({P: True, L: True, A: True, K: True}) == \
        pytest.approx(before)
    assert copy.probability({P: True, L: True, A: True, K: True}) == \
        pytest.approx(1.0)


def test_kl_zero_on_self():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data(), alpha=1.0)
    assert kl_divergence(psdd, psdd) == pytest.approx(0.0)


def test_sampling_matches_distribution():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data(), alpha=0.5)
    rng = random.Random(7)
    n = 4000
    counts = {}
    for _ in range(n):
        s = sample(psdd, rng)
        assert psdd.contains(s)
        key = tuple(sorted(s.items()))
        counts[key] = counts.get(key, 0) + 1
    for key, count in counts.items():
        p = psdd.probability(dict(key))
        assert abs(count / n - p) < 0.05


def test_sample_dataset_aggregation():
    psdd, _f = enrollment_psdd()
    learn_parameters(psdd, enrollment_data(), alpha=0.5)
    data = sample_dataset(psdd, 100, random.Random(3))
    assert sum(c for _a, c in data) == 100
    relearned, _f2 = enrollment_psdd()
    learn_parameters(relearned, data)  # samples are always in-support
    assert log_likelihood(relearned, data) > float("-inf")


def test_psdd_over_trivial_true_space():
    manager = SddManager(balanced_vtree([1, 2, 3]))
    psdd = psdd_from_sdd(manager.true)
    assert support_size(psdd) == 8
    learn_parameters(psdd, [({1: True, 2: False, 3: True}, 3),
                            ({1: False, 2: False, 3: True}, 1)])
    # fully factorized: marginals are empirical
    assert marginal(psdd, {1: True}) == pytest.approx(0.75)
    assert marginal(psdd, {3: True}) == pytest.approx(1.0)


def test_psdd_rejects_empty_space():
    manager = SddManager(balanced_vtree([1, 2]))
    with pytest.raises(ValueError):
        psdd_from_sdd(manager.false)


def test_psdd_size_and_parameter_count():
    psdd, _f = enrollment_psdd()
    assert psdd.size() > 0
    assert psdd.parameter_count() > 0


def test_right_linear_vtree_psdd():
    vm = VarMap()
    f = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    manager = SddManager(right_linear_vtree([1, 2, 3, 4]))
    root = compile_formula_sdd(f, manager)
    psdd = psdd_from_sdd(root)
    assert support_size(psdd) == 9
    learn_parameters(psdd, enrollment_data())
    total = sum(psdd.probability(a) for a in iter_assignments([1, 2, 3, 4]))
    assert total == pytest.approx(1.0)
