"""Tests for the later utility additions: necessary characteristics,
robust regions, OBDD reordering, BN sampling, determinism-aware
encodings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bayesnet import (forward_sample, likelihood_weighting, mar,
                            medical_network, random_network,
                            sample_dataset)
from repro.explain import check_necessary_batch, necessary_literals
from repro.logic import Cnf, pair_biconditionals
from repro.obdd import (ObddManager, compile_cnf_obdd, minimize_order,
                        model_count, obdd_size_for_order)
from repro.robust import robust_region, robustness_histogram
from repro.wmc import WmcPipeline, encode_binary, encode_multistate
from tests.oracles.sufficient import all_sufficient_reasons


def cnfs(max_var=4, max_clauses=6):
    literal = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return st.lists(clause, min_size=1, max_size=max_clauses).map(
        lambda cs: Cnf(cs, num_vars=max_var))


# -- necessary characteristics -----------------------------------------------------

def test_necessary_on_fig26():
    m = ObddManager([1, 2, 3])
    f = (m.literal(1) | m.literal(-3)) & (m.literal(2) | m.literal(3)) \
        & (m.literal(1) | m.literal(2))
    instance = {1: True, 2: True, 3: False}
    ir = f.to_ir()
    # reasons are {1,2} and {2,-3}: only literal 2 is in both
    assert necessary_literals(ir, instance) == [2]
    # -2 is not an instance literal, so never necessary
    assert check_necessary_batch(ir, [instance] * 3, [2, 1, -2]) == \
        [True, False, False]


@settings(max_examples=60, deadline=None)
@given(cnfs(), st.integers(0, 15))
def test_necessary_is_reason_intersection(cnf, bits):
    node, manager = compile_cnf_obdd(cnf)
    if node.is_terminal:
        return
    instance = {v: bool((bits >> (v - 1)) & 1)
                for v in range(1, cnf.num_vars + 1)}
    reasons = all_sufficient_reasons(node, instance)
    expected = set(reasons[0])
    for reason in reasons[1:]:
        expected &= reason
    # a negative decision is explained on the complement
    trigger = node if node.evaluate(instance) else manager.negate(node)
    assert set(necessary_literals(trigger.to_ir(), instance)) == expected


# -- robust regions -----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(cnfs(), st.integers(0, 3))
def test_robust_region_matches_histogram(cnf, k):
    node, m = compile_cnf_obdd(cnf)
    region = robust_region(node, k)
    if node.is_terminal:
        assert region is m.one
        return
    histogram = robustness_histogram(node)
    expected = sum(count for level, count in histogram.items()
                   if level > k)
    assert model_count(region) == expected


def test_robust_region_k0_is_everything():
    m = ObddManager([1, 2])
    f = m.literal(1)
    assert robust_region(f, 0) is m.one
    with pytest.raises(ValueError):
        robust_region(f, -1)


def test_robust_region_is_monotone_in_k():
    m = ObddManager([1, 2, 3])
    f = (m.literal(1) & m.literal(2)) | m.literal(3)
    previous = robust_region(f, 0)
    for k in (1, 2, 3):
        current = robust_region(f, k)
        # growing k can only shrink the safe region
        assert m.apply_and(current, m.negate(previous)) is m.zero
        previous = current


# -- OBDD reordering -----------------------------------------------------------------

def test_minimize_order_beats_bad_order():
    cnf = pair_biconditionals(4)
    bad = obdd_size_for_order(cnf, [1, 3, 5, 7, 2, 4, 6, 8])
    order, size = minimize_order(cnf, iterations=60,
                                 rng=random.Random(0))
    assert size < bad
    assert sorted(order) == list(range(1, 9))
    assert obdd_size_for_order(cnf, order) == size


def test_minimize_order_preserves_semantics():
    cnf = pair_biconditionals(3)
    order, _size = minimize_order(cnf, iterations=20,
                                  rng=random.Random(1))
    manager = ObddManager(order)
    root, _m = compile_cnf_obdd(cnf, manager=manager)
    assert model_count(root) == cnf.model_count()


def test_minimize_order_empty_cnf():
    with pytest.raises(ValueError):
        minimize_order(Cnf([], num_vars=0))


# -- BN sampling -----------------------------------------------------------------------

def test_forward_samples_match_marginals():
    network = medical_network()
    rng = random.Random(2)
    samples = sample_dataset(network, 6000, rng)
    for name in network.variables:
        share = sum(1 for s in samples if s[name] == 1) / len(samples)
        assert abs(share - mar(network, {name: 1})) < 0.03


def test_forward_sample_is_complete():
    network = medical_network()
    sample = forward_sample(network, random.Random(0))
    assert set(sample) == set(network.variables)
    # AGREE is deterministic given T1, T2
    assert sample["AGREE"] == int(sample["T1"] == sample["T2"])


def test_likelihood_weighting_converges():
    network = medical_network()
    rng = random.Random(9)
    estimate = likelihood_weighting(network, {"c": 1}, {"T1": 1},
                                    samples=40000, rng=rng)
    assert abs(estimate - mar(network, {"c": 1}, {"T1": 1})) < 0.05


# -- determinism-aware encodings ----------------------------------------------------------

@pytest.mark.parametrize("encoder", [encode_binary, encode_multistate])
def test_optimized_encoding_smaller_on_deterministic_networks(encoder):
    network = medical_network()  # AGREE is a 0/1 CPT
    plain = encoder(network)
    optimized = encoder(network, exploit_determinism=True)
    assert optimized.cnf.num_vars < plain.cnf.num_vars
    assert len(optimized.cnf) < len(plain.cnf)


def test_optimized_pipeline_agrees_with_plain():
    rng = random.Random(77)
    for _ in range(3):
        network = random_network(5, rng=rng, zero_fraction=0.5)
        plain = WmcPipeline(network)
        optimized = WmcPipeline(network, exploit_determinism=True)
        for name in network.variables:
            assert optimized.mar({name: 1}) == pytest.approx(
                plain.mar({name: 1}))
        _i1, p1 = plain.mpe()
        _i2, p2 = optimized.mpe()
        assert p1 == pytest.approx(p2)
        marg_plain = plain.marginals()
        marg_opt = optimized.marginals()
        for name in network.variables:
            assert marg_opt[name][1] == pytest.approx(
                marg_plain[name][1])


def test_optimized_encoding_total_mass_still_one():
    network = medical_network()
    pipeline = WmcPipeline(network, exploit_determinism=True)
    assert pipeline.probability_of_evidence({}) == pytest.approx(1.0)


# -- Gibbs sampling and SDD dot export ----------------------------------------------

def test_gibbs_sampling_converges():
    from repro.bayesnet import chain_network, gibbs_sampling
    network = chain_network()
    rng = random.Random(1)
    estimate = gibbs_sampling(network, {"B": 1}, samples=20000, rng=rng)
    assert abs(estimate - mar(network, {"B": 1})) < 0.03


def test_gibbs_sampling_with_evidence():
    from repro.bayesnet import chain_network, gibbs_sampling
    network = chain_network()
    rng = random.Random(2)
    estimate = gibbs_sampling(network, {"C": 1}, {"B": 1},
                              samples=20000, rng=rng)
    assert abs(estimate - mar(network, {"C": 1}, {"B": 1})) < 0.03


def test_gibbs_all_evidence():
    from repro.bayesnet import chain_network, gibbs_sampling
    network = chain_network()
    evidence = {"A": 1, "B": 1, "C": 0}
    assert gibbs_sampling(network, {"B": 1}, evidence,
                          samples=10) == 1.0
    assert gibbs_sampling(network, {"B": 0}, evidence,
                          samples=10) == 0.0


def test_sdd_to_dot():
    from repro.logic import Cnf
    from repro.sdd import compile_cnf_sdd, to_dot
    root, _manager = compile_cnf_sdd(Cnf([(1, 2), (-2, 3)], num_vars=3))
    dot = to_dot(root)
    assert dot.startswith("digraph sdd")
    assert "shape=record" in dot and "⊤" in dot or "shape=box" in dot
