"""Tests for the BN → WMC reduction (Section 2.2) and arithmetic circuits."""

import random

import pytest

from repro.bayesnet import (chain_network, mar, medical_network, mpe,
                            random_network)
from repro.compile import compile_cnf
from repro.nnf import weighted_model_count
from repro.sat import count_models
from repro.wmc import (ArithmeticCircuit, WmcPipeline, encode_binary,
                       encode_multistate)
from tests.oracles import weighted_models


def test_binary_encoding_model_count_is_instantiation_count():
    """The encoding has exactly one model per network instantiation."""
    net = chain_network()
    enc = encode_binary(net)
    assert count_models(enc.cnf) == 8


def test_multistate_encoding_model_count():
    net = chain_network()
    enc = encode_multistate(net)
    assert count_models(enc.cnf) == 8


def test_binary_encoding_rejects_multistate():
    from repro.bayesnet import BayesianNetwork
    net = BayesianNetwork()
    net.add_variable("X", (), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        encode_binary(net)
    enc = encode_multistate(net)
    assert count_models(enc.cnf) == 3


def test_model_weight_is_instantiation_probability():
    """Expression (1) of the paper: the model for A,B,~C weighs
    θ_A · θ_B|A · θ_~C|A."""
    net = chain_network(theta_a=0.6, theta_b_given_a=(0.2, 0.9),
                        theta_c_given_a=(0.7, 0.3))
    enc = encode_binary(net)
    from repro.sat import enumerate_models
    for model in enumerate_models(enc.cnf):
        weight = 1.0
        for var, value in model.items():
            weight *= enc.weights[var if value else -var]
        state = enc.state_of_model(model)
        assert weight == pytest.approx(net.probability(state))


def test_total_wmc_is_one():
    for encoding in (encode_binary, encode_multistate):
        net = medical_network()
        enc = encoding(net)
        root = compile_cnf(enc.cnf)
        total = weighted_model_count(
            root, enc.weights, range(1, enc.cnf.num_vars + 1))
        assert total == pytest.approx(1.0)


@pytest.mark.parametrize("encoding", ["binary", "multistate"])
def test_pipeline_mar_agrees_with_ve(encoding):
    net = medical_network()
    pipe = WmcPipeline(net, encoding=encoding)
    for name in net.variables:
        for state in (0, 1):
            assert pipe.mar({name: state}) == pytest.approx(
                mar(net, {name: state}))


@pytest.mark.parametrize("encoding", ["binary", "multistate"])
def test_pipeline_conditional_mar(encoding):
    net = medical_network()
    pipe = WmcPipeline(net, encoding=encoding)
    assert pipe.mar({"c": 1}, {"T1": 1, "T2": 1}) == pytest.approx(
        mar(net, {"c": 1}, {"T1": 1, "T2": 1}))


def test_pipeline_zero_probability_evidence():
    net = medical_network()
    pipe = WmcPipeline(net)
    # AGREE=0 with T1==T2 is impossible
    with pytest.raises(ZeroDivisionError):
        pipe.mar({"c": 1}, {"T1": 1, "T2": 1, "AGREE": 0})


def test_pipeline_marginals_one_pass():
    net = medical_network()
    pipe = WmcPipeline(net)
    marginals = pipe.marginals({"T1": 1})
    for name in net.variables:
        for state in (0, 1):
            assert marginals[name][state] == pytest.approx(
                mar(net, {name: state}, {"T1": 1}))
        assert sum(marginals[name].values()) == pytest.approx(1.0)


def test_pipeline_mpe_agrees_with_ve():
    net = medical_network()
    pipe = WmcPipeline(net)
    inst, p = pipe.mpe()
    _vinst, vp = mpe(net)
    assert p == pytest.approx(vp)
    assert net.probability(inst) == pytest.approx(vp)


def test_pipeline_mpe_with_evidence():
    net = medical_network()
    pipe = WmcPipeline(net)
    inst, p = pipe.mpe({"T2": 1})
    _vinst, vp = mpe(net, {"T2": 1})
    assert p == pytest.approx(vp)
    assert inst["T2"] == 1


def test_pipeline_on_random_networks():
    rng = random.Random(42)
    for trial in range(5):
        net = random_network(5, rng=rng,
                             zero_fraction=0.4 if trial % 2 else 0.0)
        pipe = WmcPipeline(net)
        name = net.variables[rng.randrange(len(net.variables))]
        assert pipe.mar({name: 1}) == pytest.approx(mar(net, {name: 1}))
        marginals = pipe.marginals()
        for v in net.variables:
            assert marginals[v][1] == pytest.approx(mar(net, {v: 1}))


def test_pipeline_unknown_encoding():
    with pytest.raises(ValueError):
        WmcPipeline(chain_network(), encoding="spicy")


def test_arithmetic_circuit_derivatives():
    """dWMC/dW(l) equals the weighted count of models containing l,
    with W(l) factored out — checked by brute force, on a hand-made
    CNF and on 60 random ones of at most 10 variables, some of which
    the circuit never mentions."""
    from repro.logic import Cnf, iter_assignments
    cnf = Cnf([(1, 2), (-2, 3)], num_vars=3)
    root = compile_cnf(cnf)
    ac = ArithmeticCircuit(root, [1, 2, 3])
    weights = {1: 0.3, -1: 0.7, 2: 0.8, -2: 0.2, 3: 0.5, -3: 0.5}
    marginals = ac.literal_marginals(weights)
    for lit in marginals:
        brute = 0.0
        for a in iter_assignments([1, 2, 3]):
            if cnf.evaluate(a) and a[abs(lit)] == (lit > 0):
                w = 1.0
                for v, val in a.items():
                    w *= weights[v if val else -v]
                brute += w
        assert marginals[lit] == pytest.approx(brute), lit

    rng = random.Random(2417)
    unmentioned = 0
    for _ in range(60):
        num_vars = rng.randint(1, 10)
        used = rng.randint(1, num_vars)
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, used)
                         for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(0, 2 * used))]
        root = compile_cnf(Cnf(clauses, num_vars=num_vars))
        variables = list(range(1, num_vars + 1))
        unmentioned += num_vars - len(root.variables())
        ac = ArithmeticCircuit(root, variables)
        found = weighted_models.models(root, variables)
        weights = {lit: rng.uniform(0.1, 2.0)
                   for v in variables for lit in (v, -v)}
        assert ac.evaluate(weights) == pytest.approx(
            weighted_models.wmc(found, weights), rel=1e-9, abs=1e-12)
        brute = weighted_models.derivatives(found, variables, weights)
        derivatives = ac.derivatives(weights)
        assert set(derivatives) == set(brute)
        for lit, value in brute.items():
            assert derivatives[lit] == pytest.approx(
                value, rel=1e-9, abs=1e-12), lit
    assert unmentioned > 60


def test_arithmetic_circuit_free_variables():
    from repro.logic import Cnf
    cnf = Cnf([(1,)], num_vars=3)  # vars 2, 3 unconstrained
    root = compile_cnf(cnf)
    ac = ArithmeticCircuit(root, [1, 2, 3])
    weights = {1: 0.5, -1: 0.5, 2: 0.25, -2: 0.75, 3: 0.5, -3: 0.5}
    assert ac.evaluate(weights) == pytest.approx(0.5)
    marginals = ac.literal_marginals(weights)
    assert marginals[2] == pytest.approx(0.5 * 0.25)
    assert marginals[-2] == pytest.approx(0.5 * 0.75)


def test_arithmetic_circuit_rejects_unlisted_vars():
    from repro.logic import Cnf
    root = compile_cnf(Cnf([(1, 2)]))
    with pytest.raises(ValueError):
        ArithmeticCircuit(root, [1])
