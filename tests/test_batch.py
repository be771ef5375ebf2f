"""Property-based cross-checks for the batched evaluation layer.

Every batched numpy path must agree with its oracle: kernel WMC /
evaluation / derivatives (linear and log space) and the facade's
weight batches with the scalar kernel, arithmetic-circuit queries with
weighted model counting by enumeration, pipeline marginals with their
scalar twins, PSDD marginals with the seed's walkers, classifier
dataset scoring, and OBDD counterfactual probes.  The comparisons
below run over hundreds of randomly generated circuits, weight
vectors, and evidence sets — including batch size 1 and
zero-probability weights.
"""

import copy
import os
import random
import re
import subprocess
import sys
from types import MappingProxyType

import numpy as np
import pytest

from repro.bayesnet.examples import random_network
from repro.classifiers import (BinarizedNeuralNetwork, BnClassifier,
                               NaiveBayesClassifier, RandomForest,
                               compile_bnn)
from repro.compile.dnnf_compiler import DnnfCompiler
from repro.explain import decision_sticks_batch
from repro.ir import facade, ir_kernel, nnf_to_ir
from repro.ir.kernel import pack_weight_batch
from repro.logic.cnf import Cnf
from repro.nnf import queries
from repro.nnf.node import NnfNode
from repro.psdd import (learn_parameters, marginal_batch, psdd_from_sdd,
                        sample_dataset, variable_marginals)
from repro.sdd import compile_cnf_sdd
from repro.wmc.arithmetic_circuit import ArithmeticCircuit
from repro.wmc.pipeline import WmcPipeline
from tests.oracles import psdd_walkers, weighted_models

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RTOL = 1e-9


def random_3cnf(num_vars, num_clauses, rng):
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in chosen))
    return Cnf(clauses, num_vars=num_vars)


def random_weights(variables, rng, zero_fraction=0.0):
    weights = {}
    for var in variables:
        for lit in (var, -var):
            weights[lit] = 0.0 if rng.random() < zero_fraction \
                else rng.uniform(0.1, 2.0)
    return weights


def assert_close(got, want, context=""):
    assert got == pytest.approx(want, rel=RTOL, abs=1e-12), \
        f"{context}: {got} != {want}"


def compiled_circuits(count, num_vars=8, num_clauses=14, first_seed=0):
    circuits = []
    for seed in range(first_seed, first_seed + count):
        rng = random.Random(seed)
        cnf = random_3cnf(num_vars, num_clauses, rng)
        root = DnnfCompiler().compile(cnf)
        circuits.append((root, rng))
    return circuits


class TestKernelBatches:
    """Raw kernel passes against the scalar kernel, many random cases."""

    def test_wmc_batch_matches_scalar(self):
        cases = 0
        for root, rng in compiled_circuits(10):
            variables = sorted(root.variables() | {90, 91})
            maps = [random_weights(variables, rng,
                                   zero_fraction=0.1 * (j % 3))
                    for j in range(20)]
            batch = queries.weighted_model_count_batch(
                root, maps, variables=variables)
            for j, weights in enumerate(maps):
                scalar = queries.weighted_model_count(
                    root, weights, variables=variables)
                assert_close(batch[j], scalar, f"case {cases}")
                cases += 1
        assert cases == 200

    def test_wmc_log_batch_matches_scalar(self):
        for root, rng in compiled_circuits(6, first_seed=20):
            variables = sorted(root.variables())
            maps = [random_weights(variables, rng,
                                   zero_fraction=0.15 * (j % 2))
                    for j in range(12)]
            log_batch = queries.weighted_model_count_log_batch(
                root, maps, variables=variables)
            for j, weights in enumerate(maps):
                scalar = queries.weighted_model_count(
                    root, weights, variables=variables)
                if scalar == 0.0:
                    assert log_batch[j] == -np.inf
                else:
                    assert_close(np.exp(log_batch[j]), scalar, f"log {j}")

    def test_evaluate_batch_matches_indicator_wmc(self):
        for root, rng in compiled_circuits(5, first_seed=40):
            variables = sorted(root.variables())
            assignments = [{v: rng.random() < 0.5 for v in variables}
                           for _ in range(25)]
            results = queries.evaluate_batch(root, assignments)
            for j, assignment in enumerate(assignments):
                indicator = {lit: 1.0 if assignment[abs(lit)] == (lit > 0)
                             else 0.0
                             for v in variables for lit in (v, -v)}
                scalar = queries.weighted_model_count(root, indicator)
                assert bool(results[j]) == (scalar > 0.5)

    def test_batch_of_one_and_prepacked(self):
        (root, rng), = compiled_circuits(1, first_seed=60)
        variables = sorted(root.variables())
        weights = random_weights(variables, rng)
        batch = queries.weighted_model_count_batch(root, [weights])
        assert batch.shape == (1,)
        assert_close(batch[0], queries.weighted_model_count(root, weights))
        packed = pack_weight_batch([weights, weights], variables)
        twice = queries.weighted_model_count_batch(root, packed)
        assert twice.shape == (2,)
        assert_close(twice[0], twice[1])

    def test_packing_reads_the_kernels_variables(self, monkeypatch):
        """Once the kernel is built, packing a list-of-maps batch
        needs no walk of the NNF DAG: the kernel already holds the
        variable set."""
        (root, rng), = compiled_circuits(1, num_vars=10, num_clauses=20,
                                         first_seed=62)
        variables = sorted(root.variables())
        maps = [random_weights(variables, rng) for _ in range(8)]
        scalar = [queries.weighted_model_count(root, w) for w in maps]
        assignments = [{v: rng.random() < 0.5 for v in variables}
                       for _ in range(8)]
        kernel = queries.get_kernel(root)
        truth = [kernel.evaluate(a) for a in assignments]

        def no_walk(node):
            raise AssertionError("NnfNode.variables() walked the DAG")

        monkeypatch.setattr(NnfNode, "variables", no_walk)
        batch = queries.weighted_model_count_batch(root, maps)
        log_batch = queries.weighted_model_count_log_batch(root, maps)
        for j, want in enumerate(scalar):
            assert_close(batch[j], want, f"row {j}")
            assert_close(np.exp(log_batch[j]), want, f"log row {j}")
        assert list(queries.evaluate_batch(root, assignments)) == truth

    def test_empty_batch_yields_empty_result(self):
        (root, _), = compiled_circuits(1, first_seed=61)
        result = queries.weighted_model_count_batch(root, [])
        assert result.shape == (0,)
        # a batch with no columns at all is unrecoverable: no way to
        # infer the batch size
        kernel = queries.get_kernel(root)
        with pytest.raises(ValueError):
            kernel.wmc_batch({})


class TestFacadeBatches:
    """``facade.query_ir`` writes a weight batch into one table, a
    column per row, and hands the kernel views of its literal rows;
    each row answers what the scalar query answers on it."""

    #: two more variables than the circuits below may mention, so the
    #: batch is widened over variables absent from the circuit
    NUM_VARS = 10

    @staticmethod
    def circuit(seed=70):
        (root, rng), = compiled_circuits(1, first_seed=seed)
        return nnf_to_ir(root), rng

    @pytest.mark.parametrize("backend", ["codegen", "interp"])
    def test_rows_match_scalar_wmc(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        for seed in range(70, 75):
            ir, rng = self.circuit(seed)
            rows = [random_weights(range(1, self.NUM_VARS + 1), rng,
                                   zero_fraction=0.1 * (j % 3))
                    for j in range(6)]
            shared = rows[0]
            rows += [{1: 0.3, -4: 0.7, 9: 2.5}, {}, None, shared,
                     MappingProxyType(rows[1]), shared]
            reply = facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                                    weight_batch=rows)
            assert reply["batch"] == len(rows)
            for row, got in zip(rows, reply["result"]):
                want = facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                                       weights=row)["result"]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_missing_literals_weigh_one(self):
        ir, _ = self.circuit()
        ones = {lit: 1.0 for v in range(1, self.NUM_VARS + 1)
                for lit in (v, -v)}
        count = facade.query_ir(ir, "count",
                                num_vars=self.NUM_VARS)["result"]
        reply = facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                                weight_batch=[{}, ones, {3: 1.0}])
        assert reply["result"] == [float(count)] * 3
        empty = facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                                weight_batch=[])
        assert empty["result"] == [] and empty["batch"] == 0

    @pytest.mark.parametrize("num_vars", [NUM_VARS, None])
    @pytest.mark.parametrize("beyond", [False, True])
    def test_bad_literal_in_row_three(self, num_vars, beyond):
        """The first bad literal of the first bad row names the error,
        whatever later rows hold."""
        ir, _ = self.circuit()
        top = num_vars or max(ir_kernel(ir).varsets[ir.n - 1])
        lit = -(top + 1) if beyond else 0
        rows = [{1: 0.5, -1: 0.5}] * 3 + \
            [{2: 0.25, lit: 0.5, top + 3: 0.5}, {0: 0.5, -(top + 2): 0.5}]
        message = f"weight literal {lit} outside 1..{top} (or its negation)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            facade.query_ir(ir, "wmc", num_vars=num_vars,
                            weight_batch=rows)

    @pytest.mark.parametrize("key, twin", [
        (2.0, 2), (np.int64(-3), -3), (True, 1),
        (1.5, 1),  # a float in range truncates like int()
    ])
    def test_number_keys_answer_like_their_integers(self, key, twin):
        ir, _ = self.circuit()
        rows = [{1: 0.5}, {key: 0.25, 4: 0.5}]
        twins = [{1: 0.5}, {twin: 0.25, 4: 0.5}]
        assert facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                               weight_batch=rows) == \
            facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                            weight_batch=twins)

    @pytest.mark.parametrize("key, error, message", [
        (10.5, ValueError, "weight literal 10.5 outside 1..10 "
                           "(or its negation)"),
        (0.0, ValueError, "weight literal 0.0 outside 1..10 "
                          "(or its negation)"),
        (False, ValueError, "weight literal False outside 1..10 "
                            "(or its negation)"),
        (2 ** 70, ValueError, f"weight literal {2 ** 70} outside 1..10 "
                              f"(or its negation)"),
        ("1", TypeError, "'<' not supported between instances of 'str' "
                         "and 'int'"),
        (None, TypeError, "'<' not supported between instances of "
                          "'NoneType' and 'int'"),
    ])
    def test_other_keys_are_rejected_as_before(self, key, error, message):
        """Keys that are not integers in range fail in their row's own
        comparisons, with the error they always raised."""
        ir, _ = self.circuit()
        rows = [{1: 0.5}, {4: 0.5, key: 0.25}, {-(self.NUM_VARS + 1): 1}]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                            weight_batch=rows)

    def test_caller_maps_are_not_mutated(self):
        ir, rng = self.circuit()
        rows = [random_weights(range(1, 9), rng) for _ in range(3)]
        rows.append({2: 0.5})
        snapshot = copy.deepcopy(rows)
        facade.query_ir(ir, "wmc", num_vars=self.NUM_VARS,
                        weight_batch=rows)
        assert rows == snapshot


class TestArithmeticCircuitBatches:
    """AC-level batches, including free (unmentioned) variables, against
    weighted model counting by enumeration."""

    def circuits(self):
        out = []
        for root, rng in compiled_circuits(5, first_seed=80):
            # two variables beyond the circuit's support => free vars
            variables = sorted(root.variables() | {95, 96})
            out.append((ArithmeticCircuit(root, variables),
                        weighted_models.models(root, variables), rng))
        return out

    def test_evaluate_batch(self):
        for ac, found, rng in self.circuits():
            maps = [random_weights(ac.variables, rng) for _ in range(10)]
            batch = ac.evaluate_batch(maps)
            for j, weights in enumerate(maps):
                assert_close(batch[j], weighted_models.wmc(found, weights),
                             f"eval {j}")

    def test_evaluate_log_batch(self):
        for ac, found, rng in self.circuits():
            maps = [random_weights(ac.variables, rng) for _ in range(6)]
            log_batch = ac.evaluate_log_batch(maps)
            for j, weights in enumerate(maps):
                assert_close(np.exp(log_batch[j]),
                             weighted_models.wmc(found, weights),
                             f"logeval {j}")

    def test_derivatives_batch(self):
        cases = 0
        for ac, found, rng in self.circuits():
            maps = [random_weights(ac.variables, rng) for _ in range(8)]
            batch = ac.derivatives_batch(maps)
            for j, weights in enumerate(maps):
                brute = weighted_models.derivatives(found, ac.variables,
                                                    weights)
                assert set(batch) == set(brute)
                for lit, column in batch.items():
                    assert_close(column[j], brute[lit],
                                 f"d case {cases} lit {lit}")
                cases += 1
        assert cases == 40

    def test_literal_marginals_batch(self):
        for ac, found, rng in self.circuits()[:3]:
            maps = [random_weights(ac.variables, rng) for _ in range(5)]
            batch = ac.literal_marginals_batch(maps)
            for j, weights in enumerate(maps):
                brute = weighted_models.derivatives(found, ac.variables,
                                                    weights)
                for lit in brute:
                    assert_close(batch[lit][j], weights[lit] * brute[lit],
                                 f"marg lit {lit}")


class TestPipelineBatches:
    """WmcPipeline: batched evidence probabilities and marginals."""

    def networks(self):
        return [random_network(8, rng=random.Random(1)),
                random_network(11, max_parents=3,
                               rng=random.Random(5))]

    def evidence_batch(self, network, rng, count):
        names = network.variables
        batch = []
        for _ in range(count):
            chosen = rng.sample(names, rng.randint(0, len(names) // 2))
            batch.append({name: rng.randint(0, 1) for name in chosen})
        batch[0] = {}  # always include the no-evidence query
        return batch

    def test_probability_of_evidence_batch(self):
        for network in self.networks():
            pipeline = WmcPipeline(network)
            rng = random.Random(2)
            evidence = self.evidence_batch(network, rng, 25)
            batch = pipeline.probability_of_evidence_batch(evidence)
            log_batch = pipeline.probability_of_evidence_batch(
                evidence, log_space=True)
            for j, e in enumerate(evidence):
                scalar = pipeline.probability_of_evidence(e)
                assert_close(batch[j], scalar, f"poe {j}")
                assert_close(np.exp(log_batch[j]), scalar, f"poe-log {j}")

    def test_marginals_batch(self):
        cases = 0
        for network in self.networks():
            pipeline = WmcPipeline(network)
            rng = random.Random(3)
            evidence = self.evidence_batch(network, rng, 15)
            batch = pipeline.marginals_batch(evidence)
            assert len(batch) == len(evidence)
            for j, e in enumerate(evidence):
                scalar = pipeline.marginals(e)
                assert set(batch[j]) == set(scalar)
                for name, states in scalar.items():
                    for state, p in states.items():
                        assert_close(batch[j][name][state], p,
                                     f"marg {j} {name}={state}")
                cases += 1
        assert cases == 30

    def test_marginals_batch_of_one(self):
        pipeline = WmcPipeline(random_network(6, rng=random.Random(9)))
        (result,) = pipeline.marginals_batch([{}])
        scalar = pipeline.marginals({})
        for name, states in scalar.items():
            for state, p in states.items():
                assert_close(result[name][state], p)


class TestPsddBatches:
    """PSDD one-pass marginals and batched evidence marginals."""

    def learned_psdds(self, count):
        psdds = []
        for seed in range(count):
            rng = random.Random(100 + seed)
            cnf = random_3cnf(8, 14, rng)
            sdd, _manager = compile_cnf_sdd(cnf)
            psdd = psdd_from_sdd(sdd)
            data = sample_dataset(psdd, 60, rng)
            learn_parameters(psdd, data, alpha=0.5)
            psdds.append((psdd, rng))
        return psdds

    def test_variable_marginals_matches_legacy(self):
        for psdd, _rng in self.learned_psdds(8):
            new = variable_marginals(psdd)
            old = psdd_walkers.variable_marginals(psdd)
            assert set(new) == set(old)
            for var in new:
                assert_close(new[var], old[var], f"var {var}")

    def test_marginal_batch_matches_scalar(self):
        """Each column equals the seed's recursive MAR walker."""
        cases = 0
        for psdd, rng in self.learned_psdds(5):
            variables = sorted(psdd.variables())
            evidence = []
            for _ in range(20):
                chosen = rng.sample(variables,
                                    rng.randint(0, len(variables)))
                evidence.append({v: rng.random() < 0.5 for v in chosen})
            evidence[0] = {}
            batch = marginal_batch(psdd, evidence)
            for j, e in enumerate(evidence):
                assert_close(batch[j], psdd_walkers.marginal(psdd, e),
                             f"psdd {cases}")
                cases += 1
        assert cases == 100


class TestClassifierBatches:
    """Dataset scoring through the batched classifier paths."""

    def dataset(self, count, num_features, seed):
        rng = random.Random(seed)
        features = list(range(1, num_features + 1))
        instances = [{v: rng.random() < 0.5 for v in features}
                     for _ in range(count)]
        labels = [sum(instance.values()) % 2 == 0
                  for instance in instances]
        return instances, labels, rng

    def test_naive_bayes(self):
        instances, labels, _rng = self.dataset(120, 10, seed=11)
        classifier = NaiveBayesClassifier.fit(instances, labels)
        posteriors = classifier.posterior_batch(instances)
        decisions = classifier.decide_batch(instances)
        for j, instance in enumerate(instances):
            assert_close(posteriors[j], classifier.posterior(instance))
            assert bool(decisions[j]) == classifier.decide(instance)
        expected = sum(classifier.decide(x) == y
                       for x, y in zip(instances, labels)) / len(labels)
        assert_close(classifier.accuracy(instances, labels), expected)

    def test_binarized_network(self):
        instances, labels, _rng = self.dataset(100, 12, seed=12)
        network = BinarizedNeuralNetwork.train(
            instances, labels, hidden=(4,), seed=3, passes=2)
        forward = network.forward_batch(instances)
        for j, instance in enumerate(instances):
            assert bool(forward[j]) == network.forward(instance)
        expected = sum(network.forward(x) == y
                       for x, y in zip(instances, labels)) / len(labels)
        assert_close(network.accuracy(instances, labels), expected)

    def test_random_forest(self):
        instances, labels, rng = self.dataset(150, 9, seed=13)
        forest = RandomForest.fit(instances[:100], labels[:100],
                                  num_trees=5, max_depth=4, rng=rng)
        votes = forest.votes_batch(instances)
        decisions = forest.decide_batch(instances)
        for j, instance in enumerate(instances):
            assert int(votes[j]) == forest.votes(instance)
            assert bool(decisions[j]) == forest.decide(instance)

    def test_bn_classifier(self):
        network = random_network(6, rng=random.Random(21))
        names = network.variables
        classifier = BnClassifier(network, names[-1], names[:-1])
        rng = random.Random(22)
        instances = [{name: rng.randint(0, 1) for name in names[:-1]}
                     for _ in range(40)]
        posteriors = classifier.posterior_batch(instances)
        decisions = classifier.decide_batch(instances)
        for j, instance in enumerate(instances):
            assert_close(posteriors[j], classifier.posterior(instance))
            assert bool(decisions[j]) == classifier.decide(instance)


class TestCounterfactualBatch:
    """Batched probes on a lowered OBDD: fig-28 style per-pixel
    sweeps."""

    def test_decision_sticks_batch(self):
        rng = random.Random(31)
        instances, labels, _ = TestClassifierBatches().dataset(
            60, 9, seed=31)
        network = BinarizedNeuralNetwork.train(
            instances, labels, hidden=(3,), seed=2, passes=2)
        circuit, _layers = compile_bnn(network)
        instance = instances[0]
        variables = sorted(instance)
        flip_sets = [[v] for v in variables] + \
            [rng.sample(variables, 3) for _ in range(10)] + [[]]
        batch = decision_sticks_batch(circuit.to_ir(), instance,
                                      flip_sets)
        # the definition, one OBDD path walk per flip set
        decision = circuit.evaluate(instance)
        want = []
        for flips in flip_sets:
            flipped = {v: value != (v in flips)
                       for v, value in instance.items()}
            want.append(circuit.evaluate(flipped) == decision)
        assert batch == want
        assert not all(want), "fixture must flip some decision"

    def test_obdd_evaluate_batch(self):
        rng = random.Random(32)
        instances, labels, _ = TestClassifierBatches().dataset(
            80, 8, seed=32)
        network = BinarizedNeuralNetwork.train(
            instances, labels, hidden=(3,), seed=4, passes=2)
        circuit, _layers = compile_bnn(network)
        results = circuit.evaluate_batch(instances)
        for j, instance in enumerate(instances):
            assert bool(results[j]) == circuit.evaluate(instance)


def test_kernel_imports_without_numpy_side_effects():
    """The kernel module must import (and keep its scalar paths usable)
    even when numpy is unusable — the batch layer imports numpy lazily,
    so merely importing ``repro`` touches no numpy attribute."""
    code = "\n".join([
        "import sys, types",
        "class Poison(types.ModuleType):",
        "    def __getattr__(self, name):",
        "        raise AssertionError('numpy.%s touched at import "
        "time' % name)",
        "sys.modules['numpy'] = Poison('numpy')",
        "import repro",
        "import repro.ir.kernel as kernel",
        "import repro.nnf.queries",
        "assert hasattr(kernel.IrKernel, 'wmc_batch')",
        "from repro.logic.cnf import Cnf",
        "from repro.compile.dnnf_compiler import DnnfCompiler",
        "root = DnnfCompiler().compile(Cnf([(1, 2), (-1, 2)],"
        " num_vars=2))",
        "assert repro.nnf.queries.model_count(root) == 2",
        "print('OK')",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
