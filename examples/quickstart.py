"""Quickstart: the three roles of logic in five minutes.

Run:  python examples/quickstart.py
"""

from repro.logic import VarMap, parse, to_cnf
from repro.compile import compile_cnf
from repro.nnf import model_count, weighted_model_count
from repro.sdd import compile_cnf_sdd
from repro.psdd import learn_parameters, marginal, psdd_from_sdd
from repro.classifiers import compile_naive_bayes, pregnancy_classifier
from repro.explain import sufficient_reasons
from repro.robust import decision_robustness


def role_1_computation():
    """Compile a formula once; count, weight and query in linear time."""
    print("=== Role 1: logic as a basis for computation ===")
    vm = VarMap()
    formula = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    cnf = to_cnf(formula)

    circuit = compile_cnf(cnf)  # Decision-DNNF via exhaustive DPLL
    count = model_count(circuit, range(1, cnf.num_vars + 1))
    print(f"the constraint has {count} models out of 16 (paper: 9)")

    weights = {}
    for v in range(1, 5):
        weights[v] = 0.7
        weights[-v] = 0.3
    wmc = weighted_model_count(circuit, weights, range(1, 5))
    print(f"weighted model count under iid-0.7 weights: {wmc:.4f}")


def role_2_learning():
    """Learn a distribution over the models of symbolic knowledge."""
    print("\n=== Role 2: learning from data and knowledge ===")
    vm = VarMap()
    formula = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    P, L, A, K = (vm.index(n) for n in "PLAK")

    sdd, _manager = compile_cnf_sdd(to_cnf(formula))
    psdd = psdd_from_sdd(sdd)

    # an enrollment dataset (Fig 15 style): all rows satisfy the rules
    data = [
        ({P: True, L: True, A: True, K: True}, 6),
        ({P: True, L: True, A: False, K: False}, 54),
        ({P: True, L: False, A: True, K: False}, 10),
        ({P: True, L: False, A: False, K: False}, 114),
        ({P: False, L: True, A: False, K: False}, 30),
    ]
    learn_parameters(psdd, data)
    print(f"Pr(student takes Logic)       = "
          f"{marginal(psdd, {L: True}):.3f}")
    print(f"Pr(takes AI | takes Logic)    = "
          f"{marginal(psdd, {A: True, L: True}) / marginal(psdd, {L: True}):.3f}")
    impossible = {P: False, L: False, A: False, K: False}
    print(f"Pr(violating the rules)       = "
          f"{psdd.probability(impossible):.3f} (always 0)")


def role_3_meta_reasoning():
    """Compile a classifier and reason about its decisions."""
    print("\n=== Role 3: reasoning about a machine learning system ===")
    # the Fig 25 pregnancy classifier: tests B(=1), U(=2), S(=3)
    classifier = pregnancy_classifier(threshold=0.9)
    circuit = compile_naive_bayes(classifier)

    susan = {1: True, 2: True, 3: True}
    print(f"posterior for Susan: {classifier.posterior(susan):.3f} "
          f"-> decision {classifier.decide(susan)}")
    # the compiled OBDD is a Decision-DNNF: explain it on the IR
    reasons = sufficient_reasons(circuit.to_ir(), susan)["reasons"]
    names = {1: "B", 2: "U", 3: "S"}

    def pretty(term):
        return " & ".join(
            f"{names[abs(l)]}={'+' if l > 0 else '-'}ve"
            for l in sorted(term, key=abs))

    print("sufficient reasons for the decision:")
    for reason in reasons:
        print(f"  {pretty(reason)}")
    print(f"decision robustness (flips to overturn): "
          f"{decision_robustness(circuit, susan):.0f}")


if __name__ == "__main__":
    role_1_computation()
    role_2_learning()
    role_3_meta_reasoning()
