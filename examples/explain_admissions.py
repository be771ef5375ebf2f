"""Explaining and auditing an admissions classifier (Fig 27).

The classifier is an OBDD over five features, one protected (rich
hometown).  We extract sufficient reasons and complete-reason circuits
for two applicants, decide whether each decision is biased, whether the
classifier is biased, and check a counterfactual statement.

Run:  python examples/explain_admissions.py
"""

from repro.classifiers import ADMISSIONS_FEATURES, admissions_classifier
from repro.explain import (decision_is_biased, reason_graph,
                           sufficient_reasons, verify_even_if_because)

NAMES = {v: k for k, v in ADMISSIONS_FEATURES.items()}
LONG = {"E": "passed entrance exam", "F": "first-time applicant",
        "G": "good GPA", "W": "work experience",
        "R": "rich hometown (protected)"}


def pretty(term):
    return " & ".join(f"{'' if l > 0 else 'not '}{NAMES[abs(l)]}"
                      for l in sorted(term, key=abs))


def audit(manager, node, name, instance, protected):
    decision = node.evaluate(instance)
    print(f"{name}: {'ADMITTED' if decision else 'DECLINED'}")
    held = [NAMES[v] for v, value in sorted(instance.items()) if value]
    print(f"  profile: {', '.join(held) or 'nothing'}")
    # a declined applicant's reasons are those of the complement
    trigger = node if decision else manager.negate(node)
    reasons = sufficient_reasons(trigger.to_ir(), instance)["reasons"]
    print(f"  sufficient reasons ({len(reasons)}):")
    touching = [any(abs(l) in protected for l in reason)
                for reason in reasons]
    for reason, touches in zip(reasons, touching):
        flag = " [touches protected]" if touches else ""
        print(f"    {pretty(reason)}{flag}")
    direct = decision_is_biased(node.to_ir(), instance, protected)
    # the reason criterion: biased iff every reason touches one
    print(f"  decision biased: {direct} "
          f"(reason criterion agrees: "
          f"{(bool(touching) and all(touching)) == direct})")
    if not direct and any(touching):
        print("  ...but some reasons touch the protected feature, so "
              "the CLASSIFIER is biased on other instances")
    print()


def main():
    manager, node = admissions_classifier()
    protected = [ADMISSIONS_FEATURES["R"]]
    print("admissions classifier over features:",
          ", ".join(f"{k}={LONG[k]}" for k in ADMISSIONS_FEATURES))
    # a reduced OBDD tests exactly the variables its function depends on
    print(f"classifier biased w.r.t. R: "
          f"{any(v in node.variables() for v in protected)}\n")

    robin = {1: True, 2: True, 3: True, 4: True, 5: True}
    scott = {1: False, 2: True, 3: True, 4: False, 5: True}
    audit(manager, node, "Robin", robin, protected)
    audit(manager, node, "Scott", scott, protected)

    # the complete reason behind Robin's admission, as a circuit
    graph = reason_graph(node.to_ir(), robin)
    edges = sum(len(children) for children in graph.children)
    print(f"Robin's complete-reason circuit: {graph.size} nodes, "
          f"{edges} edges (monotone)")
    print(f"  does 'passed exam + good GPA' trigger the decision? "
          f"{graph.evaluate({1, 3})}")
    print(f"  does 'good GPA' alone trigger it? "
          f"{graph.evaluate({3})}\n")

    # a counterfactual, the paper's April sentence
    april = {1: True, 2: False, 3: True, 4: True, 5: False}
    result = verify_even_if_because(node.to_ir(), april, flipped=[4],
                                    because=[1, 3])
    print("counterfactual: 'the decision on April would stick even if "
          "she had no work experience, because she passed the exam "
          "with a good GPA'")
    print(f"  verified: {result['valid']}")


if __name__ == "__main__":
    main()
