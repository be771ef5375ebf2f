"""FIG27 — explaining and auditing the admissions classifier.

Regenerates the figure's analysis structure: Robin is admitted with
sufficient reasons of which some but not all touch the protected
feature (decision unbiased, classifier biased); Scott is admitted with
every reason touching it (decision biased — flipping R alone reverses
it); both complete-reason circuits are built and checked against the
reasons (a term triggers the circuit iff it contains a reason).

Everything runs on the IR route (``node.to_ir()``): the reasons and
the complete-reason graph from the enumerator, the direct bias verdict
from one batched sufficiency check.  Whether the *classifier* is biased
is read off the reduced OBDD: it depends on a protected feature.

The paper's exact OBDD is not recoverable from the text, so reason
*counts* may differ from the figure; the bias verdicts and circuit
properties are the reproduced content (see EXPERIMENTS.md).
"""

from itertools import chain, combinations

from repro.classifiers import (ADMISSIONS_FEATURES,
                               admissions_classifier)
from repro.explain import (decision_is_biased, reason_graph,
                           sufficient_reasons)

NAMES = {v: k for k, v in ADMISSIONS_FEATURES.items()}
PROTECTED = [ADMISSIONS_FEATURES["R"]]

ROBIN = {1: True, 2: True, 3: True, 4: True, 5: True}
SCOTT = {1: False, 2: True, 3: True, 4: False, 5: True}


def _subsets(term):
    return chain.from_iterable(combinations(term, size)
                               for size in range(len(term) + 1))


def _audit():
    manager, node = admissions_classifier()
    ir = node.to_ir()
    results = {}
    for name, instance in (("Robin", ROBIN), ("Scott", SCOTT)):
        reasons = [frozenset(r) for r in
                   sufficient_reasons(ir, instance)["reasons"]]
        touching = [any(abs(l) in PROTECTED for l in r) for r in reasons]
        graph = reason_graph(ir, instance)
        results[name] = {
            "decision": node.evaluate(instance),
            "reasons": reasons,
            "touching": touching,
            "direct_bias": decision_is_biased(ir, instance, PROTECTED),
            # the reason criterion: every sufficient reason touches a
            # protected feature
            "reason_bias": bool(touching) and all(touching),
            "circuit_nodes": graph.size,
            "circuit_is_complete_reason": all(
                graph.evaluate(set(term)) ==
                any(r <= set(term) for r in reasons)
                for term in _subsets(graph.term)),
        }
    results["classifier_biased"] = any(v in node.variables()
                                       for v in PROTECTED)
    return results


def test_fig27_admissions(benchmark, table):
    results = benchmark(_audit)

    def pretty(term):
        return " & ".join(("" if l > 0 else "~") + NAMES[abs(l)]
                          for l in sorted(term, key=abs))

    for name in ("Robin", "Scott"):
        r = results[name]
        rows = [[pretty(reason),
                 "protected" if touch else "merit"]
                for reason, touch in zip(r["reasons"], r["touching"])]
        table(f"Fig 27: {name} — "
              f"{'ADMITTED' if r['decision'] else 'DECLINED'}, "
              f"{len(r['reasons'])} sufficient reasons", rows,
              headers=["sufficient reason", "kind"])
        print(f"  decision biased: {r['direct_bias']}   "
              f"reason circuit: {r['circuit_nodes']} nodes")
    print(f"\n  classifier biased w.r.t. R: "
          f"{results['classifier_biased']}")

    robin, scott = results["Robin"], results["Scott"]
    # both admitted
    assert robin["decision"] and scott["decision"]
    # Robin: some but not all reasons touch R -> decision unbiased,
    # classifier provably biased
    assert any(robin["touching"]) and not all(robin["touching"])
    assert not robin["direct_bias"]
    # Scott: every reason touches R -> decision biased
    assert all(scott["touching"])
    assert scott["direct_bias"]
    # the theorem: reason-based and direct bias verdicts agree
    for r in (robin, scott):
        assert r["reason_bias"] == r["direct_bias"]
        # the complete-reason circuit is the disjunction of the reasons
        assert r["circuit_is_complete_reason"]
    assert results["classifier_biased"]
