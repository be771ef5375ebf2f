"""FIG25 — compiling a naive Bayes classifier into a decision graph.

Regenerates: exact input-output agreement between the probabilistic
classifier and the compiled ODD on all 8 instances, Susan's posterior,
her two sufficient reasons ({S}, {B, U}), and a threshold sweep showing
how the compiled graph tracks the decision boundary.
"""

from repro.classifiers import (PREGNANCY_FEATURES, compile_naive_bayes,
                               pregnancy_classifier)
from repro.explain import sufficient_reasons
from repro.logic import iter_assignments

NAMES = {v: k for k, v in PREGNANCY_FEATURES.items()}


def _compile_and_check():
    classifier = pregnancy_classifier(threshold=0.9)
    circuit = compile_naive_bayes(classifier)
    rows = []
    agreement = True
    for a in iter_assignments([1, 2, 3]):
        decision = classifier.decide(a)
        compiled = circuit.evaluate(a)
        agreement &= (decision == compiled)
        rows.append((tuple(int(a[v]) for v in (1, 2, 3)),
                     classifier.posterior(a), decision, compiled))
    susan = {1: True, 2: True, 3: True}
    # an OBDD is a Decision-DNNF: the IR enumerator explains it
    reasons = [frozenset(r) for r in
               sufficient_reasons(circuit.to_ir(), susan)["reasons"]]
    sweep = []
    for threshold in (0.3, 0.5, 0.7, 0.9, 0.99):
        clf = pregnancy_classifier(threshold)
        node = compile_naive_bayes(clf)
        positives = sum(1 for a in iter_assignments([1, 2, 3])
                        if node.evaluate(a))
        ok = all(node.evaluate(a) == clf.decide(a)
                 for a in iter_assignments([1, 2, 3]))
        sweep.append((threshold, positives, node.size(), ok))
    return rows, circuit, reasons, sweep


def test_fig25_naive_bayes(benchmark, table):
    rows, circuit, reasons, sweep = benchmark(_compile_and_check)

    table("Fig 25: classifier vs compiled decision graph (threshold 0.9)",
          [[f"B={b} U={u} S={s}", f"{post:.4f}", dec, comp]
           for (b, u, s), post, dec, comp in rows],
          headers=["instance", "posterior", "NB decision", "ODD output"])
    pretty = [" & ".join(f"{NAMES[abs(l)]}=+ve" for l in sorted(r, key=abs))
              for r in reasons]
    table("Susan (+,+,+): sufficient reasons (paper: S; and B & U)",
          [[p] for p in pretty])
    table("threshold sweep",
          [[t, pos, size, ok] for t, pos, size, ok in sweep],
          headers=["threshold", "positive instances", "OBDD size",
                   "exact agreement"])

    assert all(dec == comp for _i, _p, dec, comp in rows)
    assert set(reasons) == {frozenset({PREGNANCY_FEATURES["S"]}),
                            frozenset({PREGNANCY_FEATURES["B"],
                                       PREGNANCY_FEATURES["U"]})}
    assert all(ok for _t, _p, _s, ok in sweep)
    # raising the threshold can only shrink the positive region
    positives = [p for _t, p, _s, _ok in sweep]
    assert positives == sorted(positives, reverse=True)
