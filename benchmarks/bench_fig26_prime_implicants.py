"""FIG26 — prime implicants and sufficient reasons of a Boolean function.

Regenerates the figure exactly: the prime implicants of
f = (A + ¬C)(B + C)(A + B) and of its complement, the sufficient
reasons of the positive instance A,B,¬C (AB and B¬C) and of the
negative instance ¬A,B,C (the single reason ¬A∧C).

The reasons come from the IR enumerator on the lowered OBDD (on its
complement for the negative decision) and are checked against the
figure's own reading: the prime implicants of f (of ~f) that are
consistent with the instance.
"""

from repro.explain import sufficient_reasons
from repro.logic import (Not, VarMap, parse,
                         prime_implicants_of_formula)
from repro.obdd import ObddManager, compile_formula

FUNCTION = "(A | ~C) & (B | C) & (A | B)"


def _analyse():
    vm = VarMap()
    f = parse(FUNCTION, vm)
    a, c, b = vm.index("A"), vm.index("C"), vm.index("B")
    manager = ObddManager([a, b, c])
    node = compile_formula(f, manager)

    pis = prime_implicants_of_formula(f)
    neg_pis = prime_implicants_of_formula(Not(f), sorted(f.variables()))
    positive_instance = {a: True, b: True, c: False}
    negative_instance = {a: False, b: True, c: True}
    pos_reasons = _reasons(node.to_ir(), positive_instance)
    neg_reasons = _reasons(manager.negate(node).to_ir(), negative_instance)
    pos_consistent = _consistent(pis, positive_instance)
    neg_consistent = _consistent(neg_pis, negative_instance)
    return (vm, pis, neg_pis, pos_reasons, neg_reasons, pos_consistent,
            neg_consistent, (a, b, c))


def _reasons(ir, instance):
    return [frozenset(r) for r in sufficient_reasons(ir, instance)["reasons"]]


def _consistent(implicants, instance):
    """The implicants made of instance literals, in reason order."""
    held = {v if value else -v for v, value in instance.items()}
    return sorted((p for p in implicants if p <= held),
                  key=lambda t: (len(t), sorted(t, key=abs)))


def test_fig26_prime_implicants(benchmark, table):
    (vm, pis, neg_pis, pos_reasons, neg_reasons, pos_consistent,
     neg_consistent, (a, b, c)) = benchmark(_analyse)

    def pretty(term):
        return "".join(("" if l > 0 else "~") + vm.name(abs(l))
                       for l in sorted(term, key=abs))

    table("Fig 26: f = (A + ~C)(B + C)(A + B)",
          [["prime implicants of f", ", ".join(map(pretty, pis))],
           ["prime implicants of ~f", ", ".join(map(pretty, neg_pis))]])
    table("instance A,B,~C (decision 1)",
          [["sufficient reasons", ", ".join(map(pretty, pos_reasons))],
           ["consistent prime implicants",
            ", ".join(map(pretty, pos_consistent))]])
    table("instance ~A,B,C (decision 0)",
          [["sufficient reasons", ", ".join(map(pretty, neg_reasons))],
           ["consistent prime implicants",
            ", ".join(map(pretty, neg_consistent))]])

    assert set(pis) == {frozenset({a, b}), frozenset({a, c}),
                        frozenset({b, -c})}
    assert set(neg_pis) == {frozenset({-a, -b}), frozenset({-b, -c}),
                            frozenset({-a, c})}
    # paper: reasons AB and B~C for the positive instance
    assert set(pos_reasons) == {frozenset({a, b}), frozenset({b, -c})}
    # paper: exactly one reason, ~A C, for the negative instance
    assert neg_reasons == [frozenset({-a, c})]
    # two computations agree: the enumerator on the circuit, and the
    # prime implicants of f / ~f restricted to the instance's literals
    assert pos_reasons == pos_consistent
    assert neg_reasons == neg_consistent
