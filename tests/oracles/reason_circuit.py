"""The complete reason behind a decision, as an NNF circuit built from
a Decision-DNNF (Darwiche & Hirth [33]; Fig 27), and its prime
implicants by antichain propagation.

The *complete reason* is the disjunction of all sufficient reasons.
On a decision graph every decision gate on variable X rewrites to

    consistent_child ∧ (consistent_literal ∨ other_child)

where "consistent" is relative to the instance; the result is a
*monotone* NNF circuit over the instance's literals.  This route
computes the reasons a second way — through NNF nodes and subset
antichains instead of the IR enumerator's greedy probes — for the
tests to compare against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping

from repro.nnf.node import NnfManager, NnfNode

__all__ = ["reason_circuit_ddnnf", "reason_prime_implicants"]


def reason_circuit_ddnnf(trigger: NnfNode, instance: Mapping[int, bool],
                         manager: NnfManager | None = None) -> NnfNode:
    """The complete-reason circuit from a Decision-DNNF directly.

    [33]'s construction applies to any decision graph, and compiler
    output (Decision-DNNF) is one: decision gates transform like OBDD
    nodes (consistent-branch ∧ (consistent-literal ∨ other-branch));
    and-gates, whose children are over disjoint variables, transform
    child-wise (f|S is valid iff every factor's restriction is).

    ``trigger`` must be the function the decision *triggers* — the
    classifier itself for a positive decision, a Decision-DNNF of its
    complement for a negative one (note that
    :func:`repro.nnf.transform.negate_decision` does not preserve the
    decision-gate shape; compile the complement instead).  The
    instance must satisfy the trigger.
    """
    from repro.nnf.properties import is_decision_node
    if manager is None:
        manager = trigger.manager
    if not trigger.evaluate({**{v: False for v in trigger.variables()},
                             **dict(instance)}):
        raise ValueError("the instance does not satisfy the trigger; "
                         "pass the complement circuit for negative "
                         "decisions")
    cache: Dict[int, NnfNode] = {}

    def build(node: NnfNode) -> NnfNode:
        hit = cache.get(node.id)
        if hit is not None:
            return hit
        if node.is_true:
            result = manager.true()
        elif node.is_false:
            result = manager.false()
        elif node.is_literal:
            consistent = instance[abs(node.literal)] == \
                (node.literal > 0)
            result = node if consistent else manager.false()
        elif node.is_and:
            result = manager.conjoin(*(build(c) for c in node.children))
        else:
            var = is_decision_node(node)
            if var is None:
                raise ValueError("reason circuits need a Decision-DNNF")
            value = instance[var]
            literal = manager.literal(var if value else -var)
            consistent_child, other_child = None, None
            for child in node.children:
                if child.is_literal:
                    guard, rest = child.literal, manager.true()
                else:
                    # the guard ±var may sit anywhere among the
                    # conjuncts; the rest is everything else
                    guard = next(g.literal for g in child.children
                                 if g.is_literal
                                 and abs(g.literal) == var)
                    others = [g for g in child.children
                              if not (g.is_literal
                                      and abs(g.literal) == var)]
                    rest = manager.conjoin(*others) if others \
                        else manager.true()
                if (guard > 0) == value:
                    consistent_child = rest
                else:
                    other_child = rest
            consistent_part = build(consistent_child) \
                if consistent_child is not None else manager.false()
            other_part = build(other_child) \
                if other_child is not None else manager.false()
            result = manager.conjoin(
                consistent_part, manager.disjoin(literal, other_part))
        cache[node.id] = result
        return result

    return build(trigger)


def reason_prime_implicants(circuit: NnfNode) -> List[FrozenSet[int]]:
    """The prime implicants of a (monotone) reason circuit — these are
    exactly the sufficient reasons of the decision.

    Monotonicity allows a bottom-up computation manipulating antichains
    of literal sets (each node's set of minimal triggering terms).
    """
    cache: Dict[int, List[FrozenSet[int]]] = {}
    for node in circuit.topological():
        if node.is_literal:
            cache[node.id] = [frozenset((node.literal,))]
        elif node.is_true:
            cache[node.id] = [frozenset()]
        elif node.is_false:
            cache[node.id] = []
        elif node.is_or:
            union: List[FrozenSet[int]] = []
            for child in node.children:
                union.extend(cache[child.id])
            cache[node.id] = _minimize(union)
        else:  # and: pairwise unions across children
            combined: List[FrozenSet[int]] = [frozenset()]
            for child in node.children:
                combined = [a | b for a in combined
                            for b in cache[child.id]]
                combined = _minimize(combined)
            cache[node.id] = combined
    return sorted(cache[circuit.id],
                  key=lambda t: (len(t), sorted(t, key=abs)))


def _minimize(terms: List[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Keep only subset-minimal terms."""
    minimal: List[FrozenSet[int]] = []
    for term in sorted(set(terms), key=len):
        if not any(existing <= term for existing in minimal):
            minimal.append(term)
    return minimal
