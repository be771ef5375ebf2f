"""Brute-force sufficient reasons on an OBDD ([82, 33]; Section 5.1).

A *sufficient reason* for the decision on instance x is a minimal
subset of x's literals that triggers the decision regardless of the
other features — equivalently, a prime implicant of the decision
function (of its complement, for negative decisions) compatible with x.

Sufficiency of a term is a restrict-then-constant check on the OBDD of
the triggered function, which canonicity makes exact.  Exponential in
the worst case: this is the ground truth the IR enumerator
(:mod:`repro.explain.implicants`) is tested against.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Mapping, Sequence

from repro.obdd.manager import ObddNode
from repro.obdd.ops import restrict

__all__ = ["is_sufficient_reason", "all_sufficient_reasons"]

Term = FrozenSet[int]


def _trigger(node: ObddNode, instance: Mapping[int, bool]) -> ObddNode:
    """The function the decision on ``instance`` *triggers*: the
    classifier itself for a positive decision, its complement for a
    negative one (Fig 26's use of f̄)."""
    return node if node.evaluate(instance) else node.manager.negate(node)


def _instance_term(instance: Mapping[int, bool],
                   variables: Sequence[int]) -> List[int]:
    return [v if instance[v] else -v for v in variables]


def _matches_instance(instance: Mapping[int, bool], lit: int) -> bool:
    """Is ``lit`` one of the instance's literals?  False both for a
    flipped polarity and for a variable the instance does not assign."""
    value = instance.get(abs(lit))
    return value is not None and bool(value) == (lit > 0)


def _term_triggers(trigger: ObddNode, term: Sequence[int]) -> bool:
    """Does fixing the term make the trigger function valid?"""
    fixed = {abs(lit): lit > 0 for lit in term}
    return restrict(trigger, fixed) is trigger.manager.one


def is_sufficient_reason(node: ObddNode, instance: Mapping[int, bool],
                         term: Sequence[int],
                         check_minimal: bool = True) -> bool:
    """Is ``term`` (literals of the instance) a sufficient reason for
    the decision on the instance?"""
    trigger = _trigger(node, instance)
    term = list(term)
    for lit in term:
        if not _matches_instance(instance, lit):
            return False  # not an instance literal
    if not _term_triggers(trigger, term):
        return False
    if check_minimal:
        for lit in term:
            remaining = [other for other in term if other != lit]
            if _term_triggers(trigger, remaining):
                return False
    return True


def all_sufficient_reasons(node: ObddNode,
                           instance: Mapping[int, bool],
                           max_variables: int = 20) -> List[Term]:
    """All sufficient reasons, by branch-and-prune over instance
    literals, sorted by (size, variables)."""
    trigger = _trigger(node, instance)
    relevant = sorted(trigger.variables())
    if len(relevant) > max_variables:
        raise ValueError(
            f"{len(relevant)} variables is beyond the exact enumeration "
            "limit; use repro.explain.sufficient_reasons instead")
    literals = _instance_term(instance, relevant)
    reasons: List[Term] = []
    # sweep candidate terms by increasing size: a term that triggers and
    # contains no previously-found reason is minimal, hence a reason
    for size in range(len(literals) + 1):
        for combo in itertools.combinations(literals, size):
            candidate = frozenset(combo)
            if any(existing <= candidate for existing in reasons):
                continue
            if _term_triggers(trigger, combo):
                reasons.append(candidate)
    return sorted(reasons,
                  key=lambda t: (len(t), sorted(t, key=abs)))
