"""The seed's SDD counting passes, on a vtree-normalized plan.

Each node is counted over the variables of its *own* vtree and scaled
by 2^gap into larger scopes, so smoothing is never materialised.  A
plan (topological order plus per-element gap-variable tuples) drives
one iterative children-first pass per query.

:func:`repro.sdd.queries.model_count` and
:func:`~repro.sdd.queries.weighted_model_count` lower the SDD to the IR
and answer on the kernel instead; the suites compare the two on random
SDDs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.sdd.manager import SddManager
from repro.sdd.node import SddNode
from repro.vtree.vtree import Vtree

__all__ = ["model_count", "weighted_model_count"]

# plan entry: (node id, kind code, payload).  Kinds: 0 false, 1 true,
# 2 literal (payload: the literal), 3 decision (payload: a tuple of
# (prime id, prime gap vars, sub id, sub gap vars) — the gap variables
# complete the prime/sub into the element's half-scope).
_FALSE, _TRUE, _LITERAL, _DECISION = range(4)
_PlanEntry = Tuple[int, int, object]


def _vtree_vars(n: SddNode) -> frozenset:
    return n.vtree.variables if n.vtree is not None else frozenset()


def _plan(node: SddNode) -> List[_PlanEntry]:
    """The evaluation plan for ``node``'s sub-SDD."""
    plan = []
    for n in node.descendants():
        if n.is_constant:
            plan.append((n.id, _TRUE if n.is_true else _FALSE, None))
        elif n.is_literal:
            plan.append((n.id, _LITERAL, n.literal))
        else:
            v = n.vtree
            left_vars, right_vars = v.left.variables, v.right.variables
            elements = tuple(
                (p.id, tuple(sorted(left_vars - _vtree_vars(p))),
                 s.id, tuple(sorted(right_vars - _vtree_vars(s))))
                for p, s in n.elements)
            plan.append((n.id, _DECISION, elements))
    return plan


def model_count(node: SddNode, scope: Vtree | None = None) -> int:
    """The seed plan-based counting pass (vtree-normalized values)."""
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0
    if node.is_true:
        return 1 << len(scope.variables)
    counts: Dict[int, int] = {}
    for nid, kind, payload in _plan(node):
        if kind == _DECISION:
            counts[nid] = sum(
                (counts[pid] << len(p_gap))
                * (counts[sid] << len(s_gap))
                for pid, p_gap, sid, s_gap in payload)
        else:
            # constants count 1/0 over no variables; a literal 1
            # over its own variable
            counts[nid] = 0 if kind == _FALSE else 1
    inner = counts[node.id]
    return inner << (len(scope.variables) - len(_vtree_vars(node)))


def weighted_model_count(node: SddNode, weights: Mapping[int, float],
                         scope: Vtree | None = None) -> float:
    """The seed plan-based WMC pass."""
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")

    def gap_factor(gap_vars) -> float:
        value = 1.0
        for var in gap_vars:
            value *= weights[var] + weights[-var]
        return value

    if node.is_false:
        return 0.0
    if node.is_true:
        return gap_factor(sorted(scope.variables))
    values: Dict[int, float] = {}
    for nid, kind, payload in _plan(node):
        if kind == _DECISION:
            values[nid] = sum(
                values[pid] * gap_factor(p_gap)
                * values[sid] * gap_factor(s_gap)
                for pid, p_gap, sid, s_gap in payload)
        elif kind == _LITERAL:
            values[nid] = weights[payload]
        else:
            values[nid] = 0.0 if kind == _FALSE else 1.0
    outer = sorted(scope.variables - _vtree_vars(node))
    return values[node.id] * gap_factor(outer)
