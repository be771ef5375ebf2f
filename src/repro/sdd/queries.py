"""Queries on SDDs: counting, WMC, enumeration, NNF export.

Counting normalizes every node to its *own* vtree (a node is counted
over ``vars(vtree(node))`` and scaled by 2^gap into larger scopes), so
explicit smoothing is never materialised.  The normalization makes a
node's count scope-independent, which buys two things over the seed's
``(node, scope)``-keyed recursion:

* one value per node — computed by a single iterative children-first
  pass, no recursion depth limit, and memoised on the manager, so
  repeated ``model_count`` calls on the same node are O(1);
* a reusable *plan* (topological order plus per-element gap-variable
  tuples), also cached on the manager, so repeated WMC calls with
  different weight vectors skip all vtree set algebra.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple

from ..nnf.node import NnfManager, NnfNode
from ..vtree.vtree import Vtree
from .manager import SddManager
from .node import SddNode

__all__ = ["model_count", "model_count_legacy", "weighted_model_count",
           "weighted_model_count_legacy", "enumerate_models",
           "sdd_to_nnf", "to_dot"]

# plan entry: (node id, kind code, payload).  Kinds: 0 false, 1 true,
# 2 literal (payload: the literal), 3 decision (payload: a tuple of
# (prime id, prime gap vars, sub id, sub gap vars) — the gap variables
# complete the prime/sub into the element's half-scope).
_FALSE, _TRUE, _LITERAL, _DECISION = range(4)
_PlanEntry = Tuple[int, int, object]


def _vtree_vars(n: SddNode) -> frozenset:
    return n.vtree.variables if n.vtree is not None else frozenset()


def _plan(node: SddNode) -> List[_PlanEntry]:
    """The (cached) evaluation plan for ``node``'s sub-SDD."""
    manager: SddManager = node.manager
    cache = getattr(manager, "_plan_cache", None)
    if cache is None:
        cache = manager._plan_cache = {}
    plan = cache.get(node.id)
    if plan is not None:
        return plan
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
    cache[node.id] = plan
    return plan


def model_count(node: SddNode, scope: Vtree | None = None) -> int:
    """#SAT over the variables of ``scope`` (default: the whole vtree).

    Runs on the shared IR kernel (:mod:`repro.ir`): the SDD lowers once
    (cached on its manager) and the kernel's gap-aware counting pass
    replaces the plan-based scheme of the seed — which survives as
    :func:`model_count_legacy`.
    """
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0
    from ..ir import ir_kernel, sdd_to_ir
    ir = sdd_to_ir(node)
    count = ir_kernel(ir).model_count()
    return count << (len(scope.variables) - len(ir.variables()))


def model_count_legacy(node: SddNode, scope: Vtree | None = None) -> int:
    """The seed plan-based counting pass (vtree-normalized values).

    .. deprecated:: not for new call sites; kept as the
       cross-check reference and benchmark baseline.
    """
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0
    if node.is_true:
        return 1 << len(scope.variables)
    mc_cache = getattr(manager, "_mc_cache", None)
    if mc_cache is None:
        mc_cache = manager._mc_cache = {}
    inner = mc_cache.get(node.id)
    if inner is None:
        counts: Dict[int, int] = {}
        for nid, kind, payload in _plan(node):
            if kind == _DECISION:
                counts[nid] = sum(
                    (counts[pid] << len(p_gap))
                    * (counts[sid] << len(s_gap))
                    for pid, p_gap, sid, s_gap in payload)
                mc_cache[nid] = counts[nid]
            else:
                # constants count 1/0 over no variables; a literal 1
                # over its own variable
                counts[nid] = 0 if kind == _FALSE else 1
        inner = counts[node.id]
        mc_cache[node.id] = inner
    return inner << (len(scope.variables) - len(_vtree_vars(node)))


def weighted_model_count(node: SddNode, weights: Mapping[int, float],
                         scope: Vtree | None = None) -> float:
    """WMC with literal weights; a variable absent from the node's
    support contributes W(v) + W(-v).

    IR-kernel backed like :func:`model_count`; the seed's plan-based
    pass survives as :func:`weighted_model_count_legacy`.
    """
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0.0
    from ..ir import ir_kernel, sdd_to_ir
    ir = sdd_to_ir(node)
    result = ir_kernel(ir).wmc(weights)
    for var in scope.variables - ir.variables():
        result *= weights[var] + weights[-var]
    return result


def weighted_model_count_legacy(node: SddNode,
                                weights: Mapping[int, float],
                                scope: Vtree | None = None) -> float:
    """The seed plan-based WMC pass.

    .. deprecated:: not for new call sites; kept as the
       cross-check reference and benchmark baseline.
    """
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


def enumerate_models(node: SddNode, scope: Vtree | None = None
                     ) -> Iterator[Dict[int, bool]]:
    """Yield all models over the variables of ``scope``."""
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree

    def rec(n: SddNode, s: Vtree) -> Iterator[Dict[int, bool]]:
        if n.is_false:
            return
        if n.is_true:
            yield from _all_assignments(sorted(s.variables))
            return
        if n.is_literal:
            var = abs(n.literal)
            rest = sorted(s.variables - {var})
            for partial in _all_assignments(rest):
                partial[var] = n.literal > 0
                yield partial
            return
        v = n.vtree
        free = sorted(s.variables - v.variables)
        for prime, sub in n.elements:
            for left in rec(prime, v.left):
                for right in rec(sub, v.right):
                    for extra in _all_assignments(free):
                        yield {**left, **right, **extra}

    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    yield from rec(node, scope)


def _all_assignments(variables: List[int]) -> Iterator[Dict[int, bool]]:
    if not variables:
        yield {}
        return
    var, rest = variables[0], variables[1:]
    for partial in _all_assignments(rest):
        for value in (False, True):
            yield {var: value, **partial}


def sdd_to_nnf(node: SddNode, manager: NnfManager | None = None) -> NnfNode:
    """Export an SDD as a structured d-DNNF circuit (Fig 9 ↔ Fig 13)."""
    if manager is None:
        manager = NnfManager()
    cache: Dict[int, NnfNode] = {}
    for n in node.descendants():
        if n.is_true:
            cache[n.id] = manager.true()
        elif n.is_false:
            cache[n.id] = manager.false()
        elif n.is_literal:
            cache[n.id] = manager.literal(n.literal)
        else:
            cache[n.id] = manager.disjoin(
                *(manager.conjoin(cache[p.id], cache[s.id])
                  for p, s in n.elements))
    return cache[node.id]


def to_dot(node: SddNode, name=str) -> str:
    """Graphviz dot source for an SDD (decision nodes as element boxes)."""
    lines = ["digraph sdd {", "  rankdir=TB;"]
    for n in node.descendants():
        if n.is_true:
            lines.append(f'  n{n.id} [shape=box, label="⊤"];')
        elif n.is_false:
            lines.append(f'  n{n.id} [shape=box, label="⊥"];')
        elif n.is_literal:
            sign = "" if n.literal > 0 else "¬"
            lines.append(f'  n{n.id} [shape=box, '
                         f'label="{sign}{name(abs(n.literal))}"];')
        else:
            ports = "|".join(f"<e{i}> •" for i in range(len(n.elements)))
            lines.append(f'  n{n.id} [shape=record, label="{ports}"];')
            for i, (prime, sub) in enumerate(n.elements):
                lines.append(f"  n{n.id}:e{i} -> n{prime.id} "
                             '[style=dashed];')
                lines.append(f"  n{n.id}:e{i} -> n{sub.id};")
    lines.append("}")
    return "\n".join(lines)
