"""Queries on SDDs: counting, WMC, enumeration, NNF export.

Counting and WMC lower the SDD once to the shared IR (cached on its
manager) and answer on the one :class:`~repro.ir.kernel.IrKernel`:
its gap-aware passes scale an element's prime and sub across the
vtree variables they do not mention, so explicit smoothing is never
materialised, and repeated queries reuse the kernel's memoised count
and precomputed gap data.  Enumeration and the exports walk the SDD
nodes directly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping

from ..nnf.node import NnfManager, NnfNode
from ..vtree.vtree import Vtree
from .manager import SddManager
from .node import SddNode

__all__ = ["model_count", "weighted_model_count", "enumerate_models",
           "sdd_to_nnf", "to_dot"]


def model_count(node: SddNode, scope: Vtree | None = None) -> int:
    """#SAT over the variables of ``scope`` (default: the whole vtree).

    Runs on the shared IR kernel (:mod:`repro.ir`): the SDD lowers once
    (cached on its manager) and the kernel's gap-aware counting pass
    answers.
    """
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0
    from ..ir import ir_kernel, sdd_to_ir
    return ir_kernel(sdd_to_ir(node)).model_count(scope=scope.variables)


def weighted_model_count(node: SddNode, weights: Mapping[int, float],
                         scope: Vtree | None = None) -> float:
    """WMC with literal weights; a variable absent from the node's
    support contributes W(v) + W(-v).

    IR-kernel backed like :func:`model_count`.
    """
    manager: SddManager = node.manager
    if scope is None:
        scope = manager.vtree
    if not node.is_constant and not scope.is_ancestor_of(node.vtree):
        raise ValueError("scope does not cover the node's vtree")
    if node.is_false:
        return 0.0
    from ..ir import ir_kernel, sdd_to_ir
    return ir_kernel(sdd_to_ir(node)).wmc(weights, scope=scope.variables)


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
