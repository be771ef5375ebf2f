"""The seed's PSDD marginals: a recursive, dict-per-call MAR
traversal, and all-variable marginals as one traversal per variable.

:func:`repro.psdd.queries.marginal` answers on the IR kernel with the
θs as parameter leaves, and
:func:`~repro.psdd.queries.variable_marginals` takes one derivative
pass for every variable; the suites compare both against these.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.psdd.psdd import PsddNode

__all__ = ["marginal", "variable_marginals"]


def marginal(root: PsddNode, evidence: Mapping[int, bool]) -> float:
    """The seed MAR traversal (dict-per-call recursion)."""
    cache: Dict[int, float] = {}

    def value(node: PsddNode) -> float:
        hit = cache.get(node.id)
        if hit is not None:
            return hit
        if node.is_literal:
            var = abs(node.literal)
            if var in evidence:
                result = 1.0 if evidence[var] == (node.literal > 0) else 0.0
            else:
                result = 1.0
        elif node.is_bernoulli:
            var = abs(node.literal)
            if var in evidence:
                result = node.theta if evidence[var] else 1.0 - node.theta
            else:
                result = 1.0
        else:
            result = sum(theta * value(prime) * value(sub)
                         for prime, sub, theta in node.elements)
        cache[node.id] = result
        return result

    return value(root)


def variable_marginals(root: PsddNode) -> Dict[int, float]:
    """Pr(X = 1) for every variable, by |vars| evidence evaluations."""
    return {var: marginal(root, {var: True})
            for var in sorted(root.variables())}
