"""PSDD queries: marginals, MPE, entropy, KL — all linear in PSDD size.

The paper: "Both MPE and MAR queries can be computed in time linear in
the PSDD size [44]."

Two many-query fast paths live here as well: ``marginal_batch``
answers N evidence instantiations in one numpy sweep over the PSDD
(one length-N row per node), and ``variable_marginals`` computes
Pr(X=1) for *every* variable from a single upward + downward
derivative pass instead of |vars| full evaluations.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Tuple

from .psdd import PsddNode

__all__ = ["marginal", "marginal_batch", "mpe", "entropy",
           "kl_divergence", "support_size", "variable_marginals"]


def marginal(root: PsddNode, evidence: Mapping[int, bool]) -> float:
    """Pr(evidence) for a partial assignment (MAR).

    Runs on the shared IR kernel (:mod:`repro.ir`): the PSDD structure
    lowers once (cached) with ``KIND_PARAM`` leaves for the θs, and the
    parameter vector is re-read from the live nodes per call — in-place
    θ updates are always reflected.  Evidence becomes literal weights
    (set variable → 1/0, unset → 1/1).
    """
    from ..ir import ir_kernel, psdd_to_ir
    ir, params = psdd_to_ir(root)
    weights: Dict[int, float] = {}
    for var in ir.variables():
        if var in evidence:
            weights[var] = 1.0 if evidence[var] else 0.0
            weights[-var] = 0.0 if evidence[var] else 1.0
        else:
            weights[var] = weights[-var] = 1.0
    return ir_kernel(ir).wmc(weights, params=params)


def marginal_batch(root: PsddNode,
                   evidence_batch: Sequence[Mapping[int, bool]]
                   ) -> "object":
    """Pr(evidence) for N partial assignments in one numpy sweep.

    Column ``j`` of the returned length-N float array equals
    ``marginal(root, evidence_batch[j])``; each PSDD node is visited
    once with a length-N value row.
    """
    import numpy as np
    evidence_batch = list(evidence_batch)
    n = len(evidence_batch)
    # per-variable "is set" masks and set values, built lazily
    set_mask: Dict[int, object] = {}
    set_value: Dict[int, object] = {}

    def columns(var: int):
        if var not in set_mask:
            set_mask[var] = np.array([var in e for e in evidence_batch],
                                     dtype=bool)
            set_value[var] = np.array([e.get(var, False)
                                       for e in evidence_batch],
                                      dtype=bool)
        return set_mask[var], set_value[var]

    values: Dict[int, object] = {}
    ones = np.ones(n)
    for node in root.descendants():
        if node.is_literal:
            mask, value = columns(abs(node.literal))
            match = value == (node.literal > 0)
            row = np.where(mask, match.astype(float), ones)
        elif node.is_bernoulli:
            mask, value = columns(abs(node.literal))
            row = np.where(mask,
                           np.where(value, node.theta, 1.0 - node.theta),
                           ones)
        else:
            row = np.zeros(n)
            for prime, sub, theta in node.elements:
                row = row + theta * values[prime.id] * values[sub.id]
        values[node.id] = row
    return values[root.id]


def variable_marginals(root: PsddNode) -> Dict[int, float]:
    """Pr(X = 1) for every variable, from one upward + downward pass.

    With no evidence every node's upward value is 1 (each node is a
    normalized distribution over its vtree variables), so only the
    downward pass matters: the derivative of a node is the probability
    mass flowing through it, and Pr(X = 1) is the derivative-weighted
    sum of the leaf distributions over X — |vars| evaluations collapse
    into a single traversal.
    """
    order = root.descendants()
    derivative: Dict[int, float] = {node.id: 0.0 for node in order}
    derivative[root.id] = 1.0
    result: Dict[int, float] = {}
    for node in reversed(order):
        d = derivative[node.id]
        if node.is_decision:
            # upward values are all 1, so each element passes d·θ to
            # both its prime and its sub
            for prime, sub, theta in node.elements:
                flow = d * theta
                derivative[prime.id] += flow
                derivative[sub.id] += flow
        elif node.is_literal:
            var = abs(node.literal)
            if node.literal > 0:
                result[var] = result.get(var, 0.0) + d
            else:
                result.setdefault(var, 0.0)
        else:  # bernoulli
            var = abs(node.literal)
            result[var] = result.get(var, 0.0) + d * node.theta
    for var in root.variables():
        result.setdefault(var, 0.0)
    return {var: result[var] for var in sorted(result)}


def mpe(root: PsddNode, evidence: Mapping[int, bool] | None = None
        ) -> Tuple[Dict[int, bool], float]:
    """The most probable completion of ``evidence`` and its probability."""
    evidence = dict(evidence or {})
    value_cache: Dict[int, float] = {}
    choice_cache: Dict[int, int] = {}

    def value(node: PsddNode) -> float:
        hit = value_cache.get(node.id)
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
                result = max(node.theta, 1.0 - node.theta)
        else:
            best, best_index = -1.0, 0
            for i, (prime, sub, theta) in enumerate(node.elements):
                candidate = theta * value(prime) * value(sub)
                if candidate > best:
                    best, best_index = candidate, i
            choice_cache[node.id] = best_index
            result = best
        value_cache[node.id] = result
        return result

    best_value = value(root)
    assignment: Dict[int, bool] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_literal:
            assignment[abs(node.literal)] = node.literal > 0
        elif node.is_bernoulli:
            var = abs(node.literal)
            if var in evidence:
                assignment[var] = evidence[var]
            else:
                assignment[var] = node.theta >= 1.0 - node.theta
        else:
            prime, sub, _theta = node.elements[choice_cache[node.id]]
            stack.append(prime)
            stack.append(sub)
    # evidence may pin literals that the chosen path already fixed; the
    # path choice respected evidence through the value computation, but a
    # literal node contradicting evidence can be chosen only when the
    # evidence has probability 0
    for var, value_ in evidence.items():
        if assignment.get(var, value_) != value_:
            return dict(evidence), 0.0
        assignment[var] = value_
    return assignment, best_value


def support_size(root: PsddNode) -> int:
    """Number of assignments in the support (satisfying SDD inputs)."""
    cache: Dict[int, int] = {}

    def count(node: PsddNode) -> int:
        hit = cache.get(node.id)
        if hit is not None:
            return hit
        if node.is_literal:
            result = 1
        elif node.is_bernoulli:
            result = 2
        else:
            result = sum(count(prime) * count(sub)
                         for prime, sub, _theta in node.elements)
        cache[node.id] = result
        return result

    return count(root)


def entropy(root: PsddNode) -> float:
    """Shannon entropy (nats) of the PSDD distribution, computed
    recursively: H(node) = Σᵢ θᵢ (−log θᵢ + H(primeᵢ) + H(subᵢ))."""
    cache: Dict[int, float] = {}

    def h(node: PsddNode) -> float:
        hit = cache.get(node.id)
        if hit is not None:
            return hit
        if node.is_literal:
            result = 0.0
        elif node.is_bernoulli:
            result = _bernoulli_entropy(node.theta)
        else:
            result = 0.0
            for prime, sub, theta in node.elements:
                if theta > 0:
                    result += theta * (-math.log(theta) + h(prime) + h(sub))
        cache[node.id] = result
        return result

    return h(root)


def _bernoulli_entropy(theta: float) -> float:
    result = 0.0
    for p in (theta, 1.0 - theta):
        if p > 0:
            result -= p * math.log(p)
    return result


def kl_divergence(p_root: PsddNode, q_root: PsddNode) -> float:
    """KL(P ‖ Q) for two PSDDs with *identical structure* (same circuit,
    different parameters) — the common case after learning the same
    compiled SDD on two datasets."""
    cache: Dict[Tuple[int, int], float] = {}

    def kl(p: PsddNode, q: PsddNode) -> float:
        key = (p.id, q.id)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if p.kind != q.kind or p.vtree is not q.vtree:
            raise ValueError("PSDDs do not share structure")
        if p.is_literal:
            if p.literal != q.literal:
                raise ValueError("PSDDs do not share structure")
            result = 0.0
        elif p.is_bernoulli:
            result = _bernoulli_kl(p.theta, q.theta)
        else:
            if len(p.elements) != len(q.elements):
                raise ValueError("PSDDs do not share structure")
            result = 0.0
            for (pp, ps, pt), (qp, qs, qt) in zip(p.elements, q.elements):
                if pt == 0.0:
                    continue
                if qt == 0.0:
                    result = float("inf")
                    break
                result += pt * (math.log(pt / qt) + kl(pp, qp) + kl(ps, qs))
        cache[key] = result
        return result

    return kl(p_root, q_root)


def _bernoulli_kl(p: float, q: float) -> float:
    result = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            return float("inf")
        result += a * math.log(a / b)
    return result
