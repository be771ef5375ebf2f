"""PSDD queries: marginals, MPE, entropy, KL — all linear in PSDD size.

The paper: "Both MPE and MAR queries can be computed in time linear in
the PSDD size [44]."

``marginal``, ``marginal_batch``, ``mpe`` and ``support_size`` answer
on the kernel of the lowered PSDD (:func:`repro.ir.lower.psdd_to_ir`:
the θs are parameter leaves re-read per call, and evidence becomes 0/1
literal weights), so the query gate covers them.  Three passes stay on
the PSDD itself, each for the reason its docstring gives:
``variable_marginals``, ``entropy`` and ``kl_divergence``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .psdd import PsddNode

__all__ = ["marginal", "marginal_batch", "mpe", "entropy",
           "kl_divergence", "support_size", "variable_marginals"]


def _evidence_weights(variables: Iterable[int],
                      evidence: Mapping[int, bool]) -> Dict[int, float]:
    """Literal weights of a partial assignment: the literal of a set
    variable that contradicts it weighs 0, every other literal 1."""
    weights: Dict[int, float] = {}
    for var in variables:
        weights[var] = 0.0 if var in evidence and not evidence[var] \
            else 1.0
        weights[-var] = 0.0 if var in evidence and evidence[var] else 1.0
    return weights


def _evidence_batch(variables: Iterable[int],
                    evidence_batch: Sequence[Mapping[int, bool]]
                    ) -> Dict[int, "object"]:
    """The evidence weights of N partial assignments as literal →
    length-N arrays."""
    from ..ir.kernel import pack_weight_batch
    variables = list(variables)
    return pack_weight_batch([_evidence_weights(variables, evidence)
                              for evidence in evidence_batch], variables)


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
    return ir_kernel(ir).wmc(_evidence_weights(ir.variables(), evidence),
                             params=params)


def marginal_batch(root: PsddNode,
                   evidence_batch: Sequence[Mapping[int, bool]]
                   ) -> "object":
    """Pr(evidence) for N partial assignments in one batched pass.

    Column ``j`` of the returned length-N float array equals
    ``marginal(root, evidence_batch[j])``: one kernel ``wmc_batch``
    over a column of evidence weights per assignment.
    """
    from ..ir import ir_kernel, psdd_to_ir
    ir, params = psdd_to_ir(root)
    return ir_kernel(ir).wmc_batch(
        _evidence_batch(ir.variables(), evidence_batch), params=params)


def variable_marginals(root: PsddNode) -> Dict[int, float]:
    """Pr(X = 1) for every variable, from one upward + downward pass.

    With no evidence every node's upward value is 1 (each node is a
    normalized distribution over its vtree variables), so only the
    downward pass matters: the derivative of a node is the probability
    mass flowing through it, and Pr(X = 1) is the derivative-weighted
    sum of the leaf distributions over X — |vars| evaluations collapse
    into a single traversal.

    It stays on the PSDD because skipping the upward pass pays: on
    103–6,737-element PSDDs it ran 2.5–4.1× faster than the kernel's
    scalar ``weighted_derivatives`` and 6–24× faster than its batched
    passes (a two-core Xeon, best of 20), and
    ``benchmarks/run_all.py``'s ``psdd_marginals`` times it.
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
    """The most probable completion of ``evidence`` and its probability:
    the kernel's max-product pass and traceback.  The model holds every
    evidence variable; evidence of probability zero answers
    ``(evidence, 0.0)``."""
    from ..ir import ir_kernel, psdd_to_ir
    evidence = dict(evidence or {})
    ir, params = psdd_to_ir(root)
    value, model = ir_kernel(ir).mpe(
        _evidence_weights(ir.variables(), evidence), params=params)
    if value == 0.0:
        return evidence, 0.0
    model.update(evidence)
    return model, value


def support_size(root: PsddNode) -> int:
    """Number of assignments in the support (satisfying SDD inputs): the
    lowered circuit's model count, in which every θ leaf counts 1."""
    from ..ir import ir_kernel, psdd_to_ir
    return ir_kernel(psdd_to_ir(root)[0]).model_count()


def entropy(root: PsddNode) -> float:
    """Shannon entropy (nats) of the PSDD distribution, computed
    recursively: H(node) = Σᵢ θᵢ (−log θᵢ + H(primeᵢ) + H(subᵢ)).

    A PSDD pass, not a kernel query: each node carries an expectation
    over θ logs, a semiring the kernel does not have."""
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
    compiled SDD on two datasets.

    A PSDD pass, not a kernel query: it walks two circuits in step and
    checks that they share structure, where a kernel runs one."""
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
