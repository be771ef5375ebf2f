"""EM parameter learning for PSDDs from *incomplete* data ([17]).

With missing values, ML parameters have no closed form; EM alternates:

* E-step — for each partial example, the expected number of times each
  element / Bernoulli value fires;
* M-step — normalise the expected counts, exactly as in the complete-
  data learner.

The E-step is one batched differential pass on the kernel of the
lowered PSDD (:meth:`repro.ir.kernel.IrKernel.derivatives_batch`), one
column per example: under evidence e the expected count of a parameter
θ is θ·∂Pr(e)/∂θ / Pr(e), and :func:`repro.ir.lower.psdd_slots` names
the θ each parameter leaf reads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from .psdd import PsddNode

__all__ = ["em_learn", "incomplete_log_likelihood"]

PartialData = Sequence[Tuple[Mapping[int, bool], float]]


def incomplete_log_likelihood(root: PsddNode, data: PartialData) -> float:
    """Σ count · log Pr(partial example) (marginal likelihood), from one
    :func:`~repro.psdd.queries.marginal_batch` over the examples."""
    from .queries import marginal_batch
    data = list(data)
    total = 0.0
    for (_evidence, count), p in zip(
            data, marginal_batch(root, [e for e, _ in data])):
        if p == 0.0:
            return float("-inf")
        total += count * math.log(p)
    return total


def em_learn(root: PsddNode, data: PartialData, iterations: int = 30,
             alpha: float = 0.01, tolerance: float = 1e-7) -> List[float]:
    """Run EM in place; returns the log-likelihood trace.

    ``alpha`` is a Laplace pseudo-count applied at every M-step (it also
    keeps parameters off the boundary, which EM cannot leave).  Stops
    early when the likelihood improves by less than ``tolerance``.
    """
    data = list(data)
    trace: List[float] = []
    for _ in range(iterations):
        log_likelihood, counts = _expected_counts(root, data)
        trace.append(log_likelihood)
        _m_step(root, counts, alpha)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tolerance:
            break
    return trace


def _expected_counts(root: PsddNode, data: PartialData
                     ) -> Tuple[float, Dict[int, List[float]]]:
    """One E-step: the log-likelihood of ``data`` and, per decision or
    Bernoulli node id, the expected count of each of its θs (one per
    element; a Bernoulli's ``[¬X, X]``)."""
    import numpy as np
    from ..ir import ir_kernel, psdd_to_ir
    from ..ir.core import KIND_PARAM
    from ..ir.lower import psdd_slots
    from .queries import _evidence_batch
    ir, params = psdd_to_ir(root)
    slots = psdd_slots(root)[1]
    kernel = ir_kernel(ir)
    values, derivatives = kernel.derivatives_batch(
        _evidence_batch(ir.variables(), [e for e, _ in data]),
        params=params)
    probabilities = values[-1]
    log_likelihood = 0.0
    for (evidence, count), p in zip(data, probabilities):
        if p == 0.0:
            raise ValueError(
                f"evidence {dict(evidence)} has probability zero "
                "under the current parameters")
        log_likelihood += count * math.log(p)
    # example j weighs count_j / Pr(e_j)
    shares = np.array([count for _, count in data], dtype=float) \
        / probabilities
    counts: Dict[int, List[float]] = {
        node.id: [0.0] * (len(node.elements) if node.is_decision else 2)
        for node in root.descendants() if not node.is_literal}
    for i in range(kernel.n):
        if kernel.kinds[i] == KIND_PARAM:
            slot = kernel.lits[i]
            node, k = slots[slot]
            counts[node.id][k] += params[slot] * float(
                derivatives[i] @ shares)
    return log_likelihood, counts


def _m_step(root: PsddNode, counts: Dict[int, List[float]],
            alpha: float) -> None:
    for node in root.descendants():
        if node.is_decision:
            node_counts = counts[node.id]
            total = sum(node_counts) + alpha * len(node_counts)
            if total > 0:
                for i, element in enumerate(node.elements):
                    element[2] = (node_counts[i] + alpha) / total
        elif node.is_bernoulli:
            neg, pos = counts[node.id]
            total = neg + pos + 2 * alpha
            if total > 0:
                node.theta = (pos + alpha) / total
