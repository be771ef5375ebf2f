"""Maximum-likelihood PSDD parameter learning from complete data [44].

With complete data, ML parameters come from one pass per example: walk
the circuit along the (unique, by strong determinism) active path,
counting how often each element / Bernoulli fires; parameters are the
normalized counts (Fig 15).  Time is linear in circuit size × data
size, as the paper states.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from .psdd import PsddNode

__all__ = ["learn_parameters", "log_likelihood", "WeightedData"]

#: complete assignments with multiplicities, e.g. from Fig 15's table
WeightedData = Sequence[Tuple[Mapping[int, bool], float]]


def learn_parameters(root: PsddNode, data: WeightedData,
                     alpha: float = 0.0) -> PsddNode:
    """Set ML parameters in place (returns ``root`` for chaining).

    Parameters
    ----------
    data:
        Sequence of ``(assignment, count)`` pairs; assignments must be
        complete over the PSDD variables and inside its support.
    alpha:
        Laplace smoothing pseudo-count added per element / per Bernoulli
        value (0 = plain maximum likelihood).

    Complete data walks each example's active path instead of running
    EM's kernel derivative pass: the counts it adds are the data's own,
    exact, where θ·∂Pr(x)/∂θ / Pr(x) would round them, and the walk
    names an example that falls outside the support.
    """
    element_counts: Dict[int, List[float]] = {}
    bernoulli_counts: Dict[int, List[float]] = {}  # [neg, pos]
    for node in root.descendants():
        if node.is_decision:
            element_counts[node.id] = [0.0] * len(node.elements)
        elif node.is_bernoulli:
            bernoulli_counts[node.id] = [0.0, 0.0]

    for assignment, count in data:
        if count < 0:
            raise ValueError("negative example count")
        _count_example(root, assignment, count, element_counts,
                       bernoulli_counts)

    for node in root.descendants():
        if node.is_decision:
            counts = element_counts[node.id]
            total = sum(counts) + alpha * len(counts)
            if total > 0:
                for i, element in enumerate(node.elements):
                    element[2] = (counts[i] + alpha) / total
            else:  # node never visited: keep a uniform distribution
                uniform = 1.0 / len(node.elements)
                for element in node.elements:
                    element[2] = uniform
        elif node.is_bernoulli:
            neg, pos = bernoulli_counts[node.id]
            total = neg + pos + 2 * alpha
            node.theta = (pos + alpha) / total if total > 0 else 0.5
    return root


def _count_example(root: PsddNode, assignment: Mapping[int, bool],
                   count: float,
                   element_counts: Dict[int, List[float]],
                   bernoulli_counts: Dict[int, List[float]]) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_literal:
            value = assignment[abs(node.literal)]
            if value != (node.literal > 0):
                raise ValueError(
                    f"example {dict(assignment)} is outside the PSDD "
                    "support (violates the symbolic knowledge)")
        elif node.is_bernoulli:
            var = abs(node.literal)
            bernoulli_counts[node.id][1 if assignment[var] else 0] += count
        else:
            for i, (prime, sub, _theta) in enumerate(node.elements):
                if prime.contains(assignment):
                    element_counts[node.id][i] += count
                    stack.append(prime)
                    stack.append(sub)
                    break
            else:
                raise ValueError(
                    f"example {dict(assignment)} is outside the PSDD "
                    "support (violates the symbolic knowledge)")


def log_likelihood(root: PsddNode, data: WeightedData) -> float:
    """Σ count · log Pr(example); -inf if any example has probability 0."""
    total = 0.0
    for assignment, count in data:
        p = root.probability(assignment)
        if p == 0.0:
            return float("-inf")
        total += count * math.log(p)
    return total
