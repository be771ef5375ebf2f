"""The seed's OBDD counting passes: one value per node, normalized to
the tail of the variable order and scaled across skipped levels.

:func:`repro.obdd.ops.model_count` and
:func:`~repro.obdd.ops.weighted_model_count` lower the OBDD to the IR
and answer on the kernel's gap-aware passes instead; the suites compare
the two on random OBDDs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.obdd.manager import ObddNode

__all__ = ["model_count", "weighted_model_count"]


def model_count(node: ObddNode,
                variables: Sequence[int] | None = None) -> int:
    """The seed counting pass: one value per node, normalized to the
    variable-order tail, scaled across level gaps by shifting."""
    manager = node.manager
    if variables is None:
        variables = manager.var_order
    variables = list(variables)
    positions = {v: i for i, v in enumerate(variables)}
    missing = node.variables() - set(variables)
    if missing:
        raise ValueError(f"count variables missing {sorted(missing)}")
    n = len(variables)
    # One iterative pass, one value per node: counts[id] is the model
    # count normalized to variables[pos(node.var):] (terminals to the
    # empty tail), so no (node, depth) product keys are needed — a
    # child reached from different parents is scaled into each parent's
    # scope by shifting with the level gap.
    counts: Dict[int, int] = {}

    def pos(m: ObddNode) -> int:
        return n if m.is_terminal else positions[m.var]

    for m in node.topological():
        if m.is_terminal:
            counts[m.id] = 1 if m.terminal_value else 0
        else:
            level = positions[m.var]
            low, high = m.low, m.high
            counts[m.id] = \
                (counts[low.id] << (pos(low) - level - 1)) + \
                (counts[high.id] << (pos(high) - level - 1))
    return counts[node.id] << pos(node)


def weighted_model_count(node: ObddNode, weights: Mapping[int, float],
                         variables: Sequence[int] | None = None) -> float:
    """The seed WMC pass (span-weight level-gap scheme)."""
    manager = node.manager
    if variables is None:
        variables = manager.var_order
    variables = list(variables)
    positions = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    def span_weight(lo: int, hi: int) -> float:
        value = 1.0
        for i in range(lo, hi):
            var = variables[i]
            value *= weights[var] + weights[-var]
        return value

    # values[id]: WMC normalized to variables[pos(node.var):] — the
    # same single-value-per-node scheme as model_count, with gap
    # variables contributing W(v) + W(-v) factors.
    values: Dict[int, float] = {}

    def pos(m: ObddNode) -> int:
        return n if m.is_terminal else positions[m.var]

    for m in node.topological():
        if m.is_terminal:
            values[m.id] = 1.0 if m.terminal_value else 0.0
        else:
            level = positions[m.var]
            var = m.var
            low, high = m.low, m.high
            values[m.id] = (
                weights[-var] * span_weight(level + 1, pos(low))
                * values[low.id]
                + weights[var] * span_weight(level + 1, pos(high))
                * values[high.id])
    return span_weight(0, pos(node)) * values[node.id]
