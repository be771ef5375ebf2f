"""OBDD operations beyond apply: restriction, quantification, counting,
enumeration, variable flips and compilation from formulas/CNF."""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from ..logic.cnf import Cnf
from ..logic.formula import (And as FAnd, Constant, Formula, Lit,
                             Or as FOr)
from .manager import ObddManager, ObddNode

__all__ = ["restrict", "exists", "forall", "compose", "flip_variable",
           "model_count", "model_count_legacy", "weighted_model_count",
           "weighted_model_count_legacy", "enumerate_models",
           "compile_formula", "compile_cnf_obdd", "compile_nnf_obdd",
           "minimum_cardinality"]


def restrict(node: ObddNode, evidence: Mapping[int, bool]) -> ObddNode:
    """Condition the function on fixed variable values.

    One iterative children-first pass; diagrams deeper than the
    interpreter recursion limit are fine.
    """
    manager = node.manager
    rebuilt: Dict[int, ObddNode] = {}
    for n in node.topological():
        if n.is_terminal:
            rebuilt[n.id] = n
        elif n.var in evidence:
            rebuilt[n.id] = rebuilt[(n.high if evidence[n.var]
                                     else n.low).id]
        else:
            rebuilt[n.id] = manager.make(n.var, rebuilt[n.low.id],
                                         rebuilt[n.high.id])
    return rebuilt[node.id]


def exists(node: ObddNode, variables: Sequence[int]) -> ObddNode:
    """Existentially quantify ``variables``: ∃v. f = f|v ∨ f|¬v."""
    manager = node.manager
    result = node
    for var in variables:
        result = manager.apply_or(restrict(result, {var: True}),
                                  restrict(result, {var: False}))
    return result


def forall(node: ObddNode, variables: Sequence[int]) -> ObddNode:
    """Universally quantify ``variables``: ∀v. f = f|v ∧ f|¬v."""
    manager = node.manager
    result = node
    for var in variables:
        result = manager.apply_and(restrict(result, {var: True}),
                                   restrict(result, {var: False}))
    return result


def compose(node: ObddNode, var: int, replacement: ObddNode) -> ObddNode:
    """Substitute function ``replacement`` for variable ``var``:
    f[var := g] = (g ∧ f|var) ∨ (¬g ∧ f|¬var)."""
    manager = node.manager
    return manager.ite(replacement, restrict(node, {var: True}),
                       restrict(node, {var: False}))


def flip_variable(node: ObddNode, var: int) -> ObddNode:
    """The function with the sense of ``var`` inverted:
    g(x) = f(x with bit `var` flipped).  Used by the Hamming-dilation
    robustness computation (Section 5.2).  Iterative bottom-up pass."""
    manager = node.manager
    rebuilt: Dict[int, ObddNode] = {}
    for n in node.topological():
        if n.is_terminal:
            rebuilt[n.id] = n
        elif n.var == var:
            rebuilt[n.id] = manager.make(n.var, rebuilt[n.high.id],
                                         rebuilt[n.low.id])
        else:
            rebuilt[n.id] = manager.make(n.var, rebuilt[n.low.id],
                                         rebuilt[n.high.id])
    return rebuilt[node.id]


def model_count(node: ObddNode,
                variables: Sequence[int] | None = None) -> int:
    """Exact model count over ``variables`` (default: the manager's
    full variable order).

    Runs on the shared IR kernel (:mod:`repro.ir`): the OBDD lowers
    once (cached on its manager) and the kernel's gap-aware counting
    pass replaces the level-gap scheme of the seed — which survives as
    :func:`model_count_legacy`.
    """
    manager = node.manager
    if variables is None:
        variables = manager.var_order
    mentioned = node.variables()
    missing = mentioned - set(variables)
    if missing:
        raise ValueError(f"count variables missing {sorted(missing)}")
    from ..ir import ir_kernel, obdd_to_ir
    count = ir_kernel(obdd_to_ir(node)).model_count()
    return count << (len(set(variables)) - len(mentioned))


def model_count_legacy(node: ObddNode,
                       variables: Sequence[int] | None = None) -> int:
    """The seed counting pass: one value per node, normalized to the
    variable-order tail, scaled across level gaps by shifting.

    .. deprecated:: not for new call sites; kept as the
       cross-check reference and benchmark baseline.
    """
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
    """WMC with literal weights (±v keys), skipped variables contribute
    W(v) + W(-v).

    IR-kernel backed like :func:`model_count`; the seed's span-weight
    pass survives as :func:`weighted_model_count_legacy`.
    """
    manager = node.manager
    if variables is None:
        variables = manager.var_order
    from ..ir import ir_kernel, obdd_to_ir
    result = ir_kernel(obdd_to_ir(node)).wmc(weights)
    for var in set(variables) - node.variables():
        result *= weights[var] + weights[-var]
    return result


def weighted_model_count_legacy(node: ObddNode,
                                weights: Mapping[int, float],
                                variables: Sequence[int] | None = None
                                ) -> float:
    """The seed WMC pass (span-weight level-gap scheme).

    .. deprecated:: not for new call sites; kept as the
       cross-check reference and benchmark baseline.
    """
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


def enumerate_models(node: ObddNode,
                     variables: Sequence[int] | None = None
                     ) -> Iterator[Dict[int, bool]]:
    """Yield all complete models over ``variables``."""
    manager = node.manager
    if variables is None:
        variables = manager.var_order
    variables = list(variables)
    positions = {v: i for i, v in enumerate(variables)}

    def rec(n_node: ObddNode, depth: int,
            partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
        if n_node.is_terminal:
            if n_node.terminal_value:
                yield from _expand(partial, variables[depth:])
            return
        level = positions[n_node.var]
        for free_assignment in _expand({}, variables[depth:level]):
            base = {**partial, **free_assignment}
            for value, child in ((False, n_node.low), (True, n_node.high)):
                base[n_node.var] = value
                yield from rec(child, level + 1, dict(base))

    yield from rec(node, 0, {})


def _expand(partial: Dict[int, bool], free: List[int]
            ) -> Iterator[Dict[int, bool]]:
    if not free:
        yield dict(partial)
        return
    var, rest = free[0], free[1:]
    for value in (False, True):
        partial[var] = value
        yield from _expand(partial, rest)
    del partial[var]


def minimum_cardinality(node: ObddNode, costs: Mapping[int, float]
                        ) -> float:
    """Minimum, over models, of the sum of per-literal costs.

    ``costs`` maps literals to non-negative costs.  Returns ``inf`` for
    the zero function.  Linear in the OBDD size; this is the primitive
    behind decision robustness (cost 1 on flipped literals).
    """
    manager = node.manager
    variables = manager.var_order
    positions = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    def span_cost(lo: int, hi: int) -> float:
        return sum(min(costs[variables[i]], costs[-variables[i]])
                   for i in range(lo, hi))

    # best[id]: minimum cost normalized to variables[pos(node.var):];
    # gap variables cost their cheaper literal.  Same iterative
    # per-node-normalization scheme as model_count.
    best: Dict[int, float] = {}

    def pos(m: ObddNode) -> int:
        return n if m.is_terminal else positions[m.var]

    for m in node.topological():
        if m.is_terminal:
            best[m.id] = 0.0 if m.terminal_value else float("inf")
        else:
            level = positions[m.var]
            var = m.var
            low, high = m.low, m.high
            best[m.id] = min(
                costs[-var] + span_cost(level + 1, pos(low)) + best[low.id],
                costs[var] + span_cost(level + 1, pos(high))
                + best[high.id])
    return span_cost(0, pos(node)) + best[node.id]


def compile_formula(formula: Formula, manager: ObddManager) -> ObddNode:
    """Bottom-up compilation of a formula by apply operations."""
    nnf = formula.to_nnf()

    def build(f: Formula) -> ObddNode:
        if isinstance(f, Constant):
            return manager.terminal(f.value)
        if isinstance(f, Lit):
            return manager.literal(f.literal)
        if isinstance(f, FAnd):
            return manager.conjoin_all([build(c) for c in f.children])
        if isinstance(f, FOr):
            return manager.disjoin_all([build(c) for c in f.children])
        raise TypeError(f"unexpected formula node {f!r}")

    return build(nnf)


def compile_cnf_obdd(cnf: Cnf, manager: ObddManager | None = None
                     ) -> Tuple[ObddNode, ObddManager]:
    """Compile a CNF bottom-up (clause by clause, widest clauses first
    conjoined last).  Returns (root, manager)."""
    if manager is None:
        manager = ObddManager(range(1, cnf.num_vars + 1))
    clause_nodes = [manager.disjoin_all([manager.literal(lit)
                                         for lit in clause])
                    for clause in cnf.clauses]
    clause_nodes.sort(key=lambda node: node.size())
    return manager.conjoin_all(clause_nodes), manager


def compile_nnf_obdd(root, manager: ObddManager) -> ObddNode:
    """Compile any NNF circuit into an OBDD by bottom-up apply.

    Bridges compiler output (e.g. Decision-DNNF) into the OBDD engine so
    the explanation/robustness machinery applies to it; worst-case
    exponential like any OBDD construction.
    """
    cache: Dict[int, ObddNode] = {}
    for node in root.topological():
        if node.is_literal:
            cache[node.id] = manager.literal(node.literal)
        elif node.is_true:
            cache[node.id] = manager.one
        elif node.is_false:
            cache[node.id] = manager.zero
        elif node.is_and:
            cache[node.id] = manager.conjoin_all(
                [cache[c.id] for c in node.children])
        else:
            cache[node.id] = manager.disjoin_all(
                [cache[c.id] for c in node.children])
    return cache[root.id]
