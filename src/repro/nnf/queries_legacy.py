"""Reference implementations of the NNF circuit queries.

These are the seed's dict-per-call traversals, kept verbatim as

* the baseline the ``repro.perf`` benchmarks measure the
  :mod:`repro.nnf.kernel` speedups against, and
* the reference the property-based cross-check suite compares the
  kernel results to.

Use :mod:`repro.nnf.queries` for the fast kernel-backed versions; the
two modules share the same signatures and semantics.

.. deprecated::
   Do not call these from new code — they exist for cross-checking and
   benchmarking only.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .node import NnfNode

__all__ = ["is_satisfiable_dnnf", "sat_model_dnnf", "model_count",
           "weighted_model_count", "enumerate_models", "mpe",
           "marginal_counts", "condition_evaluate"]

Weights = Mapping[int, float]


def is_satisfiable_dnnf(root: NnfNode) -> bool:
    """SAT on a DNNF circuit — linear time [22]; unlocks NP."""
    sat: Dict[int, bool] = {}
    for node in root.topological():
        if node.is_literal or node.is_true:
            sat[node.id] = True
        elif node.is_false:
            sat[node.id] = False
        elif node.is_and:
            sat[node.id] = all(sat[c.id] for c in node.children)
        else:
            sat[node.id] = any(sat[c.id] for c in node.children)
    return sat[root.id]


def sat_model_dnnf(root: NnfNode) -> Optional[Dict[int, bool]]:
    """A satisfying assignment of a DNNF circuit (partial: only the
    variables that matter are set), or None if unsatisfiable."""
    sat: Dict[int, bool] = {}
    order = root.topological()
    for node in order:
        if node.is_literal or node.is_true:
            sat[node.id] = True
        elif node.is_false:
            sat[node.id] = False
        elif node.is_and:
            sat[node.id] = all(sat[c.id] for c in node.children)
        else:
            sat[node.id] = any(sat[c.id] for c in node.children)
    if not sat[root.id]:
        return None
    model: Dict[int, bool] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_literal:
            model[abs(node.literal)] = node.literal > 0
        elif node.is_and:
            stack.extend(node.children)
        elif node.is_or:
            for child in node.children:
                if sat[child.id]:
                    stack.append(child)
                    break
    return model


def model_count(root: NnfNode,
                variables: Sequence[int] | None = None) -> int:
    """#SAT on a d-DNNF circuit (Fig 8) — requires decomposability and
    determinism.  ``variables`` widens the count to a superset of the
    circuit variables (each absent variable doubles the count)."""
    counts: Dict[int, int] = {}
    for node in root.topological():
        if node.is_literal:
            counts[node.id] = 1
        elif node.is_true:
            counts[node.id] = 1
        elif node.is_false:
            counts[node.id] = 0
        elif node.is_and:
            value = 1
            for child in node.children:
                value *= counts[child.id]
            counts[node.id] = value
        else:  # or: children may mention fewer variables -> scale the gap
            node_vars = node.variables()
            total = 0
            for child in node.children:
                gap = len(node_vars) - len(child.variables())
                total += counts[child.id] << gap
            counts[node.id] = total
    result = counts[root.id]
    if variables is not None:
        extra = set(variables) - set(root.variables())
        if set(root.variables()) - set(variables):
            raise ValueError("variables must cover the circuit variables")
        result <<= len(extra)
    return result


def weighted_model_count(root: NnfNode, weights: Weights,
                         variables: Sequence[int] | None = None) -> float:
    """WMC on a d-DNNF circuit — the workhorse reduction target (§2.1).

    ``weights`` maps literals (±v) to weights.  Missing variables of an
    or-gate's child contribute a factor W(v) + W(-v); likewise variables
    in ``variables`` that are absent from the whole circuit.
    """
    def var_weight(var: int) -> float:
        return weights[var] + weights[-var]

    values: Dict[int, float] = {}
    for node in root.topological():
        if node.is_literal:
            values[node.id] = weights[node.literal]
        elif node.is_true:
            values[node.id] = 1.0
        elif node.is_false:
            values[node.id] = 0.0
        elif node.is_and:
            value = 1.0
            for child in node.children:
                value *= values[child.id]
            values[node.id] = value
        else:
            node_vars = node.variables()
            total = 0.0
            for child in node.children:
                gap = node_vars - child.variables()
                factor = values[child.id]
                for var in gap:
                    factor *= var_weight(var)
                total += factor
            values[node.id] = total
    result = values[root.id]
    if variables is not None:
        for var in set(variables) - set(root.variables()):
            result *= var_weight(var)
    return result


def enumerate_models(root: NnfNode,
                     variables: Sequence[int] | None = None
                     ) -> Iterator[Dict[int, bool]]:
    """Enumerate the models of a *decomposable* circuit.

    Works on any DNNF (determinism not required: duplicates are removed
    per node), yielding complete assignments over ``variables``.
    """
    if variables is None:
        variables = sorted(root.variables())
    variables = list(variables)
    partials: Dict[int, List[Tuple[Tuple[int, ...], frozenset]]] = {}
    # each node gets a list of (sorted literal tuple, varset) partial models
    for node in root.topological():
        if node.is_literal:
            partials[node.id] = [((node.literal,),
                                  frozenset((abs(node.literal),)))]
        elif node.is_true:
            partials[node.id] = [((), frozenset())]
        elif node.is_false:
            partials[node.id] = []
        elif node.is_and:
            acc = [((), frozenset())]
            for child in node.children:
                acc = [(tuple(sorted(t1 + t2, key=abs)), v1 | v2)
                       for (t1, v1) in acc
                       for (t2, v2) in partials[child.id]]
            partials[node.id] = acc
        else:
            merged = {p for child in node.children
                      for p in partials[child.id]}
            partials[node.id] = sorted(merged)
    seen = set()
    for term, varset in partials[root.id]:
        free = [v for v in variables if v not in varset]
        for completion in _completions(term, free):
            key = tuple(sorted(completion, key=abs))
            if key not in seen:
                seen.add(key)
                yield {abs(lit): lit > 0 for lit in key}


def _completions(term: Tuple[int, ...], free: List[int]
                 ) -> Iterator[Tuple[int, ...]]:
    if not free:
        yield term
        return
    var, rest = free[0], free[1:]
    yield from _completions(term + (var,), rest)
    yield from _completions(term + (-var,), rest)


def mpe(root: NnfNode, weights: Weights,
        variables: Sequence[int] | None = None
        ) -> Tuple[float, Dict[int, bool]]:
    """Most probable explanation on a d-DNNF: max-product upward pass
    plus traceback.  Returns (max weight, maximising assignment)."""
    if variables is None:
        variables = sorted(root.variables())

    def best_literal(var: int) -> int:
        return var if weights[var] >= weights[-var] else -var

    values: Dict[int, float] = {}
    for node in root.topological():
        if node.is_literal:
            values[node.id] = weights[node.literal]
        elif node.is_true:
            values[node.id] = 1.0
        elif node.is_false:
            values[node.id] = float("-inf")
        elif node.is_and:
            value = 1.0
            for child in node.children:
                value *= values[child.id]
            values[node.id] = value
        else:
            node_vars = node.variables()
            best = float("-inf")
            for child in node.children:
                value = values[child.id]
                for var in node_vars - child.variables():
                    value *= weights[best_literal(var)]
                best = max(best, value)
            values[node.id] = best
    # traceback
    assignment: Dict[int, bool] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_literal:
            assignment[abs(node.literal)] = node.literal > 0
        elif node.is_and:
            stack.extend(node.children)
        elif node.is_or:
            node_vars = node.variables()
            best_child, best_value = None, float("-inf")
            for child in node.children:
                value = values[child.id]
                for var in node_vars - child.variables():
                    value *= weights[best_literal(var)]
                if value > best_value:
                    best_child, best_value = child, value
            if best_child is not None:
                for var in node_vars - best_child.variables():
                    lit = best_literal(var)
                    assignment[abs(lit)] = lit > 0
                stack.append(best_child)
    value = values[root.id]
    for var in variables:
        if var not in assignment:
            lit = best_literal(var)
            assignment[abs(lit)] = lit > 0
            value *= weights[lit]
    return value, assignment


def marginal_counts(root: NnfNode,
                    variables: Sequence[int] | None = None
                    ) -> Dict[int, int]:
    """For each literal ℓ, the number of models containing ℓ.

    Requires a *smooth* d-DNNF (see :func:`repro.nnf.transform.smooth`);
    computed with the upward/downward differential passes of [23, 25] —
    all marginals in time linear in the circuit size.
    """
    if variables is None:
        variables = sorted(root.variables())
    order = root.topological()
    counts: Dict[int, int] = {}
    for node in order:
        if node.is_literal or node.is_true:
            counts[node.id] = 1
        elif node.is_false:
            counts[node.id] = 0
        elif node.is_and:
            value = 1
            for child in node.children:
                value *= counts[child.id]
            counts[node.id] = value
        else:
            if node.children and len({c.variables()
                                       for c in node.children}) != 1:
                raise ValueError("marginal_counts requires a smooth circuit")
            counts[node.id] = sum(counts[c.id] for c in node.children)
    # downward pass: derivative of root count w.r.t. each node value
    derivative: Dict[int, int] = {node.id: 0 for node in order}
    derivative[root.id] = 1
    for node in reversed(order):
        d = derivative[node.id]
        if d == 0 or node.is_literal or node.is_true or node.is_false:
            continue
        if node.is_or:
            for child in node.children:
                derivative[child.id] += d
        else:  # and: product rule
            for child in node.children:
                partial = d
                for sibling in node.children:
                    if sibling.id != child.id:
                        partial *= counts[sibling.id]
                derivative[child.id] += partial
    result: Dict[int, int] = {}
    for node in order:
        if node.is_literal:
            result[node.literal] = result.get(node.literal, 0) + \
                derivative[node.id]
    total = counts[root.id]
    mentioned = root.variables()
    for var in variables:
        if var in mentioned:
            # a polarity absent from a smooth circuit has no models
            result.setdefault(var, 0)
            result.setdefault(-var, 0)
        else:
            # unmentioned variables: every model extends both ways
            result.setdefault(var, total)
            result.setdefault(-var, total)
    return result


def condition_evaluate(root: NnfNode, evidence: Mapping[int, bool],
                       weights: Weights) -> float:
    """WMC of the circuit conditioned on ``evidence`` without rebuilding:
    literals inconsistent with evidence weigh 0, consistent ones keep
    their weight.  Requires smooth d-DNNF for exactness on gaps covered
    by evidence; unset variables behave as in weighted_model_count."""
    adjusted = dict(weights)
    for var, value in evidence.items():
        adjusted[var] = weights[var] if value else 0.0
        adjusted[-var] = 0.0 if value else weights[-var]
    return weighted_model_count(root, adjusted)
