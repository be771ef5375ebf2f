"""Linear-time queries on tractable NNF circuits.

Each query documents the property it requires.  Counting-style queries
handle non-smooth circuits by tracking variable sets and scaling by
2^gap (equivalently: the weight of a missing variable is the sum of its
literal weights), so explicit smoothing is not required — but see
:func:`repro.nnf.transform.smooth` for the explicit transformation.
``variables`` is the query's scope: the kernel widens the answer over
the listed variables the circuit never mentions, and raises
``ValueError`` when the list misses a circuit variable.

The caller is responsible for the circuit actually having the stated
property; :mod:`repro.nnf.properties` provides checkers.

All single-pass queries run on the one
:class:`~repro.ir.kernel.IrKernel` of the root's interned IR
(:func:`get_kernel`): the kernel is built once per circuit (cached on
its manager) and repeated queries reuse its precomputed topological
order and or-gate gap data.  The seed's dict-per-call walkers live on
in ``tests/oracles/nnf_walkers.py``, the reference the cross-check
suites compare these queries against.  Each query takes an optional
``stats`` :class:`~repro.perf.instrument.Counter` that accumulates a
``nodes_visited`` count.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..ir.kernel import (IrKernel, ir_kernel, pack_assignment_batch,
                         pack_weight_batch)
from ..ir.lower import nnf_to_ir
from ..perf.instrument import Counter
from .node import NnfNode

__all__ = ["get_kernel", "is_satisfiable_dnnf", "sat_model_dnnf",
           "model_count", "weighted_model_count",
           "weighted_model_count_batch",
           "weighted_model_count_log_batch", "evaluate_batch",
           "enumerate_models", "mpe", "marginal_counts",
           "condition_evaluate"]

Weights = Mapping[int, float]


def get_kernel(root: NnfNode) -> IrKernel:
    """The (cached) kernel for ``root``: ``ir_kernel(nnf_to_ir(root))``.

    Memoised on the root's manager keyed by node id, so a repeated
    query skips the lowering; nodes are immutable and hash-consed, so
    a cached kernel never goes stale even as the manager keeps
    growing.  Structurally identical circuits intern to one IR, so
    every route to it (other managers, the facade, the query gate)
    shares one kernel and its memoised results.
    """
    manager = root.manager
    cache = getattr(manager, "_kernel_cache", None)
    if cache is None:
        cache = manager._kernel_cache = {}
    kernel = cache.get(root.id)
    if kernel is None:
        kernel = cache[root.id] = ir_kernel(nnf_to_ir(root))
    return kernel


def is_satisfiable_dnnf(root: NnfNode,
                        stats: Counter | None = None) -> bool:
    """SAT on a DNNF circuit — linear time [22]; unlocks NP."""
    return get_kernel(root).sat(stats)


def sat_model_dnnf(root: NnfNode, stats: Counter | None = None
                   ) -> Optional[Dict[int, bool]]:
    """A satisfying assignment of a DNNF circuit (partial: only the
    variables that matter are set), or None if unsatisfiable."""
    return get_kernel(root).sat_model(stats)


def model_count(root: NnfNode,
                variables: Sequence[int] | None = None,
                stats: Counter | None = None) -> int:
    """#SAT on a d-DNNF circuit (Fig 8) — requires decomposability and
    determinism.  ``variables`` widens the count to a superset of the
    circuit variables (each absent variable doubles the count)."""
    return get_kernel(root).model_count(stats, scope=variables)


def weighted_model_count(root: NnfNode, weights: Weights,
                         variables: Sequence[int] | None = None,
                         stats: Counter | None = None) -> float:
    """WMC on a d-DNNF circuit — the workhorse reduction target (§2.1).

    ``weights`` maps literals (±v) to weights.  Missing variables of an
    or-gate's child contribute a factor W(v) + W(-v); likewise variables
    in ``variables`` that are absent from the whole circuit.
    """
    return get_kernel(root).wmc(weights, stats, scope=variables)


def _as_weight_batch(kernel: IrKernel, weights, variables):
    """Accept either literal→array batches or sequences of weight maps.

    The maps are packed over the kernel's variable set, which the
    kernel already holds: walking the NNF DAG for the same set would
    cost more than the batch pass itself on a large circuit.
    """
    if isinstance(weights, Mapping):
        return weights
    pack_vars = set(kernel.variables())
    if variables is not None:
        pack_vars |= set(variables)
    return pack_weight_batch(list(weights), sorted(pack_vars))


def weighted_model_count_batch(root: NnfNode, weights,
                               variables: Sequence[int] | None = None,
                               stats: Counter | None = None):
    """N weighted model counts in one numpy pass (§2.1, many queries).

    ``weights`` is either a sequence of N literal→weight maps or an
    already-packed literal → length-N array mapping
    (:func:`repro.ir.kernel.pack_weight_batch`).  Column ``j`` of the
    returned array equals ``weighted_model_count`` of weight vector
    ``j``; ``variables`` widens over absent variables exactly like the
    scalar query.
    """
    kernel = get_kernel(root)
    batch = _as_weight_batch(kernel, weights, variables)
    return kernel.wmc_batch(batch, stats, scope=variables)


def weighted_model_count_log_batch(root: NnfNode, weights,
                                   variables: Sequence[int] | None = None,
                                   stats: Counter | None = None):
    """Log-space :func:`weighted_model_count_batch`: takes the same
    *linear* weights, accumulates in log space (zero weights become
    ``-inf``) and returns the length-N array of **log** WMCs — robust
    on large circuits whose per-model weights underflow a float.
    """
    import numpy as np
    kernel = get_kernel(root)
    batch = _as_weight_batch(kernel, weights, variables)
    with np.errstate(divide="ignore"):
        log_batch = {lit: np.log(np.asarray(column, dtype=float))
                     for lit, column in batch.items()}
    return kernel.wmc_log_batch(log_batch, stats, scope=variables)


def evaluate_batch(root: NnfNode, assignments,
                   stats: Counter | None = None):
    """Evaluate the circuit under N complete assignments at once.

    ``assignments`` is either a sequence of N variable→bool maps or a
    packed variable → length-N bool array mapping; returns a length-N
    bool array.
    """
    kernel = get_kernel(root)
    if not isinstance(assignments, Mapping):
        assignments = pack_assignment_batch(
            list(assignments), sorted(kernel.variables()))
    return kernel.evaluate_batch(assignments, stats)


def enumerate_models(root: NnfNode,
                     variables: Sequence[int] | None = None
                     ) -> Iterator[Dict[int, bool]]:
    """Enumerate the models of a *decomposable* circuit.

    Works on any DNNF (determinism not required: duplicates are removed
    per node), yielding complete assignments over ``variables``.
    Output-exponential by nature, so it stays on the node-object
    traversal rather than the kernel.
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
        variables: Sequence[int] | None = None,
        stats: Counter | None = None
        ) -> Tuple[float, Dict[int, bool]]:
    """Most probable explanation on a d-DNNF: max-product upward pass
    plus traceback.  Returns (max weight, maximising assignment); each
    of ``variables`` the circuit never mentions takes its heavier
    literal."""
    return get_kernel(root).mpe(weights, stats, scope=variables)


def marginal_counts(root: NnfNode,
                    variables: Sequence[int] | None = None,
                    stats: Counter | None = None) -> Dict[int, int]:
    """For each literal ℓ over ``variables`` (default: the circuit's),
    the number of models over ``variables`` containing ℓ.

    Requires a *smooth* d-DNNF (see :func:`repro.nnf.transform.smooth`);
    computed with the upward/downward differential passes of [23, 25] —
    all marginals in time linear in the circuit size.
    """
    kernel = get_kernel(root)
    return kernel.marginals(stats, scope=kernel.variables()
                            if variables is None else variables)


def condition_evaluate(root: NnfNode, evidence: Mapping[int, bool],
                       weights: Weights,
                       stats: Counter | None = None) -> float:
    """WMC of the circuit conditioned on ``evidence`` without rebuilding:
    literals inconsistent with evidence weigh 0, consistent ones keep
    their weight.  Requires smooth d-DNNF for exactness on gaps covered
    by evidence; unset variables behave as in weighted_model_count."""
    adjusted = dict(weights)
    for var, value in evidence.items():
        adjusted[var] = weights[var] if value else 0.0
        adjusted[-var] = 0.0 if value else weights[-var]
    return weighted_model_count(root, adjusted, stats=stats)
