"""One exhaustive component search, read through an algebra.

The sharpSAT recipe [88] — DPLL with unit propagation, decomposition of
the residual CNF into independent components, and a component cache —
is the one search behind the model counter, the Decision-DNNF compiler
and the anytime bounds.  Its trace *is* a Decision-DNNF ("the language
of search", [38]); counting it and bounding it are readings of that
same decomposition through a different algebra (Darwiche, *On the
Tractable Counting of Theory Models*).  So the search here owns
everything they share, and each front end hands it only an
:class:`Algebra`:

* a persistent two-watched-literal :class:`TrailPropagator`:
  conditioning is an enqueue plus propagation, unconditioning a trail
  rewind, and no residual clause list is ever materialised — the
  search works on clause *indices* against the trail;
* :func:`trail_components`, one fused pass per node that drops
  satisfied clauses, splits the rest into variable-connected
  components and builds the occurrence lists the variable choice reads;
* the component cache, keyed by ``(clause ids, free vars)``, which
  fully determines a residual (every assigned literal of an unsatisfied
  clause is false): two 64-bit tuple hashes under ``cache_mode="hash"``,
  the tuples themselves under ``"exact"``;
* the budget: one node charged per decision, after a cache miss (hits
  cost nothing), and one cache entry per memoised component;
* the variable choice: priority variables first (in priority order),
  then the variable with most occurrences in the component, ties to the
  lower variable;
* the branch order: the positive literal first, the order the
  ``repro-proof/1`` grammar fixes;
* the ``stats`` counters (``decisions``, ``cache_hits``,
  ``component_splits``, ``components_found``, plus the propagator's
  ``propagations`` / ``clause_visits``) and the proof-trace events.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..limits.budget import Budget, BudgetExceeded
from ..logic.cnf import Cnf
from ..perf.instrument import Counter
from .components import trail_components
from .propagation import TrailPropagator

__all__ = ["Algebra", "TrailSearch"]

#: a component as :func:`trail_components` returns it:
#: (sorted clause indices, component variables)
Component = Tuple[List[int], List[int]]


class Algebra:
    """How the search reads its decomposition.

    A value stands for the residual formula of one search node.  The
    search calls:

    * :meth:`conjoin` on every partition: the assigned literals of the
      node (``decision`` is None at the root), the values of its
      components in order, the variables in scope (the enclosing
      component's, or ``1..num_vars`` at the root) and the components
      themselves; scope variables that are neither assigned nor in a
      component are free;
    * :meth:`disjoin` on every decision, positive branch first;
    * :attr:`zero` for a branch (or root) that propagation refutes.

    The exact algebras raise :class:`BudgetExceeded` when the budget
    runs out; a ``bounded`` one gives an unexplored component the value
    :meth:`cut` instead, and then the search never raises.
    """

    #: the value of a refuted branch
    zero: Any = None
    #: True when :meth:`cut` bounds components the budget leaves unexplored
    bounded = False

    def conjoin(self, decision: Optional[int], implied: Sequence[int],
                parts: List[Any], scope: Sequence[int],
                components: List[Component]) -> Any:
        raise NotImplementedError

    def disjoin(self, high: Any, low: Any) -> Any:
        raise NotImplementedError

    def absorbing(self, value: Any) -> bool:
        """True when no later component can change a partition holding
        ``value``: the search then skips them and the partition reads
        ``value``."""
        return False

    def cacheable(self, value: Any) -> bool:
        """Whether a finished component's value may be memoised."""
        return True

    def cut(self, reason: str, variables: List[int]) -> Any:
        """The value of a component left unexplored for ``reason``."""
        raise NotImplementedError


class TrailSearch:
    """One run of the exhaustive search over ``cnf``.

    Build one per call and :meth:`run` it once; its ``cache`` and
    ``stats`` then describe that run alone, which keeps a front end
    that builds one per call re-entrant.  ``stats`` may be a caller's
    counter to accumulate into.  ``trace`` is an optional
    :class:`repro.proof.trace.TraceBuilder` receiving every step.
    ``operation`` names the front end in the ``partial`` of a raised
    :class:`BudgetExceeded`, next to ``decisions`` and
    ``cache_entries``.
    """

    def __init__(self, cnf: Cnf, algebra: Algebra, *,
                 use_components: bool = True, use_cache: bool = True,
                 cache_mode: str = "hash",
                 priority: Optional[Dict[int, int]] = None,
                 budget: Optional[Budget] = None,
                 stats: Optional[Counter] = None,
                 trace: Any = None, operation: str = "search"):
        self.clauses = list(cnf.clauses)
        self.scope = range(1, cnf.num_vars + 1)
        self.algebra = algebra
        self.use_components = use_components
        self.use_cache = use_cache
        self.exact_keys = cache_mode == "exact"
        self.priority = priority or {}
        self.budget = budget
        self.stats = Counter() if stats is None else stats
        self.trace = trace
        self.operation = operation
        self.cache: Dict[Hashable, Any] = {}
        self._proof_ids: Dict[Hashable, int] = {}
        self.engine = TrailPropagator(self.clauses, cnf.num_vars,
                                      self.stats)

    def run(self) -> Any:
        """The value of the whole formula over ``1..num_vars``."""
        try:
            engine = self.engine
            if not engine.assert_root():
                if self.trace is not None:
                    self.trace.root_conflict()
                return self.algebra.zero
            implied = list(engine.trail)
            if self.trace is not None:
                self.trace.root(sorted(implied, key=abs))
            return self._parts(range(len(self.clauses)), self.scope,
                               None, implied)
        except BudgetExceeded as error:
            error.partial.setdefault("operation", self.operation)
            error.partial.setdefault("decisions", self.stats["decisions"])
            error.partial.setdefault("cache_entries", len(self.cache))
            raise

    def _parts(self, indices: Sequence[int], scope: Sequence[int],
               decision: Optional[int], implied: List[int]) -> Any:
        """Split the clauses of ``indices`` still active into
        components, search each and conjoin them with the node's
        assigned literals."""
        components, occ = trail_components(
            self.clauses, indices, self.engine.values, self.use_components)
        if self.use_components and components:
            self.stats.incr("component_splits")
            self.stats.incr("components_found", len(components))
        if self.trace is not None:
            self.trace.begin_partition(len(components))
        algebra = self.algebra
        parts = []
        for comp_indices, comp_vars in components:
            value = self._component(comp_indices, comp_vars, occ)
            if algebra.absorbing(value):
                return value
            parts.append(value)
        return algebra.conjoin(decision, implied, parts, scope, components)

    def _component(self, comp_indices: List[int], comp_vars: List[int],
                   occ: Dict[int, List[int]]) -> Any:
        trace = self.trace
        key: Optional[Hashable] = None
        if self.use_cache:
            ids = tuple(comp_indices)
            vrs = tuple(sorted(comp_vars))
            key = (ids, vrs) if self.exact_keys else (hash(ids), hash(vrs))
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.incr("cache_hits")
                if trace is not None:
                    # back-reference to the hit's proved subtrace; the
                    # checker re-derives both residuals, so a key
                    # collision serving the wrong value is refuted
                    trace.cache_hit(self._proof_ids[key], comp_indices)
                return hit
        algebra = self.algebra
        budget = self.budget
        if budget is not None:
            reason = budget.charge()
            if reason is not None:
                if not algebra.bounded:
                    raise BudgetExceeded(reason, budget)
                return algebra.cut(reason, comp_vars)
        var = self._pick(comp_vars, occ)
        self.stats.incr("decisions")
        if trace is not None:
            trace.begin_component(comp_indices)
            trace.decision(var)
        engine = self.engine
        branches = []
        for literal in (var, -var):
            mark = len(engine.trail)
            if engine.condition(literal):
                # propagation stays inside this component (its clauses
                # are variable-connected); trail[mark] is the decision
                implied = engine.trail[mark + 1:]
                if trace is not None:
                    trace.branch(literal, sorted(implied, key=abs))
                branches.append(self._parts(comp_indices, comp_vars,
                                            literal, implied))
            else:
                if trace is not None:
                    trace.branch_conflict(literal)
                branches.append(algebra.zero)
            engine.undo_to(mark)
        value = algebra.disjoin(branches[0], branches[1])
        if trace is not None:
            pid = trace.end_component()
            if key is not None:
                self._proof_ids[key] = pid
        if key is not None and algebra.cacheable(value):
            if budget is not None:
                try:
                    budget.charge_cache()
                except BudgetExceeded:
                    if not algebra.bounded:
                        raise
                    # past the cap nothing more is filed, and the
                    # sticky reason cuts every later decision
                    return value
            self.cache[key] = value
        return value

    def _pick(self, comp_vars: List[int], occ: Dict[int, List[int]]) -> int:
        if self.priority:
            prioritized = [v for v in comp_vars if v in self.priority]
            if prioritized:
                return min(prioritized, key=self.priority.__getitem__)
        # every occurrence of a component variable lies inside the
        # component, so the shared occurrence lists are its scores
        return max(comp_vars, key=lambda v: (len(occ[v]), -v))
