"""Exact model counting (#SAT) with component decomposition and caching.

This is the sharpSAT recipe [88] in miniature: DPLL search with unit
propagation, decomposition of the residual CNF into independent
components, and memoisation of component counts.  ``ModelCounter``
exposes switches for both optimisations so the ABL2 benchmark can
measure their effect.

The search is :class:`repro.sat.search.TrailSearch`, the one the
Decision-DNNF compiler and the anytime bounds run; the counter reads it
through integers: components multiply, decision branches add, and a
variable left free in a scope doubles the count.  Each
:meth:`ModelCounter.count` call runs a search of its own, so one
counter instance is re-entrant and can serve concurrent callers;
``cache`` / ``cache_hits`` / ``decisions`` / ``stats`` report the most
recently *completed* call.

The count is always over variables ``1..num_vars`` of the input CNF:
variables that never occur in a clause contribute a factor of two each.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from ..limits.budget import Budget, resolve_budget
from ..logic.cnf import Cnf
from ..perf.instrument import Counter
from .search import Algebra, Component, TrailSearch

__all__ = ["ModelCounter", "count_models"]


class _Counts(Algebra):
    """Model counts: integers, shifted by the free variables."""

    zero = 0

    def conjoin(self, decision: Optional[int], implied: Sequence[int],
                parts: List[int], scope: Sequence[int],
                components: List[Component]) -> int:
        total = 1
        for part in parts:
            total *= part
        free = len(scope) - len(implied) - (decision is not None) - \
            sum(len(comp_vars) for _, comp_vars in components)
        return total << free

    def disjoin(self, high: int, low: int) -> int:
        return high + low

    def absorbing(self, value: int) -> bool:
        return value == 0


_COUNTS = _Counts()


class ModelCounter:
    """Exact #SAT solver.

    Parameters
    ----------
    use_components:
        Decompose residual formulas into connected components and
        multiply their counts.
    use_cache:
        Memoise counts of residual components.  Requires deterministic
        residuals, which unit propagation provides.
    cache_mode:
        ``"hash"`` (default) keys the cache by a cheap hash of the
        residual; ``"exact"`` by the residual itself — the
        collision-free correctness fallback.
    budget:
        Optional :class:`~repro.limits.budget.Budget`; the counter
        charges it one node per decision and one cache entry per
        memoised component, raising
        :class:`~repro.limits.budget.BudgetExceeded` (with the
        decisions/cache counters so far in ``partial``) on exhaustion.
        ``count(budget=...)`` overrides per call; with neither, the
        ambient budget (:meth:`Budget.scope`) governs if installed.
        For certified bounds instead of an exception, see
        :func:`repro.limits.anytime.anytime_count`.
    """

    def __init__(self, use_components: bool = True, use_cache: bool = True,
                 cache_mode: str = "hash",
                 budget: Optional[Budget] = None):
        if cache_mode not in ("hash", "exact"):
            raise ValueError(f"unknown cache_mode {cache_mode!r}")
        self.use_components = use_components
        self.use_cache = use_cache
        self.cache_mode = cache_mode
        self.budget = budget
        self._last = TrailSearch(Cnf([]), _COUNTS)

    # -- statistics of the most recently completed call --------------------
    @property
    def stats(self) -> Counter:
        return self._last.stats

    @property
    def cache(self) -> Dict[Hashable, int]:
        return self._last.cache

    @property
    def cache_hits(self) -> int:
        return self._last.stats["cache_hits"]

    @property
    def decisions(self) -> int:
        return self._last.stats["decisions"]

    def count(self, cnf: Cnf, budget: Optional[Budget] = None) -> int:
        """Number of models of ``cnf`` over variables 1..num_vars.

        ``budget`` overrides the instance/ambient budget for this call;
        on exhaustion the raised :class:`BudgetExceeded` carries the
        partial search state (decisions, cache entries) in ``partial``.
        """
        search = TrailSearch(
            cnf, _COUNTS, use_components=self.use_components,
            use_cache=self.use_cache, cache_mode=self.cache_mode,
            budget=resolve_budget(
                budget if budget is not None else self.budget),
            operation="count")
        try:
            return search.run()
        finally:
            self._last = search


def count_models(cnf: Cnf, use_components: bool = True,
                 use_cache: bool = True, cache_mode: str = "hash",
                 budget: Optional[Budget] = None) -> int:
    """Convenience wrapper around :class:`ModelCounter`."""
    counter = ModelCounter(use_components=use_components,
                           use_cache=use_cache, cache_mode=cache_mode,
                           budget=budget)
    return counter.count(cnf)
