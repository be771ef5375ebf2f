"""Anytime #SAT / WMC: certified bounds from a partial decomposition.

Darwiche, *On the Tractable Counting of Theory Models* (2000): a
partial decomposition of a CNF still yields sound model-count bounds.
This module is that idea as a graceful-degradation mode — the search
of :mod:`repro.sat.search`, the one the exact engines run, read through
*intervals* ``(lower, upper)``:

* a conflict contributes ``(0, 0)``; a fully satisfied scope ``(1, 1)``
  (times the free-variable factor);
* independent components multiply intervals, disjoint decision
  branches add them, free variables scale both ends by ``2`` (or
  ``W(v) + W(-v)`` in the weighted case);
* when the budget expires, every not-yet-expanded component resolves
  *immediately* to the trivial interval ``(0, full(vars))`` — the
  search unwinds without further decisions and the partial
  decomposition explored so far becomes the result.

Interval arithmetic preserves bracketing at every rule, so for any
budget the returned interval contains the exact count; with no budget
(or one that never expires) the interval is a point and equals the
exact count.  The weighted variant requires non-negative literal
weights (the usual WMC setting) — soundness of the trivial upper bound
``Π (W(v) + W(-v))`` depends on it.

The budget rule is the exact engines': one node per decision, and a
cache hit costs nothing, so a budget of as many nodes as the exact
counter makes decisions gives the exact count.  Only point intervals are
memoised, one cache entry each.  Exhaustion of any kind — nodes,
deadline, the cache cap, injected faults (deadline skew, allocation
failure at the Nth node — see :mod:`repro.limits.faults`) — widens the
bounds and never raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Set

from ..logic.cnf import Cnf
from ..sat.search import Algebra, TrailSearch
from .budget import Budget, resolve_budget

__all__ = ["AnytimeResult", "anytime_count", "anytime_wmc"]


@dataclass
class AnytimeResult:
    """Outcome of an anytime count: ``lower <= exact <= upper``.

    ``reason`` is None when the search completed (the interval is then
    a point equal to the exact count) and the budget-exhaustion reason
    otherwise.  Counts are ints for :func:`anytime_count`, floats for
    :func:`anytime_wmc`.
    """

    lower: float
    upper: float
    reason: Optional[str]
    decisions: int
    nodes: int
    elapsed_s: float

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_dict(self) -> Dict:
        return {"lower": str(self.lower), "upper": str(self.upper),
                "exact": self.exact, "reason": self.reason,
                "decisions": self.decisions, "nodes": self.nodes,
                "elapsed_s": round(self.elapsed_s, 6)}


class _Intervals(Algebra):
    """Certified intervals ``(lower, upper)`` of the (weighted) count."""

    bounded = True

    def __init__(self, cnf: Cnf, weights: Optional[Mapping[int, float]]):
        self.weights = weights
        self.reason: Optional[str] = None
        self.one = 1 if weights is None else 1.0
        zero = 0 if weights is None else 0.0
        self.zero = (zero, zero)
        self.mentioned = {abs(lit) for c in cnf.clauses for lit in c}
        self.unmentioned = [v for v in range(1, cnf.num_vars + 1)
                            if v not in self.mentioned]

    def _full(self, variables: Collection[int]):
        """Total mass of an unconstrained scope: 2 (or W(v)+W(-v)) per
        variable — the trivial upper bound of an unexplored component
        and the exact factor of a free one."""
        if self.weights is None:
            return 1 << len(variables)
        total = 1.0
        weights = self.weights
        for var in variables:
            total *= weights[var] + weights[-var]
        return total

    def _term(self, literals: Iterable[int]):
        """Weight of a conjunction of assigned literals (1 unweighted)."""
        if self.weights is None:
            return 1
        value = 1.0
        weights = self.weights
        for lit in literals:
            value *= weights[lit]
        return value

    def conjoin(self, decision, implied, parts, scope, components):
        lo = hi = self.one
        counted: Set[int] = set()
        for (clo, chi), (_, comp_vars) in zip(parts, components):
            counted.update(comp_vars)
            lo *= clo
            hi *= chi
        if decision is None:  # the root
            term = self._term(implied) * self._full(self.unmentioned)
            free = self.mentioned - {abs(lit) for lit in implied}
        else:
            assigned = [decision, *implied]
            term = self._term(assigned)
            free = set(scope) - {abs(lit) for lit in assigned}
        factor = self._full(free - counted)
        return term * (lo * factor), term * (hi * factor)

    def disjoin(self, high, low):
        return high[0] + low[0], high[1] + low[1]

    def absorbing(self, value) -> bool:
        return value[1] == 0  # an upper bound of 0 is exact

    def cacheable(self, value) -> bool:
        # only point intervals are exact component counts (a bailed
        # subtree never produces one unless its upper bound is 0,
        # which is exact too)
        return value[0] == value[1]

    def cut(self, reason: str, variables: List[int]):
        # out of budget: this component stays unexplored and
        # contributes the trivial (still sound) interval
        self.reason = reason
        return self.zero[0], self._full(variables)


def _run(cnf: Cnf, weights: Optional[Mapping[int, float]],
         budget: Optional[Budget]) -> AnytimeResult:
    budget = resolve_budget(budget)
    if weights is not None:
        for var in range(1, cnf.num_vars + 1):
            if weights[var] < 0 or weights[-var] < 0:
                raise ValueError(
                    f"anytime WMC needs non-negative weights; "
                    f"variable {var} has a negative one")
    start = time.perf_counter()
    algebra = _Intervals(cnf, weights)
    search = TrailSearch(cnf, algebra, cache_mode="exact", budget=budget)
    lower, upper = search.run()
    stats = search.stats
    return AnytimeResult(
        lower=lower, upper=upper, reason=algebra.reason,
        decisions=stats["decisions"],
        nodes=stats["decisions"] + stats["cache_hits"],
        elapsed_s=time.perf_counter() - start)


def anytime_count(cnf: Cnf,
                  budget: Optional[Budget] = None) -> AnytimeResult:
    """Model count of ``cnf`` over variables 1..num_vars as a certified
    interval: exact when the budget (explicit, else ambient, else
    unlimited) survives the search, sound bounds otherwise."""
    return _run(cnf, None, budget)


def anytime_wmc(cnf: Cnf, weights: Mapping[int, float],
                budget: Optional[Budget] = None) -> AnytimeResult:
    """Weighted model count as a certified interval.

    ``weights`` maps every literal ±v (v in 1..num_vars) to a
    non-negative weight.
    """
    return _run(cnf, weights, budget)
