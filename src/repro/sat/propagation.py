"""Two-watched-literal unit propagation and an iterative DPLL solver.

The seed propagator (`tests/oracles/dpll.py`) re-scans
the whole clause list on every propagation round, so a chain of k
implications costs O(k · total-literals).  The engine here implements
the classic two-watched-literal scheme (Moskewicz et al., Chaff 2001):
each clause watches two of its literal *occurrences*, and an assignment
only touches the clauses watching the falsified literal.  One setup
pass plus work proportional to the occurrences actually visited
replaces the repeated rescans.

Two entry points:

* :func:`propagate_watched` — drop-in replacement for the legacy
  ``unit_propagate(clauses, assignment)`` contract: mutates
  ``assignment`` with implied literals and returns the reduced residual
  clause list (or None on conflict).  The residual is *identical* to
  the legacy one — satisfied clauses dropped, falsified literal
  occurrences removed, original clause order preserved — which the
  property-based cross-check suite asserts.
* :class:`WatchedSolver` — a full iterative DPLL solver with a trail
  and chronological backtracking whose watch lists persist across
  backtracks (the whole point of the scheme: backtracking is free).

Watches are positional (they watch literal *occurrences*, not values),
so degenerate clauses with repeated literals — e.g. ``(2, 2)`` —
behave exactly like the legacy propagator: two unassigned occurrences
are never treated as a unit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..perf.instrument import Counter

__all__ = ["propagate_watched", "TrailPropagator", "WatchedSolver"]

Clause = Tuple[int, ...]
Assignment = Dict[int, bool]


def propagate_watched(clauses: Sequence[Clause], assignment: Assignment,
                      stats: Counter | None = None
                      ) -> Optional[List[Clause]]:
    """Exhaustive unit propagation via two watched literals.

    Mutates ``assignment`` with every implied literal.  Returns the
    residual clause list (legacy-identical), or None on conflict.  When
    there is nothing to propagate (no pre-set assignment, no unit
    clause), the input list is returned unchanged — callers may use the
    identity to skip their own post-processing.
    """
    if not assignment:
        # fast path: nothing assigned and no unit clause means the
        # fixpoint is the input itself — one cheap length scan
        has_unit = False
        for clause in clauses:
            if len(clause) < 2:
                if not clause:
                    return None  # empty clause: immediate conflict
                has_unit = True
                break
        if not has_unit:
            return clauses if isinstance(clauses, list) else list(clauses)

    queue: deque[int] = deque()
    get = assignment.get

    def value(lit: int) -> Optional[bool]:
        v = get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def enqueue(lit: int) -> bool:
        var, val = abs(lit), lit > 0
        cur = get(var)
        if cur is not None:
            return cur == val
        assignment[var] = val
        queue.append(lit)
        return True

    # -- setup: one pass to seed watches and the unit queue ----------------
    watch_pos: List[Optional[List[int]]] = [None] * len(clauses)
    watchers: Dict[int, List[int]] = {}
    for ci, clause in enumerate(clauses):
        satisfied = False
        free: List[int] = []
        for pos, lit in enumerate(clause):
            v = get(lit if lit > 0 else -lit)
            if v is None:
                free.append(pos)
            elif v == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not free:
            return None  # all occurrences false: empty clause
        if len(free) == 1:
            if not enqueue(clause[free[0]]):
                return None
            continue
        pair = [free[0], free[1]]
        watch_pos[ci] = pair
        watchers.setdefault(clause[pair[0]], []).append(ci)
        watchers.setdefault(clause[pair[1]], []).append(ci)

    # -- propagation to fixpoint ------------------------------------------
    propagations = 0
    visits = 0
    while queue:
        lit = queue.popleft()
        propagations += 1
        false_lit = -lit
        watching = watchers.get(false_lit)
        if not watching:
            continue
        kept: List[int] = []
        conflict = False
        for ci in watching:
            visits += 1
            pair = watch_pos[ci]
            clause = clauses[ci]
            if pair is None or conflict:
                continue
            if clause[pair[0]] == false_lit:
                wi = 0
            elif clause[pair[1]] == false_lit:
                wi = 1
            else:
                continue  # stale entry: this watch moved on already
            other_lit = clause[pair[1 - wi]]
            if value(other_lit) is True:
                kept.append(ci)
                continue
            moved = False
            for pos, cand in enumerate(clause):
                if pos == pair[0] or pos == pair[1]:
                    continue
                if value(cand) is not False:
                    pair[wi] = pos
                    watchers.setdefault(cand, []).append(ci)
                    moved = True
                    break
            if moved:
                continue
            kept.append(ci)  # no replacement: clause is unit or conflicting
            if value(other_lit) is False or not enqueue(other_lit):
                conflict = True
        watchers[false_lit] = kept
        if conflict:
            if stats is not None:
                stats.incr("propagations", propagations)
                stats.incr("clause_visits", visits)
            return None
    if stats is not None:
        stats.incr("propagations", propagations)
        stats.incr("clause_visits", visits)

    # -- one final pass builds the legacy-identical residual ---------------
    reduced: List[Clause] = []
    for clause in clauses:
        satisfied = False
        remaining: List[int] = []
        for lit in clause:
            v = get(lit if lit > 0 else -lit)
            if v is None:
                remaining.append(lit)
            elif v == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not remaining:
            return None  # unreachable at fixpoint; defensive
        reduced.append(tuple(remaining))
    return reduced


class TrailPropagator:
    """Persistent two-watched-literal state with a backtrackable trail.

    The core sharpSAT-style engine: set up watches over the original
    clause list once, then *condition* by enqueueing a literal and
    propagating, and *backtrack* by undoing the trail to a mark — watch
    lists survive backtracking untouched, so neither operation ever
    copies a clause.  :class:`WatchedSolver` adds DPLL search on top;
    :class:`repro.sat.counter.ModelCounter` drives it directly for
    component counting.
    """

    def __init__(self, clauses: Iterable[Iterable[int]], num_vars: int,
                 stats: Counter | None = None):
        self.clauses: List[Clause] = [tuple(c) for c in clauses]
        self.num_vars = num_vars
        self.stats = stats
        self.values: List[Optional[bool]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.qhead = 0
        self.has_empty = False
        self.units: List[int] = []
        self.watch_pos: List[Optional[List[int]]] = \
            [None] * len(self.clauses)
        self.watchers: Dict[int, List[int]] = {}
        for ci, clause in enumerate(self.clauses):
            if not clause:
                self.has_empty = True
            elif len(clause) == 1:
                self.units.append(clause[0])
            else:
                pair = [0, 1]
                self.watch_pos[ci] = pair
                self.watchers.setdefault(clause[0], []).append(ci)
                self.watchers.setdefault(clause[1], []).append(ci)

    # -- assignment machinery ----------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        v = self.values[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int) -> bool:
        var, val = abs(lit), lit > 0
        cur = self.values[var]
        if cur is not None:
            return cur == val
        self.values[var] = val
        self.trail.append(lit)
        return True

    def undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.values[abs(self.trail.pop())] = None
        self.qhead = mark

    def assert_root(self, literals: Iterable[int] = ()) -> bool:
        """Assert unit clauses plus ``literals`` and propagate; False on
        conflict (or an empty input clause)."""
        if self.has_empty:
            return False
        for lit in literals:
            if not self._enqueue(lit):
                return False
        for lit in self.units:
            if not self._enqueue(lit):
                return False
        return self._propagate()

    def condition(self, lit: int) -> bool:
        """Assume ``lit`` and propagate to fixpoint; False on conflict
        (the trail is left extended either way — undo with the mark
        taken before the call)."""
        if not self._enqueue(lit):
            return False
        return self._propagate()

    def reduce(self, clauses: Sequence[Clause]) -> List[Clause]:
        """Residual of ``clauses`` under the current assignment:
        satisfied clauses dropped, false literal occurrences removed.
        At a propagation fixpoint the result has no empty or unit
        clause (every kept clause keeps both non-false watches)."""
        values = self.values
        reduced: List[Clause] = []
        for clause in clauses:
            satisfied = False
            remaining: List[int] = []
            for lit in clause:
                v = values[lit if lit > 0 else -lit]
                if v is None:
                    remaining.append(lit)
                elif v == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            reduced.append(tuple(remaining))
        return reduced

    def _propagate(self) -> bool:
        """Drain the trail; True on success, False on conflict."""
        propagations = 0
        visits = 0
        ok = True
        while ok and self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            propagations += 1
            false_lit = -lit
            watching = self.watchers.get(false_lit)
            if not watching:
                continue
            kept: List[int] = []
            for idx, ci in enumerate(watching):
                if not ok:
                    kept.extend(watching[idx:])
                    break
                visits += 1
                pair = self.watch_pos[ci]
                clause = self.clauses[ci]
                if clause[pair[0]] == false_lit:
                    wi = 0
                elif clause[pair[1]] == false_lit:
                    wi = 1
                else:
                    continue  # stale
                other_lit = clause[pair[1 - wi]]
                if self._value(other_lit) is True:
                    kept.append(ci)
                    continue
                moved = False
                for pos, cand in enumerate(clause):
                    if pos == pair[0] or pos == pair[1]:
                        continue
                    if self._value(cand) is not False:
                        pair[wi] = pos
                        self.watchers.setdefault(cand, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(other_lit) is False or \
                        not self._enqueue(other_lit):
                    ok = False
            self.watchers[false_lit] = kept
        if self.stats is not None:
            self.stats.incr("propagations", propagations)
            self.stats.incr("clause_visits", visits)
        return ok


class WatchedSolver(TrailPropagator):
    """Iterative DPLL over persistent watch lists.

    One-shot use: construct from a clause list, call :meth:`solve` once.
    Branching follows a static most-frequent-variable order (ties to
    the smaller variable), trying True before False, mirroring the
    legacy recursive solver's heuristic closely enough that the two
    agree on satisfiability everywhere (asserted by the cross-check
    suite) while never copying a clause list.

    ``budget`` (explicit, else ambient) is charged one node per
    decision; exhaustion raises
    :class:`~repro.limits.budget.BudgetExceeded` with the decision
    count in ``partial``.
    """

    def __init__(self, clauses: Iterable[Iterable[int]], num_vars: int,
                 stats: Counter | None = None, budget=None):
        super().__init__(clauses, num_vars, stats)
        from ..limits.budget import resolve_budget
        self.budget = resolve_budget(budget)
        counts: Dict[int, int] = {}
        for clause in self.clauses:
            for lit in clause:
                var = abs(lit)
                counts[var] = counts.get(var, 0) + 1
        self.branch_order = sorted(counts, key=lambda v: (-counts[v], v))

    # -- search -------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()
              ) -> Optional[Assignment]:
        """A satisfying (partial) assignment, or None.

        Assumption literals are asserted as fixed root-level facts.
        """
        if not self.assert_root(assumptions):
            return None
        # decision stack: (trail mark, decision literal, tried-both)
        stack: List[Tuple[int, int, bool]] = []
        order = self.branch_order
        cursor = 0
        while True:
            var = None
            while cursor < len(order):
                if self.values[order[cursor]] is None:
                    var = order[cursor]
                    break
                cursor += 1
            if var is None:
                return {abs(lit): lit > 0 for lit in self.trail}
            if self.budget is not None:
                self.budget.tick(partial={"operation": "solve",
                                          "trail_depth": len(self.trail)})
            if self.stats is not None:
                self.stats.incr("decisions")
            stack.append((len(self.trail), var, False))
            self._enqueue(var)
            while not self._propagate():
                while stack:
                    mark, lit, flipped = stack.pop()
                    self.undo_to(mark)
                    if not flipped:
                        stack.append((mark, -lit, True))
                        self._enqueue(-lit)
                        break
                else:
                    return None
                # a flip may sit above earlier decisions: re-scan branch
                # order from the top after any backtrack
                cursor = 0
            cursor = 0
