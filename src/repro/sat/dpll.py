"""A DPLL satisfiability solver.

The solver works on :class:`repro.logic.Cnf` and supports assumptions,
model extraction and model enumeration.  Satisfiability runs on the
iterative two-watched-literal engine of :mod:`repro.sat.propagation`
(:class:`~repro.sat.propagation.WatchedSolver`); ``unit_propagate``
keeps its original contract but is likewise watched-literal based.  The
seed's recursive copy-on-condition solver and its clause-rescan
propagator survive as ``solve_legacy`` / ``unit_propagate_legacy`` —
they are the reference implementations the property-based cross-check
suite compares against, and the baselines the perf benchmarks measure
speedups over.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.cnf import Cnf
from ..perf.instrument import Counter
from .propagation import WatchedSolver, propagate_watched

__all__ = ["solve", "solve_legacy", "is_satisfiable", "enumerate_models",
           "unit_propagate", "unit_propagate_legacy"]

Clause = Tuple[int, ...]
Assignment = Dict[int, bool]


def unit_propagate(clauses: List[Clause], assignment: Assignment,
                   stats: Counter | None = None
                   ) -> Optional[List[Clause]]:
    """Exhaustively propagate unit clauses (watched-literal engine).

    Mutates ``assignment`` with implied literals.  Returns the reduced
    clause list, or None on conflict (an empty clause was derived).
    The residual is identical — clause for clause — to the one the
    legacy propagator produces.
    """
    return propagate_watched(clauses, assignment, stats)


def unit_propagate_legacy(clauses: List[Clause], assignment: Assignment,
                          stats: Counter | None = None
                          ) -> Optional[List[Clause]]:
    """The seed propagator: re-scans every clause per round.

    Kept as the reference implementation for the cross-check suite and
    as the benchmark baseline.  Same contract as ``unit_propagate``.

    .. deprecated:: not for new call sites; kept as the cross-check
       reference and benchmark baseline.
    """
    changed = True
    while changed:
        changed = False
        if stats is not None:
            stats.incr("clause_visits", len(clauses))
        reduced: List[Clause] = []
        for clause in clauses:
            satisfied = False
            remaining: List[int] = []
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if satisfied:
                continue
            if not remaining:
                return None  # conflict
            if len(remaining) == 1:
                lit = remaining[0]
                assignment[abs(lit)] = lit > 0
                changed = True
                if stats is not None:
                    stats.incr("propagations")
            else:
                reduced.append(tuple(remaining))
        clauses = reduced
    return clauses


def _pure_literals(clauses: Sequence[Clause]) -> List[int]:
    polarity: Dict[int, int] = {}  # var -> bitmask: 1 pos, 2 neg
    for clause in clauses:
        for lit in clause:
            polarity[abs(lit)] = polarity.get(abs(lit), 0) | (1 if lit > 0
                                                              else 2)
    return [v if mask == 1 else -v
            for v, mask in polarity.items() if mask in (1, 2)]


def _choose_branch_variable(clauses: Sequence[Clause]) -> int:
    """Most frequently occurring variable."""
    counts: Dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            counts[abs(lit)] = counts.get(abs(lit), 0) + 1
    return max(counts, key=lambda v: (counts[v], -v))


def _dpll(clauses: List[Clause], assignment: Assignment
          ) -> Optional[Assignment]:
    clauses = unit_propagate_legacy(clauses, assignment)
    if clauses is None:
        return None
    if not clauses:
        return assignment
    for lit in _pure_literals(clauses):
        if abs(lit) not in assignment:
            assignment[abs(lit)] = lit > 0
    clauses = [c for c in clauses
               if not any(abs(l) in assignment
                          and assignment[abs(l)] == (l > 0) for l in c)]
    if not clauses:
        return assignment
    var = _choose_branch_variable(clauses)
    for value in (True, False):
        trial = dict(assignment)
        trial[var] = value
        result = _dpll(list(clauses), trial)
        if result is not None:
            return result
    return None


def solve(cnf: Cnf, assumptions: Iterable[int] = (),
          stats: Counter | None = None,
          budget=None) -> Optional[Assignment]:
    """Find a satisfying assignment, or None.

    The returned assignment is *complete* over variables 1..num_vars
    (unconstrained variables default to False).  ``assumptions`` is an
    iterable of literals to assert.  Runs on the iterative
    two-watched-literal solver; see :func:`solve_legacy` for the seed
    recursive implementation.  ``budget`` (explicit, else ambient)
    bounds the search — one charge per decision — and exhaustion raises
    :class:`~repro.limits.budget.BudgetExceeded`.
    """
    assumption_list = list(assumptions)
    for lit in assumption_list:
        if -lit in assumption_list:
            return None
    solver = WatchedSolver(cnf.clauses, cnf.num_vars, stats=stats,
                           budget=budget)
    result = solver.solve(assumption_list)
    if result is None:
        return None
    for var in range(1, cnf.num_vars + 1):
        result.setdefault(var, False)
    return result


def solve_legacy(cnf: Cnf, assumptions: Iterable[int] = ()
                 ) -> Optional[Assignment]:
    """The seed solver: recursive DPLL with copy-on-condition clause
    lists and pure-literal elimination.  Reference implementation for
    the cross-check suite and the benchmark baseline.

    .. deprecated:: not for new call sites."""
    assignment: Assignment = {}
    for lit in assumptions:
        var = abs(lit)
        value = lit > 0
        if assignment.get(var, value) != value:
            return None
        assignment[var] = value
    result = _dpll(list(cnf.clauses), assignment)
    if result is None:
        return None
    for var in range(1, cnf.num_vars + 1):
        result.setdefault(var, False)
    return result


def is_satisfiable(cnf: Cnf, assumptions: Iterable[int] = ()) -> bool:
    """Decide SAT (the prototypical NP problem of Section 2.1)."""
    return solve(cnf, assumptions) is not None


def enumerate_models(cnf: Cnf) -> Iterator[Assignment]:
    """Yield all models over variables 1..num_vars.

    Uses recursive splitting rather than blocking clauses so enumeration
    of k models costs O(k · poly) rather than re-solving from scratch.
    """
    variables = list(range(1, cnf.num_vars + 1))
    yield from _enumerate(list(cnf.clauses), {}, variables)


def _enumerate(clauses: List[Clause], assignment: Assignment,
               variables: List[int]) -> Iterator[Assignment]:
    assignment = dict(assignment)
    clauses = unit_propagate(clauses, assignment)
    if clauses is None:
        return
    free = [v for v in variables if v not in assignment]
    if not clauses:
        # all remaining variables are unconstrained
        yield from _expand_free(assignment, free)
        return
    var = _choose_branch_variable(clauses)
    for value in (False, True):
        trial = dict(assignment)
        trial[var] = value
        yield from _enumerate(list(clauses), trial, variables)


def _expand_free(assignment: Assignment, free: List[int]
                 ) -> Iterator[Assignment]:
    if not free:
        yield dict(assignment)
        return
    var, rest = free[0], free[1:]
    for value in (False, True):
        assignment[var] = value
        yield from _expand_free(assignment, rest)
    del assignment[var]
