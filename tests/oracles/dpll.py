"""The seed's SAT solver: recursive DPLL with copy-on-condition clause
lists, pure-literal elimination, and a unit propagator that re-scans
every clause per round.

:mod:`repro.sat.dpll` answers on the iterative two-watched-literal
engine instead; the suites check that its propagation residuals are
identical, clause for clause, to :func:`unit_propagate` here, and that
its SAT verdicts agree with :func:`solve`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.cnf import Cnf
from repro.perf.instrument import Counter
from repro.sat.dpll import _choose_branch_variable

__all__ = ["unit_propagate", "solve"]

Clause = Tuple[int, ...]
Assignment = Dict[int, bool]


def unit_propagate(clauses: List[Clause], assignment: Assignment,
                   stats: Counter | None = None
                   ) -> Optional[List[Clause]]:
    """The seed propagator: re-scans every clause per round.

    Same contract as :func:`repro.sat.dpll.unit_propagate`: mutates
    ``assignment`` with implied literals and returns the reduced
    clause list, or None on conflict.
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


def _dpll(clauses: List[Clause], assignment: Assignment
          ) -> Optional[Assignment]:
    clauses = unit_propagate(clauses, assignment)
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


def solve(cnf: Cnf, assumptions: Iterable[int] = ()
          ) -> Optional[Assignment]:
    """The seed solver: a complete model over 1..num_vars
    (unconstrained variables default to False), or None."""
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
