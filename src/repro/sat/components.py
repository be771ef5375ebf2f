"""Connected-component decomposition of CNF clause sets.

If the clause/variable incidence graph of a CNF splits into independent
components, its model count is the product of the components' counts.
This is the decomposition rule at the heart of sharpSAT-style counters
and of the d-DNNF compilers built on their traces (Section 3, [38]).
:func:`trail_components` is that split for the trail search of
:mod:`repro.sat.search`: it reads the residual off the trail's
assignment and never materialises a clause.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["trail_components"]

Clause = Tuple[int, ...]


def trail_components(clauses: Sequence[Clause], indices,
                     values: List[Optional[bool]], split: bool = True
                     ) -> Tuple[List[Tuple[List[int], List[int]]],
                                Dict[int, List[int]]]:
    """Fused active-clause scan and component walk over clause *indices*.

    Nothing is materialised.  ``indices`` names the candidate clauses,
    ``values`` is the trail's 1-indexed variable assignment
    (``True``/``False``/``None``).  One pass drops satisfied clauses,
    collects the free literals of the rest, and builds the
    variable→clause occurrence lists; a stack walk then partitions the
    active clauses into variable-connected components.

    Returns ``(components, occ)``: each component is ``(sorted clause
    indices, component variables)``, and ``occ`` maps every free
    variable to the active clauses containing it (one entry per literal
    occurrence, so ``len(occ[v])`` doubles as an occurrence score).
    ``components`` is empty iff every candidate clause is satisfied.
    With ``split=False`` all active clauses form a single component.

    Callers must be at a propagation fixpoint: an active clause then has
    at least two free literals, so no component is empty or unit.
    """
    free_lits: Dict[int, List[int]] = {}
    occ: Dict[int, List[int]] = {}
    for ci in indices:
        lits: List[int] = []
        satisfied = False
        for lit in clauses[ci]:
            var = lit if lit > 0 else -lit
            val = values[var]
            if val is None:
                lits.append(lit)
            elif val == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        free_lits[ci] = lits
        for lit in lits:
            var = lit if lit > 0 else -lit
            entry = occ.get(var)
            if entry is None:
                occ[var] = [ci]
            else:
                entry.append(ci)
    if not free_lits:
        return [], occ
    if not split:
        return [(sorted(free_lits), list(occ))], occ
    components: List[Tuple[List[int], List[int]]] = []
    seen: set = set()
    for start in occ:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        comp_vars: List[int] = []
        comp_cls: set = set()
        while stack:
            var = stack.pop()
            comp_vars.append(var)
            for ci in occ[var]:
                if ci in comp_cls:
                    continue
                comp_cls.add(ci)
                for lit in free_lits[ci]:
                    v = lit if lit > 0 else -lit
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        components.append((sorted(comp_cls), comp_vars))
    return components, occ
