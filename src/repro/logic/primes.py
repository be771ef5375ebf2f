"""Prime implicants of Boolean functions (Quine–McCluskey).

A *term* is represented as a frozenset of literals (non-zero ints): the
conjunction of those literals.  A term ``t`` is an implicant of function
``f`` when every completion of ``t`` satisfies ``f``; it is *prime* when
no proper subset of ``t`` is an implicant.

These are the objects underlying sufficient reasons / PI-explanations
(Section 5.1 of the paper, Fig 26).  Quine–McCluskey enumerates over the
truth table, so it is intended for functions of modest arity; the
instance-directed enumerator in :mod:`repro.explain` scales further by
querying circuits instead.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Sequence, Set

from .formula import Formula, iter_assignments

__all__ = [
    "Term",
    "prime_implicants",
    "prime_implicants_of_formula",
    "prime_implicates_of_formula",
    "term_subsumes",
    "is_implicant",
]

Term = FrozenSet[int]

BoolFunc = Callable[[Dict[int, bool]], bool]


def term_subsumes(general: Term, specific: Term) -> bool:
    """True when ``general`` is a (non-strict) subset of ``specific``.

    A more general term covers everything the more specific term covers.
    """
    return general <= specific


def is_implicant(term: Term, func: BoolFunc,
                 variables: Sequence[int]) -> bool:
    """Check whether ``term`` implies the function, by enumeration."""
    fixed = {abs(lit): lit > 0 for lit in term}
    free = [v for v in variables if v not in fixed]
    for assignment in iter_assignments(free):
        assignment.update(fixed)
        if not func(assignment):
            return False
    return True


def prime_implicants(func: BoolFunc,
                     variables: Sequence[int]) -> List[Term]:
    """All prime implicants of ``func`` over ``variables`` (Quine–McCluskey).

    Returns terms sorted by (length, literals) for deterministic output.
    An always-true function yields the single empty term; an always-false
    function yields no terms.
    """
    variables = list(variables)
    minterms: Set[Term] = set()
    for assignment in iter_assignments(variables):
        if func(assignment):
            minterms.add(frozenset(v if value else -v
                                   for v, value in assignment.items()))
    return _quine_mccluskey(minterms)


def _quine_mccluskey(minterms: Set[Term]) -> List[Term]:
    """Iteratively merge adjacent terms; unmerged terms are prime."""
    primes: Set[Term] = set()
    current = set(minterms)
    while current:
        merged_away: Set[Term] = set()
        next_terms: Set[Term] = set()
        current_list = sorted(current, key=_term_key)
        index: Dict[Term, List[Term]] = {}
        # group terms by their variable set for fast adjacency lookup
        for term in current_list:
            index.setdefault(frozenset(abs(l) for l in term), []).append(term)
        for term in current_list:
            for lit in term:
                partner = frozenset((term - {lit}) | {-lit})
                if partner in current:
                    next_terms.add(term - {lit})
                    merged_away.add(term)
                    merged_away.add(partner)
        primes.update(current - merged_away)
        current = next_terms
    return sorted(primes, key=_term_key)


def _term_key(term: Term):
    return (len(term), sorted(term, key=lambda lit: (abs(lit), lit < 0)))


def prime_implicants_of_formula(formula: Formula,
                                variables: Sequence[int] | None = None
                                ) -> List[Term]:
    """Prime implicants of a :class:`Formula` (enumerative)."""
    if variables is None:
        variables = sorted(formula.variables())
    return prime_implicants(formula.evaluate, variables)


def prime_implicates_of_formula(formula: Formula,
                                variables: Sequence[int] | None = None
                                ) -> List[Term]:
    """Prime implicates: minimal clauses implied by the formula.

    Computed by duality — the prime implicates of ``f`` are the negations
    of prime implicants of ``¬f``.  Each returned frozenset is the set of
    literals of a clause.
    """
    if variables is None:
        variables = sorted(formula.variables())
    complement = prime_implicants(
        lambda a: not formula.evaluate(a), variables)
    return sorted((frozenset(-lit for lit in term) for term in complement),
                  key=_term_key)
