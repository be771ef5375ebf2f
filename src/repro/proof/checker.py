"""The standalone equivalence-trace checker.

:func:`check_proof` replays a ``repro-proof/1`` trace against the
original DIMACS text and verifies every step *semantically*, trusting
nothing the compiler claimed:

* **root / branch implications** are RUP-checked: the checker runs its
  own occurrence-list unit propagation over the active clause set and
  requires the trace's implied-literal set to equal its own fixpoint
  (unit-propagation fixpoints are unique, so exact set equality is the
  right test);
* **conflict leaves** must actually conflict under the checker's own
  propagation, and claimed-successful branches must not;
* **component partitions** are re-justified from scratch: the claimed
  clause-id groups must exactly cover the active clauses, be pairwise
  disjoint, and mention pairwise-disjoint free-variable sets — the
  side conditions that license multiplying component counts;
* **cache back-references** must point at an already-proved component
  whose *residual clause multiset* (re-derived by the checker under
  the current assignment) is identical — so a hash-collision in the
  compiler's component cache, the classic silent-miscompile source,
  is caught here;
* the **conclusion** is computed, not read: the checker derives the
  model count and the circuit's semantic digest bottom-up and requires
  the digest to match the header's (which the emitter computed from
  the circuit the compiler actually built).

Verdicts: ``PROVED`` (circuit ≡ CNF; ``model_count`` is the exact
count over the header's variable range, as a corollary), ``REFUTED``
(``line``/``reason`` give the first bad step — the minimal witness),
``INCOMPLETE`` (the optional :class:`~repro.limits.budget.Budget`
expired; ``steps`` says how far the replay got).

Independence is the point: this module imports only the stdlib, the
CNF representation (:mod:`repro.logic`) and budgets
(:mod:`repro.limits`) — never :mod:`repro.sat` or
:mod:`repro.compile`.  ``tools/lint_invariants.py`` (rule 6,
``proof-isolation``) enforces that at CI time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..limits.budget import Budget
from ..logic.cnf import Cnf
from .trace import (TraceError, conjoin_digest, dimacs_digest,
                    disjoin_digest, false_digest, literal_digest,
                    parse_header)

__all__ = ["PROVED", "REFUTED", "INCOMPLETE", "CheckResult",
           "check_proof"]

PROVED = "PROVED"
REFUTED = "REFUTED"
INCOMPLETE = "INCOMPLETE"


@dataclass(frozen=True)
class CheckResult:
    """The checker's verdict on one (DIMACS, trace) pair.

    ``model_count`` is only set on ``PROVED`` — the count over the
    header's full variable range, derived (not trusted) from the
    verified trace.  ``line`` is the 1-based trace line of the first
    bad step on ``REFUTED``; ``steps`` counts replayed step lines.
    """

    verdict: str
    reason: str = ""
    line: Optional[int] = None
    steps: int = 0
    model_count: Optional[int] = None
    circuit_digest: Optional[str] = None

    @property
    def proved(self) -> bool:
        return self.verdict == PROVED

    def as_wire(self) -> Dict[str, object]:
        out: Dict[str, object] = {"verdict": self.verdict,
                                  "steps": self.steps}
        if self.reason:
            out["reason"] = self.reason
        if self.line is not None:
            out["line"] = self.line
        if self.model_count is not None:
            out["model_count"] = self.model_count
        return out


class _Refuted(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(message)
        self.line = line


class _Expired(Exception):
    pass


class _Propagator:
    """Minimal occurrence-list unit propagation with a trail.

    Deliberately naive (no watched literals): a handful of lines that
    can be audited independently of :mod:`repro.sat`.  Propagation is
    restricted to a caller-supplied clause-id *scope* — sound for the
    replay because verified component partitions are variable-disjoint,
    so no implication can escape the component being replayed.
    """

    def __init__(self, clauses: Sequence[Tuple[int, ...]],
                 num_vars: int) -> None:
        self.clauses = clauses
        self.value: Dict[int, bool] = {}
        self.trail: List[int] = []
        self.occ: Dict[int, List[int]] = {}
        for ci, clause in enumerate(clauses):
            for lit in clause:
                self.occ.setdefault(abs(lit), []).append(ci)

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.value.pop(abs(self.trail.pop()), None)

    def _assign(self, lit: int) -> bool:
        var = abs(lit)
        current = self.value.get(var)
        if current is not None:
            return current == (lit > 0)
        self.value[var] = lit > 0
        self.trail.append(lit)
        return True

    def _clause_state(self, ci: int) -> Tuple[bool, List[int]]:
        """(satisfied, free literals) of clause ``ci``."""
        free: List[int] = []
        for lit in self.clauses[ci]:
            val = self.value.get(abs(lit))
            if val is None:
                free.append(lit)
            elif val == (lit > 0):
                return True, free
        return False, free

    def propagate(self, scope: FrozenSet[int],
                  start: Sequence[int]) -> Optional[List[int]]:
        """Assign ``start`` literals, then unit-propagate to fixpoint
        over the clauses in ``scope``.  Returns the literals implied
        *beyond* ``start`` (in assignment order), or None on conflict
        (the caller rewinds via :meth:`undo_to`)."""
        before = len(self.trail)
        queue: List[int] = []
        for lit in start:
            if not self._assign(lit):
                return None
            queue.append(lit)
        if not start:
            # level-0 entry: seed from the unit (and empty) clauses
            for ci in scope:
                satisfied, free = self._clause_state(ci)
                if satisfied:
                    continue
                if not free:
                    return None
                if len(free) == 1:
                    if not self._assign(free[0]):
                        return None
                    queue.append(free[0])
        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            for ci in self.occ.get(abs(lit), ()):  # touched clauses
                if ci not in scope:
                    continue
                satisfied, free = self._clause_state(ci)
                if satisfied:
                    continue
                if not free:
                    return None
                if len(free) == 1:
                    unit = free[0]
                    if self.value.get(abs(unit)) is None:
                        self._assign(unit)
                        queue.append(unit)
        implied = self.trail[before + len(start):]
        return list(implied)

    def residual_key(self, clause_ids: Sequence[int]
                     ) -> Tuple[Tuple[int, ...], ...]:
        """Canonical form of the residual CNF of ``clause_ids`` under
        the current assignment: the sorted multiset of reduced
        clauses.  Equal keys ⇒ identical residual formulas."""
        reduced = []
        for ci in clause_ids:
            reduced.append(tuple(sorted(
                lit for lit in self.clauses[ci]
                if self.value.get(abs(lit)) is None)))
        return tuple(sorted(reduced))

    def free_vars(self, clause_ids: Sequence[int]) -> Set[int]:
        out: Set[int] = set()
        for ci in clause_ids:
            for lit in self.clauses[ci]:
                if self.value.get(abs(lit)) is None:
                    out.add(abs(lit))
        return out


class _Replay:
    """One recursive-descent replay of a parsed trace."""

    def __init__(self, cnf: Cnf, steps: List[str], offset: int,
                 budget: Optional[Budget]) -> None:
        self.cnf = cnf
        self.steps = steps
        self.offset = offset  # header lines before the first step
        self.budget = budget
        self.cursor = 0
        self.engine = _Propagator(cnf.clauses, cnf.num_vars)
        #: completion-ordered component facts:
        #: id -> (residual key, free vars, count, digest)
        self.proved: List[Tuple[Tuple[Tuple[int, ...], ...],
                                FrozenSet[int], int, str]] = []

    # -- token stream --------------------------------------------------------
    def line_no(self, index: Optional[int] = None) -> int:
        at = self.cursor if index is None else index
        return self.offset + at + 1

    def refute(self, message: str, index: Optional[int] = None) -> None:
        raise _Refuted(message, self.line_no(index))

    def next_tokens(self, expected: str) -> List[str]:
        if self.cursor >= len(self.steps):
            raise _Refuted(
                f"trace truncated: expected {expected}",
                self.line_no(len(self.steps) - 1))
        if self.budget is not None and self.budget.charge():
            raise _Expired()
        tokens = self.steps[self.cursor].split()
        self.cursor += 1
        return tokens

    def _ints(self, tokens: List[str], start: int,
              what: str) -> List[int]:
        """Parse a 0-terminated integer list from ``tokens[start:]``."""
        if not tokens or tokens[-1] != "0":
            self.refute(f"{what} list not 0-terminated", self.cursor - 1)
        try:
            return [int(t) for t in tokens[start:-1]]
        except ValueError:
            self.refute(f"non-integer token in {what} list",
                        self.cursor - 1)
            raise AssertionError  # unreachable

    # -- grammar -------------------------------------------------------------
    def run(self) -> Tuple[int, str]:
        """Replay the whole trace; returns (model count, digest)."""
        all_ids = frozenset(range(len(self.cnf.clauses)))
        tokens = self.next_tokens("root step ('r' or 'rx')")
        if tokens[0] == "rx":
            if len(tokens) != 1:
                self.refute("malformed 'rx' step", self.cursor - 1)
            if self.engine.propagate(all_ids, []) is not None:
                self.refute("trace claims root conflict but unit "
                            "propagation finds none", self.cursor - 1)
            count, digest = 0, false_digest()
        elif tokens[0] == "r":
            claimed = self._ints(tokens, 1, "root implication")
            implied = self.engine.propagate(all_ids, [])
            if implied is None:
                self.refute("unit propagation conflicts at level 0 "
                            "but the trace claims implications",
                            self.cursor - 1)
                raise AssertionError  # unreachable
            if set(claimed) != set(implied):
                self.refute(
                    f"root implications {sorted(claimed)} differ from "
                    f"the propagation fixpoint {sorted(implied)}",
                    self.cursor - 1)
            counts, digests, used = self._partition(all_ids)
            free = (self.cnf.num_vars - len(self.engine.trail) -
                    len(used))
            count = (1 << free)
            for c in counts:
                count *= c
            digest = conjoin_digest(
                [literal_digest(lit)
                 for lit in sorted(implied, key=abs)] + digests)
        else:
            self.refute(f"expected root step, got {tokens[0]!r}",
                        self.cursor - 1)
            raise AssertionError  # unreachable
        if self.cursor != len(self.steps):
            self.refute("trailing steps after the root proof")
        return count, digest

    def _partition(self, scope: FrozenSet[int]
                   ) -> Tuple[List[int], List[str], Set[int]]:
        """Verify one partition block; returns (component counts,
        component digests, union of component variables)."""
        at = self.cursor
        tokens = self.next_tokens("partition step 'p'")
        if tokens[0] != "p" or len(tokens) != 2:
            self.refute(f"expected 'p <k>', got {' '.join(tokens)!r}",
                        at)
        try:
            k = int(tokens[1])
        except ValueError:
            self.refute("non-integer component count", at)
            raise AssertionError  # unreachable
        if k < 0:
            self.refute("negative component count", at)
        remaining = {ci for ci in scope
                     if not self.engine._clause_state(ci)[0]}
        used_vars: Set[int] = set()
        counts: List[int] = []
        digests: List[str] = []
        for _ in range(k):
            at = self.cursor
            tokens = self.next_tokens("component step ('k' or 'h')")
            kind = tokens[0]
            if kind == "h":
                if len(tokens) < 3:
                    self.refute("malformed cache reference", at)
                try:
                    ref = int(tokens[1])
                except ValueError:
                    self.refute("non-integer cache reference", at)
                    raise AssertionError  # unreachable
                ids = self._ints(tokens, 2, "component clause")
            elif kind == "k":
                ref = -1
                ids = self._ints(tokens, 1, "component clause")
            else:
                self.refute(f"expected component step, got {kind!r}",
                            at)
                raise AssertionError  # unreachable
            id_set = set(ids)
            if len(id_set) != len(ids):
                self.refute("duplicate clause id in component", at)
            if not id_set <= remaining:
                bad = sorted(id_set - remaining)
                self.refute(
                    f"component claims clauses {bad} that are not "
                    f"active (satisfied, out of scope, or already "
                    f"claimed by a sibling component)", at)
            remaining -= id_set
            comp_vars = self.engine.free_vars(ids)
            if not comp_vars:
                self.refute("component with no free variables", at)
            overlap = comp_vars & used_vars
            if overlap:
                self.refute(
                    f"components share variables {sorted(overlap)} — "
                    f"the partition is not variable-disjoint", at)
            used_vars |= comp_vars
            if kind == "h":
                if not 0 <= ref < len(self.proved):
                    self.refute(
                        f"cache back-reference to unproved component "
                        f"{ref}", at)
                key = self.engine.residual_key(ids)
                ref_key, _, count, digest = self.proved[ref]
                if key != ref_key:
                    self.refute(
                        f"cache back-reference {ref} names a "
                        f"different residual formula", at)
            else:
                count, digest = self._component(ids, comp_vars, at)
            counts.append(count)
            digests.append(digest)
        if remaining:
            self.refute(
                f"partition does not cover active clauses "
                f"{sorted(remaining)}", self.cursor - 1)
        return counts, digests, used_vars

    def _component(self, ids: List[int], comp_vars: Set[int],
                   at: int) -> Tuple[int, str]:
        """Verify one fresh component proof (a decision with two
        branches); returns (count over the component's variables,
        digest), and records the component fact for back-references."""
        residual = self.engine.residual_key(ids)
        scope = frozenset(ids)
        dt = self.cursor
        tokens = self.next_tokens("decision step 'd'")
        if tokens[0] != "d" or len(tokens) != 2:
            self.refute(f"expected 'd <var>', got "
                        f"{' '.join(tokens)!r}", dt)
        try:
            var = int(tokens[1])
        except ValueError:
            self.refute("non-integer decision variable", dt)
            raise AssertionError  # unreachable
        if var not in comp_vars:
            self.refute(f"decision variable {var} is not free in the "
                        f"component", dt)
        branch_results: List[Tuple[int, str]] = []
        for expected in (var, -var):
            branch_results.append(
                self._branch(expected, scope, comp_vars))
        count = branch_results[0][0] + branch_results[1][0]
        digest = disjoin_digest([branch_results[0][1],
                                 branch_results[1][1]])
        self.proved.append((residual, frozenset(comp_vars), count,
                            digest))
        return count, digest

    def _branch(self, expected_lit: int, scope: FrozenSet[int],
                comp_vars: Set[int]) -> Tuple[int, str]:
        at = self.cursor
        tokens = self.next_tokens("branch step ('b' or 'x')")
        kind = tokens[0]
        if kind == "x":
            if len(tokens) != 2 or tokens[1] != str(expected_lit):
                self.refute(
                    f"expected conflict branch on {expected_lit}, "
                    f"got {' '.join(tokens)!r}", at)
            mark = self.engine.mark()
            result = self.engine.propagate(scope, [expected_lit])
            self.engine.undo_to(mark)
            if result is not None:
                self.refute(
                    f"trace claims branch {expected_lit} conflicts "
                    f"but unit propagation finds none", at)
            return 0, false_digest()
        if kind != "b":
            self.refute(f"expected branch step, got {kind!r}", at)
        if len(tokens) < 3 or tokens[1] != str(expected_lit):
            self.refute(
                f"expected branch on {expected_lit}, got "
                f"{' '.join(tokens)!r}", at)
        claimed = self._ints(tokens, 2, "branch implication")
        mark = self.engine.mark()
        implied = self.engine.propagate(scope, [expected_lit])
        try:
            if implied is None:
                self.refute(
                    f"branch {expected_lit} conflicts under unit "
                    f"propagation but the trace claims it succeeds",
                    at)
                raise AssertionError  # unreachable
            if set(claimed) != set(implied):
                self.refute(
                    f"branch implications {sorted(claimed)} differ "
                    f"from the propagation fixpoint "
                    f"{sorted(implied)}", at)
            counts, digests, used = self._partition(scope)
            assigned = 1 + len(implied)
            free = len(comp_vars) - assigned - len(used)
            if free < 0:
                self.refute(
                    "branch assigns or decomposes more variables "
                    "than the component has", at)
            count = (1 << free)
            for c in counts:
                count *= c
            digest = conjoin_digest(
                [literal_digest(expected_lit)] +
                [literal_digest(lit)
                 for lit in sorted(implied, key=abs)] + digests)
            return count, digest
        finally:
            self.engine.undo_to(mark)


def check_proof(dimacs: str, trace: str,
                budget: Optional[Budget] = None) -> CheckResult:
    """Replay ``trace`` against ``dimacs``; never raises on bad input
    — malformed traces and failed checks are ``REFUTED`` verdicts
    (the trace is evidence, not trusted data), and budget expiry is
    ``INCOMPLETE``.

    On ``PROVED``, ``model_count`` is the exact model count of the
    CNF over its full ``1..num_vars`` range, derived independently
    from the verified decomposition — the corollary the trust ladder
    promises.
    """
    try:
        cnf = Cnf.from_dimacs(dimacs)
    except ValueError as error:
        return CheckResult(REFUTED, reason=f"unparseable DIMACS: "
                                           f"{error}")
    try:
        fields, steps, offset = parse_header(trace)
    except TraceError as error:
        return CheckResult(REFUTED, reason=str(error),
                           line=error.line or None)
    canonical = cnf.to_dimacs()
    if fields["dimacs"] != dimacs_digest(canonical):
        return CheckResult(
            REFUTED, line=4,
            reason="trace is bound to a different DIMACS input")
    try:
        if int(fields["vars"]) != cnf.num_vars or \
                int(fields["clauses"]) != len(cnf.clauses):
            return CheckResult(
                REFUTED, line=2,
                reason="header variable/clause counts disagree with "
                       "the DIMACS input")
    except ValueError:
        return CheckResult(REFUTED, line=2,
                           reason="non-integer header counts")
    replay = _Replay(cnf, steps, offset, budget)
    try:
        count, digest = replay.run()
    except _Refuted as error:
        return CheckResult(REFUTED, reason=str(error), line=error.line,
                           steps=replay.cursor)
    except _Expired:
        reason = "budget"
        if budget is not None and budget.expired():
            reason = str(budget.expired())
        return CheckResult(INCOMPLETE, reason=reason,
                           steps=replay.cursor)
    if digest != fields["circuit"]:
        return CheckResult(
            REFUTED, line=5, steps=replay.cursor,
            reason="the trace proves a circuit whose semantic digest "
                   "differs from the header's — the compiler's trace "
                   "does not describe the circuit it built")
    return CheckResult(PROVED, steps=replay.cursor, model_count=count,
                       circuit_digest=digest)
