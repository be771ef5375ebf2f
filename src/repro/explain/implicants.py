"""Prime-implicant / sufficient-reason enumeration on Decision-DNNF IR.

Role 3 at production scale (Section 5.1; de Colnet & Marquis 2023,
"On the Complexity of Enumerating Prime Implicants from Decision-DNNF
Circuits").  The engine works directly on
:class:`~repro.ir.core.CircuitIR` — compiler output and lowered OBDDs
alike, since an OBDD is a Decision-DNNF (``node.to_ir()``):

* :func:`reason_graph` builds the complete-reason circuit of a
  decision (Darwiche & Hirth) as a lightweight monotone DAG in one
  linear pass over the IR arrays;
* :func:`iter_sufficient_reasons` enumerates the sufficient reasons —
  the prime implicants of that monotone DAG — with a minimal-hitting
  successor scheme: each probe greedily shrinks the instance term
  under an exclusion set, costing ``O(vars × graph)`` evaluations.
  The *first* reason therefore arrives with polynomial delay
  unconditionally, and on the tractable fragment (circuits whose
  reason antichain stays small — OBDD-shaped and width-bounded
  decision structure) every successive reason does too.  Beyond the
  fragment the hardness boundary of de Colnet & Marquis applies, and
  a cooperative :class:`~repro.limits.Budget` governs the search:
  the iterator simply stops yielding on expiry — reasons already
  yielded are always true sufficient reasons, never guesses;
* :class:`CountOracle` keeps enumeration available on certified
  variants that *lost* the syntactic decision shape — the tseitin
  pruning pass can forget a guard auxiliary and leave an or-gate
  whose branches are disjoint without a complementary literal pair.
  Membership then falls back to exact model counting (one 0/1-weight
  kernel pass per probe evaluation) behind the same term/evaluate
  interface, so the successor scheme runs unchanged;
* :func:`check_sufficient_batch` / :func:`check_necessary_batch`
  answer "is this term why instance j was classified X" for whole
  datasets in two :class:`~repro.ir.kernel.IrKernel` numpy passes:
  one ``evaluate_batch`` for the decisions, one 0/1-weight
  ``wmc_batch`` whose column ``j`` counts the models of ``f``
  consistent with term ``j`` — the term is sufficient iff that count
  is ``2^free`` for a positive decision and ``0`` for a negative one;
* :func:`decision_is_biased`, :func:`decision_sticks_batch` and
  :func:`verify_even_if_because` (Fig 27's bias and the "even if …
  because" counterfactuals) reduce to those two passes.

Enumeration, the reason graph and necessity explain a *positive*
decision; a negative decision is explained on the complement circuit
(for an OBDD, ``manager.negate(node).to_ir()``).  The batched checks,
bias and counterfactuals answer both decisions on the circuit itself.

Every entry point except the plain evaluation of
:func:`decision_sticks_batch` runs behind the Fig-13 query gate
(:func:`repro.analyze.gate.check_kernel`, query ``"explain"``:
certified decomposability + determinism), and ``forgotten`` Tseitin
auxiliaries (:mod:`repro.ir.passes`) are excluded throughout — an
emitted reason can never mention one.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from ..ir.core import (FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC,
                       CircuitIR, KIND_AND, KIND_FALSE, KIND_LIT,
                       KIND_OR, KIND_PARAM)
from ..ir.kernel import IrKernel, ir_kernel
from ..limits.budget import Budget, resolve_budget
from ..perf.instrument import Counter

__all__ = ["ReasonGraph", "CountOracle", "reason_graph",
           "count_oracle", "iter_sufficient_reasons",
           "sufficient_reasons", "necessary_literals",
           "check_sufficient_batch", "check_necessary_batch",
           "decision_is_biased", "decision_sticks_batch",
           "verify_even_if_because"]

Term = FrozenSet[int]

# monotone reason-DAG node kinds (private to this module)
_K_TRUE, _K_FALSE, _K_LIT, _K_AND, _K_OR = range(5)

#: indices of the shared constant nodes while a reason DAG is built
_TRUE, _FALSE = 0, 1

#: sentinel: a probe aborted by budget expiry (distinct from "no
#: implicant avoiding the exclusion set exists")
_EXPIRED = object()

#: 0/1-weight batched counts are exact in float64 up to 2^52 models
_EXACT_COUNT_VARS = 52

_NEGATIVE_DECISION = (
    "the instance does not satisfy the circuit (negative decision); "
    "sufficient reasons of a negative decision are prime implicants "
    "of the complement — compile the complement circuit and explain "
    "on it")


class ReasonGraph:
    """The complete reason of a decision, as a monotone DAG.

    The nodes are exactly those reachable from ``root``, in creation
    order (children precede parents); ``size`` counts them, and each
    :meth:`evaluate` walks them once.  ``term`` is the sorted tuple of
    instance literals the graph mentions — every sufficient reason is
    a subset of it.
    """

    __slots__ = ("kinds", "lits", "children", "root", "term", "size")

    def __init__(self, kinds: List[int], lits: List[int],
                 children: List[Tuple[int, ...]], root: int,
                 term: Tuple[int, ...]) -> None:
        self.kinds = kinds
        self.lits = lits
        self.children = children
        self.root = root
        self.term = term
        self.size = len(kinds)

    def evaluate(self, members: Set[int]) -> bool:
        """One monotone bottom-up pass: the graph's value with exactly
        the literals in ``members`` asserted."""
        values = [False] * self.size
        kinds = self.kinds
        children = self.children
        for i in range(self.size):
            kind = kinds[i]
            if kind == _K_LIT:
                values[i] = self.lits[i] in members
            elif kind == _K_AND:
                values[i] = all(values[c] for c in children[i])
            elif kind == _K_OR:
                values[i] = any(values[c] for c in children[i])
            else:
                values[i] = kind == _K_TRUE
        return values[self.root]


class CountOracle:
    """Implicant membership by exact model counting.

    Optimisation passes can erase a decision gate's guard: forgetting
    a Tseitin auxiliary that *was* the guard variable leaves an
    or-gate whose branches are semantically disjoint yet share no
    complementary literal pair — still a certified d-DNNF, no longer
    syntactically Decision-DNNF, and no local reason-graph transform
    is sound for it (the guard's trace in the reason is a *function*
    of the remaining variables, not a literal).  Implicant membership
    survives: a subset ``t`` of the instance term is sufficient iff
    the models of ``f`` consistent with ``t`` number exactly
    ``2^(vars − |t|)``.  Each :meth:`evaluate` is therefore one
    0/1-weight kernel count, behind the same ``term`` / ``size`` /
    ``evaluate`` interface as :class:`ReasonGraph`, so the probe and
    successor scheme run unchanged — count passes instead of DAG
    walks.  Exact while the count fits float64 (``2^52``); the
    builder refuses wider circuits.
    """

    __slots__ = ("kernel", "term", "size", "_n_vars")

    def __init__(self, kernel: IrKernel, mentioned: Sequence[int],
                 instance: Mapping[int, bool]) -> None:
        self.kernel = kernel
        self._n_vars = len(mentioned)
        self.term: Tuple[int, ...] = tuple(
            (v if instance[v] else -v) for v in mentioned)
        self.size = kernel.n

    def evaluate(self, members: Set[int]) -> bool:
        """Is the members subset of the instance term an implicant?"""
        from ..analyze.gate import gate_scope
        weights: Dict[int, float] = {}
        for lit in self.term:
            if lit in members:
                weights[lit], weights[-lit] = 1.0, 0.0
            else:
                weights[lit], weights[-lit] = 1.0, 1.0
        # the caller's probe already charged this pass cooperatively;
        # an inner unlimited scope keeps the kernel's own (raising)
        # governor from billing the same pass twice.  repair gate: a
        # non-smooth variant is auto-smoothed, and the smoothing gap
        # factors stay exact under 0/1 weights.
        with Budget().scope():
            with gate_scope("repair"):
                count = self.kernel.wmc(weights)
        return count == float(2 ** (self._n_vars - len(members)))


def _is_instance_literal(instance: Mapping[int, bool], lit: int) -> bool:
    """Is ``lit`` one of the instance's literals?  False for a flipped
    polarity and for a variable the instance does not assign."""
    value = instance.get(abs(lit))
    return value is not None and bool(value) == (lit > 0)


def _gated_kernel(ir: CircuitIR) -> IrKernel:
    """The kernel behind the Fig-13 gate: ``"explain"`` requires
    certified decomposability + determinism (strict/repair modes)."""
    from ..analyze.gate import check_kernel
    return check_kernel(ir_kernel(ir), "explain")


def _mentioned_vars(kernel: IrKernel,
                    forgotten: Iterable[int]) -> List[int]:
    """The circuit's variables, with forgotten auxiliaries rejected:
    a variant that still mentions a supposedly-forgotten variable
    cannot keep the no-auxiliaries-in-reasons guarantee."""
    if kernel.n == 0:
        return []
    skip = frozenset(int(v) for v in forgotten)
    mentioned = sorted(kernel.varsets[kernel.n - 1])
    leaked = [v for v in mentioned if v in skip]
    if leaked:
        raise ValueError(
            f"forgotten variables {leaked} still appear in the "
            "circuit; explain the base artifact instead")
    return mentioned


def _assigned_vars(kernel: IrKernel, instance: Mapping[int, bool],
                   forgotten: Iterable[int]) -> List[int]:
    """:func:`_mentioned_vars`, each of which the instance must assign."""
    mentioned = _mentioned_vars(kernel, forgotten)
    missing = [v for v in mentioned if v not in instance]
    if missing:
        raise ValueError(
            f"instance does not assign circuit variables {missing}")
    return mentioned


def _decision_var(kernel: IrKernel, i: int) -> Optional[int]:
    """The decision variable of or-gate ``i``, or None.

    IR-level twin of :func:`repro.nnf.properties.is_decision_node`:
    the guard literal may sit anywhere among a branch's conjuncts.
    """
    kids = kernel.children[i]
    if len(kids) != 2:
        return None

    def candidates(c: int) -> Set[int]:
        if kernel.kinds[c] == KIND_LIT:
            return {kernel.lits[c]}
        if kernel.kinds[c] == KIND_AND:
            return {kernel.lits[g] for g in kernel.children[c]
                    if kernel.kinds[g] == KIND_LIT}
        return set()

    first, second = (candidates(c) for c in kids)
    matches = sorted(abs(lit) for lit in first if -lit in second)
    return matches[0] if matches else None


def reason_graph(ir: CircuitIR, instance: Mapping[int, bool], *,
                 forgotten: Iterable[int] = (),
                 budget: Optional[Budget] = None) -> ReasonGraph:
    """Build the complete-reason DAG of the decision on ``instance``.

    One linear pass over the IR: literals map to themselves (or FALSE
    when inconsistent with the instance), and-gates conjoin child
    reasons, and every decision gate ``(X ∧ α) ∨ (¬X ∧ β)`` rewrites
    to ``R(α|x) ∧ (x ∨ R(β|x))`` with ``x`` the instance's literal of
    X (Darwiche & Hirth).  Gates are hash-consed and constant-folded.

    Raises ``ValueError`` on a non-Decision-DNNF shape, a
    parameterised circuit, an instance missing circuit variables, a
    circuit still mentioning forgotten variables, or a negative
    decision (sufficient reasons of a negative decision are prime
    implicants of the *complement* — compile it and explain on that).

    The build charges the (explicit or ambient) budget one pass but
    always completes — enumeration is where expiry bites.
    """
    kernel = _gated_kernel(ir)
    _assigned_vars(kernel, instance, forgotten)
    budget = resolve_budget(budget)
    if budget is not None:
        budget.charge(kernel.n)

    n = kernel.n
    kinds, lits, children = kernel.kinds, kernel.lits, kernel.children
    g_kinds: List[int] = [_K_TRUE, _K_FALSE]
    g_lits: List[int] = [0, 0]
    g_children: List[Tuple[int, ...]] = [(), ()]
    memo: Dict[Any, int] = {}

    def lit_node(lit: int) -> int:
        idx = memo.get(("l", lit))
        if idx is None:
            idx = len(g_kinds)
            memo[("l", lit)] = idx
            g_kinds.append(_K_LIT)
            g_lits.append(lit)
            g_children.append(())
        return idx

    def gate(kind: int, parts: Iterable[int]) -> int:
        absorbing = _FALSE if kind == _K_AND else _TRUE
        neutral = _TRUE if kind == _K_AND else _FALSE
        out: List[int] = []
        for p in parts:
            if p == absorbing:
                return absorbing
            if p != neutral and p not in out:
                out.append(p)
        if not out:
            return neutral
        if len(out) == 1:
            return out[0]
        key = (kind, tuple(sorted(out)))
        idx = memo.get(key)
        if idx is None:
            idx = len(g_kinds)
            memo[key] = idx
            g_kinds.append(kind)
            g_lits.append(0)
            g_children.append(key[1])
        return idx

    def branch_parts(c: int, var: int) -> Tuple[int, int]:
        """(guard literal, mapped rest) of one decision branch."""
        if kinds[c] == KIND_LIT and abs(lits[c]) == var:
            return lits[c], _TRUE
        guard = 0
        rest: List[int] = []
        for g in children[c]:
            if not guard and kinds[g] == KIND_LIT \
                    and abs(lits[g]) == var:
                guard = lits[g]
            else:
                rest.append(reasons[g])
        if not guard:
            raise ValueError(
                f"or-gate branch {c} lacks a guard literal on "
                f"variable {var}; explain requires a Decision-DNNF")
        return guard, gate(_K_AND, rest)

    values: List[bool] = [False] * n
    reasons: List[int] = [_FALSE] * n
    for i in range(n):
        kind = kinds[i]
        if kind == KIND_LIT:
            lit = lits[i]
            consistent = bool(instance[abs(lit)]) == (lit > 0)
            values[i] = consistent
            reasons[i] = lit_node(lit) if consistent else _FALSE
        elif kind == KIND_AND:
            kids = children[i]
            values[i] = all(values[c] for c in kids)
            reasons[i] = gate(_K_AND, (reasons[c] for c in kids))
        elif kind == KIND_OR:
            kids = children[i]
            values[i] = any(values[c] for c in kids)
            if not kids:
                reasons[i] = _FALSE
            elif len(kids) == 1:
                reasons[i] = reasons[kids[0]]
            else:
                var = _decision_var(kernel, i)
                if var is None:
                    raise ValueError(
                        f"or-gate {i} is not a decision gate; explain "
                        "requires a Decision-DNNF circuit")
                wanted = var if instance[var] else -var
                consistent_rest = other_rest = _FALSE
                for c in kids:
                    guard, rest = branch_parts(c, var)
                    if guard == wanted:
                        consistent_rest = rest
                    else:
                        other_rest = rest
                reasons[i] = gate(_K_AND, (
                    consistent_rest,
                    gate(_K_OR, (lit_node(wanted), other_rest))))
        elif kind == KIND_PARAM:
            raise ValueError(
                "explain does not support parameterised circuits")
        else:
            values[i] = kind != KIND_FALSE
            reasons[i] = _TRUE if values[i] else _FALSE

    decision = bool(values[n - 1]) if n else False
    if not decision:
        raise ValueError(_NEGATIVE_DECISION)
    root = reasons[n - 1]

    # keep only the nodes reachable from the root: the others can
    # never change its value, so probes neither walk nor charge them,
    # and the term is the instance literals among those kept
    reachable: Set[int] = set()
    stack = [root]
    while stack:
        idx = stack.pop()
        if idx in reachable:
            continue
        reachable.add(idx)
        stack.extend(g_children[idx])
    keep = sorted(reachable)  # creation order: children first
    index = {old: new for new, old in enumerate(keep)}
    term = tuple(sorted(
        (g_lits[idx] for idx in keep if g_kinds[idx] == _K_LIT),
        key=abs))
    return ReasonGraph(
        [g_kinds[idx] for idx in keep], [g_lits[idx] for idx in keep],
        [tuple(index[c] for c in g_children[idx]) for idx in keep],
        index[root], term)


def count_oracle(ir: CircuitIR, instance: Mapping[int, bool], *,
                 forgotten: Iterable[int] = (),
                 budget: Optional[Budget] = None) -> CountOracle:
    """Build the counting membership oracle for the decision.

    Same validation surface as :func:`reason_graph` (gate, forgotten
    leaks, instance coverage, parameter leaves, negative decisions)
    plus the float64 exactness bound; like the graph build, it
    charges the budget one pass and always completes.
    """
    kernel = _gated_kernel(ir)
    mentioned = _assigned_vars(kernel, instance, forgotten)
    if any(kernel.kinds[i] == KIND_PARAM for i in range(kernel.n)):
        raise ValueError(
            "explain does not support parameterised circuits")
    if len(mentioned) > _EXACT_COUNT_VARS:
        raise ValueError(
            f"{len(mentioned)} variables is beyond the float64-exact "
            "counting range of the fallback oracle; explain the base "
            "artifact instead")
    budget = resolve_budget(budget)
    if budget is not None:
        budget.charge(kernel.n)
    oracle = CountOracle(kernel, mentioned, instance)
    # count(f ∧ instance) == 1 iff the decision is positive
    if not oracle.evaluate(frozenset(oracle.term)):
        raise ValueError(_NEGATIVE_DECISION)
    return oracle


Oracle = Any  # ReasonGraph | CountOracle (shared duck interface)


def _guard_complete(kernel: IrKernel) -> bool:
    """Does every multi-child or-gate expose a syntactic guard pair?"""
    return all(
        _decision_var(kernel, i) is not None
        for i in range(kernel.n)
        if kernel.kinds[i] == KIND_OR and len(kernel.children[i]) >= 2)


def _build_oracle(ir: CircuitIR, instance: Mapping[int, bool], *,
                  forgotten: Iterable[int] = (),
                  budget: Optional[Budget] = None) -> Oracle:
    """The membership oracle enumeration runs on: the linear reason
    graph when the circuit is syntactically guarded, else — for
    circuits whose certificate carries decomposability + determinism,
    the properties exact counting rests on — the counting fallback.
    Uncertified unguarded circuits go to :func:`reason_graph` for its
    precise rejection."""
    kernel = _gated_kernel(ir)
    if not _guard_complete(kernel) \
            and ir.has_flag(FLAG_DECOMPOSABLE) \
            and ir.has_flag(FLAG_DETERMINISTIC):
        return count_oracle(ir, instance, forgotten=forgotten,
                            budget=budget)
    return reason_graph(ir, instance, forgotten=forgotten,
                        budget=budget)


def _minimal_avoiding(graph: Oracle, excluded: Term,
                      budget: Optional[Budget],
                      stats: Optional[Counter]) -> Any:
    """A subset-minimal implicant of the graph avoiding ``excluded``.

    Greedy shrink from the instance term: ``1 + |term|`` monotone
    evaluations, each charged to the budget.  Returns None when no
    implicant avoids the exclusions, or ``_EXPIRED`` when the budget
    ran out mid-probe — a half-shrunk term is never returned, so an
    expired enumeration can never yield a non-implicant.
    """
    if stats is not None:
        stats.incr("explain_probes")

    def expired() -> bool:
        return budget is not None and \
            budget.charge(graph.size) is not None

    if expired():
        return _EXPIRED
    if stats is not None:
        stats.incr("explain_evals")
    members = {lit for lit in graph.term if lit not in excluded}
    if not graph.evaluate(members):
        return None
    for lit in sorted(members, key=abs):
        if expired():
            return _EXPIRED
        if stats is not None:
            stats.incr("explain_evals")
        members.discard(lit)
        if not graph.evaluate(members):
            members.add(lit)
    return frozenset(members)


def iter_sufficient_reasons(ir: Optional[CircuitIR] = None,
                            instance: Optional[Mapping[int, bool]] = None,
                            *, forgotten: Iterable[int] = (),
                            budget: Optional[Budget] = None,
                            graph: Optional[Oracle] = None,
                            stats: Optional[Counter] = None
                            ) -> Iterator[Term]:
    """Yield every sufficient reason of the decision exactly once.

    Minimal-hitting successor scheme: start from the unconstrained
    greedy minimal implicant; after emitting reason ``r``, branch on
    excluding each literal of ``r`` in turn (a BFS over exclusion
    sets, deduplicated).  Completeness is the standard argument: any
    target reason ``m`` differs from every other emitted reason by a
    literal outside ``m``, so some exclusion path keeps ``m`` alive
    until the greedy probe has no choice but to return it.

    Anytime: when the (explicit or ambient) budget expires the
    iterator stops — it never raises and never emits an unverified
    term.  Callers wanting the structured partial marker use
    :func:`sufficient_reasons`.
    """
    if graph is None:
        if ir is None or instance is None:
            raise ValueError("pass a circuit and instance, or a "
                             "prebuilt reason oracle")
        graph = _build_oracle(ir, instance, forgotten=forgotten,
                              budget=budget)
    budget = resolve_budget(budget)
    emitted: Set[Term] = set()
    explored: Set[Term] = {frozenset()}
    queue: deque = deque([frozenset()])
    while queue:
        excluded = queue.popleft()
        found = _minimal_avoiding(graph, excluded, budget, stats)
        if found is _EXPIRED:
            return
        if found is None:
            continue
        if found not in emitted:
            emitted.add(found)
            yield found
        for lit in sorted(found, key=abs):
            child = excluded | {lit}
            if child not in explored:
                explored.add(child)
                queue.append(child)


def sufficient_reasons(ir: CircuitIR, instance: Mapping[int, bool], *,
                       forgotten: Iterable[int] = (),
                       budget: Optional[Budget] = None,
                       limit: Optional[int] = None,
                       smallest: bool = False,
                       stats: Optional[Counter] = None
                       ) -> Dict[str, Any]:
    """All sufficient reasons of the decision, wire-ready.

    Returns ``{"decision": True, "reasons": [...], "complete": bool,
    "probes": int, "oracle": "graph"|"count"}`` with reasons sorted
    by (size, variables), plus ``"partial"`` (the budget's expiry
    reason and counters) when the budget ran out, and ``"smallest"``
    when requested.  ``limit`` stops after that many reasons
    (``complete`` stays False).  Anytime: never raises on expiry;
    every listed reason is a true sufficient reason.
    """
    graph = _build_oracle(ir, instance, forgotten=forgotten,
                          budget=budget)
    budget = resolve_budget(budget)
    counter = stats if stats is not None else Counter()
    found: List[Term] = []
    exhausted = True
    for reason in iter_sufficient_reasons(graph=graph, budget=budget,
                                          stats=counter):
        found.append(reason)
        if limit is not None and len(found) >= limit:
            exhausted = False
            break
    expired = budget.expired() if budget is not None else None
    ordered = sorted(found, key=lambda t: (len(t), sorted(t, key=abs)))
    out: Dict[str, Any] = {
        "decision": True,
        "reasons": [sorted(t, key=abs) for t in ordered],
        "complete": exhausted and expired is None,
        "probes": int(counter["explain_probes"]),
        "oracle": "count" if isinstance(graph, CountOracle)
        else "graph",
    }
    if smallest:
        out["smallest"] = out["reasons"][0] if ordered else None
    if expired is not None:
        out["partial"] = {"reason": expired,
                          "budget": budget.as_dict()}
    return out


def necessary_literals(ir: CircuitIR, instance: Mapping[int, bool], *,
                       forgotten: Iterable[int] = (),
                       budget: Optional[Budget] = None) -> List[int]:
    """The necessary characteristics of the decision, sorted by
    variable: instance literals in *every* sufficient reason.

    Monotonicity makes this one graph evaluation per literal (drop it
    from the full term; necessary iff the rest no longer triggers) —
    no enumeration.  This is a complete check, not an anytime one, so
    budget expiry raises :class:`~repro.limits.BudgetExceeded`.
    """
    graph = _build_oracle(ir, instance, forgotten=forgotten,
                          budget=budget)
    budget = resolve_budget(budget)
    full = set(graph.term)
    necessary: List[int] = []
    for lit in graph.term:
        if budget is not None:
            budget.tick(graph.size,
                        partial={"operation": "necessary-check",
                                 "literals_checked": len(necessary)})
        if not graph.evaluate(full - {lit}):
            necessary.append(lit)
    return necessary


# -- batched dataset checks ---------------------------------------------------
def check_sufficient_batch(ir: CircuitIR,
                           instances: Sequence[Mapping[int, bool]],
                           terms: Sequence[Sequence[int]], *,
                           forgotten: Iterable[int] = (),
                           budget: Optional[Budget] = None,
                           stats: Optional[Counter] = None
                           ) -> List[bool]:
    """Entry ``j``: is ``terms[j]`` a sufficient term for the decision
    on ``instances[j]``?  (Sufficiency only — minimality is the
    enumerator's job.)

    Two kernel passes for the whole dataset: ``evaluate_batch`` for
    the decisions, then one 0/1-weight ``wmc_batch`` where column
    ``j`` fixes term ``j``'s literals — the count of models of ``f``
    consistent with the term.  The term is sufficient iff that count
    is ``2^free`` (positive decision: the restriction is valid) or
    ``0`` (negative decision: the term implies ``¬f``).  Both
    decisions of a mixed dataset are answered by the same pass.

    A term containing a non-instance literal (flipped polarity *or*
    a variable the instance does not mention) is simply not
    sufficient.
    """
    from ..analyze.gate import gate_scope
    import numpy as np
    if len(instances) != len(terms):
        raise ValueError(f"{len(instances)} instances but "
                         f"{len(terms)} terms")
    if not instances:
        return []
    kernel = _gated_kernel(ir)
    mentioned = _mentioned_vars(kernel, forgotten)
    if len(mentioned) > _EXACT_COUNT_VARS:
        raise ValueError(
            f"{len(mentioned)} variables is beyond the float64-exact "
            "batched counting range; use the scalar enumerator")
    for j, inst in enumerate(instances):
        missing = [v for v in mentioned if v not in inst]
        if missing:
            raise ValueError(f"instance {j} does not assign circuit "
                             f"variables {missing}")
    size = len(instances)
    term_sets = [frozenset(int(lit) for lit in t) for t in terms]
    term_ok = np.ones(size, dtype=bool)
    free = np.full(size, len(mentioned), dtype=float)
    for j, (inst, term) in enumerate(zip(instances, term_sets)):
        term_ok[j] = all(_is_instance_literal(inst, lit) for lit in term)
        free[j] -= sum(1 for v in mentioned
                       if v in term or -v in term)

    def run() -> Tuple[Any, Any]:
        if not mentioned:  # constant circuit: no batch columns exist
            decision = kernel.evaluate({})
            return (np.full(size, decision, dtype=bool),
                    np.full(size, 1.0 if decision else 0.0))
        assignment = {v: np.array([bool(inst[v]) for inst in instances])
                      for v in mentioned}
        decisions = kernel.evaluate_batch(assignment, stats)
        weights: Dict[int, Any] = {}
        for v in mentioned:
            pos = np.array([0.0 if -v in t else 1.0
                            for t in term_sets])
            neg = np.array([0.0 if v in t else 1.0
                            for t in term_sets])
            weights[v], weights[-v] = pos, neg
        # repair gate: a non-smooth artifact is auto-smoothed rather
        # than refused — the 0/1 gap factors stay exact either way
        with gate_scope("repair"):
            counts = kernel.wmc_batch(weights, stats)
        return decisions, counts

    budget = resolve_budget(budget)
    if budget is not None:
        with budget.scope():
            decisions, counts = run()
    else:
        decisions, counts = run()
    # 0/1 weights keep every intermediate an exact float64 integer
    # (<= 2^52), so equality against the target count is exact
    targets = np.where(decisions, np.exp2(free), 0.0)
    return [bool(ok) for ok in term_ok & (counts == targets)]


def check_necessary_batch(ir: CircuitIR,
                          instances: Sequence[Mapping[int, bool]],
                          literals: Sequence[int], *,
                          forgotten: Iterable[int] = (),
                          budget: Optional[Budget] = None,
                          stats: Optional[Counter] = None
                          ) -> List[bool]:
    """Entry ``j``: is ``literals[j]`` in *every* sufficient reason of
    the decision on ``instances[j]``?

    Reduces to the batched sufficiency check: a literal is necessary
    iff the full instance term *without* it stops being sufficient.
    """
    if len(instances) != len(literals):
        raise ValueError(f"{len(instances)} instances but "
                         f"{len(literals)} literals")
    if not instances:
        return []
    kernel = _gated_kernel(ir)
    mentioned = _mentioned_vars(kernel, forgotten)
    terms: List[List[int]] = []
    is_instance_lit: List[bool] = []
    for inst, literal in zip(instances, literals):
        literal = int(literal)
        is_instance_lit.append(_is_instance_literal(inst, literal))
        terms.append([v if inst.get(v) else -v for v in mentioned
                      if v in inst and (v if inst[v] else -v) != literal])
    rest_sufficient = check_sufficient_batch(
        ir, instances, terms, forgotten=forgotten, budget=budget,
        stats=stats)
    return [ok and not rest
            for ok, rest in zip(is_instance_lit, rest_sufficient)]


# -- bias and counterfactuals (Fig 27; Section 5.1) ---------------------------
def decision_is_biased(ir: CircuitIR, instance: Mapping[int, bool],
                       protected: Iterable[int]) -> bool:
    """Would changing only protected features flip this decision?

    A decision is unbiased exactly when the instance's unprotected
    literals alone fix it, so this is one :func:`check_sufficient_batch`
    on that term — for a positive or a negative decision alike.  (A
    *classifier* is biased iff its function depends on a protected
    variable: on a reduced OBDD that is ``node.variables()``.)
    """
    skip = frozenset(int(v) for v in protected)
    term = [v if value else -v for v, value in sorted(instance.items())
            if v not in skip]
    return not check_sufficient_batch(ir, [instance], [term])[0]


def decision_sticks_batch(ir: CircuitIR, instance: Mapping[int, bool],
                          flip_sets: Sequence[Iterable[int]]
                          ) -> List[bool]:
    """Entry ``j``: does the decision on ``instance`` survive flipping
    the features in ``flip_sets[j]``?

    One ``evaluate_batch`` answers every probe (e.g. Fig 28's
    per-pixel sweep): column ``j`` is the instance with ``flip_sets[j]``
    flipped, and a last column holds the instance itself.
    """
    import numpy as np
    flips = [frozenset(int(v) for v in chosen) for chosen in flip_sets]
    if not flips:
        return []
    kernel = ir_kernel(ir)
    mentioned = _assigned_vars(kernel, instance, ())
    if not mentioned:  # a constant decision survives every flip
        return [True] * len(flips)
    columns = {v: np.array([(v in chosen) != bool(instance[v])
                            for chosen in flips] + [bool(instance[v])])
               for v in mentioned}
    values = kernel.evaluate_batch(columns)
    baseline = bool(values[-1])
    return [bool(value) == baseline for value in values[:-1]]


def verify_even_if_because(ir: CircuitIR, instance: Mapping[int, bool],
                           flipped: Iterable[int],
                           because: Sequence[int]) -> Dict[str, bool]:
    """Check an "even if … because …" statement ([33]; the paper's
    April: the decision would stick *even if* she had no work
    experience *because* she passed the entrance exam).

    ``because`` is a term of literals.  The statement is *valid* when
    the term consists of instance literals, avoids the flipped
    features, and is sufficient for the decision — which entails the
    decision sticks under *any* change to the flipped features (not
    just the single flip that ``sticks`` reports).
    """
    flipped = [int(v) for v in flipped]
    because = [int(lit) for lit in because]
    term_ok = all(_is_instance_literal(instance, lit) for lit in because)
    disjoint = all(abs(lit) not in flipped for lit in because)
    sufficient = check_sufficient_batch(ir, [instance], [because])[0]
    return {
        "sticks": decision_sticks_batch(ir, instance, [flipped])[0],
        "because_is_instance_term": term_ok,
        "because_avoids_flipped": disjoint,
        "because_is_sufficient": sufficient,
        "valid": term_ok and disjoint and sufficient,
    }
