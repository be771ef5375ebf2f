"""The service facade: compile-to-store and query-by-key.

This module is the *only* surface the serving layer
(:mod:`repro.serve`) is allowed to drive circuit work through (the
``serve-isolation`` rule in ``tools/lint_invariants.py`` enforces it):
DIMACS text goes in, content-addressed artifacts land in an
:class:`~repro.ir.store.ArtifactStore`, and queries run on the store's
circuits through :class:`~repro.ir.kernel.IrKernel` — never through
engine internals.

The pay-once/query-many economics of the paper (Darwiche, PODS 2020)
become three calls:

* :func:`compile_ticket` — canonicalise a request: parse the DIMACS,
  normalise the compiler config, and derive the SHA-256 content key
  that both the in-flight dedup registry and the artifact store use;
* :func:`compile_or_bounds` — run the (budgeted) compilation; when the
  request's deadline or node budget expires mid-search, degrade to the
  certified anytime interval (Darwiche 2000) instead of failing, so a
  server can answer ``s bounds L U`` rather than 500;
* :func:`query_artifact` / :func:`query_ir` — answer
  count/sat/wmc/mpe/marginals (scalar and batched WMC) on a stored
  circuit over the variables ``1..num_vars`` (the kernel's ``scope``),
  with marginals routed through the repair gate so a non-smooth
  artifact is auto-smoothed rather than answered wrongly.

Budgets are request-scoped: the compile share of the request budget is
carved with :meth:`repro.limits.budget.Budget.slice` and the remainder
is reserved for the anytime fallback, so an expiring compile still has
budget left to produce non-trivial bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain
from typing import (Any, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from ..limits.anytime import anytime_count
from ..limits.budget import Budget, BudgetExceeded
from ..logic.cnf import Cnf
from .core import CircuitIR
from .kernel import IrKernel, ir_kernel
from .store import ArtifactStore, artifact_key

__all__ = ["CompileTicket", "CompileOutcome", "BoundsOutcome",
           "compile_ticket", "compile_to_store", "compile_or_bounds",
           "load_artifact", "optimize_artifact", "query_artifact",
           "query_ir", "explain_ir", "explain_artifact",
           "QUERY_KINDS"]

#: compiler-config keys a service request may override
ALLOWED_CONFIG = ("use_components", "use_cache", "cache_mode",
                  "priority")

#: query kinds :func:`query_ir` answers
QUERY_KINDS = ("count", "sat", "wmc", "mpe", "marginals")

#: fraction of an expiring request budget reserved for the anytime
#: bounds fallback (the compile gets the rest)
DEFAULT_ANYTIME_RESERVE = 0.35

#: floor on the anytime fallback's own deadline: even a request whose
#: compile burnt the whole allowance gets a short, bounded interval
#: search instead of the trivial (0, 2^n) answer
MIN_BOUNDS_DEADLINE_S = 0.02


@dataclass(frozen=True)
class CompileTicket:
    """A canonicalised compile request.

    ``key`` is the artifact content address — SHA-256 over the
    compiler name, the normalised config and the *canonical* DIMACS
    re-serialisation (so formatting differences in client payloads
    dedup to one compilation).
    """

    key: str
    num_vars: int
    dimacs: str
    config: Dict[str, Any]

    def as_wire(self) -> Dict[str, Any]:
        return {"key": self.key, "num_vars": self.num_vars,
                "dimacs": self.dimacs, "config": dict(self.config)}


@dataclass(frozen=True)
class CompileOutcome:
    """A completed compilation: the artifact is in the store.

    When the request asked for post-compile optimization,
    ``optimized_nodes``/``pass_signature`` describe the certified
    smaller variant that landed next to the base artifact (both None
    when the pipeline made no certified improvement — the request
    still succeeds on the base circuit, never errors).
    """

    key: str
    num_vars: int
    circuit_nodes: int
    cached: bool
    elapsed_s: float
    optimized_nodes: Optional[int] = None
    pass_signature: Optional[str] = None
    #: proof-mode verdict: True = equivalence PROVED by the
    #: independent checker, False = REFUTED (artifact quarantined),
    #: None = no proof requested or check INCOMPLETE under budget
    proved: Optional[bool] = None

    def as_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": "ok", "key": self.key,
            "num_vars": self.num_vars,
            "circuit_nodes": self.circuit_nodes,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6)}
        if self.optimized_nodes is not None:
            out["optimized_nodes"] = self.optimized_nodes
            out["pass_signature"] = self.pass_signature
        if self.proved is not None:
            out["proved"] = self.proved
        return out


@dataclass(frozen=True)
class BoundsOutcome:
    """A budget-expired compilation degraded to certified bounds:
    ``lower <= exact model count <= upper`` (Darwiche 2000)."""

    key: str
    num_vars: int
    lower: int
    upper: int
    reason: str
    decisions: int
    elapsed_s: float

    def as_wire(self) -> Dict[str, Any]:
        return {"status": "bounds", "key": self.key,
                "num_vars": self.num_vars,
                "lower": int(self.lower), "upper": int(self.upper),
                "reason": self.reason, "decisions": self.decisions,
                "elapsed_s": round(self.elapsed_s, 6)}


def _normalise_config(config: Optional[Mapping[str, Any]]
                      ) -> Dict[str, Any]:
    """The full compiler config a request resolves to; unknown keys
    are rejected (a typo must not silently fork the content key)."""
    out: Dict[str, Any] = {"use_components": True, "use_cache": True,
                           "cache_mode": "hash",
                           "propagator": "watched", "priority": []}
    for name, value in dict(config or {}).items():
        if name not in ALLOWED_CONFIG:
            raise ValueError(
                f"unknown compiler config key {name!r}; allowed: "
                f"{sorted(ALLOWED_CONFIG)}")
        if name in ("use_components", "use_cache"):
            if not isinstance(value, bool):
                raise ValueError(f"config {name} must be a bool")
        elif name == "cache_mode":
            if value not in ("hash", "exact"):
                raise ValueError("config cache_mode must be "
                                 "'hash' or 'exact'")
        else:  # priority
            if not isinstance(value, (list, tuple)) or \
                    not all(isinstance(v, int) and v > 0 for v in value):
                raise ValueError(
                    "config priority must be a list of positive ints")
            value = list(value)
        out[name] = value
    return out


def compile_ticket(dimacs: str,
                   config: Optional[Mapping[str, Any]] = None
                   ) -> CompileTicket:
    """Parse + canonicalise a compile request into its content key.

    Raises ``ValueError`` on unparseable DIMACS or a bad config — the
    server maps that to a 400, never to a worker crash.
    """
    cnf = Cnf.from_dimacs(dimacs)
    full = _normalise_config(config)
    canonical = cnf.to_dimacs()
    key = artifact_key(canonical, "dnnf",
                       {"use_components": full["use_components"],
                        "use_cache": full["use_cache"],
                        "cache_mode": full["cache_mode"],
                        "propagator": full["propagator"],
                        "priority": list(full["priority"])})
    return CompileTicket(key=key, num_vars=cnf.num_vars,
                         dimacs=canonical, config=full)


def _compiler(ticket: CompileTicket, store: ArtifactStore,
              budget: Optional[Budget],
              proof: bool = False) -> Any:
    from ..compile.dnnf_compiler import DnnfCompiler
    cfg = ticket.config
    return DnnfCompiler(use_components=bool(cfg["use_components"]),
                        use_cache=bool(cfg["use_cache"]),
                        cache_mode=str(cfg["cache_mode"]),
                        propagator=str(cfg["propagator"]),
                        priority=list(cfg["priority"]),
                        store=store, budget=budget, proof=proof)


def compile_to_store(ticket: CompileTicket, store: ArtifactStore,
                     budget: Optional[Budget] = None,
                     proof: bool = False) -> CompileOutcome:
    """Compile the ticket's CNF into the store (warm hits included).

    With ``proof=True`` the compiler emits an equivalence trace
    (``.proof`` sidecar) and the independent checker verifies it
    before the outcome is reported: ``outcome.proved`` is True on
    ``PROVED`` (memoised in the ``.cert``, so a warm key skips both
    the search and the re-check), False on ``REFUTED`` (the artifact
    is quarantined — the caller decides whether that is fatal) and
    None when the check ran out of budget.

    Raises :class:`~repro.limits.budget.BudgetExceeded` when the
    budget expires — :func:`compile_or_bounds` is the non-raising
    service entry point.
    """
    start = time.perf_counter()
    if proof:
        from ..analyze.proofs import mark_proved, verify_stored_proof
        if store.proof_status(ticket.key) == "PROVED":
            ir = store.load_nnf(ticket.key)
            if ir is not None:
                mark_proved(ir.digest())
                return CompileOutcome(
                    key=ticket.key, num_vars=ticket.num_vars,
                    circuit_nodes=int(ir.n), cached=True,
                    elapsed_s=time.perf_counter() - start,
                    proved=True)
    cnf = Cnf.from_dimacs(ticket.dimacs)
    compiler = _compiler(ticket, store, budget, proof=proof)
    if compiler.artifact_key_for(cnf) != ticket.key:
        raise ValueError("ticket key does not match compiler config")
    root = compiler.compile(cnf)
    proved: Optional[bool] = None
    if proof:
        # the checker runs unbudgeted: it is linear in the trace and
        # must not inherit a compile budget already near expiry
        result = verify_stored_proof(store, ticket.key, ticket.dimacs)
        proved = {"PROVED": True, "REFUTED": False}.get(result.verdict)
    return CompileOutcome(
        key=ticket.key, num_vars=ticket.num_vars,
        circuit_nodes=int(root.node_count()),
        cached=compiler.stats["artifact_cache_hits"] > 0,
        elapsed_s=time.perf_counter() - start,
        proved=proved)


def compile_or_bounds(
        ticket: CompileTicket, store: ArtifactStore,
        deadline_s: Optional[float] = None,
        max_nodes: Optional[int] = None,
        anytime_reserve: float = DEFAULT_ANYTIME_RESERVE,
        optimize: Union[bool, str, Sequence[str], None] = None,
        proof: bool = False
) -> Union[CompileOutcome, BoundsOutcome]:
    """Budgeted compile that degrades to certified anytime bounds.

    With no caps this is exactly :func:`compile_to_store`.  With caps,
    the compile runs on ``1 - anytime_reserve`` of the request budget
    (:meth:`Budget.slice`); if it expires, the reserved remainder
    funds a partial-decomposition interval search whose bounds are
    certified to bracket the exact model count for *any* budget.

    ``optimize`` (True for the default pipeline, or an explicit pass
    list) runs :func:`optimize_artifact` after a successful compile on
    whatever slack the request budget has left; an expiring or
    non-improving pipeline silently leaves the base artifact as the
    answer — optimization can shrink the response, never fail it.

    ``proof=True`` is forwarded to :func:`compile_to_store`; a
    compile that degrades to bounds carries no proof (a partial
    search trace proves nothing — the ``BoundsOutcome`` certificate
    is the anytime interval itself).
    """
    start = time.perf_counter()
    if deadline_s is None and max_nodes is None:
        outcome = compile_to_store(ticket, store, proof=proof)
        return _maybe_optimize(outcome, ticket, store, optimize, None)
    request = Budget(deadline_s=deadline_s, max_nodes=max_nodes)
    try:
        outcome = compile_to_store(
            ticket, store, request.slice(1.0 - anytime_reserve),
            proof=proof)
        return _maybe_optimize(outcome, ticket, store, optimize,
                               request)
    except BudgetExceeded as error:
        reserve_deadline: Optional[float] = None
        if deadline_s is not None:
            reserve_deadline = max(MIN_BOUNDS_DEADLINE_S,
                                   deadline_s -
                                   (time.perf_counter() - start))
        reserve_nodes: Optional[int] = None
        if max_nodes is not None:
            reserve_nodes = max(32, int(max_nodes * anytime_reserve))
        bounds = anytime_count(
            Cnf.from_dimacs(ticket.dimacs),
            Budget(deadline_s=reserve_deadline,
                   max_nodes=reserve_nodes))
        return BoundsOutcome(
            key=ticket.key, num_vars=ticket.num_vars,
            lower=int(bounds.lower), upper=int(bounds.upper),
            reason=error.reason, decisions=bounds.decisions,
            elapsed_s=time.perf_counter() - start)


def _maybe_optimize(outcome: CompileOutcome, ticket: CompileTicket,
                    store: ArtifactStore,
                    optimize: Union[bool, str, Sequence[str], None],
                    request: Optional[Budget]) -> CompileOutcome:
    """Post-compile optimization on the request budget's slack.

    Any failure mode — budget expiry, a rejected pipeline, a store
    race — degrades to the unoptimized outcome; the compile already
    succeeded and stays succeeded.
    """
    if optimize is None or optimize is False:
        return outcome
    passes: Optional[Sequence[str]]
    if optimize is True:
        passes = None
    elif isinstance(optimize, str):
        passes = [p for p in optimize.split(",") if p]
    else:
        passes = list(optimize)
    try:
        report = optimize_artifact(
            store, ticket.key, passes=passes, budget=request,
            aux_vars=Cnf.from_dimacs(ticket.dimacs).aux_vars)
    except BudgetExceeded:
        return outcome
    if not report or report.get("after_nodes") is None or \
            report["after_nodes"] >= report.get("before_nodes", 0):
        return outcome
    return replace(outcome,
                   optimized_nodes=int(report["after_nodes"]),
                   pass_signature=str(report["signature"]))


# -- optimization side --------------------------------------------------------
def optimize_artifact(store: ArtifactStore, key: str,
                      passes: Optional[Sequence[str]] = None,
                      budget: Optional[Budget] = None,
                      aux_vars: Sequence[int] = ()
                      ) -> Optional[Dict[str, Any]]:
    """Run the certified pass pipeline on a stored artifact.

    Loads ``key``, runs :class:`repro.ir.passes.PassManager` (default
    pipeline when ``passes`` is None), and — when the pipeline
    produced a certified strictly-smaller circuit — lands it as an
    optimized variant next to the base artifact (keyed by the
    pass-pipeline signature in the ``.cert`` sidecar).  A variant
    already in the store is reused without re-running the pipeline.
    Returns a wire-ready audit dict, or None when the artifact is
    missing.  Budget exhaustion degrades to whatever the pipeline
    certified so far — never an error.
    """
    from .passes import PassManager, parse_passes, pipeline_signature
    parsed = parse_passes(passes)
    signature = pipeline_signature(parsed)
    ir = store.load_nnf(key)
    if ir is None:
        return None
    cached = store.load_variant(key, signature)
    if cached is not None:
        opt, info = cached
        return {"key": key, "passes": list(info.get("passes", parsed)),
                "signature": signature, "before_nodes": ir.n,
                "after_nodes": opt.n,
                "forgotten_vars": sorted(info.get("forgotten", ())),
                "cached": True, "budget_hit": False}
    manager = PassManager(parsed, aux_vars=aux_vars)
    result = manager.run(ir, budget=budget)
    if result.changed:
        store.save_variant(key, result.ir, result.signature,
                           passes=result.passes,
                           forgotten=result.forgotten)
    wire = result.as_wire()
    wire["key"] = key
    wire["cached"] = False
    return wire


# -- query side ---------------------------------------------------------------
def load_artifact(store: ArtifactStore, key: str) -> Optional[CircuitIR]:
    """The stored circuit for ``key``, or None on a miss."""
    return store.load_nnf(key)


def _top(kernel: IrKernel, num_vars: Optional[int]) -> int:
    """The largest variable a weight map may name."""
    if num_vars is not None:
        return num_vars
    return max(kernel.variables(), default=0)


def _check_literal(lit: Any, top: int) -> None:
    if lit == 0 or abs(lit) > top:
        raise ValueError(
            f"weight literal {lit} outside 1..{top} "
            f"(or its negation)")


def _full_weights(kernel: IrKernel, num_vars: Optional[int],
                  wire: Optional[Mapping[int, float]]
                  ) -> Dict[int, float]:
    """Every literal's weight (default 1.0), wire entries overlaid."""
    top = _top(kernel, num_vars)
    weights: Dict[int, float] = {}
    for var in range(1, top + 1):
        weights[var] = weights[-var] = 1.0
    for lit, value in dict(wire or {}).items():
        _check_literal(lit, top)
        weights[int(lit)] = float(value)
    return weights


def query_ir(ir: CircuitIR, query: str, *,
             num_vars: Optional[int] = None,
             weights: Optional[Mapping[int, float]] = None,
             weight_batch: Optional[Sequence[Mapping[int, float]]] = None,
             budget: Optional[Budget] = None,
             codegen_store: Optional[ArtifactStore] = None,
             forgotten: Iterable[int] = ()
             ) -> Dict[str, Any]:
    """Answer one query on a compiled circuit; JSON-ready result.

    ``num_vars`` makes count, wmc, mpe and marginals range over the
    variables ``1..num_vars`` (the kernel's ``scope``): each one the
    circuit never mentions contributes its gap factor (2 to a count,
    ``W(v) + W(-v)`` to a WMC, its heavier literal to an MPE value and
    model), and the marginals name every one of them.  Without it the
    answer ranges over the circuit's own variables.  ``forgotten``
    names variables the optimizer existentially quantified out
    (Tseitin auxiliaries): they are left out of the scope, which is
    exactly the 2^k correction — a pruned circuit answers the same
    counts as the original.
    ``codegen_store`` is accepted for existing callers and unused:
    evaluators are built in-process and never touch a store.
    Raises ``ValueError`` on a malformed request and
    :class:`~repro.limits.budget.BudgetExceeded` when the budget
    expires mid-pass.
    """
    if query not in QUERY_KINDS:
        raise ValueError(f"unknown query {query!r}; expected one of "
                         f"{list(QUERY_KINDS)}")
    kernel = ir_kernel(ir)
    skip = frozenset(int(v) for v in forgotten)
    if budget is not None:
        with budget.scope():
            return _run_query(kernel, query, num_vars, weights,
                              weight_batch, skip)
    return _run_query(kernel, query, num_vars, weights, weight_batch,
                      skip)


def _run_query(kernel: IrKernel, query: str, num_vars: Optional[int],
               weights: Optional[Mapping[int, float]],
               weight_batch: Optional[Sequence[Mapping[int, float]]],
               forgotten: FrozenSet[int] = frozenset()
               ) -> Dict[str, Any]:
    scope = None if num_vars is None else \
        set(range(1, num_vars + 1)).difference(forgotten)
    out: Dict[str, Any] = {"query": query}
    if query == "count":
        out["result"] = kernel.model_count(scope=scope)
    elif query == "sat":
        out["result"] = bool(kernel.sat())
    elif query == "wmc":
        if weight_batch is not None:
            out["result"] = _wmc_batch(kernel, num_vars, weight_batch,
                                       scope)
            out["batch"] = len(out["result"])
        else:
            full = _full_weights(kernel, num_vars, weights)
            out["result"] = float(kernel.wmc(full, scope=scope))
    elif query == "mpe":
        full = _full_weights(kernel, num_vars, weights)
        value, model = kernel.mpe(full, scope=scope)
        out["result"] = float(value)
        out["model"] = {str(var): bool(state)
                        for var, state in sorted(model.items())}
    else:  # marginals
        # trust and strict rise to repair: a non-smooth artifact is
        # auto-smoothed (and re-certified) rather than served a
        # silently-wrong marginal; proved keeps its proof demand
        from ..analyze.gate import gate_mode, gate_scope
        if scope is None:  # the kernel then keys both polarities
            scope = kernel.variables()
        with gate_scope("proved" if gate_mode() == "proved"
                        else "repair"):
            counts = kernel.marginals(scope=scope)
            total = kernel.model_count(scope=scope)
        out["result"] = {str(var): [counts[-var], counts[var]]
                         for var in sorted(scope)}
        out["count"] = total
    return out


def _wmc_batch(kernel: IrKernel, num_vars: Optional[int],
               weight_batch: Sequence[Mapping[int, float]],
               scope: Optional[Set[int]]) -> List[float]:
    """The batch as one ``(2·top+1, rows)`` table, literal ``lit`` on
    row ``top + lit``: every cell starts at 1.0, the wire entries of
    all rows are written by one indexed assignment, and the kernel
    reads views of the table's rows."""
    import numpy
    if not weight_batch:
        return []
    top = _top(kernel, num_vars)
    rows = [wire if type(wire) is dict else dict(wire or {})
            for wire in weight_batch]
    sizes = numpy.fromiter(map(len, rows), numpy.intp, count=len(rows))
    lits, values = _batch_entries(rows, int(sizes.sum()), top)
    table = numpy.ones((2 * top + 1, len(rows)))
    table[top + lits, numpy.repeat(numpy.arange(len(rows)), sizes)] = \
        values
    packed = dict(zip(range(-top, top + 1), table))  # lit: row top+lit
    del packed[0]
    return [float(v) for v in kernel.wmc_batch(packed, scope=scope)]


def _batch_entries(rows: List[Dict[Any, Any]], count: int,
                   top: int) -> Tuple[Any, Any]:
    """Every row's keys (intp) and values (float64), in row order.

    Integer keys are read and range-checked for the whole batch at
    once, then the values.  A literal outside ``±1..top``, or any
    other key, reads the batch row by row instead: each row's own
    comparisons raise for its first bad literal before the next row
    is read, and other keys they pass (floats in range) are truncated
    like ``int()``."""
    import numpy
    keys = chain.from_iterable
    try:
        if type(sum(keys(rows))) is int:  # every key an integer
            lits = numpy.fromiter(keys(rows), numpy.intp, count=count)
            if not ((lits == 0) | (lits < -top) | (lits > top)).any():
                return lits, numpy.fromiter(
                    keys(map(dict.values, rows)), float, count=count)
    except (TypeError, OverflowError):  # no number, or past intp
        pass
    row_lits: List[Any] = []
    row_values: List[Any] = []
    for wire in rows:
        if wire and (0 in wire or min(wire) < -top or max(wire) > top):
            for lit in wire:  # the first bad literal names the error
                _check_literal(lit, top)
        row_lits.append(numpy.fromiter(wire, numpy.intp, count=len(wire)))
        row_values.append(numpy.fromiter(wire.values(), float,
                                         count=len(wire)))
    return numpy.concatenate(row_lits), numpy.concatenate(row_values)


def explain_ir(ir: CircuitIR, instance: Mapping[int, bool], *,
               limit: Optional[int] = None, smallest: bool = False,
               budget: Optional[Budget] = None,
               forgotten: Iterable[int] = ()) -> Dict[str, Any]:
    """Sufficient reasons of the decision on ``instance``; JSON-ready.

    Runs the Decision-DNNF prime-implicant enumerator
    (:func:`repro.explain.implicants.sufficient_reasons`) behind the
    ``"explain"`` gate.  No anytime reserve is carved here — unlike
    compilation, the enumeration is natively anytime: when the request
    budget expires mid-search the result degrades to the reasons found
    so far (``complete: false`` plus a ``partial`` marker), never an
    error and never a term that is not a true sufficient reason.
    ``forgotten`` auxiliaries are excluded from every emitted reason.

    Raises ``ValueError`` on a malformed request (non-Decision-DNNF
    circuit, an instance missing circuit variables, or a negative
    decision — the server's 400).
    """
    from ..explain.implicants import sufficient_reasons
    result = sufficient_reasons(
        ir, {int(v): bool(s) for v, s in instance.items()},
        forgotten=frozenset(int(v) for v in forgotten),
        budget=budget, limit=limit, smallest=smallest)
    result["query"] = "explain"
    return result


def explain_artifact(store: ArtifactStore, key: str,
                     instance: Mapping[int, bool], *,
                     limit: Optional[int] = None,
                     smallest: bool = False,
                     budget: Optional[Budget] = None,
                     optimize: bool = False
                     ) -> Optional[Dict[str, Any]]:
    """Load ``key`` from the store and explain the decision on
    ``instance``; None when the artifact is missing (the 404).

    ``optimize=True`` explains on the smallest certified variant with
    its forgotten auxiliaries excluded, exactly like
    :func:`query_artifact` — the reasons match the base circuit's.
    """
    forgotten: FrozenSet[int] = frozenset()
    if optimize:
        smallest_variant = store.load_smallest(key)
        if smallest_variant is None:
            return None
        ir, info = smallest_variant
        forgotten = frozenset(info.get("forgotten", ()))
    else:
        base = load_artifact(store, key)
        if base is None:
            return None
        ir = base
    return explain_ir(ir, instance, limit=limit, smallest=smallest,
                      budget=budget, forgotten=forgotten)


def query_artifact(store: ArtifactStore, key: str, query: str, *,
                   num_vars: Optional[int] = None,
                   weights: Optional[Mapping[int, float]] = None,
                   weight_batch: Optional[
                       Sequence[Mapping[int, float]]] = None,
                   budget: Optional[Budget] = None,
                   optimize: bool = False
                   ) -> Optional[Dict[str, Any]]:
    """Load ``key`` from the store and answer ``query`` on it; None
    when the artifact is missing (the server's 404).

    ``optimize=True`` serves the smallest *certified* stored variant
    (:meth:`ArtifactStore.load_smallest`) instead of the base
    artifact — queries run over fewer nodes, with the variant's
    forgotten auxiliaries left out of the query's scope so every
    answer matches the base circuit's on the variables it names.
    """
    forgotten: FrozenSet[int] = frozenset()
    if optimize:
        smallest = store.load_smallest(key)
        if smallest is None:
            return None
        ir, info = smallest
        forgotten = frozenset(info.get("forgotten", ()))
    else:
        base = load_artifact(store, key)
        if base is None:
            return None
        ir = base
    return query_ir(ir, query, num_vars=num_vars, weights=weights,
                    weight_batch=weight_batch, budget=budget,
                    forgotten=forgotten)
