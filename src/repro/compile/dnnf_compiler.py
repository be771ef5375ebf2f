"""Compiling CNF into Decision-DNNF by exhaustive DPLL.

This is the "language of search" construction [38]: running a
sharpSAT-style exhaustive DPLL search (unit propagation, component
decomposition, component caching) and keeping its *trace* yields a
Decision-DNNF circuit — decomposable, deterministic, with every or-gate
a decision gate.  DSHARP [56] is exactly this construction on top of
sharpSAT; ours sits on top of :mod:`repro.sat`.

The compiler optionally takes a *priority* variable ordering: priority
variables are decided before all others.  Compiling with the E-MAJSAT
``Y`` variables as priorities produces a *constrained* Decision-DNNF on
which E-MAJSAT and MAJMAJSAT become circuit evaluations (Section 3,
[61, 67]); see :mod:`repro.solvers`.

The search is :class:`repro.sat.search.TrailSearch`, the one the
model counter and the anytime bounds run (see ``docs/performance.md``);
the compiler reads it through NNF nodes: a decision becomes the
decision gate ``(X ∧ α) ∨ (¬X ∧ β)`` and a partition the conjunction of
its assigned literals and its components.  ``cache_mode`` picks the
component cache keys: cheap hashes by default, ``"exact"``
collision-free keys.  ``stats`` is a
:class:`repro.perf.instrument.Counter` accumulating propagations,
clause visits, decisions and cache hits per ``compile`` call.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from ..limits.budget import Budget, resolve_budget
from ..logic.cnf import Cnf
from ..nnf.node import NnfManager, NnfNode
from ..perf.instrument import Counter
from ..sat.search import Algebra, Component, TrailSearch

__all__ = ["DnnfCompiler", "compile_cnf"]


class _Nodes(Algebra):
    """Decision-DNNF nodes built in ``manager``."""

    def __init__(self, manager: NnfManager):
        self.manager = manager
        self.zero = manager.false()

    def conjoin(self, decision: Optional[int], implied: Sequence[int],
                parts: List[NnfNode], scope: Sequence[int],
                components: List[Component]) -> NnfNode:
        literals = sorted(implied, key=abs)
        if decision is not None:
            # the decision literal must stay the first conjunct: or-gates
            # are decision gates (X∧α)∨(¬X∧β)
            literals.insert(0, decision)
        literal = self.manager.literal
        return self.manager.conjoin(*[literal(lit) for lit in literals],
                                    *parts)

    def disjoin(self, high: NnfNode, low: NnfNode) -> NnfNode:
        return self.manager.disjoin(high, low)


class DnnfCompiler:
    """CNF → Decision-DNNF knowledge compiler.

    Parameters
    ----------
    manager:
        The :class:`NnfManager` to build nodes in (fresh one by default).
    use_components:
        Split residual CNFs into independent components (and-nodes).
    use_cache:
        Memoise compiled components.
    priority:
        Variables to branch on first, in order.  While any priority
        variable occurs in the residual CNF, component decomposition is
        still applied, but branching picks priority variables — this
        yields circuits in which every path decides all (relevant)
        priority variables before any other variable.
    cache_mode:
        ``"hash"`` (default) keys the component cache by a cheap
        hash; ``"exact"`` by the residual itself — the collision-free
        correctness fallback.
    propagator:
        Only ``"watched"``, the two-watched-literal trail engine; any
        other value raises ``ValueError``.  The name stays part of
        every stored artifact key.
    store:
        An optional :class:`repro.ir.store.ArtifactStore`: compilations
        are looked up by the SHA-256 of (compiler name, config, DIMACS
        text) and served from disk on a hit — the circuit is read back
        from canonical ``.nnf`` text and lifted into ``manager``.
        Defaults to :func:`repro.ir.store.default_store`
        (``$REPRO_CACHE_DIR``, unset → no caching).
    budget:
        Optional :class:`~repro.limits.budget.Budget`: one node charged
        per decision, one cache entry per memoised component.
        Exhaustion raises
        :class:`~repro.limits.budget.BudgetExceeded` with the
        decision/cache/circuit counters so far in ``partial``.  With no
        explicit budget the ambient one (:meth:`Budget.scope`) governs;
        :func:`repro.limits.restarts.compile_with_restarts` builds the
        budgeted retry loop on top.
    optimize:
        Post-compile optimization hook.  ``None`` (default) leaves the
        compiled circuit untouched; ``True`` runs the default
        :mod:`repro.ir.passes` pipeline, a pass-name sequence or
        comma-string runs that pipeline.  Every rewrite is
        certification-gated; the Tseitin auxiliaries recorded in the
        input CNF's ``aux_vars`` metadata drive the pruning pass, and
        any variables actually forgotten land in
        :attr:`forgotten_vars` (the caller must exclude them when
        widening model counts — the 2^k correction).  With a store,
        the optimized twin is saved as a variant artifact keyed by the
        pipeline signature; warm loads reuse it via
        :meth:`~repro.ir.store.ArtifactStore.load_variant`.
        :attr:`optimize_report` carries the per-pass audit trail.
    proof:
        Emit a ``repro-proof/1`` equivalence trace while searching
        (:mod:`repro.proof`): every decision split, component
        partition, unit implication, conflict leaf and cache
        back-reference is logged so the independent checker
        (:func:`repro.proof.check_proof`) can replay the compilation
        against the original DIMACS and certify circuit ≡ CNF.  The
        sealed trace lands on :attr:`last_proof` (and as a ``.proof``
        sidecar in the store, when one is wired).  Proof mode always
        re-runs the search — a warm artifact has no trace.  A
        budget-interrupted
        compile leaves :attr:`last_proof` as None: partial traces
        prove nothing.
    """

    def __init__(self, manager: NnfManager | None = None,
                 use_components: bool = True, use_cache: bool = True,
                 priority: Sequence[int] | None = None,
                 cache_mode: str = "hash",
                 propagator: str = "watched", store=None,
                 budget: Optional[Budget] = None,
                 optimize: "bool | str | Sequence[str] | None" = None,
                 proof: bool = False):
        if cache_mode not in ("hash", "exact"):
            raise ValueError(f"unknown cache_mode {cache_mode!r}")
        if propagator != "watched":
            raise ValueError(f"unknown propagator {propagator!r}")
        if store is None:
            from ..ir.store import default_store
            store = default_store()
        self.manager = manager or NnfManager()
        self.use_components = use_components
        self.use_cache = use_cache
        self.cache_mode = cache_mode
        self.propagator = propagator
        self.store = store
        self.budget = budget
        self._active_budget: Optional[Budget] = None
        self.priority = {v: i for i, v in enumerate(priority or ())}
        if optimize is True:
            optimize = ()  # the default pipeline
        elif optimize is False:
            optimize = None
        if optimize is not None:
            from ..ir.passes import parse_passes
            optimize = parse_passes(optimize or None)
        self.optimize = optimize
        self.optimize_report: Optional[dict] = None
        self.forgotten_vars: frozenset[int] = frozenset()
        self.proof = proof
        #: the ``repro-proof/1`` trace of the last proof-mode compile
        self.last_proof: Optional[str] = None
        self.cache: Dict[Hashable, NnfNode] = {}
        self.stats = Counter()

    # -- statistics of the most recent compile -----------------------------
    @property
    def cache_hits(self) -> int:
        return self.stats["cache_hits"]

    @property
    def decisions(self) -> int:
        return self.stats["decisions"]

    def compile(self, cnf: Cnf) -> NnfNode:
        """Compile; the circuit mentions only constrained variables.

        Variables of ``cnf`` that appear in no clause are unconstrained:
        count with ``model_count(root, variables=range(1, n+1))`` to
        account for them.
        """
        self.stats.clear()
        self.cache = {}
        self.optimize_report = None
        self.forgotten_vars = frozenset()
        self.last_proof = None
        self._active_budget = resolve_budget(self.budget)
        key = None
        if self.store is not None:
            key = self._artifact_key(cnf)
        trace = None
        if self.proof:
            # proof mode always re-runs the search — a warm artifact
            # has no trace to vouch for it (the facade short-circuits
            # already-PROVED keys before ever reaching the compiler)
            from ..proof.trace import TraceBuilder, dimacs_digest
            trace = TraceBuilder(cnf.num_vars, len(cnf.clauses),
                                 dimacs_digest(cnf.to_dimacs()))
        elif self.store is not None:
            from ..ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
            cached = self.store.load_nnf(
                key, flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
            if cached is not None:
                from ..ir.lower import ir_to_nnf
                self.stats.incr("artifact_cache_hits")
                if self.optimize is not None:
                    return self._post_optimize(cnf, key, cached)
                return ir_to_nnf(cached, self.manager)
        search = TrailSearch(
            cnf, _Nodes(self.manager), use_components=self.use_components,
            use_cache=self.use_cache, cache_mode=self.cache_mode,
            priority=self.priority, budget=self._active_budget,
            stats=self.stats, trace=trace, operation="compile")
        self.cache = search.cache
        # a budget-interrupted search raises here: its partial trace
        # proves nothing and is dropped
        root = search.run()
        if trace is not None:
            self._finish_proof(key, root, trace)
        base_ir = None
        if key is not None:
            from ..ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
            from ..ir.lower import nnf_to_ir
            # Decision-DNNF is decomposable and deterministic by
            # construction; assert it so the artifact certificate
            # covers exactly the flags the warm-load path claims.  A
            # refuted root (an empty clause) lands in the store too: a
            # .proof sidecar with no .nnf to bind to would refute
            base_ir = nnf_to_ir(
                root, flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
            self.store.save_nnf(key, base_ir)
        if self.optimize is not None:
            if base_ir is None:
                from ..ir.core import (FLAG_DECOMPOSABLE,
                                       FLAG_DETERMINISTIC)
                from ..ir.lower import nnf_to_ir
                base_ir = nnf_to_ir(
                    root, flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
            return self._post_optimize(cnf, key, base_ir)
        return root

    def _finish_proof(self, key: Optional[str], root: NnfNode,
                      trace) -> None:
        """Seal the emitted trace: bind it to the built circuit's
        semantic digest, expose it on :attr:`last_proof`, and file it
        as a ``.proof`` sidecar next to the artifact when a store is
        wired."""
        from ..proof.trace import circuit_digest
        trace.set_circuit_digest(circuit_digest(root))
        text = trace.text()
        self.last_proof = text
        self.stats.incr("proof_steps", trace.steps())
        if self.store is not None and key is not None:
            self.store.save_proof(key, text)

    def _post_optimize(self, cnf: Cnf, key: Optional[str],
                       ir) -> NnfNode:
        """Run the certification-gated pass pipeline on the compiled
        circuit; reuse / record a store variant when a store is wired.
        Degrades to the unoptimized circuit, never errors."""
        from ..ir.lower import ir_to_nnf
        from ..ir.passes import PassManager, pipeline_signature
        passes = self.optimize or ()
        if key is not None and self.store is not None:
            signature = pipeline_signature(passes)
            cached = self.store.load_variant(key, signature)
            if cached is not None:
                variant, info = cached
                self.forgotten_vars = frozenset(
                    int(v) for v in info.get("forgotten", ()))
                self.optimize_report = {
                    "passes": list(passes), "signature": signature,
                    "before_nodes": ir.n, "after_nodes": variant.n,
                    "forgotten_vars": sorted(self.forgotten_vars),
                    "cached": True}
                self.stats.incr("optimize_variant_hits")
                return ir_to_nnf(variant, self.manager)
        pass_manager = PassManager(
            passes, aux_vars=getattr(cnf, "aux_vars", frozenset()))
        result = pass_manager.run(ir, budget=self._active_budget)
        self.optimize_report = result.as_wire()
        self.forgotten_vars = result.forgotten
        if result.changed and key is not None and self.store is not None:
            self.store.save_variant(key, result.ir, result.signature,
                                    result.passes, result.forgotten)
        return ir_to_nnf(result.ir, self.manager)

    def _artifact_key(self, cnf: Cnf) -> str:
        from ..ir.store import artifact_key
        config = {
            "use_components": self.use_components,
            "use_cache": self.use_cache,
            "cache_mode": self.cache_mode,
            "propagator": self.propagator,
            "priority": sorted(self.priority, key=self.priority.get),
        }
        return artifact_key(cnf.to_dimacs(), "dnnf", config)

    def artifact_key_for(self, cnf: Cnf) -> str:
        """The store content key this compiler would file ``cnf``
        under — the dedup key of the serving layer."""
        return self._artifact_key(cnf)


def compile_cnf(cnf: Cnf, manager: NnfManager | None = None,
                priority: Sequence[int] | None = None,
                budget: Optional[Budget] = None) -> NnfNode:
    """One-shot CNF → Decision-DNNF compilation."""
    compiler = DnnfCompiler(manager=manager, priority=priority,
                            budget=budget)
    return compiler.compile(cnf)
