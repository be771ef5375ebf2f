"""The single circuit execution engine over the flattened IR.

One :class:`IrKernel` per :class:`~repro.ir.core.CircuitIR` (obtain it
with :func:`ir_kernel`; it is cached on the IR object, and IR interning
makes structurally identical circuits share it).  The kernel owns the
derived evaluation data — per-node variable sets and, for every
or-gate edge, the *gap* variables the child is missing — and runs all
scalar and batched query passes the per-family walkers used to
implement separately:

* sat / sat model (decomposability),
* model count and WMC (determinism; non-smooth circuits handled by
  scaling or-gate gaps),
* MPE upward max-product pass plus traceback,
* marginal derivatives (smoothness),
* evaluation under complete assignments,
* the numpy batch variants of WMC / evaluation / derivatives (one
  length-N row per node, linear and log space).

Weighted circuit families (PSDDs) lower their parameters into
``KIND_PARAM`` leaves; every weighted pass takes an optional ``params``
vector read *at query time*, so in-place parameter updates (EM,
closed-form learning) are reflected without rebuilding anything.

Pure, weight-independent results (model count, sat flags, integer
derivatives) are memoised on the kernel; :meth:`IrKernel.invalidate`
drops those memos explicitly.  Conditioning-style queries are pure
functions of the per-call weights and never write to the memos — see
``tests/test_ir_roundtrip.py`` for the staleness regression tests.

Every query first consults the codegen backend
(:mod:`repro.ir.codegen`): unless ``$REPRO_BACKEND=interp`` (or
:meth:`IrKernel.set_backend`) pins the interpreter, supported circuits
run through the circuit's levelized plan — one numpy call per run of
same-kind gates, built in-process once per circuit — and only fall
back to the interpreted loops below on
:class:`~repro.ir.codegen.CodegenUnsupported` (parameterised circuits,
counts beyond float64's exact range, literal-free batches, no numpy).
Both backends charge the same budget and pass the same gate.

numpy is imported lazily on the first batch call, so the scalar kernel
works (and this module imports) without numpy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..limits.budget import resolve_budget
from ..perf.instrument import Counter
from .codegen import CodegenUnsupported, resolve_backend
from .core import (CircuitIR, KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR,
                   KIND_PARAM)

__all__ = ["IrKernel", "ir_kernel", "pack_weight_batch",
           "pack_assignment_batch"]

#: sentinel cached on kernels whose circuit the codegen backend
#: declined (parameterised, empty, numpy-less) — skip retrying
_CODEGEN_UNSUPPORTED = object()

Weights = Mapping[int, float]
#: a batch of weight (or assignment) vectors: literal/variable → the
#: value of every batch member, as a length-N numpy array
WeightBatch = Mapping[int, "object"]
Params = Optional[Sequence[float]]


def _numpy() -> Any:
    """numpy, imported on first use (batch paths only)."""
    import numpy
    return numpy


def pack_weight_batch(weight_maps: Sequence[Weights],
                      variables: Sequence[int]) -> Dict[int, "object"]:
    """Stack per-query weight dicts into literal → length-N arrays."""
    np = _numpy()
    batch: Dict[int, object] = {}
    for var in variables:
        for lit in (var, -var):
            batch[lit] = np.array([w[lit] for w in weight_maps],
                                  dtype=float)
    return batch


def pack_assignment_batch(assignments: Sequence[Mapping[int, bool]],
                          variables: Sequence[int]
                          ) -> Dict[int, "object"]:
    """Stack per-query assignments into variable → length-N bool arrays."""
    np = _numpy()
    return {var: np.array([a[var] for a in assignments], dtype=bool)
            for var in variables}


class IrKernel:
    """Dense-array evaluation engine for one flattened circuit."""

    __slots__ = ("ir", "n", "kinds", "lits", "children", "varsets",
                 "or_gap_bits", "or_gap_vars", "budget", "backend",
                 "_codegen", "_scratch",
                 "_model_count", "_sat", "_derivatives", "_certificate")

    def __init__(self, ir: CircuitIR) -> None:
        self.ir = ir
        #: optional Budget; every query pass charges it the circuit
        #: size up front (queries are linear, so one coarse charge per
        #: pass is the whole cost).  With no explicit budget the
        #: ambient one (Budget.scope()) governs.  Kernels are shared
        #: via ir._kernel — prefer the ambient scope unless the IR is
        #: private to the caller.
        self.budget = None
        self.n = n = ir.n
        self.kinds: Tuple[int, ...] = ir.kinds
        self.lits: Tuple[int, ...] = ir.lits
        self.children: List[Tuple[int, ...]] = ir.child_lists()
        varsets = ir.varsets()
        self.varsets = varsets
        # per-or-gate gap data, aligned with self.children[i]
        self.or_gap_bits: List[Optional[Tuple[int, ...]]] = [None] * n
        self.or_gap_vars: List[Optional[Tuple[Tuple[int, ...], ...]]] = \
            [None] * n
        for i in range(n):
            if self.kinds[i] != KIND_OR:
                continue
            node_vars = varsets[i]
            gaps = []
            gap_vars = []
            for c in self.children[i]:
                missing = node_vars - varsets[c]
                gaps.append(len(missing))
                gap_vars.append(tuple(sorted(missing)))
            self.or_gap_bits[i] = tuple(gaps)
            self.or_gap_vars[i] = tuple(gap_vars)
        self._scratch: List = [None] * n
        #: backend override: None defers to ``$REPRO_BACKEND``
        #: (default ``codegen``); see :meth:`set_backend`
        self.backend: Optional[str] = None
        self._codegen: Any = None
        self._model_count: Optional[int] = None
        self._sat: Optional[List[bool]] = None
        self._derivatives: Optional[List[int]] = None
        #: memoized analyze.Certificate (populated by the query gate)
        self._certificate = None

    def invalidate(self) -> None:
        """Drop the memoised pure results (model count, sat flags,
        integer derivatives) *and* any codegen-compiled evaluators, so
        a structurally regenerated circuit can never be served by a
        stale compiled program.  Weighted passes take their weights and
        parameters per call and are never memoised, so this is only
        needed when the *structure* behind a non-interned IR is
        regenerated in place — interned IRs are immutable and never go
        stale."""
        self._model_count = None
        self._sat = None
        self._derivatives = None
        self._codegen = None

    # -- backend selection ---------------------------------------------------
    def set_backend(self, backend: Optional[str]) -> None:
        """Pin this kernel to ``"codegen"`` or ``"interp"``; ``None``
        defers back to ``$REPRO_BACKEND`` (default ``codegen``).  Any
        compiled evaluator is dropped so the choice takes effect
        immediately."""
        if backend is not None:
            resolve_backend(backend)  # validate
        self.backend = backend
        self._codegen = None

    def backend_name(self) -> str:
        """The backend this kernel resolves to right now."""
        return resolve_backend(self.backend)

    def _compiled(self) -> Any:
        """The circuit's CompiledCircuit, or None when the interpreter
        should run (interp backend, unsupported circuit, no numpy).
        The compiled program is cached until :meth:`invalidate` or
        :meth:`set_backend`."""
        if resolve_backend(self.backend) != "codegen":
            return None
        cg = self._codegen
        if cg is None:
            from .codegen import compile_circuit
            try:
                cg = compile_circuit(self)
            except CodegenUnsupported:
                cg = _CODEGEN_UNSUPPORTED
            self._codegen = cg
        return None if cg is _CODEGEN_UNSUPPORTED else cg

    def _charge(self, passes: int = 1) -> None:
        """Charge the (explicit or ambient) budget for ``passes`` full
        sweeps of the circuit; raises BudgetExceeded on exhaustion."""
        budget = resolve_budget(self.budget)
        if budget is not None:
            budget.tick(passes * self.n,
                        partial={"operation": "kernel-pass",
                                 "circuit_nodes": self.n})

    def _gated(self, query: str) -> "IrKernel":
        """The query gate (:mod:`repro.analyze.gate`): the kernel the
        query should run on.  ``trust`` mode returns ``self``
        untouched; ``strict`` raises PropertyViolation when the
        query's required properties are not certified; ``repair``
        may return the kernel of a smoothed twin circuit instead."""
        from ..analyze.gate import check_kernel
        return check_kernel(self, query)

    def _params(self, params: Params, i: int) -> float:
        if params is None:
            raise ValueError(
                "circuit has parameter leaves; pass params= (one value "
                "per KIND_PARAM index)")
        return params[self.lits[i]]

    # -- satisfiability ------------------------------------------------------
    def sat_flags(self, stats: Counter | None = None) -> List[bool]:
        """Per-node satisfiability of a DNNF (memoised)."""
        if self._sat is None:
            self._charge()
            if stats is not None:
                stats.incr("nodes_visited", self.n)
            flags: List[bool] = [False] * self.n
            kinds = self.kinds
            children = self.children
            for i in range(self.n):
                kind = kinds[i]
                if kind == KIND_AND:
                    flags[i] = all(flags[c] for c in children[i])
                elif kind == KIND_OR:
                    flags[i] = any(flags[c] for c in children[i])
                else:
                    flags[i] = kind != KIND_FALSE
            self._sat = flags
        return self._sat

    def sat(self, stats: Counter | None = None) -> bool:
        kernel = self._gated("sat")
        if kernel is not self:
            return kernel.sat(stats)
        if self._sat is None:
            cg = self._compiled()
            if cg is not None:
                try:
                    return cg.sat(stats)
                except CodegenUnsupported:
                    cg.stats.incr("codegen_fallbacks")
        return self.sat_flags(stats)[self.n - 1] if self.n else False

    def sat_model(self, stats: Counter | None = None
                  ) -> Optional[Dict[int, bool]]:
        """A partial satisfying assignment of a DNNF, or None."""
        kernel = self._gated("sat_model")
        if kernel is not self:
            return kernel.sat_model(stats)
        flags = self.sat_flags(stats)
        if not self.n or not flags[self.n - 1]:
            return None
        model: Dict[int, bool] = {}
        stack = [self.n - 1]
        kinds = self.kinds
        while stack:
            i = stack.pop()
            kind = kinds[i]
            if kind == KIND_LIT:
                lit = self.lits[i]
                model[abs(lit)] = lit > 0
            elif kind == KIND_AND:
                stack.extend(self.children[i])
            elif kind == KIND_OR:
                for c in self.children[i]:
                    if flags[c]:
                        stack.append(c)
                        break
        return model

    # -- counting ------------------------------------------------------------
    def model_count(self, stats: Counter | None = None) -> int:
        """#SAT of a d-DNNF over the circuit's own variables (memoised).
        Parameter leaves count as 1 (the support of a weighted circuit).
        """
        kernel = self._gated("count")
        if kernel is not self:
            return kernel.model_count(stats)
        if self._model_count is None:
            cg = self._compiled()
            if cg is not None:
                try:
                    self._model_count = cg.model_count(stats)
                    return self._model_count
                except CodegenUnsupported:
                    cg.stats.incr("codegen_fallbacks")
            self._model_count = self._count_pass(stats)
        elif stats is not None:
            stats.incr("kernel_memo_hits")
        return self._model_count

    def _count_pass(self, stats: Counter | None = None) -> int:
        self._charge()
        if stats is not None:
            stats.incr("nodes_visited", self.n)
        counts = self._scratch
        kinds = self.kinds
        children = self.children
        gap_bits = self.or_gap_bits
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_AND:
                value = 1
                for c in children[i]:
                    value *= counts[c]
                counts[i] = value
            elif kind == KIND_OR:
                total = 0
                gaps = gap_bits[i]
                kids = children[i]
                for k in range(len(kids)):
                    total += counts[kids[k]] << gaps[k]
                counts[i] = total
            else:
                counts[i] = 0 if kind == KIND_FALSE else 1
        return counts[self.n - 1] if self.n else 0

    def wmc(self, weights: Weights, stats: Counter | None = None,
            params: Params = None) -> float:
        """Weighted model count of a d-DNNF over the circuit variables.

        Or-gate gap variables contribute ``W(v) + W(-v)``; the caller
        widens to extra variables the same way.  Parameter leaves read
        ``params`` (PSDD θs) at call time.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc(weights, stats, params)
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.wmc(weights, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        self._charge()
        if stats is not None:
            stats.incr("nodes_visited", self.n)
        values = self._scratch
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        lits = self.lits
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = weights[lits[i]]
            elif kind == KIND_AND:
                value = 1.0
                for c in children[i]:
                    value *= values[c]
                values[i] = value
            elif kind == KIND_OR:
                total = 0.0
                gaps = gap_vars[i]
                kids = children[i]
                for k in range(len(kids)):
                    factor = values[kids[k]]
                    for var in gaps[k]:
                        factor *= weights[var] + weights[-var]
                    total += factor
                values[i] = total
            elif kind == KIND_PARAM:
                values[i] = self._params(params, i)
            else:
                values[i] = 0.0 if kind == KIND_FALSE else 1.0
        return values[self.n - 1] if self.n else 0.0

    # -- optimisation --------------------------------------------------------
    def mpe(self, weights: Weights, stats: Counter | None = None,
            params: Params = None) -> Tuple[float, Dict[int, bool]]:
        """Max-product upward pass plus traceback on a d-DNNF."""
        kernel = self._gated("mpe")
        if kernel is not self:
            return kernel.mpe(weights, stats, params)
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.mpe(weights, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        self._charge()
        if stats is not None:
            stats.incr("nodes_visited", self.n)

        def best_literal(var: int) -> int:
            return var if weights[var] >= weights[-var] else -var

        values: List[float] = [0.0] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        neg_inf = float("-inf")
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = weights[self.lits[i]]
            elif kind == KIND_AND:
                value = 1.0
                for c in children[i]:
                    value *= values[c]
                values[i] = value
            elif kind == KIND_OR:
                best = neg_inf
                gaps = gap_vars[i]
                kids = children[i]
                for k in range(len(kids)):
                    value = values[kids[k]]
                    for var in gaps[k]:
                        value *= weights[best_literal(var)]
                    if value > best:
                        best = value
                values[i] = best
            elif kind == KIND_PARAM:
                values[i] = self._params(params, i)
            else:
                values[i] = neg_inf if kind == KIND_FALSE else 1.0
        assignment: Dict[int, bool] = {}
        if not self.n:
            return 0.0, assignment
        stack = [self.n - 1]
        while stack:
            i = stack.pop()
            kind = kinds[i]
            if kind == KIND_LIT:
                lit = self.lits[i]
                assignment[abs(lit)] = lit > 0
            elif kind == KIND_AND:
                stack.extend(children[i])
            elif kind == KIND_OR:
                gaps = gap_vars[i]
                kids = children[i]
                best_k, best_value = -1, neg_inf
                for k in range(len(kids)):
                    value = values[kids[k]]
                    for var in gaps[k]:
                        value *= weights[best_literal(var)]
                    if value > best_value:
                        best_k, best_value = k, value
                if best_k >= 0:
                    for var in gaps[best_k]:
                        lit = best_literal(var)
                        assignment[abs(lit)] = lit > 0
                    stack.append(kids[best_k])
        return values[self.n - 1], assignment

    # -- marginals -----------------------------------------------------------
    def smooth_or_gates(self) -> bool:
        """True when every or-gate's children share one variable set."""
        for i in range(self.n):
            if self.kinds[i] == KIND_OR and self.children[i]:
                gaps = self.or_gap_bits[i]
                if any(gaps):
                    return False
                first = self.varsets[self.children[i][0]]
                for c in self.children[i][1:]:
                    if self.varsets[c] != first:
                        return False
        return True

    def derivatives(self, stats: Counter | None = None) -> List[int]:
        """d(root count)/d(node) for every node of a smooth d-DNNF
        (memoised): the downward differential pass of the marginals
        algorithm."""
        # gate only (never delegated: the result is indexed by this
        # kernel's node ids — repair mode callers use marginals())
        self._gated("derivatives")
        if self._derivatives is not None:
            if stats is not None:
                stats.incr("kernel_memo_hits")
            return self._derivatives
        self._charge(2)
        if stats is not None:
            stats.incr("nodes_visited", 2 * self.n)
        counts: List[int] = [0] * self.n
        kinds = self.kinds
        children = self.children
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_AND:
                value = 1
                for c in children[i]:
                    value *= counts[c]
                counts[i] = value
            elif kind == KIND_OR:
                if self.children[i] and \
                        len({self.varsets[c] for c in children[i]}) != 1:
                    raise ValueError(
                        "marginal_counts requires a smooth circuit")
                counts[i] = sum(counts[c] for c in children[i])
            else:
                counts[i] = 0 if kind == KIND_FALSE else 1
        derivative: List[int] = [0] * self.n
        if self.n:
            derivative[self.n - 1] = 1
        for i in range(self.n - 1, -1, -1):
            d = derivative[i]
            kind = kinds[i]
            if d == 0 or (kind != KIND_AND and kind != KIND_OR):
                continue
            kids = children[i]
            if kind == KIND_OR:
                for c in kids:
                    derivative[c] += d
            else:
                for c in kids:
                    partial = d
                    for s in kids:
                        if s != c:
                            partial *= counts[s]
                    derivative[c] += partial
        self._derivatives = derivative
        return derivative

    def marginals(self, stats: Counter | None = None) -> Dict[int, int]:
        """Literal → number of root models containing it (smooth
        d-DNNF); unmentioned variables are the caller's concern."""
        kernel = self._gated("marginals")
        if kernel is not self:
            return kernel.marginals(stats)
        derivative = self.derivatives(stats)
        result: Dict[int, int] = {}
        for i in range(self.n):
            if self.kinds[i] == KIND_LIT:
                lit = self.lits[i]
                result[lit] = result.get(lit, 0) + derivative[i]
        return result

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, assignment: Mapping[int, bool],
                 stats: Counter | None = None) -> bool:
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.evaluate(assignment, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        self._charge()
        if stats is not None:
            stats.incr("nodes_visited", self.n)
        values = self._scratch
        kinds = self.kinds
        children = self.children
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                lit = self.lits[i]
                value = assignment[abs(lit)]
                values[i] = value if lit > 0 else not value
            elif kind == KIND_AND:
                values[i] = all(values[c] for c in children[i])
            elif kind == KIND_OR:
                values[i] = any(values[c] for c in children[i])
            else:
                values[i] = kind != KIND_FALSE
        return bool(values[self.n - 1]) if self.n else False

    # -- batched passes ------------------------------------------------------
    # One numpy row of length N per node: the Python loop stays O(nodes)
    # while every gate covers the whole batch in C.

    @staticmethod
    def _batch_size(batch: WeightBatch) -> int:
        for value in batch.values():
            return len(value)
        raise ValueError("cannot infer the batch size from an empty "
                         "weight/assignment batch")

    def _count_batch_stats(self, stats: Counter | None, batch: int,
                           passes: int = 1) -> None:
        self._charge(passes)
        if stats is not None:
            stats.incr("nodes_visited", passes * self.n)
            stats.incr("batch_columns", batch)

    def wmc_batch(self, weights: WeightBatch,
                  stats: Counter | None = None,
                  params: Params = None) -> Any:
        """Weighted model counts of N weight vectors in one pass.

        ``weights`` maps every needed literal to a length-N array (see
        :func:`pack_weight_batch`).  Returns a length-N float array;
        column ``j`` equals ``self.wmc(column j of weights)``.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc_batch(weights, stats, params)
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.wmc_batch(weights, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        np = _numpy()
        batch = self._batch_size(weights)
        self._count_batch_stats(stats, batch)
        values: List = [None] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        lits = self.lits
        ones = np.ones(batch)
        zeros = np.zeros(batch)
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = weights[lits[i]]
            elif kind == KIND_AND:
                value = ones
                for c in children[i]:
                    value = value * values[c]
                values[i] = value
            elif kind == KIND_OR:
                total = zeros
                gaps = gap_vars[i]
                kids = children[i]
                for k in range(len(kids)):
                    factor = values[kids[k]]
                    for var in gaps[k]:
                        factor = factor * (weights[var] + weights[-var])
                    total = total + factor
                values[i] = total
            elif kind == KIND_PARAM:
                values[i] = ones * self._params(params, i)
            else:
                values[i] = zeros if kind == KIND_FALSE else ones
        return values[self.n - 1].copy() if self.n else zeros

    def wmc_log_batch(self, log_weights: WeightBatch,
                      stats: Counter | None = None,
                      params: Params = None) -> Any:
        """Log-space :meth:`wmc_batch`: inputs and output are log
        weights (``-inf`` for weight zero), so deep circuits with tiny
        per-model weights cannot underflow.  ``params`` stays linear
        and is logged here.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc_log_batch(log_weights, stats, params)
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.wmc_log_batch(log_weights, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        np = _numpy()
        batch = self._batch_size(log_weights)
        self._count_batch_stats(stats, batch)
        values: List = [None] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        lits = self.lits
        zeros = np.zeros(batch)
        neg_inf = np.full(batch, -np.inf)
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = log_weights[lits[i]]
            elif kind == KIND_AND:
                value = zeros
                for c in children[i]:
                    value = value + values[c]
                values[i] = value
            elif kind == KIND_OR:
                gaps = gap_vars[i]
                kids = children[i]
                if not kids:
                    values[i] = neg_inf
                    continue
                rows = []
                for k in range(len(kids)):
                    row = values[kids[k]]
                    for var in gaps[k]:
                        row = row + np.logaddexp(log_weights[var],
                                                 log_weights[-var])
                    rows.append(row)
                total = rows[0]
                for row in rows[1:]:
                    total = np.logaddexp(total, row)
                values[i] = total
            elif kind == KIND_PARAM:
                theta = self._params(params, i)
                with np.errstate(divide="ignore"):
                    values[i] = zeros + np.log(theta)
            else:
                values[i] = neg_inf if kind == KIND_FALSE else zeros
        return values[self.n - 1].copy() if self.n else neg_inf

    def evaluate_batch(self, assignment: WeightBatch,
                       stats: Counter | None = None) -> Any:
        """Evaluate N complete assignments in one pass.

        ``assignment`` maps every circuit variable to a length-N bool
        array (see :func:`pack_assignment_batch`); returns a length-N
        bool array.
        """
        cg = self._compiled()
        if cg is not None:
            try:
                return cg.evaluate_batch(assignment, stats)
            except CodegenUnsupported:
                cg.stats.incr("codegen_fallbacks")
        np = _numpy()
        batch = self._batch_size(assignment)
        self._count_batch_stats(stats, batch)
        values: List = [None] * self.n
        kinds = self.kinds
        children = self.children
        true_row = np.ones(batch, dtype=bool)
        false_row = np.zeros(batch, dtype=bool)
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                lit = self.lits[i]
                column = assignment[abs(lit)]
                values[i] = column if lit > 0 else ~column
            elif kind == KIND_AND:
                value = true_row
                for c in children[i]:
                    value = value & values[c]
                values[i] = value
            elif kind == KIND_OR:
                value = false_row
                for c in children[i]:
                    value = value | values[c]
                values[i] = value
            else:
                values[i] = false_row if kind == KIND_FALSE else true_row
        return values[self.n - 1].copy() if self.n else false_row

    def derivatives_batch(self, weights: WeightBatch,
                          stats: Counter | None = None,
                          params: Params = None) -> Tuple[Any, Any]:
        """Upward values and downward derivatives for N weight vectors.

        Returns ``(values, derivatives)``, two lists of length-N arrays
        indexed by dense node id: ``derivatives[i][j]`` is
        ∂(root value)/∂(node i value) under weight vector ``j``.  And
        gates distribute to their children with linear prefix/suffix
        products (no sibling re-multiplication); or-gate gap variables
        contribute their ``W(v) + W(-v)`` factor on the edge.
        """
        self._gated("derivatives")  # gate only: node-indexed result
        np = _numpy()
        batch = self._batch_size(weights)
        self._count_batch_stats(stats, batch, passes=2)
        values: List = [None] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        lits = self.lits
        ones = np.ones(batch)
        zeros = np.zeros(batch)
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = weights[lits[i]]
            elif kind == KIND_AND:
                value = ones
                for c in children[i]:
                    value = value * values[c]
                values[i] = value
            elif kind == KIND_OR:
                total = zeros
                gaps = gap_vars[i]
                kids = children[i]
                for k in range(len(kids)):
                    factor = values[kids[k]]
                    for var in gaps[k]:
                        factor = factor * (weights[var] + weights[-var])
                    total = total + factor
                values[i] = total
            elif kind == KIND_PARAM:
                values[i] = ones * self._params(params, i)
            else:
                values[i] = zeros if kind == KIND_FALSE else ones
        derivative: List = [zeros] * self.n
        if self.n:
            derivative[self.n - 1] = ones
        for i in range(self.n - 1, -1, -1):
            kind = kinds[i]
            if kind != KIND_AND and kind != KIND_OR:
                continue
            d = derivative[i]
            kids = children[i]
            if kind == KIND_OR:
                gaps = gap_vars[i]
                for k in range(len(kids)):
                    edge = d
                    for var in gaps[k]:
                        edge = edge * (weights[var] + weights[-var])
                    derivative[kids[k]] = derivative[kids[k]] + edge
            else:
                k = len(kids)
                # prefix[j] = Π values of kids < j; suffix from the right
                prefix = ones
                prefixes = [None] * k
                for j in range(k):
                    prefixes[j] = prefix
                    prefix = prefix * values[kids[j]]
                suffix = ones
                for j in range(k - 1, -1, -1):
                    derivative[kids[j]] = derivative[kids[j]] + \
                        d * prefixes[j] * suffix
                    suffix = suffix * values[kids[j]]
        return values, derivative

    def derivatives_log_batch(self, log_weights: WeightBatch,
                              stats: Counter | None = None,
                              params: Params = None) -> Tuple[Any, Any]:
        """Log-space :meth:`derivatives_batch` (values and derivatives
        are logs; ``-inf`` encodes zero)."""
        self._gated("derivatives")  # gate only: node-indexed result
        np = _numpy()
        batch = self._batch_size(log_weights)
        self._count_batch_stats(stats, batch, passes=2)
        values: List = [None] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        lits = self.lits
        zeros = np.zeros(batch)
        neg_inf = np.full(batch, -np.inf)
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_LIT:
                values[i] = log_weights[lits[i]]
            elif kind == KIND_AND:
                value = zeros
                for c in children[i]:
                    value = value + values[c]
                values[i] = value
            elif kind == KIND_OR:
                gaps = gap_vars[i]
                kids = children[i]
                if not kids:
                    values[i] = neg_inf
                    continue
                total = None
                for k in range(len(kids)):
                    row = values[kids[k]]
                    for var in gaps[k]:
                        row = row + np.logaddexp(log_weights[var],
                                                 log_weights[-var])
                    total = row if total is None else \
                        np.logaddexp(total, row)
                values[i] = total
            elif kind == KIND_PARAM:
                theta = self._params(params, i)
                with np.errstate(divide="ignore"):
                    values[i] = zeros + np.log(theta)
            else:
                values[i] = neg_inf if kind == KIND_FALSE else zeros
        derivative: List = [neg_inf] * self.n
        if self.n:
            derivative[self.n - 1] = zeros
        for i in range(self.n - 1, -1, -1):
            kind = kinds[i]
            if kind != KIND_AND and kind != KIND_OR:
                continue
            d = derivative[i]
            kids = children[i]
            if kind == KIND_OR:
                gaps = gap_vars[i]
                for k in range(len(kids)):
                    edge = d
                    for var in gaps[k]:
                        edge = edge + np.logaddexp(log_weights[var],
                                                   log_weights[-var])
                    derivative[kids[k]] = np.logaddexp(
                        derivative[kids[k]], edge)
            else:
                k = len(kids)
                prefix = zeros
                prefixes = [None] * k
                for j in range(k):
                    prefixes[j] = prefix
                    prefix = prefix + values[kids[j]]
                suffix = zeros
                for j in range(k - 1, -1, -1):
                    derivative[kids[j]] = np.logaddexp(
                        derivative[kids[j]], d + prefixes[j] + suffix)
                    suffix = suffix + values[kids[j]]
        return values, derivative


def ir_kernel(ir: CircuitIR) -> IrKernel:
    """The (cached) kernel for ``ir``.

    Cached on the IR object itself; since interned IRs are shared, two
    structurally identical circuits lowered independently get the same
    kernel (and its memoised pure results).
    """
    kernel = ir._kernel
    if kernel is None:
        kernel = ir._kernel = IrKernel(ir)
    return kernel
