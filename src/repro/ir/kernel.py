"""The single circuit execution engine over the flattened IR.

One :class:`IrKernel` per :class:`~repro.ir.core.CircuitIR` (obtain it
with :func:`ir_kernel`; it is cached on the IR object, and IR interning
makes structurally identical circuits share it).  The kernel owns the
derived evaluation data — per-node variable sets and, for every
or-gate edge, the *gap* variables the child is missing — and answers
every query family on the circuit:

* sat / sat model (decomposability),
* model count and WMC (determinism; non-smooth circuits handled by
  scaling or-gate gaps),
* MPE upward max-product pass plus traceback,
* count and WMC derivatives (smoothness),
* evaluation under complete assignments,
* the numpy batch variants of WMC / evaluation / derivatives (one
  length-N row per node, linear and log space).

Count, WMC (scalar, batch, log batch), MPE and marginals take a
keyword ``scope``: the variables the answer ranges over.  A variable
a sub-circuit does not mention contributes its semiring's gap factor
on every or-edge, and the root's gap — the scope variables the whole
circuit never mentions — is applied the same way after either
backend's pass, so no caller widens an answer itself.  ``scope=None``
answers over the circuit's own variables.

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
(:mod:`repro.ir.codegen`): unless ``$REPRO_BACKEND=interp`` selects
the interpreter, supported circuits run through the circuit's
levelized plan — one numpy call per run of same-kind gates, built
in-process once per circuit — and only fall back to the interpreter
on :class:`~repro.ir.codegen.CodegenUnsupported` (parameterised
circuits, counts beyond float64's exact range, literal-free batches,
no numpy).  Both backends charge the same budget and pass the same
gate.

The interpreter is one upward fold (:meth:`IrKernel._up`) and one
downward pass (:meth:`IrKernel._down`) over the CSR arrays, each
taking a :class:`_Semiring`.  Every query is the same bottom-up pass
in a different semiring — linear (exact counts, WMC, the values under
derivatives), log (log-space batches), max-product (MPE) and boolean
(sat, evaluation) — and the derivative passes add the same top-down
pass.  It walks the arrays node by node and never reads the plan, so
it stays an independent reference for it, and it is the only engine
for parameter leaves, counts past 52 variables, derivatives and sat
models.

numpy is imported lazily on the first batch call, so the scalar kernel
works (and this module imports) without numpy.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import (Any, Callable, Collection, Dict, FrozenSet, Iterable,
                    Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..limits.budget import resolve_budget
from ..perf.instrument import Counter
from .codegen import CodegenUnsupported, resolve_backend
from .core import (CircuitIR, KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR,
                   KIND_TRUE)

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
#: the variables an or-gate child does not mention (its edge's gap)
Gap = Tuple[int, ...]
#: the variables a query's answer ranges over (None: the circuit's own)
Scope = Optional[Iterable[int]]


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


# -- semirings ----------------------------------------------------------------

class _Semiring(NamedTuple):
    """What one pass computes in.  Gates fold their children left to
    right with ``mul`` (and) or ``add`` (or), starting from ``one`` or
    ``zero``, which are also the values of ⊤ and ⊥; ``leaf(i)`` is the
    value of literal or parameter leaf ``i``, and ``gap(value,
    variables)`` scales an or-edge by the variables its child does not
    mention."""
    zero: Any
    one: Any
    mul: Callable[[Any, Any], Any]
    add: Callable[[Any, Any], Any]
    leaf: Callable[[int], Any]
    gap: Callable[[Any, Gap], Any]


def _shift(count: int, gap: Gap) -> int:
    """Each free variable doubles a count."""
    return count << len(gap)


def _not_smooth(value: Any, gap: Gap) -> Any:
    raise ValueError("marginal_counts requires a smooth circuit")


def _literals(variables: Collection[int]) -> Iterator[int]:
    """Both literals of every variable."""
    return chain(variables, map(operator.neg, variables))


def _max(best: Any, value: Any) -> Any:
    """The max-product sum: the first of equal maxima wins, as in
    ``max``, at a third of its call cost."""
    return value if value > best else best


#: exact model counts over Python ints
_COUNT = _Semiring(0, 1, operator.mul, operator.add, lambda i: 1, _shift)
#: the counts under derivatives, which need a smooth circuit
_SMOOTH_COUNT = _COUNT._replace(gap=_not_smooth)
#: per-node satisfiability of a DNNF (``v ∨ ¬v`` holds, so an or-edge
#: keeps its value)
_SAT = _Semiring(False, True, operator.and_, operator.or_,
                 lambda i: True, lambda value, gap: value)


def _weighted_gap(weights: Mapping[int, Any],
                  mul: Callable[[Any, Any], Any],
                  add: Callable[[Any, Any], Any]
                  ) -> Callable[[Any, Gap], Any]:
    """The gap factor of a weighted semiring: each free variable
    multiplies the edge by the sum of its two literals' weights."""
    def gap(value: Any, variables: Gap) -> Any:
        for var in variables:
            value = mul(value, add(weights[var], weights[-var]))
        return value
    return gap


def _weighted(zero: Any, one: Any, mul: Callable[[Any, Any], Any],
              add: Callable[[Any, Any], Any], leaf: Callable[[int], Any],
              weights: Mapping[int, Any]) -> _Semiring:
    return _Semiring(zero, one, mul, add, leaf,
                     _weighted_gap(weights, mul, add))


class IrKernel:
    """Dense-array evaluation engine for one flattened circuit."""

    __slots__ = ("ir", "n", "kinds", "lits", "children", "varsets",
                 "or_gap_vars", "budget", "_codegen",
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
        #: per or-gate, the gap of every edge (aligned with
        #: ``self.children[i]``); ``()`` for every other node
        self.or_gap_vars: List[Tuple[Gap, ...]] = [()] * n
        for i in range(n):
            if self.kinds[i] == KIND_OR:
                node_vars = varsets[i]
                self.or_gap_vars[i] = tuple(
                    tuple(sorted(node_vars - varsets[c]))
                    for c in self.children[i])
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
    def _compiled(self) -> Any:
        """The circuit's CompiledCircuit, or None when the interpreter
        should run (``$REPRO_BACKEND=interp``, unsupported circuit, no
        numpy).  The compiled program is cached until
        :meth:`invalidate`."""
        if resolve_backend() != "codegen":
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

    def _via_codegen(self, query: str, *args: Any) -> Any:
        """``query``'s answer from the circuit's levelized plan, or
        None when the interpreter answers instead: under the interp
        backend, on a circuit the plan does not cover, or when the
        plan declines this call (counted in ``codegen_fallbacks``).
        No plan query answers None."""
        cg = self._compiled()
        if cg is None:
            return None
        try:
            return getattr(cg, query)(*args)
        except CodegenUnsupported:
            cg.stats.incr("codegen_fallbacks")
            return None

    def _charge(self, passes: int = 1) -> None:
        """Charge the (explicit or ambient) budget for ``passes`` full
        sweeps of the circuit; raises BudgetExceeded on exhaustion."""
        budget = resolve_budget(self.budget)
        if budget is not None:
            budget.tick(passes * self.n,
                        partial={"operation": "kernel-pass",
                                 "circuit_nodes": self.n})

    def _sweeps(self, stats: Counter | None, passes: int = 1,
                batch: Optional[int] = None) -> None:
        """Charge and count ``passes`` interpreted sweeps (over
        ``batch`` columns for the batched passes)."""
        self._charge(passes)
        if stats is not None:
            stats.incr("nodes_visited", passes * self.n)
            if batch is not None:
                stats.incr("batch_columns", batch)

    def variables(self) -> FrozenSet[int]:
        """The variables the circuit mentions."""
        return self.varsets[self.n - 1] if self.n else frozenset()

    def _root_gap(self, scope: Scope) -> Gap:
        """The root's gap: the ``scope`` variables the circuit never
        mentions, ascending (``()`` when ``scope`` is None).  A scope
        that misses a circuit variable raises ValueError."""
        if scope is None:
            return ()
        variables = scope if isinstance(scope, (set, frozenset)) \
            else set(scope)
        own = self.variables()
        if not own <= variables:
            raise ValueError(f"scope misses circuit variables "
                             f"{sorted(own - variables)}")
        return tuple(sorted(variables - own))

    def _gated(self, query: str) -> "IrKernel":
        """The query gate (:mod:`repro.analyze.gate`): the kernel the
        query should run on.  ``trust`` mode returns ``self``
        untouched; ``strict`` raises PropertyViolation when the
        query's required properties are not certified; ``repair``
        may return the kernel of a smoothed twin circuit instead."""
        from ..analyze.gate import check_kernel
        return check_kernel(self, query)

    def _leaf(self, weights: Mapping[int, Any],
              param: Optional[Callable[[Any], Any]],
              params: Params) -> Callable[[int], Any]:
        """Leaf values of a weighted pass: a literal's weight, and a
        parameter leaf's θ, read from ``params`` now (``param(θ)`` when
        given)."""
        kinds = self.kinds
        lits = self.lits

        def leaf(i: int) -> Any:
            if kinds[i] == KIND_LIT:
                return weights[lits[i]]
            if params is None:
                raise ValueError(
                    "circuit has parameter leaves; pass params= (one "
                    "value per KIND_PARAM index)")
            theta = params[lits[i]]
            return theta if param is None else param(theta)
        return leaf

    # -- the interpreter -----------------------------------------------------
    def _up(self, semiring: _Semiring) -> List[Any]:
        """The upward fold: every node's value in ``semiring``,
        children before parents."""
        zero, one, mul, add, leaf, gap = semiring
        values: List[Any] = [zero] * self.n
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        for i in range(self.n):
            kind = kinds[i]
            if kind == KIND_AND:
                value = one
                for c in children[i]:
                    value = mul(value, values[c])
                values[i] = value
            elif kind == KIND_OR:
                value = zero
                gaps = gap_vars[i]
                k = 0
                for c in children[i]:
                    g = gaps[k]
                    value = add(value, gap(values[c], g) if g else values[c])
                    k += 1
                values[i] = value
            elif kind == KIND_TRUE:
                values[i] = one
            elif kind != KIND_FALSE:
                values[i] = leaf(i)
        return values

    def _down(self, semiring: _Semiring, values: List[Any]) -> List[Any]:
        """The downward pass: d(root)/d(node) for every node, given the
        upward ``values`` in the same semiring.  An or-gate passes its
        derivative to each child through the edge's gap factor; an
        and-gate passes it times the product of the other children,
        from prefix and suffix products."""
        zero, one, mul, add, _, gap = semiring
        derivative: List[Any] = [zero] * self.n
        if self.n:
            derivative[self.n - 1] = one
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        for i in range(self.n - 1, -1, -1):
            kind = kinds[i]
            if kind == KIND_OR:
                d = derivative[i]
                gaps = gap_vars[i]
                k = 0
                for c in children[i]:
                    g = gaps[k]
                    derivative[c] = add(derivative[c],
                                        gap(d, g) if g else d)
                    k += 1
            elif kind == KIND_AND:
                d = derivative[i]
                kids = children[i]
                prefixes = []
                prefix = one
                for c in kids:
                    prefixes.append(prefix)
                    prefix = mul(prefix, values[c])
                suffix = one
                for j in range(len(kids) - 1, -1, -1):
                    c = kids[j]
                    derivative[c] = add(derivative[c],
                                        mul(mul(d, prefixes[j]), suffix))
                    suffix = mul(suffix, values[c])
        return derivative

    def _traceback(self, value: Callable[[int], float],
                   weights: Weights) -> Dict[int, bool]:
        """The MPE assignment below the root: and-gates expand every
        child, or-gates their first best-scoring edge, whose gap
        variables take their heavier literal.  ``value(i)`` is node
        ``i``'s max-product value, from the interpreter or the plan."""
        assignment: Dict[int, bool] = {}
        gap = _weighted_gap(weights, operator.mul, _max)
        kinds = self.kinds
        children = self.children
        gap_vars = self.or_gap_vars
        neg_inf = float("-inf")
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
                    score = gap(value(kids[k]), gaps[k])
                    if score > best_value:
                        best_k, best_value = k, score
                if best_k >= 0:
                    for var in gaps[best_k]:
                        assignment[var] = weights[var] >= weights[-var]
                    stack.append(kids[best_k])
        return assignment

    # -- satisfiability ------------------------------------------------------
    def sat_flags(self, stats: Counter | None = None) -> List[bool]:
        """Per-node satisfiability of a DNNF (memoised)."""
        if self._sat is None:
            self._sweeps(stats)
            self._sat = self._up(_SAT)
        return self._sat

    def sat(self, stats: Counter | None = None) -> bool:
        kernel = self._gated("sat")
        if kernel is not self:
            return kernel.sat(stats)
        if self._sat is None:
            answer = self._via_codegen("sat", stats)
            if answer is not None:
                return answer
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
    def model_count(self, stats: Counter | None = None, *,
                    scope: Scope = None) -> int:
        """#SAT of a d-DNNF over ``scope`` (the circuit's own variables
        are memoised; each scope variable the circuit never mentions
        doubles the count).  Parameter leaves count as 1 (the support
        of a weighted circuit).
        """
        kernel = self._gated("count")
        if kernel is not self:
            return kernel.model_count(stats, scope=scope)
        gap = self._root_gap(scope)
        if self._model_count is None:
            count = self._via_codegen("model_count", stats)
            if count is None:
                self._sweeps(stats)
                count = self._up(_COUNT)[self.n - 1] if self.n else 0
            self._model_count = count
        elif stats is not None:
            stats.incr("kernel_memo_hits")
        return _COUNT.gap(self._model_count, gap)

    def wmc(self, weights: Weights, stats: Counter | None = None,
            params: Params = None, *, scope: Scope = None) -> float:
        """Weighted model count of a d-DNNF over ``scope``.

        Gap variables — of an or-edge, or scope variables the circuit
        never mentions — contribute ``W(v) + W(-v)``.  Parameter
        leaves read ``params`` (PSDD θs) at call time.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc(weights, stats, params, scope=scope)
        gap = self._root_gap(scope)
        semiring = _weighted(0.0, 1.0, operator.mul, operator.add,
                             self._leaf(weights, None, params), weights)
        value = self._via_codegen("wmc", weights, stats)
        if value is None:
            self._sweeps(stats)
            value = self._up(semiring)[self.n - 1] if self.n else 0.0
        return semiring.gap(value, gap)

    # -- optimisation --------------------------------------------------------
    def mpe(self, weights: Weights, stats: Counter | None = None,
            params: Params = None, *, scope: Scope = None
            ) -> Tuple[float, Dict[int, bool]]:
        """Max-product upward pass plus traceback on a d-DNNF.  Each
        scope variable the circuit never mentions multiplies the value
        by its heavier literal's weight, and that literal joins the
        model (ties go positive, as in the traceback).  An
        unsatisfiable circuit answers the semiring's zero, ``-inf``,
        which no gap extends (the traceback likewise never follows a
        ``-inf`` edge)."""
        kernel = self._gated("mpe")
        if kernel is not self:
            return kernel.mpe(weights, stats, params, scope=scope)
        gap = self._root_gap(scope)
        semiring = _weighted(float("-inf"), 1.0, operator.mul, _max,
                             self._leaf(weights, None, params), weights)
        answer = self._via_codegen("mpe", weights, stats)
        if answer is None:
            self._sweeps(stats)
            if self.n:
                values = self._up(semiring)
                answer = values[self.n - 1], self._traceback(
                    values.__getitem__, weights)
            else:
                answer = 0.0, {}
        value, model = answer
        if value == semiring.zero:
            return answer
        for var in gap:
            model[var] = weights[var] >= weights[-var]
        return semiring.gap(value, gap), model

    # -- marginals -----------------------------------------------------------
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
        self._sweeps(stats, passes=2)
        counts = self._up(_SMOOTH_COUNT)
        self._derivatives = self._down(_SMOOTH_COUNT, counts)
        return self._derivatives

    def weighted_derivatives(self, weights: Weights,
                             stats: Counter | None = None,
                             params: Params = None
                             ) -> Tuple[List[float], List[float]]:
        """The scalar :meth:`derivatives_batch`: every node's value and
        ∂(root value)/∂(node value) under one weight map, from the
        upward and downward passes in :meth:`wmc`'s linear semiring."""
        self._gated("derivatives")  # gate only: node-indexed result
        semiring = _weighted(0.0, 1.0, operator.mul, operator.add,
                             self._leaf(weights, None, params), weights)
        self._sweeps(stats, passes=2)
        values = self._up(semiring)
        return values, self._down(semiring, values)

    def marginals(self, stats: Counter | None = None, *,
                  scope: Scope = None) -> Dict[int, int]:
        """Literal → number of root models containing it (smooth
        d-DNNF), over the circuit's literal leaves.  With a ``scope``,
        the models range over its variables and every scope literal
        gets a key: mentioned counts are shifted by the root gap, and
        each literal of a gap variable holds half the widened count."""
        kernel = self._gated("marginals")
        if kernel is not self:
            return kernel.marginals(stats, scope=scope)
        gap = self._root_gap(scope)
        derivative = self.derivatives(stats)
        # with a scope, a polarity no leaf carries reads 0 (no model
        # holds it) instead of going missing
        result: Dict[int, int] = {} if scope is None else dict.fromkeys(
            _literals(self.variables()), 0)
        for i in range(self.n):
            if self.kinds[i] == KIND_LIT:
                lit = self.lits[i]
                result[lit] = result.get(lit, 0) + derivative[i]
        if gap:
            # every model extends both ways over the gap, so half of
            # the widened count holds each of its literals
            shift = len(gap)
            result = {lit: count << shift for lit, count in result.items()}
            result.update(dict.fromkeys(
                _literals(gap), self.model_count(stats) << (shift - 1)))
        return result

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, assignment: Mapping[int, bool],
                 stats: Counter | None = None) -> bool:
        answer = self._via_codegen("evaluate", assignment, stats)
        if answer is not None:
            return answer
        self._sweeps(stats)
        kinds = self.kinds
        lits = self.lits

        def leaf(i: int) -> bool:
            if kinds[i] != KIND_LIT:
                return True  # a parameter leaf holds
            lit = lits[i]
            return bool(assignment[abs(lit)]) == (lit > 0)
        values = self._up(_SAT._replace(leaf=leaf))
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

    def _linear_batch(self, weights: WeightBatch,
                      params: Params) -> _Semiring:
        """The linear semiring over length-N rows."""
        np = _numpy()
        ones = np.ones(self._batch_size(weights))
        return _weighted(np.zeros(len(ones)), ones, operator.mul,
                         operator.add,
                         self._leaf(weights, ones.__mul__, params), weights)

    def _log_batch(self, log_weights: WeightBatch,
                   params: Params) -> _Semiring:
        """The log semiring over length-N rows (``-inf`` is zero)."""
        np = _numpy()
        zeros = np.zeros(self._batch_size(log_weights))

        def log_param(theta: Any) -> Any:
            with np.errstate(divide="ignore"):
                return zeros + np.log(theta)
        return _weighted(np.full(len(zeros), -np.inf), zeros, operator.add,
                         np.logaddexp,
                         self._leaf(log_weights, log_param, params),
                         log_weights)

    def _batch_root(self, semiring: _Semiring,
                    stats: Counter | None) -> Any:
        """The interpreter's root row of one batched sweep (a copy: a
        leaf's row may be the caller's array)."""
        self._sweeps(stats, batch=len(semiring.one))
        if not self.n:
            return semiring.zero
        return self._up(semiring)[self.n - 1].copy()

    def wmc_batch(self, weights: WeightBatch,
                  stats: Counter | None = None,
                  params: Params = None, *, scope: Scope = None) -> Any:
        """Weighted model counts of N weight vectors in one pass.

        ``weights`` maps every needed literal to a length-N array (see
        :func:`pack_weight_batch`).  Returns a length-N float array;
        column ``j`` equals ``self.wmc(column j of weights, scope=scope)``.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc_batch(weights, stats, params, scope=scope)
        gap = self._root_gap(scope)
        semiring = self._linear_batch(weights, params)
        values = self._via_codegen("wmc_batch", weights, stats)
        if values is None:
            values = self._batch_root(semiring, stats)
        return semiring.gap(values, gap)

    def wmc_log_batch(self, log_weights: WeightBatch,
                      stats: Counter | None = None,
                      params: Params = None, *, scope: Scope = None) -> Any:
        """Log-space :meth:`wmc_batch`: inputs and output are log
        weights (``-inf`` for weight zero), so deep circuits with tiny
        per-model weights cannot underflow; a gap variable adds the
        ``logaddexp`` of its two literals.  ``params`` stays linear and
        is logged here.
        """
        kernel = self._gated("wmc")
        if kernel is not self:
            return kernel.wmc_log_batch(log_weights, stats, params,
                                        scope=scope)
        gap = self._root_gap(scope)
        semiring = self._log_batch(log_weights, params)
        values = self._via_codegen("wmc_log_batch", log_weights, stats)
        if values is None:
            values = self._batch_root(semiring, stats)
        return semiring.gap(values, gap)

    def evaluate_batch(self, assignment: WeightBatch,
                       stats: Counter | None = None) -> Any:
        """Evaluate N complete assignments in one pass.

        ``assignment`` maps every circuit variable to a length-N bool
        array (see :func:`pack_assignment_batch`); returns a length-N
        bool array.
        """
        answer = self._via_codegen("evaluate_batch", assignment, stats)
        if answer is not None:
            return answer
        np = _numpy()
        batch = self._batch_size(assignment)
        self._sweeps(stats, batch=batch)
        true_row = np.ones(batch, dtype=bool)
        false_row = np.zeros(batch, dtype=bool)
        kinds = self.kinds
        lits = self.lits

        def leaf(i: int) -> Any:
            if kinds[i] != KIND_LIT:
                return true_row  # a parameter leaf holds
            lit = lits[i]
            column = assignment[abs(lit)]
            return column if lit > 0 else ~column
        values = self._up(_SAT._replace(zero=false_row, one=true_row,
                                        leaf=leaf))
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
        semiring = self._linear_batch(weights, params)
        self._sweeps(stats, 2, len(semiring.one))
        values = self._up(semiring)
        return values, self._down(semiring, values)

    def derivatives_log_batch(self, log_weights: WeightBatch,
                              stats: Counter | None = None,
                              params: Params = None) -> Tuple[Any, Any]:
        """Log-space :meth:`derivatives_batch` (values and derivatives
        are logs; ``-inf`` encodes zero)."""
        self._gated("derivatives")  # gate only: node-indexed result
        semiring = self._log_batch(log_weights, params)
        self._sweeps(stats, 2, len(semiring.one))
        values = self._up(semiring)
        return values, self._down(semiring, values)


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
