"""Per-circuit levelized evaluators: the codegen backend of the kernel.

The paper's bargain is *compile once, query fast many times* — but an
interpreted Python loop over the CSR arrays pays per-node dispatch on
every query.  This module walks the arrays **once per circuit** and
builds a levelized plan: nodes are permuted so every run of same-kind
gates at one depth is contiguous, and each run becomes one numpy call
(a gather plus an elementwise ufunc, an axis-1 reduction or a
``reduceat`` segment reduction) writing directly into a contiguous
slice of the value vector.  Each forward pass — linear, log,
max-product and boolean — binds the plan's steps to its semiring's
ufuncs once; a query runs the bound steps in order.  One plan serves
scalar *and* batched calls (a value row per node).

The evaluator is derived in-process from the circuit and nothing else:
no source text is generated, the artifact store is neither read nor
written, and no bytes reach ``compile``/``exec`` (the invariant lint's
``no-exec`` rule, ``tools/lint_invariants.py``, bans them everywhere).

Supported queries: sat, model count, WMC (scalar / batch / log-batch),
MPE (vectorized upward pass + the interpreter's traceback) and
evaluation (scalar / batch).  Anything else — parameterised circuits
(``KIND_PARAM`` leaves mid-EM), counts past float64's exact-integer
range, empty circuits — raises :class:`CodegenUnsupported` and the
kernel falls back to the interpreter (see
``docs/architecture.md`` for the full fallback table).

Budget charging does not bypass the governor: every forward pass
charges one kernel pass (:meth:`IrKernel._charge`) before touching the
arrays.
"""

from __future__ import annotations

import operator
import os
import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..perf.instrument import Counter
from .core import (KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR, KIND_PARAM,
                   KIND_TRUE)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import IrKernel

__all__ = ["BACKEND_ENV", "BACKENDS", "CodegenUnsupported",
           "resolve_backend", "CompiledCircuit", "compile_circuit"]

#: environment variable selecting the default kernel backend
BACKEND_ENV = "REPRO_BACKEND"

BACKENDS = ("codegen", "interp")

#: model counts are run through the float64 pipeline only while every
#: intermediate is an exact integer: counts are bounded by 2**|vars|,
#: so this is safe up to 52 circuit variables (< 2**53)
_EXACT_COUNT_VARS = 52

#: an arity class is split into its own uniform-arity step (fast
#: elementwise path) only when it spans at least this many edges —
#: below that, the saved reduceat time does not pay for the extra
#: per-step dispatch the split adds to every scalar pass
_MIN_UNIFORM_EDGES = 512


class CodegenUnsupported(Exception):
    """The circuit or query is outside the compiled evaluator's domain;
    the caller falls back to the interpreter."""


def _numpy() -> Any:
    """numpy, imported on first use (keeps the scalar interpreter
    importable without numpy)."""
    import numpy
    return numpy


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend ``$REPRO_BACKEND`` selects (default ``codegen``),
    or the validated ``explicit`` name when one is given."""
    value = explicit if explicit is not None else \
        os.environ.get(BACKEND_ENV, "codegen").strip().lower()
    if value not in BACKENDS:
        raise ValueError(f"unknown backend {value!r}; "
                         f"expected one of {BACKENDS}")
    return value


# -- plan construction --------------------------------------------------------

#: one contiguous run of same-kind gates: (is OR, output slice, arity
#: or 0 when mixed, child positions, segment offsets of a mixed run,
#: the two strided child gathers of a binary run, the or-gap triple of
#: gapped edges / gap-variable indices / their segment offsets)
_Run = Tuple[bool, slice, int, Any, Any, Any, Any]


class _Plan:
    """The levelized layout of one circuit: a node permutation that
    makes every (level, kind) run contiguous, plus the index arrays the
    forward passes gather through."""

    __slots__ = ("root", "pos", "lit_list", "lit_pos", "lit_idx",
                 "one_pos", "zero_pos", "gv_pos", "gv_neg", "steps")

    def __init__(self, kernel: "IrKernel") -> None:
        np = _numpy()
        ir = kernel.ir
        n = ir.n
        if n == 0:
            raise CodegenUnsupported("empty circuit")
        kinds = kernel.kinds
        if KIND_PARAM in kinds:
            raise CodegenUnsupported(
                "parameterised circuit (KIND_PARAM leaves are read "
                "per call; the interpreter serves them)")
        children = kernel.children
        level = [0] * n
        for i in range(n):
            kids = children[i]
            if kids:
                level[i] = max(level[c] for c in kids) + 1
        # arity classes big enough to pay for their own step (in saved
        # reduceat time) are split out of their (level, kind) run so
        # the passes can use the uniform-arity fast paths; stragglers
        # stay merged in one segmented-reduction step per run, keeping
        # the step count (= fixed per-pass overhead) bounded
        class_count: Dict[Tuple[int, int, int], int] = {}
        for i in range(n):
            if children[i] and (kinds[i] == KIND_AND or
                                kinds[i] == KIND_OR):
                ckey = (level[i], kinds[i], len(children[i]))
                class_count[ckey] = class_count.get(ckey, 0) + 1

        def sort_key(i: int) -> Tuple[int, int, int, int]:
            kids = children[i]
            if kids and (kinds[i] == KIND_AND or kinds[i] == KIND_OR):
                arity = len(kids)
                if class_count[(level[i], kinds[i], arity)] * arity \
                        >= _MIN_UNIFORM_EDGES:
                    return (level[i], kinds[i], 0, arity)
                return (level[i], kinds[i], 1, arity)
            return (level[i], kinds[i], 0, 0)

        order = sorted(range(n), key=sort_key)
        pos = [0] * n
        for new, old in enumerate(order):
            pos[old] = new
        self.root = pos[n - 1]
        self.pos = pos

        # literal codes: every literal the circuit mentions plus both
        # phases of every or-gate gap variable (the W(v)+W(-v) factor)
        lit_list: List[int] = sorted(
            {ir.lits[i] for i in range(n) if kinds[i] == KIND_LIT})
        lit_index = {lit: j for j, lit in enumerate(lit_list)}
        gap_vars = sorted({var for i in range(n) if kinds[i] == KIND_OR
                           for gv in kernel.or_gap_vars[i] or ()
                           for var in gv})
        for var in gap_vars:
            for lit in (var, -var):
                if lit not in lit_index:
                    lit_index[lit] = len(lit_list)
                    lit_list.append(lit)
        self.lit_list = lit_list
        self.lit_pos = np.array(
            [pos[i] for i in range(n) if kinds[i] == KIND_LIT],
            dtype=np.int64)
        self.lit_idx = np.array(
            [lit_index[ir.lits[i]] for i in range(n)
             if kinds[i] == KIND_LIT], dtype=np.int64)
        gap_index = {var: j for j, var in enumerate(gap_vars)}
        self.gv_pos = np.array([lit_index[v] for v in gap_vars],
                               dtype=np.int64)
        self.gv_neg = np.array([lit_index[-v] for v in gap_vars],
                               dtype=np.int64)

        # constant positions: TRUE and childless AND are the semiring
        # one; FALSE and childless OR the semiring zero
        ones: List[int] = []
        zeros: List[int] = []
        for i in range(n):
            kind = kinds[i]
            if kind == KIND_TRUE or \
                    (kind == KIND_AND and not children[i]):
                ones.append(pos[i])
            elif kind == KIND_FALSE or \
                    (kind == KIND_OR and not children[i]):
                zeros.append(pos[i])
        self.one_pos = np.array(ones, dtype=np.int64)
        self.zero_pos = np.array(zeros, dtype=np.int64)

        # one step per contiguous (level, kind) run of internal gates
        steps: List[_Run] = []
        by_group: Dict[Tuple[int, int, int, int], List[int]] = {}
        for i in order:
            if children[i] and (kinds[i] == KIND_AND or
                                kinds[i] == KIND_OR):
                gkey = sort_key(i)
                if gkey[2] == 1:  # stragglers: one mixed run, any arity
                    gkey = (gkey[0], gkey[1], 1, 0)
                by_group.setdefault(gkey, []).append(i)
        for group, ids in sorted(by_group.items()):
            is_or = group[1] == KIND_OR
            child_ids: List[int] = []
            offs = [0]
            egaps: List[Tuple[int, ...]] = []
            for i in ids:
                child_ids.extend(pos[c] for c in children[i])
                offs.append(len(child_ids))
                if is_or:
                    egaps.extend(kernel.or_gap_vars[i] or ())
            arities = {len(children[i]) for i in ids}
            arity = arities.pop() if len(arities) == 1 else 0
            offsets = None if arity else \
                np.array(offs[:-1], dtype=np.int64)
            pair = None
            if arity == 2:
                # binary runs (the d-DNNF common case) skip reduceat
                # for one elementwise ufunc over two strided gathers
                pair = (np.array(child_ids[0::2], dtype=np.int64),
                        np.array(child_ids[1::2], dtype=np.int64))
            gaps = None
            gap_edges = [e for e, gv in enumerate(egaps) if gv]
            if gap_edges:
                gidx: List[int] = []
                goffs = [0]
                for e in gap_edges:
                    gidx.extend(gap_index[v] for v in egaps[e])
                    goffs.append(len(gidx))
                gaps = (np.array(gap_edges, dtype=np.int64),
                        np.array(gidx, dtype=np.int64),
                        np.array(goffs[:-1], dtype=np.int64))
            steps.append((is_or, slice(pos[ids[0]], pos[ids[-1]] + 1),
                          arity, np.array(child_ids, dtype=np.int64),
                          offsets, pair, gaps))
        self.steps = steps


# -- forward passes -----------------------------------------------------------

#: step codes of a bound forward pass (see :func:`_bind`)
_PAIR, _COPY, _BINARY, _REDUCE, _SEGMENT = range(5)

#: (code, output slice, ufunc or method, gather index, operand, gap)
_Step = Tuple[int, slice, Any, Any, Any, Any]


def _bind(plan: _Plan, and_op: Any, or_op: Any,
          gap_ops: Any) -> List[_Step]:
    """One forward pass: the plan's steps bound to a semiring's product
    and sum ufuncs.  ``gap_ops`` — a segment reduction and the in-place
    operator that applies its result — folds the per-edge or-gap factor
    in (None for passes that ignore gaps, e.g. evaluation).

    Uniform-arity runs specialize away ``reduceat``: arity 1 is a
    sliced copy, arity 2 one elementwise ufunc call (over two strided
    gathers when no gap factor intervenes), arity ``a`` a
    ``reshape((gates, a) + ...)`` + axis-1 ``ufunc.reduce`` — an order
    of magnitude faster than the segmented reduction on the binary
    runs that dominate d-DNNFs.  Mixed-arity runs keep ``reduceat``."""
    steps: List[_Step] = []
    for is_or, out, arity, children, offsets, pair, gaps in plan.steps:
        op = or_op if is_or else and_op
        gap = None
        if gaps is not None and gap_ops is not None:
            gap = gaps + gap_ops
        if arity == 2 and gap is None:
            steps.append((_PAIR, out, op, pair[0], pair[1], None))
        elif arity == 1:
            steps.append((_COPY, out, None, children, None, gap))
        elif arity == 2:
            steps.append((_BINARY, out, op, children, None, gap))
        elif arity > 2:
            # explicit gate count (not -1): a zero-width batch axis
            # makes -1 ambiguous on a size-0 gather
            steps.append((_REDUCE, out, op.reduce, children,
                          (out.stop - out.start, arity), gap))
        else:
            steps.append((_SEGMENT, out, op.reduceat, children,
                          offsets, gap))
    return steps


# -- the compiled circuit -----------------------------------------------------

class CompiledCircuit:
    """The levelized evaluators of one circuit.

    Construction builds the levelized plan and binds its steps once per
    forward pass; each query method packs the per-call weights into the
    plan's literal layout, runs the matching pass, and unpacks the root
    value.

    ``stats`` counts ``codegen_compiles`` / ``codegen_fallbacks`` and
    the build-vs-eval time split (``codegen_compile_us`` /
    ``codegen_eval_us``).
    """

    __slots__ = ("kernel", "n", "plan", "stats", "_passes", "_sat_root",
                 "_count")

    def __init__(self, kernel: "IrKernel") -> None:
        np = _numpy()
        t0 = time.perf_counter()
        self.kernel = kernel
        self.n = kernel.n
        self.stats = Counter()
        self._sat_root: Optional[bool] = None
        self._count: Optional[int] = None
        plan = _Plan(kernel)
        self.plan = plan
        scale = (np.multiply.reduceat, operator.imul)
        shift = (np.add.reduceat, operator.iadd)
        self._passes = {
            # linear semiring: WMC, model count, sat (all weights 1)
            "wmc": _bind(plan, np.multiply, np.add, scale),
            # log semiring: log-space WMC (gapvals pre-combined per
            # variable)
            "log": _bind(plan, np.add, np.logaddexp, shift),
            # max-product semiring: the MPE upward pass
            "max": _bind(plan, np.multiply, np.maximum, scale),
            # boolean evaluation on 0/1 floats (gaps are irrelevant)
            "eval": _bind(plan, np.multiply, np.maximum, None),
        }
        self.stats.incr("codegen_compiles")
        self.stats.incr("codegen_compile_us",
                        int((time.perf_counter() - t0) * 1e6))

    # -- packing helpers -----------------------------------------------------
    def _weight_vec(self, weights: Mapping[int, Any]) -> Any:
        """Literal-code layout of one weight map (scalar calls)."""
        np = _numpy()
        lit_list = self.plan.lit_list
        return np.fromiter((weights[lit] for lit in lit_list),
                           dtype=float, count=len(lit_list))

    def _weight_rows(self, weights: Mapping[int, Any]) -> Any:
        """Literal-code layout of a weight batch: (lits, N) rows."""
        np = _numpy()
        self.kernel._batch_size(weights)  # empty-batch ValueError parity
        if not self.plan.lit_list:
            # no literal rows to carry the batch axis through: the
            # interpreter's broadcast handling serves this edge case
            raise CodegenUnsupported("literal-free circuit batch")
        return np.array([weights[lit] for lit in self.plan.lit_list],
                        dtype=float)

    def _values(self, wvec: Any, zero: float, one: float) -> Any:
        """A fresh value buffer with constants and literals filled; the
        trailing batch axes of ``wvec`` carry through."""
        np = _numpy()
        plan = self.plan
        shape = (self.n,) + wvec.shape[1:]
        values = np.empty(shape)
        if len(plan.one_pos):
            values[plan.one_pos] = one
        if len(plan.zero_pos):
            values[plan.zero_pos] = zero
        values[plan.lit_pos] = wvec[plan.lit_idx]
        return values

    def _pass_stats(self, stats: Optional[Counter],
                    batch: Optional[int] = None) -> None:
        if stats is not None:
            stats.incr("nodes_visited", self.n)
            if batch is not None:
                stats.incr("batch_columns", batch)

    def _run(self, name: str, values: Any, gapvals: Any) -> Any:
        """One forward pass over ``values``: a budget charge, then one
        gather and one ufunc call per bound step, writing into the
        step's contiguous slice."""
        t0 = time.perf_counter()
        self.kernel._charge()
        take = values.take  # np.take minus its Python-level wrapper
        for code, out, op, index, operand, gap in self._passes[name]:
            if code == _PAIR:
                op(take(index, 0), take(operand, 0), out=values[out])
                continue
            cv = take(index, 0)
            if gap is not None:
                # cv[edges] *= (or +=) the edges' gap-variable factors
                edges, gap_index, gap_offsets, reduce, fold = gap
                cv[edges] = fold(cv[edges], reduce(gapvals[gap_index],
                                                   gap_offsets))
            if code == _COPY:
                values[out] = cv
            elif code == _BINARY:
                op(cv[0::2], cv[1::2], out=values[out])
            elif code == _REDUCE:
                op(cv.reshape(operand + cv.shape[1:]), axis=1,
                   out=values[out])
            else:
                op(cv, operand, out=values[out])
        self.stats.incr("codegen_eval_us",
                        int((time.perf_counter() - t0) * 1e6))
        return values

    # -- queries -------------------------------------------------------------
    def wmc(self, weights: Mapping[int, float],
            stats: Optional[Counter] = None) -> float:
        plan = self.plan
        wvec = self._weight_vec(weights)
        gapvals = wvec[plan.gv_pos] + wvec[plan.gv_neg]
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats)
        self._run("wmc", values, gapvals)
        return float(values[plan.root])

    def wmc_batch(self, weights: Mapping[int, Any],
                  stats: Optional[Counter] = None) -> Any:
        plan = self.plan
        wvec = self._weight_rows(weights)
        gapvals = wvec[plan.gv_pos] + wvec[plan.gv_neg]
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats, batch=wvec.shape[1])
        self._run("wmc", values, gapvals)
        return values[plan.root].copy()

    def wmc_log_batch(self, log_weights: Mapping[int, Any],
                      stats: Optional[Counter] = None) -> Any:
        np = _numpy()
        plan = self.plan
        wvec = self._weight_rows(log_weights)
        gapvals = np.logaddexp(wvec[plan.gv_pos], wvec[plan.gv_neg])
        values = self._values(wvec, zero=-np.inf, one=0.0)
        self._pass_stats(stats, batch=wvec.shape[1])
        self._run("log", values, gapvals)
        return values[plan.root].copy()

    def model_count(self, stats: Optional[Counter] = None) -> int:
        """#SAT through the float64 pipeline: exact while every
        intermediate stays an integer below 2**53 (counts are bounded
        by 2**|vars|), unsupported beyond that."""
        if self._count is not None:
            return self._count
        kernel = self.kernel
        num_vars = len(kernel.varsets[self.n - 1]) if self.n else 0
        if num_vars > _EXACT_COUNT_VARS:
            raise CodegenUnsupported(
                f"model count over {num_vars} variables exceeds "
                f"float64's exact-integer range")
        np = _numpy()
        plan = self.plan
        wvec = np.ones(len(plan.lit_list))
        gapvals = wvec[plan.gv_pos] + wvec[plan.gv_neg]
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats)
        self._run("wmc", values, gapvals)
        self._count = int(round(float(values[plan.root])))
        return self._count

    def sat(self, stats: Optional[Counter] = None) -> bool:
        """Root satisfiability: the all-ones forward pass is positive
        iff some model survives (sums and products of non-negatives;
        float overflow saturates to +inf and stays positive)."""
        if self._sat_root is not None:
            return self._sat_root
        np = _numpy()
        plan = self.plan
        wvec = np.ones(len(plan.lit_list))
        gapvals = wvec[plan.gv_pos] + wvec[plan.gv_neg]
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats)
        self._run("wmc", values, gapvals)
        self._sat_root = bool(values[plan.root] > 0.0)
        return self._sat_root

    def mpe(self, weights: Mapping[int, float],
            stats: Optional[Counter] = None
            ) -> Tuple[float, Dict[int, bool]]:
        """Vectorized max-product upward pass, then the kernel's
        traceback over the plan's values, so the assignment is
        bit-identical to the interpreted one."""
        np = _numpy()
        plan = self.plan
        wvec = self._weight_vec(weights)
        gapvals = np.maximum(wvec[plan.gv_pos], wvec[plan.gv_neg])
        values = self._values(wvec, zero=-np.inf, one=1.0)
        self._pass_stats(stats)
        self._run("max", values, gapvals)
        pos = plan.pos
        item = values.item
        return float(values[plan.root]), self.kernel._traceback(
            lambda i: item(pos[i]), weights)

    def evaluate(self, assignment: Mapping[int, bool],
                 stats: Optional[Counter] = None) -> bool:
        np = _numpy()
        plan = self.plan
        wvec = np.fromiter(
            (float(bool(assignment[abs(lit)]) == (lit > 0))
             for lit in plan.lit_list),
            dtype=float, count=len(plan.lit_list))
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats)
        self._run("eval", values, None)
        return bool(values[plan.root] > 0.5)

    def evaluate_batch(self, assignment: Mapping[int, Any],
                       stats: Optional[Counter] = None) -> Any:
        np = _numpy()
        plan = self.plan
        self.kernel._batch_size(assignment)
        if not plan.lit_list:
            raise CodegenUnsupported("literal-free circuit batch")
        rows = []
        for lit in plan.lit_list:
            column = np.asarray(assignment[abs(lit)], dtype=bool)
            rows.append(column if lit > 0 else ~column)
        wvec = np.array(rows, dtype=float)
        values = self._values(wvec, zero=0.0, one=1.0)
        self._pass_stats(stats, batch=wvec.shape[1])
        self._run("eval", values, None)
        return values[plan.root] > 0.5


def compile_circuit(kernel: "IrKernel") -> CompiledCircuit:
    """Compile ``kernel``'s circuit, or raise :class:`CodegenUnsupported`
    (no numpy, parameterised or empty circuit)."""
    try:
        # probe attributes the evaluator calls, so a missing *or
        # broken* numpy (e.g. a stub module) falls back to the
        # interpreter instead of failing mid-query
        np = _numpy()
        np.empty, np.multiply.reduceat, np.logaddexp.reduceat
    except Exception as error:
        raise CodegenUnsupported("numpy unavailable") from error
    return CompiledCircuit(kernel)
