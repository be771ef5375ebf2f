"""Per-circuit levelized evaluators: the codegen backend of the kernel.

The paper's bargain is *compile once, query fast many times* — but an
interpreted Python loop over the CSR arrays pays per-node dispatch on
every query.  This module walks the arrays **once per circuit** and
builds a levelized plan: nodes are permuted so every run of same-kind
gates at one depth is contiguous, and each run becomes one numpy call
(a gather plus an elementwise ufunc, an axis-1 reduction or a
``reduceat`` segment reduction) writing directly into a contiguous
slice of the value vector.  Each forward pass — linear, log and
max-product, which also evaluates booleans — binds the plan's steps to
its semiring's ufuncs once; a query runs the bound steps in order.
One plan serves scalar *and* batched calls (a value row per node).

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

import os
import time
from itertools import groupby
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

#: one contiguous run of gates writing one output slice: (is OR, output
#: slice, arity or 0 when mixed, child positions — the two strided
#: gathers of a binary run —, segment offsets of a mixed run)
_Run = Tuple[bool, slice, int, Any, Any]


class _Plan:
    """The levelized layout of one circuit: a node permutation that
    makes every (level, kind) run contiguous, plus the index arrays the
    forward passes gather through.

    The value buffer holds ``size`` slots: the ``n`` nodes, then one
    slot per distinct or-edge gap set (``fill``), then the edge band.
    A gap set's slot holds the semiring product of ``W(v) ⊕ W(¬v)``
    over its variables, ascending — the value smoothing would add as
    ``v ∨ ¬v`` leaves.  Each or-run with gapped edges is preceded by
    its own binary and-step writing ``child ⊗ set`` per gapped edge
    into the band, and the run gathers those slots instead of the
    children.  Every such run reuses the one band: its slots are read
    by that run alone, right after its and-step."""

    __slots__ = ("root", "pos", "size", "lit_list", "lit_pos", "lit_idx",
                 "one_pos", "zero_pos", "gv_pos", "gv_neg", "fill",
                 "steps")

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

        # one slot per distinct gap set, after the nodes, shortest first
        or_gaps = kernel.or_gap_vars
        distinct = {gap for gaps in or_gaps for gap in gaps}
        distinct.discard(())
        gap_sets = sorted(distinct, key=lambda gap: (len(gap), gap))
        set_slot = {gap: n + j for j, gap in enumerate(gap_sets)}
        band = n + len(gap_sets)

        # literal codes: every literal the circuit mentions plus both
        # phases of every gap variable (the W(v) ⊕ W(-v) factor)
        lit_list: List[int] = sorted(
            {ir.lits[i] for i in range(n) if kinds[i] == KIND_LIT})
        lit_index = {lit: j for j, lit in enumerate(lit_list)}
        gap_vars = sorted({var for gap in gap_sets for var in gap})
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
        self.gv_pos = np.array([lit_index[v] for v in gap_vars],
                               dtype=np.int64)
        self.gv_neg = np.array([lit_index[-v] for v in gap_vars],
                               dtype=np.int64)
        gap_index = {var: j for j, var in enumerate(gap_vars)}
        # the slots' fill, in three size classes: a set of one or two
        # variables is a gather and at most one product; longer sets
        # take the semiring product's own segment reduction, the order
        # the per-edge fold had (numpy's add.reduceat sums a segment's
        # tail before adding its head, pairwise past eight terms;
        # multiply folds left to right)
        fill: List[Tuple[slice, Any, Any]] = []
        start = n
        for size, group in groupby(gap_sets,
                                   key=lambda gap: min(len(gap), 3)):
            sets = list(group)
            out = slice(start, start + len(sets))
            start += len(sets)
            if size < 3:
                fill.append((out, [
                    np.array([gap_index[gap[j]] for gap in sets],
                             dtype=np.int64) for j in range(size)], None))
            else:
                index = [gap_index[var] for gap in sets for var in gap]
                fill.append((out, np.array(index, dtype=np.int64),
                             np.cumsum([0] + [len(gap)
                                              for gap in sets[:-1]])))
        self.fill = fill

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

        # one step per contiguous (level, kind) run of internal gates,
        # an or-run with gapped edges after its own edge and-step
        steps: List[_Run] = []
        band_size = 0
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
            edge_kids: List[int] = []
            edge_sets: List[int] = []
            for i in ids:
                gaps = or_gaps[i] if is_or else ()
                if any(gaps):
                    for c, gap in zip(children[i], gaps):
                        if gap:
                            child_ids.append(band + len(edge_kids))
                            edge_kids.append(pos[c])
                            edge_sets.append(set_slot[gap])
                        else:
                            child_ids.append(pos[c])
                else:
                    child_ids.extend(pos[c] for c in children[i])
                offs.append(len(child_ids))
            if edge_kids:
                # a step of its own: merged into the level's and-runs,
                # a gate could move between an axis reduction and
                # reduceat, which add in different orders
                band_size = max(band_size, len(edge_kids))
                steps.append((False, slice(band, band + len(edge_kids)),
                              2, (np.array(edge_kids, dtype=np.int64),
                                  np.array(edge_sets, dtype=np.int64)),
                              None))
            arities = {len(children[i]) for i in ids}
            arity = arities.pop() if len(arities) == 1 else 0
            offsets = None if arity else \
                np.array(offs[:-1], dtype=np.int64)
            kids_at: Any
            if arity == 2:
                # binary runs (the d-DNNF common case) skip reduceat
                # for one elementwise ufunc over two strided gathers
                kids_at = (np.array(child_ids[0::2], dtype=np.int64),
                           np.array(child_ids[1::2], dtype=np.int64))
            else:
                kids_at = np.array(child_ids, dtype=np.int64)
            steps.append((is_or, slice(pos[ids[0]], pos[ids[-1]] + 1),
                          arity, kids_at, offsets))
        self.size = band + band_size
        self.steps = steps


# -- forward passes -----------------------------------------------------------

#: step codes of a bound forward pass (see :func:`_bind`)
_PAIR, _COPY, _REDUCE, _SEGMENT = range(4)

#: (code, output slice, ufunc or method, gather index, operand)
_Step = Tuple[int, slice, Any, Any, Any]

#: a bound forward pass: its steps, then the semiring product and sum
_Pass = Tuple[List[_Step], Any, Any]


def _bind(plan: _Plan, and_op: Any, or_op: Any) -> _Pass:
    """One forward pass: the plan's steps bound to a semiring's product
    and sum ufuncs.

    Uniform-arity runs specialize away ``reduceat``: arity 1 is a
    sliced copy, arity 2 one elementwise ufunc call over two strided
    gathers, arity ``a`` a ``reshape((gates, a) + ...)`` + axis-1
    ``ufunc.reduce`` — an order of magnitude faster than the segmented
    reduction on the binary runs that dominate d-DNNFs.  Mixed-arity
    runs keep ``reduceat``."""
    steps: List[_Step] = []
    for is_or, out, arity, children, offsets in plan.steps:
        op = or_op if is_or else and_op
        if arity == 2:
            steps.append((_PAIR, out, op, children[0], children[1]))
        elif arity == 1:
            steps.append((_COPY, out, None, children, None))
        elif arity > 2:
            # explicit gate count (not -1): a zero-width batch axis
            # makes -1 ambiguous on a size-0 gather
            steps.append((_REDUCE, out, op.reduce, children,
                          (out.stop - out.start, arity)))
        else:
            steps.append((_SEGMENT, out, op.reduceat, children, offsets))
    return steps, and_op, or_op


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
        self._passes = {
            # linear semiring: WMC, model count, sat (all weights 1)
            "wmc": _bind(plan, np.multiply, np.add),
            # log semiring: log-space WMC
            "log": _bind(plan, np.add, np.logaddexp),
            # max-product semiring: the MPE upward pass, and boolean
            # evaluation on 0/1 floats (a gap variable's two literals
            # then weigh 0 and 1, so every gap factor is exactly 1)
            "max": _bind(plan, np.multiply, np.maximum),
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

    def _values(self, wvec: Any, zero: float, one: float, product: Any,
                total: Any) -> Any:
        """A fresh value buffer with the constants, the literals
        (``wvec``, in literal-code layout; its trailing batch axes
        carry through) and each gap set's slot filled: the ``product``
        of its variables' ``total`` of two literal weights, ascending."""
        np = _numpy()
        plan = self.plan
        values = np.empty((plan.size,) + wvec.shape[1:])
        if len(plan.one_pos):
            values[plan.one_pos] = one
        if len(plan.zero_pos):
            values[plan.zero_pos] = zero
        values[plan.lit_pos] = wvec[plan.lit_idx]
        if plan.fill:
            gapvals = total(wvec[plan.gv_pos], wvec[plan.gv_neg])
            for out, index, offsets in plan.fill:
                if offsets is not None:
                    values[out] = product.reduceat(gapvals.take(index, 0),
                                                   offsets)
                    continue
                slots = values[out]
                slots[...] = gapvals.take(index[0], 0)
                if len(index) == 2:
                    product(slots, gapvals.take(index[1], 0), out=slots)
        return values

    def _pass_stats(self, stats: Optional[Counter],
                    batch: Optional[int] = None) -> None:
        if stats is not None:
            stats.incr("nodes_visited", self.n)
            if batch is not None:
                stats.incr("batch_columns", batch)

    def _run(self, name: str, wvec: Any, zero: float, one: float) -> Any:
        """One forward pass: a budget charge, the pass's value buffer
        (:meth:`_values`), then one gather and one ufunc call per bound
        step, writing into the step's contiguous slice."""
        t0 = time.perf_counter()
        self.kernel._charge()
        steps, product, total = self._passes[name]
        values = self._values(wvec, zero, one, product, total)
        take = values.take  # np.take minus its Python-level wrapper
        for code, out, op, index, operand in steps:
            if code == _PAIR:
                op(take(index, 0), take(operand, 0), out=values[out])
                continue
            cv = take(index, 0)
            if code == _COPY:
                values[out] = cv
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
        wvec = self._weight_vec(weights)
        self._pass_stats(stats)
        values = self._run("wmc", wvec, zero=0.0, one=1.0)
        return float(values[self.plan.root])

    def wmc_batch(self, weights: Mapping[int, Any],
                  stats: Optional[Counter] = None) -> Any:
        wvec = self._weight_rows(weights)
        self._pass_stats(stats, batch=wvec.shape[1])
        values = self._run("wmc", wvec, zero=0.0, one=1.0)
        return values[self.plan.root].copy()

    def wmc_log_batch(self, log_weights: Mapping[int, Any],
                      stats: Optional[Counter] = None) -> Any:
        np = _numpy()
        wvec = self._weight_rows(log_weights)
        self._pass_stats(stats, batch=wvec.shape[1])
        values = self._run("log", wvec, zero=-np.inf, one=0.0)
        return values[self.plan.root].copy()

    def _all_ones(self, stats: Optional[Counter]) -> float:
        """The root of the linear pass with every weight 1."""
        np = _numpy()
        self._pass_stats(stats)
        values = self._run("wmc", np.ones(len(self.plan.lit_list)),
                           zero=0.0, one=1.0)
        return float(values[self.plan.root])

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
        self._count = int(round(self._all_ones(stats)))
        return self._count

    def sat(self, stats: Optional[Counter] = None) -> bool:
        """Root satisfiability: the all-ones forward pass is positive
        iff some model survives (sums and products of non-negatives;
        float overflow saturates to +inf and stays positive)."""
        if self._sat_root is None:
            self._sat_root = self._all_ones(stats) > 0.0
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
        self._pass_stats(stats)
        values = self._run("max", wvec, zero=-np.inf, one=1.0)
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
        self._pass_stats(stats)
        values = self._run("max", wvec, zero=0.0, one=1.0)
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
        self._pass_stats(stats, batch=wvec.shape[1])
        values = self._run("max", wvec, zero=0.0, one=1.0)
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
