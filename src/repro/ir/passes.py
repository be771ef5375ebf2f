"""Certified circuit-optimization passes over the flattened IR.

The paper's tractability story makes every query linear in circuit
size, so each deleted node is speed for free across *all* queries.
This module is the sanctioned home for circuit rewrites: a
compiler-style pass manager whose every rewrite must re-certify
through :mod:`repro.analyze` before it may replace the original.

Pass catalog
------------

``const-fold``
    Constant propagation and dead-node elimination: ⊥ absorbs
    conjunctions, ⊤ disjunctions, single-child gates collapse, and
    nodes unreachable from the root are dropped.
``cse``
    Structural common-subexpression elimination: hash-consing merges
    structurally identical nodes (duplicate subcircuits produced by
    textual ``.nnf`` round trips or by earlier passes).
``tseitin-prune``
    Existentially quantify the auxiliary variables recorded by the
    Tseitin transform (Derkinderen 2024): each auxiliary literal is
    replaced by ⊤ and the circuit re-simplified.  Because auxiliaries
    are functionally determined by the problem variables, the model
    count over the original variables is unchanged — but a caller that
    still widens over the full variable range would overcount by
    ``2^k`` (``k`` forgotten variables), so the result records the
    forgotten set and query layers exclude it from widening.
``desmooth``
    Strip the ``(v ∨ ¬v)`` padding gates that smoothing added; the
    kernel's or-gap scaling keeps counts and WMC exact on the
    de-smoothed circuit, which is strictly smaller for count-only
    workloads.
``smooth``
    Re-smoothing, also the ``repair`` gate mode's auto-fix: pad
    or-gate children with tautologies for missing sibling variables.
    The one pass allowed to *grow* the circuit.

The certification gate
----------------------

A candidate replaces the input only if

1. it claims no property its twin lost (decomposability and
   determinism must be preserved; smoothness may be dropped only by
   ``desmooth``),
2. :func:`repro.analyze.certify` falsifies none of its claimed flags,
3. exact model counts agree over the original variable universe,
   with the Tseitin ``2^k`` correction applied and cross-checked,
4. weighted model counts with seeded random weights agree (forgotten
   auxiliaries weighted 1.0), and
5. seeded random cross-evaluation finds no Boolean disagreement
   (implication only, for pruned circuits).

Budgets degrade, never error: when a :class:`~repro.limits.budget.
Budget` expires mid-pipeline the best circuit certified *so far* is
returned.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from ..limits.budget import Budget, BudgetExceeded
from .core import (CircuitIR, IrBuilder, FLAG_DECOMPOSABLE,
                   FLAG_DETERMINISTIC, FLAG_SMOOTH, FLAG_STRUCTURED,
                   KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR, KIND_PARAM,
                   KIND_TRUE)
from .lower import structural_flags

__all__ = ["PassContext", "PassReport", "PipelineResult", "PassManager",
           "optimize_ir", "parse_passes", "pipeline_signature",
           "certified_equivalent", "const_fold_ir", "cse_ir",
           "forget_vars", "desmooth_ir", "smooth_ir",
           "PASS_NAMES", "DEFAULT_PASSES", "COUNT_ONLY_PASSES"]

#: freestanding property bits (those :func:`repro.analyze.certify`
#: can check without a vtree)
_FREESTANDING = FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH

#: passes applied by default when no explicit pipeline is given
DEFAULT_PASSES: Tuple[str, ...] = ("const-fold", "cse", "tseitin-prune")

#: pipeline for count-only workloads (marginals/derivatives callers
#: should re-smooth afterwards)
COUNT_ONLY_PASSES: Tuple[str, ...] = DEFAULT_PASSES + ("desmooth",)

#: passes allowed to grow the circuit (their value is the property,
#: not the size)
_ALLOW_GROWTH = frozenset(("smooth",))


# -- pure rewrites ------------------------------------------------------------

def _finish_rewrite(builder: IrBuilder, root: int,
                    source: CircuitIR) -> CircuitIR:
    """Freeze a rebuilt circuit, recomputing the structural flags and
    carrying determinism from the source (the gate re-checks it).
    STRUCTURED survives only a structurally identical rebuild."""
    builder.num_params = max(builder.num_params, source.num_params)
    out = builder.finish(root, intern=False)
    flags = structural_flags(out)
    flags |= source.flags & FLAG_DETERMINISTIC
    if (out.kinds == source.kinds and out.lits == source.lits
            and out.child_ids == source.child_ids):
        flags |= source.flags & (FLAG_STRUCTURED | _FREESTANDING)
    out.flags = flags
    return out.intern()


def const_fold_ir(ir: CircuitIR) -> CircuitIR:
    """Constant/dead-node elimination via the builder simplifications."""
    builder = IrBuilder()
    mapped: List[int] = [0] * ir.n
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            mapped[i] = builder.literal(ir.lits[i])
        elif kind == KIND_PARAM:
            mapped[i] = builder.param(ir.lits[i])
        elif kind == KIND_TRUE:
            mapped[i] = builder.true()
        elif kind == KIND_FALSE:
            mapped[i] = builder.false()
        elif kind == KIND_AND:
            mapped[i] = builder.conjoin(
                mapped[c] for c in ir.children(i))
        else:
            mapped[i] = builder.disjoin(
                mapped[c] for c in ir.children(i))
    return _finish_rewrite(builder, mapped[ir.root], ir)


def cse_ir(ir: CircuitIR) -> CircuitIR:
    """Structural dedup: hash-consing merges identical nodes.  Gates
    are rebuilt raw — child *lists* are never deduplicated, because a
    deterministic or-gate sums its children and an and-gate multiplies
    them; only whole identical nodes collapse."""
    builder = IrBuilder()
    mapped: List[int] = [0] * ir.n
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            mapped[i] = builder.literal(ir.lits[i])
        elif kind == KIND_PARAM:
            mapped[i] = builder.param(ir.lits[i])
        elif kind == KIND_TRUE:
            mapped[i] = builder.true()
        elif kind == KIND_FALSE:
            mapped[i] = builder.false()
        elif kind == KIND_AND:
            mapped[i] = builder.raw_and(
                tuple(mapped[c] for c in ir.children(i)))
        else:
            mapped[i] = builder.raw_or(
                tuple(mapped[c] for c in ir.children(i)))
    return _finish_rewrite(builder, mapped[ir.root], ir)


def forget_vars(ir: CircuitIR, variables: Iterable[int]
                ) -> Tuple[CircuitIR, FrozenSet[int]]:
    """Existentially quantify ``variables`` out of a Decision-DNNF.

    Every literal over a target variable becomes ⊤ and the circuit is
    re-simplified.  Sound as a *count-preserving* rewrite only when
    the targets are functionally determined (Tseitin auxiliaries) —
    which is exactly what the certification gate checks.  Returns the
    rewritten circuit and the variables actually forgotten.
    """
    targets = frozenset(int(v) for v in variables) & ir.variables()
    if not targets:
        return ir, frozenset()
    builder = IrBuilder()
    mapped: List[int] = [0] * ir.n
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            if abs(ir.lits[i]) in targets:
                mapped[i] = builder.true()
            else:
                mapped[i] = builder.literal(ir.lits[i])
        elif kind == KIND_PARAM:
            mapped[i] = builder.param(ir.lits[i])
        elif kind == KIND_TRUE:
            mapped[i] = builder.true()
        elif kind == KIND_FALSE:
            mapped[i] = builder.false()
        elif kind == KIND_AND:
            mapped[i] = builder.conjoin(
                mapped[c] for c in ir.children(i))
        else:
            mapped[i] = builder.disjoin(
                mapped[c] for c in ir.children(i))
    return _finish_rewrite(builder, mapped[ir.root], ir), targets


def _tautology_nodes(ir: CircuitIR) -> List[bool]:
    """Mark or-gates of the exact smoothing-padding shape ``v ∨ ¬v``."""
    taut = [False] * ir.n
    for i in range(ir.n):
        if ir.kinds[i] != KIND_OR:
            continue
        kids = ir.children(i)
        if len(kids) != 2:
            continue
        a, b = kids
        if (ir.kinds[a] == KIND_LIT and ir.kinds[b] == KIND_LIT
                and ir.lits[a] == -ir.lits[b]):
            taut[i] = True
    return taut


def desmooth_ir(ir: CircuitIR) -> CircuitIR:
    """Drop smoothing padding: and-gate children of the shape
    ``(v ∨ ¬v)`` are removed (the kernel's or-gap scaling keeps counts
    and WMC exact on the smaller, non-smooth circuit)."""
    taut = _tautology_nodes(ir)
    if not any(taut):
        return ir
    builder = IrBuilder()
    mapped: List[int] = [0] * ir.n
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            mapped[i] = builder.literal(ir.lits[i])
        elif kind == KIND_PARAM:
            mapped[i] = builder.param(ir.lits[i])
        elif kind == KIND_TRUE:
            mapped[i] = builder.true()
        elif kind == KIND_FALSE:
            mapped[i] = builder.false()
        elif kind == KIND_AND:
            mapped[i] = builder.conjoin(
                mapped[c] for c in ir.children(i) if not taut[c])
        else:
            mapped[i] = builder.disjoin(
                mapped[c] for c in ir.children(i))
    return _finish_rewrite(builder, mapped[ir.root], ir)


def smooth_ir(ir: CircuitIR) -> CircuitIR:
    """A smooth IR with the same models (and parameters) as ``ir``.

    Each or-gate child missing sibling variables is conjoined with a
    ``(v ∨ ¬v)`` gate per missing variable (Darwiche & Marquis 2002).
    The result carries the original flags plus SMOOTH, minus
    STRUCTURED.  This is the engine behind the ``repair`` gate mode
    (re-exported as :func:`repro.analyze.smooth_ir`).
    """
    if ir.has_flag(FLAG_SMOOTH):
        return ir
    varsets = ir.varsets()
    builder = IrBuilder()
    mapped: List[int] = [0] * ir.n
    tautologies: Dict[int, int] = {}

    def tautology(var: int) -> int:
        gate = tautologies.get(var)
        if gate is None:
            gate = builder.raw_or(
                (builder.literal(var), builder.literal(-var)))
            tautologies[var] = gate
        return gate

    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            mapped[i] = builder.literal(ir.lits[i])
        elif kind == KIND_PARAM:
            mapped[i] = builder.param(ir.lits[i])
        elif kind == KIND_TRUE:
            mapped[i] = builder.true()
        elif kind == KIND_AND:
            mapped[i] = builder.raw_and(
                tuple(mapped[c] for c in ir.children(i)))
        elif kind == KIND_OR:
            gate_vars = varsets[i]
            padded: List[int] = []
            for c in ir.children(i):
                missing = gate_vars - varsets[c]
                if missing:
                    padded.append(builder.raw_and(
                        (mapped[c],) + tuple(
                            tautology(v) for v in sorted(missing))))
                else:
                    padded.append(mapped[c])
            mapped[i] = builder.raw_or(tuple(padded))
        else:  # KIND_FALSE
            mapped[i] = builder.false()

    flags = (ir.flags | FLAG_SMOOTH) & ~FLAG_STRUCTURED
    return builder.finish(mapped[ir.root], flags=flags)


# -- the certification gate ---------------------------------------------------

def certified_equivalent(original: CircuitIR, candidate: CircuitIR, *,
                         forgotten: FrozenSet[int] = frozenset(),
                         seed: int = 0, samples: int = 8,
                         max_vars: Optional[int] = None
                         ) -> Optional[str]:
    """``None`` when ``candidate`` is a certified twin of ``original``
    (up to existential quantification of ``forgotten``); otherwise a
    human-readable rejection reason.  Never raises on disagreement —
    the caller keeps the original."""
    from ..analyze.certify import certify
    from ..analyze.gate import gate_scope
    from ..analyze.verify import DEFAULT_MAX_VARS
    from .kernel import ir_kernel
    budget_vars = DEFAULT_MAX_VARS if max_vars is None else max_vars

    orig_vars = original.variables()
    cand_vars = candidate.variables()
    if not cand_vars <= orig_vars:
        return "rewrite introduced new variables"
    forgotten = forgotten & orig_vars
    if cand_vars & forgotten:
        return "rewrite kept a forgotten variable"
    # the candidate answers over the original's variables less the
    # forgotten auxiliaries: that exclusion is the 2^k Tseitin
    # correction
    scope = orig_vars - forgotten

    # 1. decomposability / determinism must survive the rewrite;
    #    smoothness may be dropped (de-smoothing), never invented ---
    required = original.flags & (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)
    if (candidate.flags & required) != required:
        return "rewrite lost a certified property flag"

    # 2. the claimed flags must re-certify (no falsification) --------
    claim = candidate.flags & _FREESTANDING
    cert = certify(candidate, flags=claim, max_vars=budget_vars)
    if cert.falsified_mask & claim:
        bad = ", ".join(w.format() for w in cert.witnesses(claim))
        return f"certification falsified claimed flags: {bad}"

    with gate_scope("trust"):
        k_orig = ir_kernel(original)
        k_cand = ir_kernel(candidate)

        # 3. exact model-count agreement over the original universe
        count_orig = k_orig.model_count()
        count_cand = k_cand.model_count(scope=scope)
        if count_cand != count_orig:
            return (f"model count mismatch: {count_cand} != "
                    f"{count_orig}")

        # 4. weighted model counts with seeded random weights
        # (forgotten auxiliaries weighted 1.0 so the functionally
        # determined literal contributes a unit factor) --------------
        rng = random.Random(seed)
        weights: Dict[int, float] = {}
        for v in sorted(orig_vars):
            if v in forgotten:
                weights[v] = weights[-v] = 1.0
            else:
                weights[v] = 0.25 + rng.random()
                weights[-v] = 0.25 + rng.random()
        wmc_orig = k_orig.wmc(weights)
        wmc_cand = k_cand.wmc(weights, scope=scope)
        scale = max(abs(wmc_orig), abs(wmc_cand), 1.0)
        if abs(wmc_orig - wmc_cand) > 1e-6 * scale:
            return (f"weighted count mismatch: {wmc_cand} != "
                    f"{wmc_orig}")

        # 5. randomized cross-evaluation backstop --------------------
        for _ in range(max(0, samples)):
            sigma = {v: rng.random() < 0.5 for v in orig_vars}
            value_orig = k_orig.evaluate(sigma)
            value_cand = k_cand.evaluate(sigma)
            if forgotten:
                # only the implication holds: a model of the original
                # projects to a model of ∃aux.original
                if value_orig and not value_cand:
                    return "cross-evaluation mismatch under forgetting"
            elif value_orig != value_cand:
                return "cross-evaluation mismatch"
    return None


# -- the pass manager ---------------------------------------------------------

@dataclass
class PassContext:
    """Per-pipeline state a pass may consult."""

    aux_vars: FrozenSet[int] = frozenset()
    seed: int = 0
    samples: int = 8
    max_vars: Optional[int] = None


PassFn = Callable[[PassContext, CircuitIR],
                  Tuple[CircuitIR, FrozenSet[int]]]


def _pass_const_fold(ctx: PassContext, ir: CircuitIR
                     ) -> Tuple[CircuitIR, FrozenSet[int]]:
    return const_fold_ir(ir), frozenset()


def _pass_cse(ctx: PassContext, ir: CircuitIR
              ) -> Tuple[CircuitIR, FrozenSet[int]]:
    return cse_ir(ir), frozenset()


def _pass_prune(ctx: PassContext, ir: CircuitIR
                ) -> Tuple[CircuitIR, FrozenSet[int]]:
    return forget_vars(ir, ctx.aux_vars)


def _pass_desmooth(ctx: PassContext, ir: CircuitIR
                   ) -> Tuple[CircuitIR, FrozenSet[int]]:
    return desmooth_ir(ir), frozenset()


def _pass_smooth(ctx: PassContext, ir: CircuitIR
                 ) -> Tuple[CircuitIR, FrozenSet[int]]:
    return smooth_ir(ir), frozenset()


PASSES: Dict[str, PassFn] = {
    "const-fold": _pass_const_fold,
    "cse": _pass_cse,
    "tseitin-prune": _pass_prune,
    "desmooth": _pass_desmooth,
    "smooth": _pass_smooth,
}

PASS_NAMES: Tuple[str, ...] = tuple(PASSES)


def parse_passes(spec: Union[str, Sequence[str], None]
                 ) -> Tuple[str, ...]:
    """Normalise a pipeline spec: ``None`` → the default pipeline, a
    comma-separated string or a sequence otherwise.  Unknown names
    raise ``ValueError``."""
    if spec is None:
        return DEFAULT_PASSES
    if isinstance(spec, str):
        names = tuple(p.strip() for p in spec.split(",") if p.strip())
    else:
        names = tuple(spec)
    if not names:
        return DEFAULT_PASSES
    for name in names:
        if name not in PASSES:
            raise ValueError(
                f"unknown pass {name!r}; available: "
                f"{', '.join(PASS_NAMES)}")
    return names


def pipeline_signature(passes: Sequence[str]) -> str:
    """Short content signature of a pass pipeline (store variant key)."""
    text = "|".join(passes)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class PassReport:
    """What one pass did (or why it didn't)."""

    name: str
    before_nodes: int
    after_nodes: int
    status: str  # applied | no-change | not-smaller | rejected | budget
    detail: str = ""
    elapsed_s: float = 0.0

    def as_wire(self) -> Dict[str, Any]:
        return {"name": self.name, "before_nodes": self.before_nodes,
                "after_nodes": self.after_nodes, "status": self.status,
                "detail": self.detail,
                "elapsed_s": round(self.elapsed_s, 6)}


@dataclass
class PipelineResult:
    """Outcome of one pipeline run: the certified best circuit plus a
    per-pass audit trail."""

    ir: CircuitIR
    original: CircuitIR
    passes: Tuple[str, ...]
    signature: str
    forgotten: FrozenSet[int] = frozenset()
    reports: List[PassReport] = field(default_factory=list)
    budget_hit: bool = False

    @property
    def before_nodes(self) -> int:
        return self.original.n

    @property
    def after_nodes(self) -> int:
        return self.ir.n

    @property
    def changed(self) -> bool:
        return self.ir is not self.original

    @property
    def reduction(self) -> float:
        """Fraction of nodes removed (0.0 when nothing shrank)."""
        if not self.original.n:
            return 0.0
        return max(0.0, 1.0 - self.ir.n / self.original.n)

    def as_wire(self) -> Dict[str, Any]:
        return {"passes": list(self.passes),
                "signature": self.signature,
                "before_nodes": self.before_nodes,
                "after_nodes": self.after_nodes,
                "reduction": round(self.reduction, 4),
                "forgotten_vars": sorted(self.forgotten),
                "budget_hit": self.budget_hit,
                "reports": [r.as_wire() for r in self.reports]}


class PassManager:
    """Run a pipeline of certification-gated rewrites.

    Each pass produces a candidate twin; the candidate replaces the
    current circuit only if :func:`certified_equivalent` accepts it
    *and* it is strictly smaller (``smooth`` may grow).  A budget, if
    given, is charged per pass and on every kernel query inside the
    gate; expiry degrades to the best circuit certified so far.
    """

    def __init__(self, passes: Union[str, Sequence[str], None] = None,
                 *, aux_vars: Iterable[int] = (), seed: int = 0,
                 samples: int = 8,
                 max_vars: Optional[int] = None) -> None:
        self.passes = parse_passes(passes)
        self.context = PassContext(
            aux_vars=frozenset(int(v) for v in aux_vars),
            seed=seed, samples=samples, max_vars=max_vars)

    @property
    def signature(self) -> str:
        return pipeline_signature(self.passes)

    def run(self, ir: CircuitIR,
            budget: Optional[Budget] = None) -> PipelineResult:
        result = PipelineResult(ir=ir, original=ir, passes=self.passes,
                                signature=self.signature)
        if ir.num_params:
            result.reports.append(PassReport(
                "pipeline", ir.n, ir.n, "no-change",
                "parameterised circuits are not optimised"))
            return result
        if not ir.n:
            return result
        current = ir
        forgotten: FrozenSet[int] = frozenset()
        for name in self.passes:
            started = time.perf_counter()
            report = PassReport(name, current.n, current.n, "no-change")
            try:
                if budget is not None:
                    budget.tick(max(1, current.n))
                with budget.scope() if budget is not None \
                        else nullcontext():
                    candidate, newly = PASSES[name](
                        self.context, current)
                    if candidate is current or candidate == current:
                        report.status = "no-change"
                    elif (candidate.n >= current.n
                            and name not in _ALLOW_GROWTH):
                        report.status = "not-smaller"
                        report.after_nodes = candidate.n
                    else:
                        reason = certified_equivalent(
                            current, candidate,
                            forgotten=newly,
                            seed=self.context.seed,
                            samples=self.context.samples,
                            max_vars=self.context.max_vars)
                        if reason is None:
                            current = candidate
                            forgotten = forgotten | newly
                            report.status = "applied"
                            report.after_nodes = candidate.n
                        else:
                            report.status = "rejected"
                            report.detail = reason
            except BudgetExceeded as error:
                report.status = "budget"
                report.detail = str(error)
                result.budget_hit = True
                report.elapsed_s = time.perf_counter() - started
                result.reports.append(report)
                break
            report.elapsed_s = time.perf_counter() - started
            result.reports.append(report)
        result.ir = current
        result.forgotten = forgotten
        return result


def optimize_ir(ir: CircuitIR,
                passes: Union[str, Sequence[str], None] = None, *,
                aux_vars: Iterable[int] = (),
                budget: Optional[Budget] = None, seed: int = 0,
                samples: int = 8,
                max_vars: Optional[int] = None) -> PipelineResult:
    """One-shot convenience: build a :class:`PassManager` and run it."""
    manager = PassManager(passes, aux_vars=aux_vars, seed=seed,
                          samples=samples, max_vars=max_vars)
    return manager.run(ir, budget=budget)
