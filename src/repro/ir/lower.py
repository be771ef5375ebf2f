"""Lowerings from every circuit family onto the flattened IR.

Each family keeps its construction-time representation (hash-consed
NNF DAGs, reduced OBDDs, canonical SDDs, parameterised PSDDs, smoothed
arithmetic circuits) and lowers to one :class:`~repro.ir.core.CircuitIR`
for execution:

* :func:`nnf_to_ir` — structurally 1:1 (raw gates, no simplification),
  so the dense arrays match what the per-family kernel used to build;
  :func:`ir_to_nnf` lifts back, preserving structure;
* :func:`obdd_to_ir` — each decision node becomes
  ``(¬v ∧ low) ∨ (v ∧ high)``; reduction guarantees determinism;
* :func:`sdd_to_ir` — each decision node becomes the or-of-ands over
  its elements (false subs dropped), exactly the Fig 9 multiplexer;
* :func:`psdd_to_ir` — SDD structure plus ``KIND_PARAM`` leaves for
  the θs: a Bernoulli is ``(θ⁺ ∧ v) ∨ (θ⁻ ∧ ¬v)``, a decision element
  ``θₖ ∧ primeₖ ∧ subₖ``.  The lowering returns the parameter vector
  read from the *live* nodes, so in-place learning/EM updates are
  picked up by the next query without rebuilding (no stale memos);
  :func:`psdd_slots` names the θ each parameter leaf reads, which is
  how EM maps the kernel's derivatives back onto the nodes;
* :func:`ac_to_ir` — the smoothed d-DNNF under an arithmetic circuit.

Property flags are computed once here and carried in the IR header;
the OBDD/SDD/PSDD lowerings assert determinism/structure from their
construction invariants rather than re-deriving them semantically.

Lowerings of the manager-owned families (OBDD, SDD) are cached on the
manager; PSDD lowerings are cached in a bounded module-level table
keyed by the globally-unique node id.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .core import (CircuitIR, IrBuilder, FLAG_DECOMPOSABLE,
                   FLAG_DETERMINISTIC, FLAG_SMOOTH, FLAG_STRUCTURED,
                   KIND_AND, KIND_LIT, KIND_OR, KIND_PARAM, KIND_TRUE)

__all__ = ["nnf_to_ir", "ir_to_nnf", "obdd_to_ir", "sdd_to_ir",
           "psdd_to_ir", "psdd_slots", "ac_to_ir", "structural_flags"]


def structural_flags(ir: CircuitIR) -> int:
    """The flags checkable in one structural pass: decomposability
    (and-children mention disjoint variables) and smoothness
    (or-children mention equal variables).  Determinism and
    structuredness are semantic; the family lowerings assert them from
    construction invariants instead."""
    varsets = ir.varsets()
    flags = FLAG_DECOMPOSABLE | FLAG_SMOOTH
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_AND and flags & FLAG_DECOMPOSABLE:
            kids = ir.children(i)
            total = sum(len(varsets[c]) for c in kids)
            if total != len(varsets[i]):
                flags &= ~FLAG_DECOMPOSABLE
        elif kind == KIND_OR and flags & FLAG_SMOOTH:
            kids = ir.children(i)
            if kids:
                first = varsets[kids[0]]
                for c in kids[1:]:
                    if varsets[c] != first:
                        flags &= ~FLAG_SMOOTH
                        break
        if not flags:
            break
    return flags


# -- NNF ---------------------------------------------------------------------

def nnf_to_ir(root: Any, flags: Optional[int] = None,
              intern: bool = True) -> CircuitIR:
    """Lower an :class:`~repro.nnf.node.NnfNode` DAG, structurally 1:1.

    Gates are lowered raw (no constant simplification), so node ``i``
    of the IR corresponds exactly to node ``i`` of
    ``root.topological()``.
    ``flags`` defaults to the structurally checkable properties;
    callers that know more (compiler output is deterministic by
    construction) pass the full set.
    """
    builder = IrBuilder()
    index: Dict[int, int] = {}
    for node in root.topological():
        kind = node.kind
        if kind == "lit":
            idx = builder.literal(node.literal)
        elif kind == "true":
            idx = builder.true()
        elif kind == "false":
            idx = builder.false()
        elif kind == "and":
            idx = builder.raw_and(
                tuple(index[c.id] for c in node.children))
        else:
            idx = builder.raw_or(
                tuple(index[c.id] for c in node.children))
        index[node.id] = idx
    ir = builder.finish(index[root.id], intern=False)
    if flags is None:
        flags = structural_flags(ir)
    ir.flags = flags
    return ir.intern() if intern else ir


def ir_to_nnf(ir: CircuitIR, manager: Any = None) -> Any:
    """Lift an IR back into an NNF DAG (structure-preserving).

    Parameterised circuits (``KIND_PARAM`` leaves) have no Boolean
    lifting and are rejected.
    """
    from ..nnf.node import NnfManager
    if manager is None:
        manager = NnfManager()
    nodes = []
    for i in range(ir.n):
        kind = ir.kinds[i]
        if kind == KIND_LIT:
            nodes.append(manager.literal(ir.lits[i]))
        elif kind == KIND_PARAM:
            raise ValueError(
                "cannot lift a parameterised circuit to Boolean NNF")
        elif kind == KIND_AND:
            nodes.append(manager._make(
                "and", 0, tuple(nodes[c] for c in ir.children(i))))
        elif kind == KIND_OR:
            nodes.append(manager._make(
                "or", 0, tuple(nodes[c] for c in ir.children(i))))
        else:
            nodes.append(manager.true() if kind == KIND_TRUE
                         else manager.false())
    return nodes[-1]


# -- OBDD --------------------------------------------------------------------

def obdd_to_ir(node: Any, intern: bool = True) -> CircuitIR:
    """Lower a reduced OBDD: decision nodes become the deterministic
    or-of-ands ``(¬v ∧ low) ∨ (v ∧ high)``.  Cached on the manager."""
    manager = node.manager
    cache = getattr(manager, "_ir_cache", None)
    if cache is None:
        cache = manager._ir_cache = {}
    ir = cache.get(node.id)
    if ir is not None:
        return ir
    builder = IrBuilder()
    index: Dict[int, int] = {}
    for n in node.topological():
        if n.is_terminal:
            index[n.id] = builder.true() if n.terminal_value \
                else builder.false()
        else:
            low_arm = builder.conjoin(
                (builder.literal(-n.var), index[n.low.id]))
            high_arm = builder.conjoin(
                (builder.literal(n.var), index[n.high.id]))
            index[n.id] = builder.disjoin((low_arm, high_arm))
    # reduction makes every or-gate a decision on a tested variable:
    # deterministic by construction; a right-linear vtree structures it
    flags = (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_STRUCTURED)
    ir = builder.finish(index[node.id], flags=flags, intern=intern)
    cache[node.id] = ir
    return ir


# -- SDD ---------------------------------------------------------------------

def sdd_to_ir(node: Any, intern: bool = True) -> CircuitIR:
    """Lower a canonical SDD: each decision node is the or-of-ands of
    its elements (Fig 9); elements with a false sub vanish.  Mutually
    exclusive primes make the or-gates deterministic.  Cached on the
    manager."""
    manager = node.manager
    cache = getattr(manager, "_ir_cache", None)
    if cache is None:
        cache = manager._ir_cache = {}
    ir = cache.get(node.id)
    if ir is not None:
        return ir
    builder = IrBuilder()
    index: Dict[int, int] = {}
    for n in node.descendants():
        if n.is_true:
            index[n.id] = builder.true()
        elif n.is_false:
            index[n.id] = builder.false()
        elif n.is_literal:
            index[n.id] = builder.literal(n.literal)
        else:
            index[n.id] = builder.disjoin(
                builder.conjoin((index[p.id], index[s.id]))
                for p, s in n.elements)
    flags = (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_STRUCTURED)
    ir = builder.finish(index[node.id], flags=flags, intern=intern)
    cache[node.id] = ir
    return ir


# -- PSDD --------------------------------------------------------------------

#: bounded cache psdd-node-id → (ir, parameter slots); PSDD ids are
#: globally unique, so collisions are impossible
_PSDD_IR_CACHE: Dict[int, Tuple[CircuitIR, List[Tuple[Any, int]]]] = {}
_PSDD_IR_LIMIT = 256


def _psdd_param(slot: Tuple[Any, int]) -> float:
    node, k = slot
    if node.is_bernoulli:
        return node.theta if k else 1.0 - node.theta
    return node.elements[k][2]


def psdd_slots(root: Any) -> Tuple[CircuitIR, List[Tuple[Any, int]]]:
    """The structure :func:`psdd_to_ir` returns, and what each of its
    ``KIND_PARAM`` leaves reads: slot ``s`` is ``(node, k)``, the θ of
    element ``k`` of a decision node, or of a Bernoulli node its θ
    (``k = 1``, the arm of the positive literal) or 1 − θ (``k = 0``).
    """
    cached = _PSDD_IR_CACHE.get(root.id)
    if cached is None:
        builder = IrBuilder()
        slots: List[Tuple[Any, int]] = []
        index: Dict[int, int] = {}

        def param(node: Any, k: int) -> int:
            slots.append((node, k))
            return builder.param(len(slots) - 1)

        for node in root.descendants():
            if node.is_literal:
                index[node.id] = builder.literal(node.literal)
            elif node.is_bernoulli:
                var = abs(node.literal)
                index[node.id] = builder.disjoin((
                    builder.conjoin((param(node, 1),
                                     builder.literal(var))),
                    builder.conjoin((param(node, 0),
                                     builder.literal(-var)))))
            else:
                index[node.id] = builder.disjoin(
                    builder.conjoin((param(node, k),
                                     index[prime.id], index[sub.id]))
                    for k, (prime, sub, _theta)
                    in enumerate(node.elements))
        # full-vtree normalization makes PSDDs smooth by construction
        flags = (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH |
                 FLAG_STRUCTURED)
        ir = builder.finish(index[root.id], flags=flags, intern=False)
        if len(_PSDD_IR_CACHE) >= _PSDD_IR_LIMIT:
            _PSDD_IR_CACHE.clear()
        cached = _PSDD_IR_CACHE[root.id] = (ir, slots)
    return cached


def psdd_to_ir(root: Any) -> Tuple[CircuitIR, List[float]]:
    """Lower a PSDD to (structure, current parameter vector).

    The structure carries ``KIND_PARAM`` leaves indexing the returned
    vector; the vector is re-read from the live nodes on every call, so
    learning/EM updates that mutate θs in place are always reflected —
    the structural IR (and its kernel, and its memoised *pure* results)
    can never go stale under parameter updates.
    """
    ir, slots = psdd_slots(root)
    return ir, [_psdd_param(slot) for slot in slots]


# -- arithmetic circuits -----------------------------------------------------

def ac_to_ir(ac: Any, intern: bool = True) -> CircuitIR:
    """Lower an :class:`~repro.wmc.arithmetic_circuit.ArithmeticCircuit`:
    its root is a smoothed d-DNNF (compiler output) that mentions every
    variable the AC lists, so the full flag set applies and the IR's
    variables are the AC's."""
    return nnf_to_ir(
        ac.root,
        flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH,
        intern=intern)
