"""The flattened circuit IR: immutable CSR arrays plus property flags.

A :class:`CircuitIR` holds one circuit as four parallel arrays in a
fixed topological order (children strictly before parents, root last):

* ``kinds[i]`` — a small int code (literal / ⊤ / ⊥ / and / or / param);
* ``lits[i]`` — the DIMACS literal for literal nodes, the parameter
  index for param nodes, 0 otherwise;
* ``offsets`` / ``child_ids`` — CSR child lists: the children of node
  ``i`` are ``child_ids[offsets[i]:offsets[i+1]]``, each a node index
  smaller than ``i``.

The header carries the property flags the paper's tractability story
is built on (decomposable / deterministic / smooth / structured),
computed once at lowering time, plus the parameter count for weighted
(PSDD-style) circuits.  Instances are immutable and hashable;
:meth:`CircuitIR.intern` deduplicates structurally identical IRs so
repeated lowerings of the same circuit share one object (and hence one
:class:`~repro.ir.kernel.IrKernel`).

``canonical_text`` / ``digest`` give a canonical serialization and its
SHA-256 — the content address used by :mod:`repro.ir.store`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["CircuitIR", "IrBuilder", "KIND_LIT", "KIND_TRUE",
           "KIND_FALSE", "KIND_AND", "KIND_OR", "KIND_PARAM",
           "FLAG_DECOMPOSABLE", "FLAG_DETERMINISTIC", "FLAG_SMOOTH",
           "FLAG_STRUCTURED"]

# node kind codes
KIND_LIT = 0
KIND_TRUE = 1
KIND_FALSE = 2
KIND_AND = 3
KIND_OR = 4
#: a parameter leaf: a multiplicative weight read from a parameter
#: vector at query time (PSDD θs); ``lits[i]`` is the parameter index
KIND_PARAM = 5

_KIND_LETTER = {KIND_LIT: "L", KIND_TRUE: "T", KIND_FALSE: "F",
                KIND_AND: "A", KIND_OR: "O", KIND_PARAM: "P"}

# property flags (bitmask)
FLAG_DECOMPOSABLE = 1
FLAG_DETERMINISTIC = 2
FLAG_SMOOTH = 4
FLAG_STRUCTURED = 8

_FLAG_NAMES = ((FLAG_DECOMPOSABLE, "decomposable"),
               (FLAG_DETERMINISTIC, "deterministic"),
               (FLAG_SMOOTH, "smooth"),
               (FLAG_STRUCTURED, "structured"))

#: interning pool: canonical content key -> CircuitIR
_INTERN_POOL: Dict[Tuple, "CircuitIR"] = {}
_INTERN_LIMIT = 4096


class CircuitIR:
    """One flattened circuit.  Build with :class:`IrBuilder` or a
    family lowering from :mod:`repro.ir.lower`."""

    __slots__ = ("n", "kinds", "lits", "offsets", "child_ids", "flags",
                 "num_params", "_varsets", "_digest", "_kernel",
                 "__weakref__")

    def __init__(self, kinds: Sequence[int], lits: Sequence[int],
                 offsets: Sequence[int], child_ids: Sequence[int],
                 flags: int = 0, num_params: int = 0) -> None:
        self.n = len(kinds)
        self.kinds: Tuple[int, ...] = tuple(kinds)
        self.lits: Tuple[int, ...] = tuple(lits)
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.child_ids: Tuple[int, ...] = tuple(child_ids)
        self.flags = flags
        self.num_params = num_params
        if len(self.lits) != self.n or len(self.offsets) != self.n + 1:
            raise ValueError("inconsistent IR array lengths")
        self._varsets: Optional[List[frozenset]] = None
        self._digest: Optional[str] = None
        self._kernel = None  # the (single) IrKernel for this IR

    # -- structure -----------------------------------------------------------
    def children(self, i: int) -> Tuple[int, ...]:
        return self.child_ids[self.offsets[i]:self.offsets[i + 1]]

    def child_lists(self) -> List[Tuple[int, ...]]:
        """All child tuples, index-aligned (materialised per call)."""
        offsets, ids = self.offsets, self.child_ids
        return [ids[offsets[i]:offsets[i + 1]] for i in range(self.n)]

    @property
    def root(self) -> int:
        """The root's node index (the last node, by construction)."""
        return self.n - 1

    def node_count(self) -> int:
        return self.n

    def edge_count(self) -> int:
        return len(self.child_ids)

    def varsets(self) -> List[frozenset]:
        """Per-node mentioned-variable sets, bottom-up (cached)."""
        if self._varsets is None:
            varsets: List[frozenset] = [frozenset()] * self.n
            empty = frozenset()
            for i in range(self.n):
                kind = self.kinds[i]
                if kind == KIND_LIT:
                    varsets[i] = frozenset((abs(self.lits[i]),))
                elif kind == KIND_AND or kind == KIND_OR:
                    kids = self.children(i)
                    if kids:
                        varsets[i] = empty.union(
                            *(varsets[c] for c in kids))
            self._varsets = varsets
        return self._varsets

    def variables(self) -> frozenset:
        """Variables mentioned anywhere in the circuit."""
        if not self.n:
            return frozenset()
        return frozenset(abs(self.lits[i]) for i in range(self.n)
                         if self.kinds[i] == KIND_LIT)

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)

    def flag_names(self) -> List[str]:
        return [name for bit, name in _FLAG_NAMES if self.flags & bit]

    # -- identity ------------------------------------------------------------
    def _content_key(self) -> Tuple:
        return (self.kinds, self.lits, self.offsets, self.child_ids,
                self.flags, self.num_params)

    def canonical_text(self) -> str:
        """A canonical line-based serialization (digest input).

        One line per node: a kind letter plus the literal / parameter
        index / child indices; the header records node count, flags and
        parameter count.  Two IRs have equal canonical text iff they
        are structurally identical.
        """
        lines = [f"ir {self.n} {self.flags} {self.num_params}"]
        for i in range(self.n):
            kind = self.kinds[i]
            letter = _KIND_LETTER[kind]
            if kind == KIND_LIT or kind == KIND_PARAM:
                lines.append(f"{letter} {self.lits[i]}")
            elif kind == KIND_AND or kind == KIND_OR:
                kids = " ".join(map(str, self.children(i)))
                lines.append(f"{letter} {kids}".rstrip())
            else:
                lines.append(letter)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 of the canonical text — the content address."""
        if self._digest is None:
            self._digest = hashlib.sha256(
                self.canonical_text().encode()).hexdigest()
        return self._digest

    def intern(self) -> "CircuitIR":
        """The pooled structurally-identical IR (self if first seen).

        Interning gives structural sharing across lowerings: the pooled
        instance carries the cached kernel, so two independently
        lowered but identical circuits share memoised query results.
        """
        key = self._content_key()
        pooled = _INTERN_POOL.get(key)
        if pooled is not None:
            return pooled
        if len(_INTERN_POOL) >= _INTERN_LIMIT:
            _INTERN_POOL.clear()
        _INTERN_POOL[key] = self
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CircuitIR) and \
            self._content_key() == other._content_key()

    def __hash__(self) -> int:
        return hash((self.n, self.kinds, self.child_ids))

    def __repr__(self) -> str:
        props = ",".join(self.flag_names()) or "none"
        return (f"CircuitIR({self.n} nodes, {self.edge_count()} edges, "
                f"props={props})")


class IrBuilder:
    """Incremental CircuitIR construction with hash-consing and the
    same constant simplifications as :class:`repro.nnf.node.NnfManager`
    (⊥ absorbs conjunctions, ⊤ disjunctions; units collapse), so
    family lowerings produce the IR their NNF export would.
    """

    def __init__(self) -> None:
        self._kinds: List[int] = []
        self._lits: List[int] = []
        self._children: List[Tuple[int, ...]] = []
        self._unique: Dict[Tuple, int] = {}
        self._true: Optional[int] = None
        self._false: Optional[int] = None
        self.num_params = 0

    def __len__(self) -> int:
        return len(self._kinds)

    def _make(self, kind: int, lit: int,
              children: Tuple[int, ...]) -> int:
        key = (kind, lit, children)
        idx = self._unique.get(key)
        if idx is None:
            idx = len(self._kinds)
            self._kinds.append(kind)
            self._lits.append(lit)
            self._children.append(children)
            self._unique[key] = idx
        return idx

    # -- leaves --------------------------------------------------------------
    def true(self) -> int:
        if self._true is None:
            self._true = self._make(KIND_TRUE, 0, ())
        return self._true

    def false(self) -> int:
        if self._false is None:
            self._false = self._make(KIND_FALSE, 0, ())
        return self._false

    def literal(self, literal: int) -> int:
        if literal == 0:
            raise ValueError("literal must be non-zero")
        return self._make(KIND_LIT, literal, ())

    def param(self, index: Optional[int] = None) -> int:
        """A fresh (or explicit-index) parameter leaf."""
        if index is None:
            index = self.num_params
        self.num_params = max(self.num_params, index + 1)
        return self._make(KIND_PARAM, index, ())

    # -- gates ---------------------------------------------------------------
    def conjoin(self, children: Iterable[int]) -> int:
        kept: List[int] = []
        for child in children:
            kind = self._kinds[child]
            if kind == KIND_FALSE:
                return self.false()
            if kind == KIND_TRUE:
                continue
            kept.append(child)
        if not kept:
            return self.true()
        if len(kept) == 1:
            return kept[0]
        return self._make(KIND_AND, 0, tuple(kept))

    def disjoin(self, children: Iterable[int]) -> int:
        kept: List[int] = []
        for child in children:
            kind = self._kinds[child]
            if kind == KIND_TRUE:
                return self.true()
            if kind == KIND_FALSE:
                continue
            kept.append(child)
        if not kept:
            return self.false()
        if len(kept) == 1:
            return kept[0]
        return self._make(KIND_OR, 0, tuple(kept))

    def raw_and(self, children: Tuple[int, ...]) -> int:
        """An and-gate with no simplification (serialization fidelity)."""
        return self._make(KIND_AND, 0, children)

    def raw_or(self, children: Tuple[int, ...]) -> int:
        """An or-gate with no simplification (serialization fidelity)."""
        return self._make(KIND_OR, 0, children)

    # -- finish --------------------------------------------------------------
    def finish(self, root: int, flags: int = 0,
               intern: bool = True) -> CircuitIR:
        """Freeze into a CircuitIR rooted at ``root``.

        Nodes unreachable from the root are dropped; the remaining
        nodes are renumbered in (construction-stable) topological
        order with the root last.
        """
        reachable = [False] * len(self._kinds)
        stack = [root]
        reachable[root] = True
        while stack:
            i = stack.pop()
            for c in self._children[i]:
                if not reachable[c]:
                    reachable[c] = True
                    stack.append(c)
        # construction order is already children-before-parents; keep
        # it (minus unreachable nodes), then move the root to the end
        order = [i for i in range(len(self._kinds))
                 if reachable[i] and i != root]
        order.append(root)
        remap = {old: new for new, old in enumerate(order)}
        kinds = [self._kinds[i] for i in order]
        lits = [self._lits[i] for i in order]
        offsets = [0]
        child_ids: List[int] = []
        for i in order:
            child_ids.extend(remap[c] for c in self._children[i])
            offsets.append(len(child_ids))
        ir = CircuitIR(kinds, lits, offsets, child_ids, flags,
                       self.num_params)
        return ir.intern() if intern else ir
