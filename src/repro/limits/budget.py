"""Cooperative resource budgets for compilation and counting.

Compilation is worst-case exponential (Darwiche 2022, *Tractable
Boolean and Arithmetic Circuits*), so a service built on the
compile-then-query pipelines must be able to bound every compile and
count and degrade gracefully instead of hanging.  A :class:`Budget`
bundles the caps a caller wants enforced — a wall-clock deadline, a
node budget, a recursion-depth cap, a cache-size cap — and the engines
(:class:`~repro.sat.counter.ModelCounter`,
:class:`~repro.compile.dnnf_compiler.DnnfCompiler`,
:class:`~repro.sdd.manager.SddManager` apply,
:class:`~repro.sat.propagation.WatchedSolver`,
:class:`~repro.ir.kernel.IrKernel`) check it *cooperatively* at coarse
boundaries: once per search node, apply call or kernel pass, never per
literal.  An exhausted budget raises :class:`BudgetExceeded`, a
structured exception carrying the reason, the budget's counters and
whatever partial state the raising engine attached.

Budgets can be passed explicitly (``ModelCounter(budget=...)``) or
installed *ambiently* for a dynamic scope::

    with Budget(deadline_s=2.0).scope():
        root = DnnfCompiler().compile(cnf)   # governed, no plumbing

Every budget-aware engine resolves ``explicit or ambient`` via
:func:`resolve_budget`.  Ambient scopes nest (innermost wins) and are
thread-local.

The clock is injectable (``Budget(clock=...)``) which is what the
fault-injection harness (:mod:`repro.limits.faults`) uses to simulate
clock skew and deadline expiry deterministically; allocation failure at
the Nth node is injected with ``alloc_fail_at``.

Anytime callers that prefer bounds over exceptions use the non-raising
:meth:`Budget.charge` and turn exhaustion into certified lower/upper
bounds — see :mod:`repro.limits.anytime`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = ["Budget", "BudgetExceeded", "resolve_budget"]

#: exhaustion reasons carried by :class:`BudgetExceeded`
REASON_DEADLINE = "deadline"
REASON_NODES = "nodes"
REASON_DEPTH = "recursion"
REASON_CACHE = "cache"
REASON_ALLOCATION = "allocation"

_ambient = threading.local()


class BudgetExceeded(RuntimeError):
    """A resource budget was exhausted mid-operation.

    Attributes
    ----------
    reason:
        One of ``"deadline"``, ``"nodes"``, ``"recursion"``,
        ``"cache"``, ``"allocation"``.
    budget:
        The :class:`Budget` that tripped (its counters are readable).
    partial:
        Engine-attached partial state: a dict of whatever the raising
        engine knew at the point of exhaustion (decisions made, cache
        entries, live nodes, operation counters).  Engines re-raise the
        exception after enriching this dict, so outer drivers (the
        restart driver, the CLI, the benchmark harness) can report it.
    """

    def __init__(self, reason: str, budget: "Budget",
                 partial: Optional[Dict] = None):
        self.reason = reason
        self.budget = budget
        self.partial: Dict = dict(partial or {})
        super().__init__(self._describe())

    def _describe(self) -> str:
        b = self.budget
        detail = {
            REASON_DEADLINE: lambda: f"deadline {b.deadline_s}s "
                                     f"(elapsed {b.elapsed():.3f}s)",
            REASON_NODES: lambda: f"node budget {b.max_nodes} "
                                  f"(charged {b.nodes})",
            REASON_DEPTH: lambda: f"recursion cap {b.max_depth} "
                                  f"(depth {b.depth})",
            REASON_CACHE: lambda: f"cache cap {b.max_cache_entries} "
                                  f"(entries {b.cache_entries})",
            REASON_ALLOCATION: lambda: f"injected allocation failure "
                                       f"at node {b.alloc_fail_at}",
        }[self.reason]
        return f"budget exceeded: {detail()}"

    def __str__(self) -> str:
        return self._describe()


class Budget:
    """A bundle of cooperative resource caps.

    Parameters
    ----------
    deadline_s:
        Wall-clock seconds from the first charge (or :meth:`start`).
    max_nodes:
        Cap on charged work units — search nodes for the DPLL engines,
        apply calls for the SDD manager, circuit nodes per pass for the
        IR kernel.  One budget threaded through several engines charges
        them against a single shared pool.
    max_depth:
        Recursion-depth cap (:meth:`enter` / :meth:`leave`).
    max_cache_entries:
        Cap on memo-cache insertions (:meth:`charge_cache`).
    clock:
        A zero-argument callable returning seconds; defaults to
        ``time.perf_counter``.  Injectable for fault testing
        (:mod:`repro.limits.faults`).
    alloc_fail_at:
        Fault injection: the charge that brings ``nodes`` to this value
        fails with reason ``"allocation"``, simulating an allocation
        failure at the Nth node.

    A budget is a spec plus counters.  It starts lazily on the first
    charge (so a budget built ahead of time does not burn its deadline
    while queued); :meth:`start` re-arms it explicitly, and the same
    object may be reused across sequential operations to pool their
    cost, or restarted per attempt as the restart driver does.
    """

    __slots__ = ("deadline_s", "max_nodes", "max_depth",
                 "max_cache_entries", "clock", "alloc_fail_at", "nodes",
                 "cache_entries", "depth", "_t0", "_expired_reason")

    def __init__(self, deadline_s: Optional[float] = None,
                 max_nodes: Optional[int] = None,
                 max_depth: Optional[int] = None,
                 max_cache_entries: Optional[int] = None,
                 clock: Optional[Callable[[], float]] = None,
                 alloc_fail_at: Optional[int] = None):
        for name, value in (("deadline_s", deadline_s),
                            ("max_nodes", max_nodes),
                            ("max_depth", max_depth),
                            ("max_cache_entries", max_cache_entries),
                            ("alloc_fail_at", alloc_fail_at)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.deadline_s = deadline_s
        self.max_nodes = max_nodes
        self.max_depth = max_depth
        self.max_cache_entries = max_cache_entries
        self.clock = clock or time.perf_counter
        self.alloc_fail_at = alloc_fail_at
        self.nodes = 0
        self.cache_entries = 0
        self.depth = 0
        self._t0: Optional[float] = None
        self._expired_reason: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Budget":
        """(Re-)arm: stamp the deadline origin and zero the counters."""
        self.nodes = 0
        self.cache_entries = 0
        self.depth = 0
        self._t0 = self.clock()
        self._expired_reason = None
        return self

    @property
    def started(self) -> bool:
        return self._t0 is not None

    def slice(self, fraction: float) -> "Budget":
        """A fresh budget holding ``fraction`` of this one's caps.

        Deadline and node caps scale; the clock is shared so injected
        fault clocks govern the slice too.  Used to carve a request
        budget into a compile share and an anytime-fallback reserve.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {fraction}")
        deadline = None if self.deadline_s is None else \
            max(self.deadline_s * fraction, 1e-9)
        nodes = None if self.max_nodes is None else \
            max(int(self.max_nodes * fraction), 1)
        return Budget(deadline_s=deadline, max_nodes=nodes,
                      max_depth=self.max_depth,
                      max_cache_entries=self.max_cache_entries,
                      clock=self.clock)

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before the first charge)."""
        return 0.0 if self._t0 is None else self.clock() - self._t0

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (None when no deadline)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    # -- charging ------------------------------------------------------------
    def charge(self, nodes: int = 1) -> Optional[str]:
        """Account for ``nodes`` work units; non-raising.

        Returns the exhaustion reason, or None while within budget.
        Once exhausted, every later charge keeps returning the same
        reason — anytime engines use this to bail out of the remaining
        search without re-checking the clock.
        """
        if self._expired_reason is not None:
            return self._expired_reason
        if self._t0 is None:
            self._t0 = self.clock()
        self.nodes += nodes
        if self.alloc_fail_at is not None \
                and self.nodes >= self.alloc_fail_at:
            self._expired_reason = REASON_ALLOCATION
        elif self.max_nodes is not None and self.nodes > self.max_nodes:
            self._expired_reason = REASON_NODES
        elif self.deadline_s is not None \
                and self.clock() - self._t0 > self.deadline_s:
            self._expired_reason = REASON_DEADLINE
        return self._expired_reason

    def tick(self, nodes: int = 1,
             partial: Optional[Dict] = None) -> None:
        """:meth:`charge`, raising :class:`BudgetExceeded` on exhaustion."""
        reason = self.charge(nodes)
        if reason is not None:
            raise BudgetExceeded(reason, self, partial)

    def charge_cache(self, entries: int = 1) -> None:
        """Account for memo-cache insertions; raises on the cap."""
        self.cache_entries += entries
        if self.max_cache_entries is not None \
                and self.cache_entries > self.max_cache_entries:
            self._expired_reason = REASON_CACHE
            raise BudgetExceeded(REASON_CACHE, self)

    def enter(self) -> None:
        """Track one recursion level down; raises past ``max_depth``."""
        self.depth += 1
        if self.max_depth is not None and self.depth > self.max_depth:
            self._expired_reason = REASON_DEPTH
            raise BudgetExceeded(REASON_DEPTH, self)

    def leave(self) -> None:
        self.depth -= 1

    def expired(self) -> Optional[str]:
        """The sticky exhaustion reason (None while within budget).
        Also evaluates the deadline, so pure readers see expiry without
        charging."""
        if self._expired_reason is None and self.deadline_s is not None \
                and self._t0 is not None \
                and self.clock() - self._t0 > self.deadline_s:
            self._expired_reason = REASON_DEADLINE
        return self._expired_reason

    # -- ambient scope -------------------------------------------------------
    @contextmanager
    def scope(self) -> Iterator["Budget"]:
        """Install this budget ambiently for the dynamic extent.

        Starts the budget on entry.  Every budget-aware engine invoked
        inside (without an explicit budget of its own) resolves and
        charges it; scopes nest, innermost wins.
        """
        stack = getattr(_ambient, "stack", None)
        if stack is None:
            stack = _ambient.stack = []
        stack.append(self.start())
        try:
            yield self
        finally:
            stack.pop()

    @staticmethod
    def ambient() -> Optional["Budget"]:
        """The innermost ambient budget of this thread, or None."""
        stack = getattr(_ambient, "stack", None)
        return stack[-1] if stack else None

    def as_dict(self) -> Dict:
        """JSON-friendly snapshot of the spec and counters."""
        return {
            "deadline_s": self.deadline_s,
            "max_nodes": self.max_nodes,
            "max_depth": self.max_depth,
            "max_cache_entries": self.max_cache_entries,
            "nodes": self.nodes,
            "cache_entries": self.cache_entries,
            "elapsed_s": round(self.elapsed(), 6),
            "expired": self._expired_reason,
        }

    def __repr__(self) -> str:
        caps = ", ".join(f"{k}={v}" for k, v in (
            ("deadline_s", self.deadline_s), ("max_nodes", self.max_nodes),
            ("max_depth", self.max_depth),
            ("max_cache_entries", self.max_cache_entries)) if v is not None)
        return f"Budget({caps or 'unlimited'}, nodes={self.nodes})"


def resolve_budget(budget: Optional[Budget]) -> Optional[Budget]:
    """``budget`` when given, else the ambient budget, else None."""
    return budget if budget is not None else Budget.ambient()
