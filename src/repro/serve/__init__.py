"""Compilation-as-a-service: the concurrent query server.

The paper's economics — compile once offline, query many times online
— become a long-lived service here.  An asyncio HTTP front end accepts
``POST /compile`` (DIMACS + compiler config) and ``POST /query``
(artifact key + count/wmc/mpe/marginals params); heavy work runs on
forked worker processes, fed over pipes by the event loop, over one
shared :class:`~repro.ir.store.ArtifactStore`, so a circuit compiled
for any client serves every later request through the warm path
(cert hit + ``.csr`` mmap, then the kernel's levelized evaluator).
Concurrent compiles of the same CNF collapse onto one in-flight
future keyed by the store's sha256 content key; admission control
bounds the worker backlog (429 + Retry-After) and an expiring
per-request deadline degrades a compile to certified anytime bounds
instead of an error.

This package touches the engine only through the sanctioned surface —
:mod:`repro.ir.facade`, :class:`~repro.ir.store.ArtifactStore`,
:class:`~repro.limits.budget.Budget` — enforced by the
``serve-isolation`` rule in ``tools/lint_invariants.py``.
"""

from .app import Server, ServerConfig, run_server
from .client import ServeClient
from .dedup import InflightRegistry
from .loadgen import run_load
from .protocol import ProtocolError

__all__ = ["Server", "ServerConfig", "run_server", "ServeClient",
           "InflightRegistry", "run_load", "ProtocolError"]
