"""NNF-facing adapter over the unified IR execution engine.

The dense-array evaluation engine that used to live here moved to
:mod:`repro.ir.kernel`, where every circuit family (NNF, OBDD, SDD,
PSDD, arithmetic circuits) dispatches through the same passes.  This
module keeps the NNF-specific surface:

* :func:`get_kernel` — the per-manager kernel cache the query layer
  uses, over the one :class:`~repro.ir.kernel.IrKernel` of the root's
  interned IR;
* re-exports of the kind codes and batch packers, so existing
  importers (``repro.wmc.arithmetic_circuit``, tests) keep working.
"""

from __future__ import annotations

from ..ir.core import (KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR,
                       KIND_TRUE)
from ..ir.kernel import (IrKernel, ir_kernel, pack_assignment_batch,
                         pack_weight_batch)
from ..ir.lower import nnf_to_ir
from .node import NnfNode

__all__ = ["get_kernel", "pack_weight_batch", "pack_assignment_batch",
           "KIND_LIT", "KIND_TRUE", "KIND_FALSE", "KIND_AND", "KIND_OR"]


def get_kernel(root: NnfNode) -> IrKernel:
    """The (cached) kernel for ``root``: ``ir_kernel(nnf_to_ir(root))``.

    Memoised on the root's manager keyed by node id, so a repeated
    query skips the lowering; nodes are immutable and hash-consed, so
    a cached kernel never goes stale even as the manager keeps
    growing.  Structurally identical circuits intern to one IR, so
    every route to it (other managers, the facade, the query gate)
    shares one kernel and its memoised results.
    """
    manager = root.manager
    cache = getattr(manager, "_kernel_cache", None)
    if cache is None:
        cache = manager._kernel_cache = {}
    kernel = cache.get(root.id)
    if kernel is None:
        kernel = cache[root.id] = ir_kernel(nnf_to_ir(root))
    return kernel
