"""Arithmetic circuits from compiled d-DNNFs (the differential approach).

Evaluating a smooth d-DNNF under literal weights gives the weighted
model count; differentiating the evaluation with respect to each
literal's weight gives, in one extra downward pass, the weighted count
of models containing each literal [23, 25].  This is how "all marginal
weighted model counts" come out in linear time (the paper's footnote 5)
and the core of AC-based Bayesian network inference.

Every method answers on the circuit's kernel
(:class:`~repro.ir.kernel.IrKernel`): the scalar methods on its
``wmc`` and ``weighted_derivatives`` passes, the ``*_batch`` variants
on its numpy passes over N weight vectors at once, which is how
dataset-sized query loads (classifier scoring, per-evidence MAR) are
served.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..ir.core import KIND_LIT
from ..ir.kernel import pack_weight_batch
from ..nnf.node import NnfNode
from ..nnf.queries import get_kernel
from ..nnf.transform import smooth as smooth_transform

__all__ = ["ArithmeticCircuit"]


class ArithmeticCircuit:
    """A smooth d-DNNF with literal weights, supporting evaluation and
    differentiation.

    Each listed variable the circuit never mentions is conjoined as
    ``(v ∨ ¬v)`` before smoothing, so the circuit's variables, and its
    kernel's, are exactly ``variables``.
    """

    def __init__(self, root: NnfNode, variables: List[int]):
        self.variables = list(variables)
        mentioned = root.variables()
        missing = mentioned - set(self.variables)
        if missing:
            raise ValueError(f"circuit mentions unlisted vars {missing}")
        manager = root.manager
        self.root = smooth_transform(manager.conjoin(root, *(
            manager.disjoin(manager.literal(v), manager.literal(-v))
            for v in self.variables if v not in mentioned)))

    def to_ir(self):
        """Lower the smoothed circuit onto the flattened execution IR
        (:func:`repro.ir.lower.ac_to_ir`)."""
        from ..ir.lower import ac_to_ir
        return ac_to_ir(self)

    def evaluate(self, weights: Mapping[int, float]) -> float:
        """The weighted model count under ``weights``."""
        return get_kernel(self.root).wmc(weights)

    def derivatives(self, weights: Mapping[int, float]
                    ) -> Dict[int, float]:
        """∂(WMC)/∂W(ℓ) for every literal ℓ over ``variables``.

        For a literal ℓ this equals the weighted count of models
        containing ℓ divided by W(ℓ) — i.e. the weighted count of
        models containing ℓ when its own weight is factored out.
        """
        kernel = get_kernel(self.root)
        _values, node_derivs = kernel.weighted_derivatives(weights)
        return self._by_literal(kernel, node_derivs, 0.0)

    def literal_marginals(self, weights: Mapping[int, float]
                          ) -> Dict[int, float]:
        """Weighted count of models containing each literal:
        W(ℓ) · ∂WMC/∂W(ℓ)."""
        derivs = self.derivatives(weights)
        return {lit: weights[lit] * d for lit, d in derivs.items()}

    def _by_literal(self, kernel, node_derivs, zero) -> Dict[int, "object"]:
        """Literal → the summed derivatives of its leaves; a literal no
        leaf carries reads ``zero``."""
        result: Dict[int, object] = {}
        for i in range(kernel.n):
            if kernel.kinds[i] == KIND_LIT:
                lit = kernel.lits[i]
                result[lit] = result.get(lit, zero) + node_derivs[i]
        for var in self.variables:
            result.setdefault(var, zero)
            result.setdefault(-var, zero)
        return result

    # -- batched passes ------------------------------------------------------
    def _weight_batch(self, weights):
        """literal → length-N array mapping from either representation."""
        if isinstance(weights, Mapping):
            return weights
        return pack_weight_batch(list(weights), self.variables)

    def evaluate_batch(self, weights):
        """Weighted model counts of N weight vectors in one numpy pass.

        ``weights`` is a sequence of N literal→weight maps or a packed
        literal → length-N array mapping over ``self.variables``;
        column ``j`` of the result equals ``evaluate`` of vector ``j``.
        """
        return get_kernel(self.root).wmc_batch(self._weight_batch(weights))

    def evaluate_log_batch(self, weights):
        """Log-space :meth:`evaluate_batch`: same linear weights in,
        length-N array of **log** WMCs out (zero weights → ``-inf``)."""
        import numpy as np
        batch = self._weight_batch(weights)
        with np.errstate(divide="ignore"):
            log_batch = {lit: np.log(np.asarray(col, dtype=float))
                         for lit, col in batch.items()}
        return get_kernel(self.root).wmc_log_batch(log_batch)

    def derivatives_batch(self, weights) -> Dict[int, "object"]:
        """Batched :meth:`derivatives`: literal → length-N array of
        ∂WMC/∂W(ℓ), from one upward + one downward kernel pass."""
        import numpy as np
        batch = self._weight_batch(weights)
        kernel = get_kernel(self.root)
        _values, node_derivs = kernel.derivatives_batch(batch)
        return self._by_literal(kernel, node_derivs,
                                np.zeros(kernel._batch_size(batch)))

    def literal_marginals_batch(self, weights) -> Dict[int, "object"]:
        """Batched :meth:`literal_marginals`: literal → length-N array
        of weighted counts of models containing the literal."""
        batch = self._weight_batch(weights)
        derivs = self.derivatives_batch(batch)
        return {lit: batch[lit] * d for lit, d in derivs.items()}
