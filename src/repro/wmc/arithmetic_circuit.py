"""Arithmetic circuits from compiled d-DNNFs (the differential approach).

Evaluating a smooth d-DNNF under literal weights gives the weighted
model count; differentiating the evaluation with respect to each
literal's weight gives, in one extra downward pass, the weighted count
of models containing each literal [23, 25].  This is how "all marginal
weighted model counts" come out in linear time (the paper's footnote 5)
and the core of AC-based Bayesian network inference.

The scalar methods are the reference implementation; ``*_batch``
variants answer N weight vectors in one numpy pass through the dense
circuit kernel (:class:`~repro.ir.kernel.IrKernel`), which is how
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

    The circuit is smoothed at construction; variables never mentioned
    by the circuit (``free_vars``) contribute the factor W(v) + W(-v) —
    in the batch evaluations through the kernel's ``scope``.
    """

    def __init__(self, root: NnfNode, variables: List[int]):
        self.root = smooth_transform(root)
        self.variables = list(variables)
        mentioned = set(self.root.variables())
        missing = mentioned - set(self.variables)
        if missing:
            raise ValueError(f"circuit mentions unlisted vars {missing}")
        self.free_vars = [v for v in self.variables if v not in mentioned]
        self._order = self.root.topological()

    def to_ir(self):
        """Lower the smoothed circuit onto the flattened execution IR
        (:func:`repro.ir.lower.ac_to_ir`); ``free_vars`` stay the AC's
        own bookkeeping."""
        from ..ir.lower import ac_to_ir
        return ac_to_ir(self)

    def evaluate(self, weights: Mapping[int, float]) -> float:
        """The weighted model count under ``weights``."""
        values = self._upward(weights)
        result = values[self.root.id]
        for var in self.free_vars:
            result *= weights[var] + weights[-var]
        return result

    def _upward(self, weights: Mapping[int, float]) -> Dict[int, float]:
        values: Dict[int, float] = {}
        for node in self._order:
            if node.is_literal:
                values[node.id] = weights[node.literal]
            elif node.is_true:
                values[node.id] = 1.0
            elif node.is_false:
                values[node.id] = 0.0
            elif node.is_and:
                value = 1.0
                for child in node.children:
                    value *= values[child.id]
                values[node.id] = value
            else:
                values[node.id] = sum(values[c.id]
                                      for c in node.children)
        return values

    def derivatives(self, weights: Mapping[int, float]
                    ) -> Dict[int, float]:
        """∂(WMC)/∂W(ℓ) for every literal ℓ over ``variables``.

        For a literal ℓ this equals the weighted count of models
        containing ℓ divided by W(ℓ) — i.e. the weighted count of
        models containing ℓ when its own weight is factored out.
        """
        values = self._upward(weights)
        free_factor = 1.0
        for var in self.free_vars:
            free_factor *= weights[var] + weights[-var]
        derivative: Dict[int, float] = {n.id: 0.0 for n in self._order}
        derivative[self.root.id] = free_factor
        for node in reversed(self._order):
            d = derivative[node.id]
            if d == 0.0 or node.is_literal or node.is_true or node.is_false:
                continue
            if node.is_or:
                for child in node.children:
                    derivative[child.id] += d
            else:
                # ∂/∂child = d · Π siblings, via linear prefix/suffix
                # products instead of the O(k²) per-child re-multiply
                kids = node.children
                k = len(kids)
                prefixes = [1.0] * k
                running = 1.0
                for i in range(k):
                    prefixes[i] = running
                    running *= values[kids[i].id]
                suffix = 1.0
                for i in range(k - 1, -1, -1):
                    derivative[kids[i].id] += d * prefixes[i] * suffix
                    suffix *= values[kids[i].id]
        result: Dict[int, float] = {}
        for node in self._order:
            if node.is_literal:
                result[node.literal] = result.get(node.literal, 0.0) + \
                    derivative[node.id]
        # free variables: every model extends with either literal; the
        # partial product over the *other* free variables comes from the
        # same linear prefix/suffix scheme
        root_value = values[self.root.id]
        k = len(self.free_vars)
        prefixes = [1.0] * k
        running = 1.0
        for i, var in enumerate(self.free_vars):
            prefixes[i] = running
            running *= weights[var] + weights[-var]
        suffix = 1.0
        for i in range(k - 1, -1, -1):
            var = self.free_vars[i]
            other = prefixes[i] * suffix
            result[var] = root_value * other
            result[-var] = root_value * other
            suffix *= weights[var] + weights[-var]
        # mentioned variables may still miss a polarity (never appears)
        for var in self.variables:
            result.setdefault(var, 0.0)
            result.setdefault(-var, 0.0)
        return result

    def literal_marginals(self, weights: Mapping[int, float]
                          ) -> Dict[int, float]:
        """Weighted count of models containing each literal:
        W(ℓ) · ∂WMC/∂W(ℓ)."""
        derivs = self.derivatives(weights)
        return {lit: weights[lit] * d for lit, d in derivs.items()}

    # -- batched passes ------------------------------------------------------
    def _weight_batch(self, weights):
        """literal → length-N array mapping from either representation."""
        if isinstance(weights, Mapping):
            return weights
        return pack_weight_batch(list(weights), self.variables)

    def _free_factor_batch(self, batch):
        factor = None
        for var in self.free_vars:
            term = batch[var] + batch[-var]
            factor = term if factor is None else factor * term
        return factor

    def evaluate_batch(self, weights):
        """Weighted model counts of N weight vectors in one numpy pass.

        ``weights`` is a sequence of N literal→weight maps or a packed
        literal → length-N array mapping over ``self.variables``;
        column ``j`` of the result equals ``evaluate`` of vector ``j``.
        """
        return get_kernel(self.root).wmc_batch(
            self._weight_batch(weights), scope=self.variables)

    def evaluate_log_batch(self, weights):
        """Log-space :meth:`evaluate_batch`: same linear weights in,
        length-N array of **log** WMCs out (zero weights → ``-inf``)."""
        import numpy as np
        batch = self._weight_batch(weights)
        with np.errstate(divide="ignore"):
            log_batch = {lit: np.log(np.asarray(col, dtype=float))
                         for lit, col in batch.items()}
        return get_kernel(self.root).wmc_log_batch(log_batch,
                                                   scope=self.variables)

    def derivatives_batch(self, weights) -> Dict[int, "object"]:
        """Batched :meth:`derivatives`: literal → length-N array of
        ∂WMC/∂W(ℓ), from one upward + one downward kernel pass."""
        import numpy as np
        batch = self._weight_batch(weights)
        kernel = get_kernel(self.root)
        values, node_derivs = kernel.derivatives_batch(batch)
        free = self._free_factor_batch(batch)
        if free is not None:
            # d(root)/d(node) scales by the free-variable factor
            node_derivs = [d * free for d in node_derivs]
        n = kernel._batch_size(batch)
        zeros = np.zeros(n)
        result: Dict[int, object] = {}
        for i in range(kernel.n):
            if kernel.kinds[i] == KIND_LIT:
                lit = kernel.lits[i]
                result[lit] = result.get(lit, zeros) + node_derivs[i]
        root_value = values[kernel.n - 1] if kernel.n else zeros
        k = len(self.free_vars)
        prefixes = [None] * k
        running = np.ones(n)
        for i, var in enumerate(self.free_vars):
            prefixes[i] = running
            running = running * (batch[var] + batch[-var])
        suffix = np.ones(n)
        for i in range(k - 1, -1, -1):
            var = self.free_vars[i]
            other = root_value * prefixes[i] * suffix
            result[var] = other
            result[-var] = other.copy()
            suffix = suffix * (batch[var] + batch[-var])
        for var in self.variables:
            result.setdefault(var, zeros)
            result.setdefault(-var, zeros)
        return result

    def literal_marginals_batch(self, weights) -> Dict[int, "object"]:
        """Batched :meth:`literal_marginals`: literal → length-N array
        of weighted counts of models containing the literal."""
        batch = self._weight_batch(weights)
        derivs = self.derivatives_batch(batch)
        return {lit: batch[lit] * d for lit, d in derivs.items()}
