"""Weighted model counting by enumeration, for circuits of a few
variables.

:class:`repro.wmc.arithmetic_circuit.ArithmeticCircuit` answers its
weighted count and its derivatives on the IR kernel; the suites check
it against these sums over every assignment of the listed variables.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Mapping, Sequence

from repro.nnf.node import NnfNode

__all__ = ["models", "wmc", "derivatives"]


def models(root: NnfNode, variables: Sequence[int]) -> List[List[int]]:
    """The models of ``root`` over ``variables``, each as its literals
    (``variables`` must include every variable the circuit mentions)."""
    variables = list(variables)
    found = []
    for bits in itertools.product((False, True), repeat=len(variables)):
        if root.evaluate(dict(zip(variables, bits))):
            found.append([v if bit else -v
                          for v, bit in zip(variables, bits)])
    return found


def wmc(found: List[List[int]], weights: Mapping[int, float]) -> float:
    """Σ over the models of the product of their literals' weights."""
    return sum(math.prod(weights[lit] for lit in model) for model in found)


def derivatives(found: List[List[int]], variables: Sequence[int],
                weights: Mapping[int, float]) -> Dict[int, float]:
    """∂WMC/∂W(ℓ) for both literals of every variable: Σ over the
    models holding ℓ of the product of their other literals' weights."""
    result = {lit: 0.0 for v in variables for lit in (v, -v)}
    for model in found:
        for lit in model:
            result[lit] += math.prod(weights[other] for other in model
                                     if other != lit)
    return result
