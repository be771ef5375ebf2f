"""SAT solving and exact model counting.

:mod:`repro.sat.search` holds the one exhaustive component search;
:class:`ModelCounter` reads it as a model count, and the Decision-DNNF
compiler (:mod:`repro.compile`) and the anytime bounds
(:mod:`repro.limits.anytime`) read it as a circuit and as certified
intervals.

The seed baselines (``solve_legacy``, ``unit_propagate_legacy``) are
deliberately *not* re-exported here: they are test oracles, which tests
and benchmarks import from :mod:`repro.sat.dpll`, and production code
imports no ``*_legacy`` name at module level (enforced by
``tools/lint_invariants.py``).
"""

from .dpll import enumerate_models, is_satisfiable, solve, unit_propagate
from .propagation import WatchedSolver, propagate_watched
from .counter import ModelCounter, count_models

__all__ = ["enumerate_models", "is_satisfiable", "solve",
           "unit_propagate", "WatchedSolver", "propagate_watched",
           "ModelCounter", "count_models"]
