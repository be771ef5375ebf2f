"""SAT solving and exact model counting.

:mod:`repro.sat.search` holds the one exhaustive component search;
:class:`ModelCounter` reads it as a model count, and the Decision-DNNF
compiler (:mod:`repro.compile`) and the anytime bounds
(:mod:`repro.limits.anytime`) read it as a circuit and as certified
intervals.
"""

from .dpll import enumerate_models, is_satisfiable, solve, unit_propagate
from .propagation import WatchedSolver, propagate_watched
from .counter import ModelCounter, count_models

__all__ = ["enumerate_models", "is_satisfiable", "solve",
           "unit_propagate", "WatchedSolver", "propagate_watched",
           "ModelCounter", "count_models"]
